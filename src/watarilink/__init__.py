"""Two grid path-pairing puzzles and the polynomial translation between them.

The package models Numberlink (pair up equal labels with disjoint paths)
and Wataridori (pair up circles with disjoint paths whose region-run
counts match the circled numbers), provides exact solvers and verifiers
for both, and implements a size-polynomial translation of any Numberlink
instance into an equivalent Wataridori instance together with solution
lifting in both directions.
"""

from .errors import ParseError, PuzzleError, ValidationError, Verdict
from .grid import (Cell, Path, RegionMap, Wall, is_simple_orthogonal_path,
                   region_runs, regions_from_walls)
from .lifting import lift, unlift
from .numberlink import NumberlinkInstance, NumberlinkSolution
from .reduction import ReductionMap, choose_k, reduce_instance
from .wataridori import Circle, WataridoriInstance, WataridoriSolution

__version__ = "0.1.0"

__all__ = [
    "Cell", "Circle", "NumberlinkInstance", "NumberlinkSolution",
    "ParseError", "Path", "PuzzleError", "ReductionMap", "RegionMap",
    "ValidationError", "Verdict", "Wall", "WataridoriInstance",
    "WataridoriSolution", "choose_k", "is_simple_orthogonal_path", "lift",
    "reduce_instance", "region_runs", "regions_from_walls", "unlift",
]
