"""Carry solutions across the reduction, in both directions.

`lift` turns a verified Numberlink solution into a Wataridori solution of
the reduced instance: each source path becomes one long path between the
two matching center circles, accumulating exactly the required number of
region runs via zig-zags in the endpoint blocks, plus one two-cell path
per filler pair.  `unlift` inverts this for any verified solution of the
reduced instance by collapsing each center-to-center path to the sequence
of blocks it traverses.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import ValidationError
from .grid import Cell, Path
from .numberlink import (NumberlinkInstance, NumberlinkSolution,
                         normalize_solution, validate_instance,
                         verify_solution)
from .reduction import ReductionMap, _rot_cell
from .wataridori import WataridoriSolution

EAST = "east"
NORTH = "north"
WEST = "west"
SOUTH = "south"

_ARMS = (EAST, NORTH, WEST, SOUTH)
_STEP_ARMS = {(1, 0): EAST, (0, 1): NORTH, (-1, 0): WEST, (0, -1): SOUTH}


class ArmRoute(NamedTuple):
    """Block-local path from the center circle to one arm's entry cell."""

    arm: str
    zigzags: int
    cells: Path


def zigzag_split(rank: int, k: int) -> Tuple[int, int]:
    """Split the rank - 1 zig-zags a path of the label ranked `rank`
    needs across its two endpoint blocks, loading the first block as
    heavily as possible."""
    if not 1 <= rank <= 2 * k + 1:
        raise ValidationError("BAD_LABEL",
                              f"label rank {rank} outside 1..{2 * k + 1}")
    za = min(rank - 1, k)
    return za, rank - 1 - za


def route_arm(k: int, arm: str, zigzags: int) -> ArmRoute:
    """Deterministic center-to-entry route with `zigzags` dips.

    The east template runs along the corridor row, dipping into the flank
    row at the lowest-index ladder columns; the other arms are its
    rotations.  Each dip adds two region runs, so the route crosses
    2k + 2*zigzags + 1 regions before the entry cell's corridor region.
    """
    if arm not in _ARMS:
        raise ValidationError("BAD_ARM", f"unknown arm {arm!r}")
    if not 0 <= zigzags <= k:
        raise ValidationError("BAD_ZIGZAG_COUNT",
                              f"zig-zag count {zigzags} outside 0..{k}")
    s = 4 * k + 5
    c = 2 * k + 2
    cells: List[Cell] = [(c, c), (c + 1, c)]
    x = c + 2
    for _ in range(zigzags):
        cells += [(x, c), (x, c - 1), (x + 1, c - 1), (x + 1, c)]
        x += 2
    while x <= s - 2:
        cells.append((x, c))
        x += 1
    cells.append((s - 1, c))
    for _ in range(_ARMS.index(arm)):
        cells = [_rot_cell(cell, s) for cell in cells]
    return ArmRoute(arm=arm, zigzags=zigzags, cells=tuple(cells))


def _direction(frm: Cell, to: Cell) -> str:
    """The arm from `frm` towards `to`, a neighbor on a verified path."""
    return _STEP_ARMS[to[0] - frm[0], to[1] - frm[1]]


def _offset(cells: Sequence[Cell], ox: int, oy: int) -> List[Cell]:
    return [(x + ox, y + oy) for x, y in cells]


def lift(g: NumberlinkInstance, sol: NumberlinkSolution,
         rmap: ReductionMap) -> WataridoriSolution:
    """Map a verified source solution onto the reduced instance."""
    if validate_instance(g) != rmap.source:
        raise ValidationError("MAP_MISMATCH",
                              "the map was made from another source instance")
    verdict = verify_solution(g, sol)
    if not verdict:
        raise ValidationError("LIFT_PRECONDITION",
                              f"source solution does not verify: {verdict}")
    k, s = rmap.k, rmap.block_size
    rank = {label: i for i, (label, _) in
            enumerate(rmap.number_assignment, 1)}
    # An empty block is crossed from one arm's entry cell to the center
    # and out along another arm, on the straight routes.
    straight = {arm: route_arm(k, arm, 0).cells for arm in _ARMS}
    paths: List[Path] = []
    for label, gpath in sorted(sol.paths, key=lambda lp: rank[lp[0]]):
        za, zb = zigzag_split(rank[label], k)
        first_arm = _direction(gpath[0], gpath[1])
        last_arm = _direction(gpath[-1], gpath[-2])
        cells: List[Cell] = []
        cells += _offset(route_arm(k, first_arm, za).cells,
                         s * gpath[0][0], s * gpath[0][1])
        for j in range(1, len(gpath) - 1):
            enter = straight[_direction(gpath[j], gpath[j - 1])]
            exit_ = straight[_direction(gpath[j], gpath[j + 1])]
            cells += _offset(enter[::-1] + exit_[1:],
                             s * gpath[j][0], s * gpath[j][1])
        cells += _offset(reversed(route_arm(k, last_arm, zb).cells),
                         s * gpath[-1][0], s * gpath[-1][1])
        paths.append(tuple(cells))
    return WataridoriSolution(tuple(paths) + rmap.filler_pairs)


def unlift(sol: WataridoriSolution, rmap: ReductionMap) -> NumberlinkSolution:
    """Collapse a verified solution of the reduced instance back to the
    source grid.

    Center-to-center paths are identified by their endpoints; each one is
    compressed to its per-block sequence, which must visit every block in
    a single maximal run and start/end at the matching terminal blocks.
    The result is verified against the source instance before returning.
    """
    g = rmap.source
    s = rmap.block_size
    c = 2 * rmap.k + 2
    center_label: Dict[Cell, int] = {
        (s * x + c, s * y + c): label
        for label, a, b in g.terminals for x, y in (a, b)}

    recovered: Dict[int, Path] = {}
    for path in sol.paths:
        try:
            first, last = path[0], path[-1]
        except (TypeError, LookupError):
            raise ValidationError("UNLIFT_BAD_MAIN", "a path must be a "
                                  "non-empty sequence of cells")
        try:
            a_label = center_label.get(first)
            b_label = center_label.get(last)
        except TypeError:
            # A list cell is read as the equal tuple, as the verifiers
            # read it; no other unhashable cell is a center.
            a_label, b_label = [center_label.get(tuple(cell))
                                if isinstance(cell, list) else None
                                for cell in (first, last)]
        if a_label is None and b_label is None:
            continue  # filler path
        if a_label is None or b_label is None or a_label != b_label:
            raise ValidationError("UNLIFT_BAD_MAIN",
                                  "a main path must join the two centers "
                                  "of one label")
        label = a_label
        if label in recovered:
            raise ValidationError("UNLIFT_BAD_MAIN",
                                  f"two main paths for label {label}")
        blocks: List[Cell] = []
        try:
            for x, y in path:
                here = (x // s, y // s)
                if not blocks or blocks[-1] != here:
                    blocks.append(here)
        except (TypeError, ValueError):
            raise ValidationError("UNLIFT_BAD_MAIN",
                                  f"main path for label {label} has a cell "
                                  "that is not (x, y)")
        if len(set(blocks)) != len(blocks):
            raise ValidationError("UNLIFT_BLOCK_REVISITED",
                                  f"main path for label {label} re-enters "
                                  f"a block")
        recovered[label] = tuple(blocks)

    expected = {label for label, _, _ in g.terminals}
    if set(recovered) != expected:
        missing = sorted(expected - set(recovered))
        raise ValidationError("UNLIFT_BAD_MAIN",
                              f"missing main paths for labels {missing}")
    result = normalize_solution(NumberlinkSolution(tuple(recovered.items())))
    verdict = verify_solution(g, result)
    if not verdict:
        raise ValidationError("UNLIFT_RESULT_INVALID",
                              f"recovered solution does not verify: "
                              f"{verdict}")
    return result
