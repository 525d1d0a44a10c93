"""Grid geometry: cells, wall segments, region maps, and path predicates.

Coordinates are (x, y) with x growing rightward and y growing upward, so the
bottom-left cell of a grid is (0, 0).  All values are immutable.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, repeat
from operator import eq, ne
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import documents
from .errors import Cell, ParseError, ValidationError

Path = Tuple[Cell, ...]

# The cell types a path may hold: a tuple is taken as it is, and a list
# or a subclass of either is read as the equal tuple.
_TUPLE = {tuple}
_PAIR = (tuple, list)

HORIZONTAL = "h"
VERTICAL = "v"

# The most cells a grid may have: parsing, validation, solving, region
# maps from walls and the reduction's target are checked against it before
# anything is allocated for a grid.
# It admits a 300x300 target; each command's `--max-cells` raises it.
MAX_CELLS = 250_000


def check_size(width: int, height: int,
               location: Optional[str] = None) -> None:
    """Refuse an empty grid with a `BAD_DIMENSIONS` error and one of more
    than `MAX_CELLS` cells with a `TOO_LARGE` error, a `ParseError` at
    `location` if one is given."""
    if width < 1 or height < 1:
        code = "BAD_DIMENSIONS"
        message = f"grid must be non-empty, got {width}x{height}"
    elif width * height > MAX_CELLS:
        code = "TOO_LARGE"
        message = f"a {width}x{height} grid has more than {MAX_CELLS} cells"
    else:
        return
    if location:
        raise ParseError(code, message, location)
    raise ValidationError(code, message)


class Wall(NamedTuple):
    """Unit wall segment on the grid-line lattice.

    A horizontal wall at (x, y) runs from lattice point (x, y) to (x+1, y)
    and separates cell (x, y-1) from (x, y).  A vertical wall at (x, y) runs
    from (x, y) to (x, y+1) and separates cell (x-1, y) from (x, y).
    """

    kind: str
    x: int
    y: int


def is_simple_orthogonal_path(cells: Sequence[Cell], width: int,
                              height: int) -> bool:
    """True iff `cells` is an in-bounds simple path of unit orthogonal steps."""
    return _check_paths((cells,), width, height)[1] is None


def _check_paths(paths: Sequence[Sequence[Cell]], width: int, height: int
                 ) -> Tuple[Sequence[Sequence[Cell]], Optional[int],
                            Optional[Tuple[int, Cell]]]:
    """The path checks both verifiers make, as (paths, bad, shared).  `bad`
    is the index of the first path that is not an in-bounds simple path of
    unit orthogonal steps between integer cells, or None, and when it is
    None, `shared` is `first_shared_cell(paths)`.  A coordinate is an
    integer under `documents._is_int`'s rule, so a bool is not one, and a
    cell that is not a pair, a cell that is neither a tuple nor a list
    (nor a subclass of one), or a path that is not a sequence, makes its
    path the bad one.  Other cells are judged as the equal tuple cells:
    when the paths before `bad` hold a cell that is not a tuple, they come
    back with tuple cells, and `first_cell` names the bad path's first
    cell as a tuple."""
    bad = None
    for idx, path in enumerate(paths):
        # The type test comes first, so the compares below see only ints.
        try:
            if len(path) >= 2:
                px, py = path[0]
                for x, y in path:
                    if not (type(x) is int is type(y)
                            or documents._is_int(x)
                            and documents._is_int(y)) \
                            or not (0 <= x < width and 0 <= y < height) \
                            or abs(x - px) + abs(y - py) > 1:
                        break
                    px, py = x, y
                else:
                    continue
        except (TypeError, ValueError, LookupError):
            pass
        bad = idx
        break
    good = paths[:bad]
    cells = list(chain.from_iterable(good))
    if not set(map(type, cells)) <= _TUPLE:
        # A cell that unpacked to two ints but is neither a tuple nor a
        # list, such as a frozenset or a dict, does not hash as the equal
        # tuple, if at all, so the first path holding one is the bad one;
        # the cells before it are judged as the equal tuples.
        bad = next((idx for idx, path in enumerate(good)
                    if not all(map(isinstance, path, repeat(_PAIR)))), bad)
        good = [tuple(map(tuple, path)) for path in paths[:bad]]
        paths = good + list(paths[len(good):])
        cells = list(chain.from_iterable(good))
    # Cells are hashed only once bounds, steps and types hold; a zero step
    # repeats a cell.  One set over the paths before `bad` settles both
    # that no path repeats a cell and that the paths are disjoint, so the
    # paths are searched one by one only when a cell repeats.
    if len(set(cells)) == len(cells):
        return paths, bad, None
    bad = next((idx for idx, path in enumerate(good)
                if len(set(path)) != len(path)), bad)
    return paths, bad, None if bad is not None else first_shared_cell(paths)


def first_cell(path: Any) -> Optional[Cell]:
    """The cell a `BAD_PATH` verdict names: the path's first cell as a
    tuple when it is a pair, a tuple or list of two values, else None."""
    try:
        cell = path[0]
    except (TypeError, LookupError):
        return None
    if isinstance(cell, (tuple, list)) and len(cell) == 2:
        return tuple(cell)
    return None


def first_shared_cell(paths: Sequence[Sequence[Cell]]
                      ) -> Optional[Tuple[int, Cell]]:
    """The first cell found on two of `paths`, as (index of the later
    path, cell), or None when the paths are pairwise disjoint."""
    owner: Dict[Cell, int] = {}
    for idx, path in enumerate(paths):
        for cell in path:
            if owner.setdefault(cell, idx) != idx:
                return idx, cell
    return None


class RegionMap(NamedTuple):
    """Partition of a grid into orthogonally connected regions.

    ids[y][x] is the region of cell (x, y).  Ids are dense (0..count-1) and
    canonical: assigned in scan order, top row first, of each region's
    first-seen cell.
    """

    width: int
    height: int
    ids: Tuple[Tuple[int, ...], ...]
    region_count: int

    def id_at(self, cell: Cell) -> int:
        x, y = cell
        return self.ids[y][x]


def _check_wall(wall: Wall, width: int, height: int) -> None:
    try:
        kind, x, y = wall
    except (TypeError, ValueError):
        x = y = None
    if not (documents._is_int(x) and documents._is_int(y)):
        raise ValidationError("BAD_WALL", f"wall {documents._shown(wall)} "
                              "is not (kind, x, y) with integer x and y")
    if kind == HORIZONTAL:
        if 0 <= x < width and 0 <= y <= height:
            return
    elif kind == VERTICAL:
        if 0 <= x <= width and 0 <= y < height:
            return
    else:
        raise ValidationError("BAD_WALL", f"unknown wall kind {kind!r}")
    raise ValidationError("BAD_WALL",
                          f"wall {wall} off the {width}x{height} lattice")


def regions_from_walls(walls: Iterable[Wall], width: int,
                       height: int) -> RegionMap:
    """Flood-fill the grid into regions separated by `walls`.

    The outer boundary is implicitly walled.  Two orthogonally adjacent
    cells share a region iff no wall separates them.
    """
    check_size(width, height)
    # The cells with a wall along their bottom edge and their left edge.
    below = set()
    left = set()
    for wall in walls:
        _check_wall(wall, width, height)
        kind, x, y = wall
        (below if kind == HORIZONTAL else left).add((x, y))
    ids = [[-1] * width for _ in range(height)]
    count = 0
    # Scan the top row first so first-seen order matches the canonical rule.
    for sy in range(height - 1, -1, -1):
        for sx in range(width):
            if ids[sy][sx] >= 0:
                continue
            ids[sy][sx] = count
            stack = [(sx, sy)]
            while stack:
                x, y = cell = stack.pop()
                row = ids[y]
                if x + 1 < width and row[x + 1] < 0 \
                        and (x + 1, y) not in left:
                    row[x + 1] = count
                    stack.append((x + 1, y))
                if x > 0 and row[x - 1] < 0 and cell not in left:
                    row[x - 1] = count
                    stack.append((x - 1, y))
                if y + 1 < height and ids[y + 1][x] < 0 \
                        and (x, y + 1) not in below:
                    ids[y + 1][x] = count
                    stack.append((x, y + 1))
                if y > 0 and ids[y - 1][x] < 0 and cell not in below:
                    ids[y - 1][x] = count
                    stack.append((x, y - 1))
            count += 1
    return RegionMap(width=width, height=height, ids=tuple(map(tuple, ids)),
                     region_count=count)


def region_map_from_rows(rows: Sequence[Sequence[int]]) -> RegionMap:
    """Build a RegionMap from per-cell ids (bottom row first).

    Input ids must be dense and every region orthogonally connected; they are
    relabeled into canonical scan order.

    The ids are checked, not flooded.  A run is a maximal segment of one id
    within a row.  Two runs of one id in adjacent rows that overlap touch
    along their whole overlap, and the overlap's first column is the start
    of one of them, so vertical contacts read at run starts alone find
    every touching pair.  Each id is connected iff the runs joined by those
    contacts form as many groups as there are ids: runs - merges == count.
    """
    height = len(rows)
    if height < 1 or any(len(r) < 1 for r in rows):
        raise ValidationError("BAD_DIMENSIONS", "empty region rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("RAGGED_ROWS",
                              "region rows have differing lengths")
    # Top row first, the canonical scan order; flat[i + width] is the cell
    # below flat[i].
    flat = list(chain.from_iterable(reversed(rows)))
    n = len(flat)
    starts = bytearray(map(ne, flat, chain((None,), flat)))
    starts[::width] = b"\x01" * height
    # An id is first seen at a run start, so these are its ids in order.
    order = dict.fromkeys(compress(flat, starts))
    count = len(order)
    if order.keys() != set(range(count)):
        raise ValidationError("IDS_NOT_DENSE",
                              f"region ids must be 0..{count - 1}")
    # Vertical contacts of equal ids where either cell starts its run, as
    # one AND of little-endian byte masks.
    at_start = int.from_bytes(starts, "little")
    contacts = (int.from_bytes(bytes(map(eq, flat, flat[width:])), "little")
                & (at_start | at_start >> 8 * width)).to_bytes(n - width,
                                                                "little")
    # run[i] numbers the run of cell i from 1; union the runs that touch.
    run = list(accumulate(starts))
    runs = run[-1]
    parent = list(range(runs + 1))
    merges = 0
    # Contacts come row pair by row pair, left to right, and the lower run
    # b is a root when it is read: lower runs enter their row pair as
    # roots, and one stops being a root only when, as the root of an upper
    # run, it is united with a different lower run, which lies wholly to
    # its right, so no later contact of the row pair reaches it.
    for a, b in zip(compress(run, contacts), compress(run[width:], contacts)):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        if a != b:
            parent[a] = b
            merges += 1
    if runs - merges != count:
        raise ValidationError("REGION_NOT_CONNECTED",
                              "some region id labels a disconnected set")
    # Ids that only equal ints, such as bools, are relabelled to ints.
    if list(order) == list(range(count)) and set(map(type, order)) <= {int}:
        ids = tuple(map(tuple, rows))
    else:
        relabel = dict(zip(order, range(count))).__getitem__
        ids = tuple(tuple(map(relabel, row)) for row in rows)
    return RegionMap(width=width, height=height, ids=ids,
                     region_count=count)


def region_runs(path: Sequence[Cell], rmap: RegionMap) -> List[int]:
    """Per-cell region ids along `path` with consecutive duplicates collapsed."""
    ids = rmap.ids
    width, height = rmap.width, rmap.height
    runs: List[int] = []
    last = None
    for cell in path:
        x, y = cell
        if not (0 <= x < width and 0 <= y < height):
            raise ValidationError("OUT_OF_BOUNDS",
                                  f"path cell {cell} outside region map")
        rid = ids[y][x]
        if rid != last:
            runs.append(rid)
            last = rid
    return runs
