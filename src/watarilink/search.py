"""The search contract both exact solvers share: statuses, node budget,
result, neighbor orders, and one driver that runs a search on an explicit
stack.

A search is a tree of frames.  A frame is a generator: it applies a move,
yields the child frame that searches on from there, and undoes the move
when it is resumed.  It yields `FOUND` when the search is complete, which
leaves every move on the way there applied.  Depth therefore costs list
slots, not Python call-stack frames.

Both solvers search on flat cell indices i = y*width + x: a path grows
by the offsets `toward` lists for its head and goal, `steps` gives each
index its neighbor indices for the floods and touch checks, occupancy
and region ids are flat arrays, and paths are kept as indices, turned
back into (x, y) cells through `cell_table` only when `run` reads the
solution.  The guarantee is node for node: each solver makes every move
and every cut at the same node as a plain search over (x, y) tuple cells,
so status, solution and node count all equal that search's.  The test
suite keeps such searches as references and compares.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

from .documents import _is_int, _shown

SOLVED = "solved"
UNSAT = "unsat"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10_000_000

FOUND = object()


class SolveResult(NamedTuple):
    status: str
    solution: Any = None
    nodes: int = 0


@lru_cache(maxsize=8)
def steps(width: int, height: int) -> Tuple[Tuple[int, ...], ...]:
    """The in-bounds neighbors of every cell index i = y*width + x, in a
    fixed order: up, down, left, right.  Built on first use per shape;
    the eight shapes used last stay cached."""
    n = width * height
    right = width - 1
    rows = []
    for i in range(n):
        x = i % width
        row = []
        if i + width < n:
            row.append(i + width)
        if i >= width:
            row.append(i - width)
        if x:
            row.append(i - 1)
        if x < right:
            row.append(i + 1)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=8)
def cell_table(width: int, height: int) -> Tuple[Tuple[int, int], ...]:
    """The (x, y) cell of every cell index i = y*width + x, by which a
    solver reads its paths back.  Cached per shape as `steps` is."""
    return tuple([(x, y) for y in range(height) for x in range(width)])


@lru_cache(maxsize=64)
def toward(width: int) -> Tuple[Tuple[int, ...], ...]:
    """The steps out of a cell on a grid `width` wide, as flat-index
    offsets, those towards a goal first.

    Entry `36*edge_y + 9*edge_x + 3*sign(dy) + sign(dx) + 4` serves a cell
    (x, y) and a goal (x + dx, y + dy).  `edge_x` is 1 on column 0, 2 on
    the last column and 3 when both hold; `edge_y` is the same for rows.
    The entry lists every step that stays on the grid: first those that
    bring the goal closer, then the rest, each part in the order of
    `steps`.  Both searches try a path's next cell in this order; every
    step is still tried, so the order changes which solution is found
    first and never whether one is."""
    table = []
    for edge_y, edge_x, sign_y, sign_x in product(range(4), range(4),
                                                  (-1, 0, 1), (-1, 0, 1)):
        near, far = [], []
        for offset, dy, dx, edge in ((width, 1, 0, edge_y & 2),
                                     (-width, -1, 0, edge_y & 1),
                                     (-1, 0, -1, edge_x & 1),
                                     (1, 0, 1, edge_x & 2)):
            if not edge:
                (near if dx * sign_x + dy * sign_y > 0 else far).append(offset)
        table.append(tuple(near + far))
    return tuple(table)


def toward_keys(width: int, height: int, gx: int, gy: int,
                lines: Dict[int, List[int]]) -> Tuple[List[int], List[int]]:
    """Lists `cols, rows` such that `cols[x] + rows[y]` is the `toward`
    key of a cell (x, y) on a width x height grid for the goal (gx, gy):
    `cols[x]` is `9*edge_x + sign(gx - x) + 4` and `rows[y]` is
    `36*edge_y + 3*sign(gy - y)`.  A search builds them once per goal, so
    a frame reads its key with two lookups, and keeps the lists it built
    in `lines` (`cols` at `gx`, `rows` at `~gy`), so goals in one column
    or one row share them."""
    cols = lines.get(gx)
    if cols is None:
        cols = lines[gx] = [5] * gx + [4] + [3] * (width - 1 - gx)
        cols[0] += 9
        cols[-1] += 18
    rows = lines.get(~gy)
    if rows is None:
        rows = lines[~gy] = [3] * gy + [0] + [-3] * (height - 1 - gy)
        rows[0] += 36
        rows[-1] += 72
    return cols, rows


class OutOfBudget(Exception):
    """Raised by a search at the node after the last one its budget
    allows."""


def node_limit(budget: int) -> int:
    """The node budget a search may spend; one that is negative or not an
    integer under `documents._is_int`'s rule is refused."""
    if not _is_int(budget) or budget < 0:
        raise ValueError("node budget must be a non-negative integer, got "
                         f"{_shown(budget)}")
    return budget


def run(root: Iterator, nodes: Callable[[], int],
        solution: Callable[[], Any]) -> SolveResult:
    """Drive the frames from `root` depth-first; on `FOUND`, read the
    solution off the applied moves.  The frames count their own nodes and
    raise `OutOfBudget` at the first one over budget; `nodes()` reads the
    count when the search ends."""
    stack = [root]
    push, pop = stack.append, stack.pop
    frame = root
    try:
        while True:
            child = next(frame, None)
            if child is None:
                pop()
                if not stack:
                    return SolveResult(UNSAT, nodes=nodes())
                frame = stack[-1]
            elif child is FOUND:
                return SolveResult(SOLVED, solution(), nodes())
            else:
                push(child)
                frame = child
    except OutOfBudget:
        return SolveResult(BUDGET_EXCEEDED, nodes=nodes())
