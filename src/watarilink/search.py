"""The search contract both exact solvers share: statuses, node budget,
result, neighbor order, and one driver that runs a search on an explicit
stack.

A search is a tree of frames.  A frame is a generator: it applies a move,
yields the child frame that searches on from there, and undoes the move
when it is resumed.  It yields `FOUND` when the search is complete, which
leaves every move on the way there applied.  Depth therefore costs list
slots, not Python call-stack frames.

Both solvers search on flat cell indices i = y*width + x: `steps` gives
each index its neighbor indices, occupancy and region ids are flat arrays,
and paths are kept as indices, turned back into (x, y) cells only when
`run` reads the solution.  The guarantee is node for node: each solver
makes every move and every cut at the same node as a plain search over
(x, y) tuple cells, so status, solution and node count all equal that
search's.  The test suite keeps such searches as references and compares.
"""

from __future__ import annotations

from typing import (Any, Callable, Iterator, List, NamedTuple, Optional,
                    Sequence)

SOLVED = "solved"
UNSAT = "unsat"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10_000_000

FOUND = object()


class SolveResult(NamedTuple):
    status: str
    solution: Any = None
    nodes: int = 0


def steps(width: int, height: int,
          ids: Optional[Sequence[Any]] = None) -> List[list]:
    """The in-bounds neighbors of every cell index i = y*width + x, in the
    order both searches try them: up, down, left, right.  Given per-cell
    `ids`, each neighbor j is listed as the pair (j, ids[j])."""
    n = width * height
    right = width - 1
    tag = (lambda j: j) if ids is None else (lambda j: (j, ids[j]))
    rows = []
    for i in range(n):
        x = i % width
        row = []
        if i + width < n:
            row.append(tag(i + width))
        if i >= width:
            row.append(tag(i - width))
        if x:
            row.append(tag(i - 1))
        if x < right:
            row.append(tag(i + 1))
        rows.append(row)
    return rows


class OutOfBudget(Exception):
    """Raised by a search at the node after the last one its budget
    allows."""


def node_limit(budget: int) -> int:
    """The node budget a search may spend; a negative one is refused."""
    if budget < 0:
        raise ValueError(f"node budget must be non-negative, got {budget}")
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
