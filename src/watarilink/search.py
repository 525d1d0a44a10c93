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

from typing import Any, Callable, Iterator, NamedTuple, Tuple

SOLVED = "solved"
UNSAT = "unsat"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10_000_000

FOUND = object()


class SolveResult(NamedTuple):
    status: str
    solution: Any = None
    nodes: int = 0


def steps(width: int, height: int) -> Tuple[Tuple[int, ...], ...]:
    """The in-bounds neighbors of every cell index i = y*width + x, in the
    order both searches try them: up, down, left, right."""
    n = width * height
    return tuple(tuple(j for j, inside in ((i + width, i + width < n),
                                           (i - width, i >= width),
                                           (i - 1, i % width > 0),
                                           (i + 1, i % width < width - 1))
                       if inside)
                 for i in range(n))


class _OutOfBudget(Exception):
    pass


class Budget:
    """Counts search nodes; the node after the last allowed one raises."""

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"node budget must be non-negative, got {limit}")
        self.limit = limit
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _OutOfBudget


def run(root: Iterator, budget: Budget,
        solution: Callable[[], Any]) -> SolveResult:
    """Drive the frames from `root` depth-first; on `FOUND`, read the
    solution off the applied moves."""
    stack = [root]
    push, pop = stack.append, stack.pop
    frame = root
    try:
        while True:
            child = next(frame, None)
            if child is None:
                pop()
                if not stack:
                    return SolveResult(UNSAT, nodes=budget.nodes)
                frame = stack[-1]
            elif child is FOUND:
                return SolveResult(SOLVED, solution(), budget.nodes)
            else:
                push(child)
                frame = child
    except _OutOfBudget:
        return SolveResult(BUDGET_EXCEEDED, nodes=budget.nodes)
