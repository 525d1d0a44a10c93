"""The search contract both exact solvers share: statuses, node budget,
result, neighbor order, and one driver that runs a search on an explicit
stack.

A search is a tree of frames.  A frame is a generator: it applies a move,
yields the child frame that searches on from there, and undoes the move
when it is resumed.  It yields `FOUND` when the search is complete, which
leaves every move on the way there applied.  Depth therefore costs list
slots, not Python call-stack frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Tuple

from .errors import Cell

SOLVED = "solved"
UNSAT = "unsat"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10_000_000

FOUND = object()


@dataclass(frozen=True)
class SolveResult:
    status: str
    solution: Any = None
    nodes: int = 0


def steps(width: int, height: int) -> Dict[Cell, Tuple[Cell, ...]]:
    """The in-bounds neighbors of every cell, in the order both searches
    try them: up, down, left, right."""
    return {(x, y): tuple((nx, ny) for nx, ny in ((x, y + 1), (x, y - 1),
                                                  (x - 1, y), (x + 1, y))
                          if 0 <= nx < width and 0 <= ny < height)
            for y in range(height) for x in range(width)}


class _OutOfBudget(Exception):
    pass


class Budget:
    """Counts search nodes; the node after the last allowed one raises."""

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int):
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
