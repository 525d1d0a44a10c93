"""Numberlink: model, validator, verifier, exact solver, serialization.

The default rule set is the non-covering variant: paths connect each label's
two terminals, pairwise cell-disjoint, and uncovered cells are allowed.
Full coverage can be demanded at verification time with a flag.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from . import documents as docs
from . import errors
from .errors import ParseError, ValidationError, Verdict, accept, reject
from .grid import _PAIR, Cell, Path, _check_paths, check_size, first_cell
# The statuses are read through this module as nl.SOLVED and so on.
from .search import (BUDGET_EXCEEDED, DEFAULT_BUDGET, FOUND, SOLVED, UNSAT,
                     OutOfBudget, SolveResult, cell_table, node_limit, run,
                     steps, toward, toward_keys)


class NumberlinkInstance(NamedTuple):
    width: int
    height: int
    # (label, first cell, second cell); one entry per label
    terminals: Tuple[Tuple[int, Cell, Cell], ...]

    @property
    def pair_count(self) -> int:
        return len(self.terminals)


class NumberlinkSolution(NamedTuple):
    paths: Tuple[Tuple[int, Path], ...]


def validate_instance(inst: NumberlinkInstance) -> NumberlinkInstance:
    """Check structure and return the normalized form of the instance.

    A terminal is a tuple or list (label, cell, cell) and a cell a tuple
    or list (x, y); the normalized form holds tuples.  Labels are kept as
    written; each pair's two cells are ordered by (y, x), so equal
    puzzles compare equal no matter which end of a pair was written
    first.  Sizes, labels and coordinates must be integers, as the
    parser's are.
    """
    if type(inst.width) is not int or type(inst.height) is not int:
        docs.check_ints((inst.width, inst.height), "a grid size")
    check_size(inst.width, inst.height)
    if not inst.terminals:
        raise ValidationError("NO_LABELS", "instance has no terminal pairs")
    seen_labels = set()
    seen_cells = set()
    normalized = []
    for terminal in inst.terminals:
        if not isinstance(terminal, _PAIR) or len(terminal) != 3:
            raise ValidationError("BAD_TERMINAL", "a terminal must be "
                                  "(label, cell, cell), got "
                                  f"{docs._shown(terminal)}")
        label, a, b = terminal
        if type(label) is not int:
            docs.check_ints((label,), "a label")
        if label in seen_labels:
            raise ValidationError("LABEL_MULTIPLICITY",
                                  f"label {label} appears more than twice")
        seen_labels.add(label)
        ends = []
        for value in (a, b):
            # A list cell is read as the equal tuple, as the verifiers
            # read a path's cells.
            cell = value
            if type(cell) is not tuple:
                cell = tuple(value) if isinstance(value, _PAIR) else ()
            if len(cell) != 2:
                raise ValidationError("NOT_A_CELL", "a terminal cell must "
                                      f"be (x, y), got {docs._shown(value)}")
            x, y = cell
            if type(x) is not int or type(y) is not int:
                docs.check_ints(cell, "a terminal coordinate")
            if not (0 <= x < inst.width and 0 <= y < inst.height):
                raise ValidationError("OUT_OF_BOUNDS",
                                      f"terminal {cell} outside grid")
            if cell in seen_cells:
                raise ValidationError("DUPLICATE_TERMINAL",
                                      f"cell {cell} holds two terminals")
            seen_cells.add(cell)
            ends.append(cell)
        a, b = ends
        if (b[1], b[0]) < (a[1], a[0]):
            a, b = b, a
        normalized.append((label, a, b))
    return NumberlinkInstance(inst.width, inst.height, tuple(normalized))


def verify_solution(inst: NumberlinkInstance, sol: NumberlinkSolution,
                    require_full_coverage: bool = False) -> Verdict:
    """Accept iff the solution satisfies every rule; name the first violation.

    Checks run in a fixed order: label matching, path structure, endpoints,
    cell-disjointness, terminals not crossed, then (optionally) coverage.
    """
    terminals = {label: (a, b) for label, a, b in inst.terminals}
    all_terminal_cells = {c for _, a, b in inst.terminals for c in (a, b)}

    seen_labels = set()
    for idx, entry in enumerate(sol.paths):
        try:
            label, _ = entry
        except (TypeError, ValueError):
            return reject(errors.BAD_PATH, path_index=idx,
                          detail="not a (label, path) pair")
        try:
            known = label in terminals
        except TypeError:  # an unhashable label
            known = False
        if not known:
            return reject(errors.UNKNOWN_LABEL, path_index=idx,
                          detail=f"no terminal pair labeled {label}")
        if label in seen_labels:
            return reject(errors.DUPLICATE_PATH_LABEL, path_index=idx,
                          detail=f"two paths labeled {label}")
        seen_labels.add(label)
    for label, (a, _) in terminals.items():
        if label not in seen_labels:
            return reject(errors.MISSING_PATH, cell=a,
                          detail=f"no path for label {label}")

    labels = [label for label, _ in sol.paths]
    paths, bad, shared = _check_paths([path for _, path in sol.paths],
                                      inst.width, inst.height)
    for idx, (label, path) in enumerate(zip(labels, paths[:bad])):
        a, b = terminals[label]
        if {path[0], path[-1]} != {a, b}:
            return reject(errors.ENDPOINT_MISMATCH, path_index=idx,
                          cell=path[0],
                          detail=f"endpoints do not match terminals of "
                                 f"label {label}")
    if bad is not None:
        return reject(errors.BAD_PATH, path_index=bad,
                      cell=first_cell(paths[bad]),
                      detail="not a simple orthogonal path")

    for idx, path in enumerate(paths):
        for cell in path[1:-1]:
            if cell in all_terminal_cells:
                return reject(errors.TERMINAL_CROSSED, path_index=idx,
                              cell=cell)

    if shared is not None:
        return reject(errors.CELL_SHARED, path_index=shared[0],
                      cell=shared[1])

    if require_full_coverage:
        covered = set(chain.from_iterable(paths))
        for y in range(inst.height - 1, -1, -1):
            for x in range(inst.width):
                if (x, y) not in covered:
                    return reject(errors.UNCOVERED_CELL, cell=(x, y))
    return accept()


def solve(inst: NumberlinkInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Complete deterministic backtracking search.

    Labels are routed in terminal order; each path grows by the steps towards
    its goal first, then the rest, and tries every one.  A path may not
    step next to one of its own earlier cells: a solution whose path
    touches itself has a shorter one through the touch, so a solution with
    the fewest path cells has no touch.  A partial state is cut when any
    pending pair's endpoints are no longer connectable through free cells,
    which never discards a completable state.  One breadth-first flood,
    `free_path`, answers both of the cut's questions: whether the head
    still reaches its goal, and whether a pending pair's ends still meet.  For a pending
    pair the flood's `parent` links give the free path it found, kept as
    the pair's witness, and the pair is flooded again only when the head
    lands on that path.
    Before any node, a board on which two pairs alternate around the
    grid's edge is refuted (`_border_crossed`).
    """
    inst = validate_instance(inst)
    width, height = inst.width, inst.height
    n = width * height
    # Cells are flat indices y*width + x.  `occ` is 0 on a free cell, 1 on
    # a terminal and i + 2 on a cell of path i, its start terminal included
    # while it is routed.
    pairs = [(label, a[1] * width + a[0], b[1] * width + b[0])
             for label, a, b in inst.terminals]
    budget = node_limit(budget)
    if _border_crossed(width, height, pairs):
        return SolveResult(UNSAT, nodes=0)
    occ = [0] * n
    for _, a, b in pairs:
        occ[a] = occ[b] = 1

    neighbors = steps(width, height)
    order = toward(width)
    lines: Dict[int, List[int]] = {}
    nodes = 0
    paths: List[List[int]] = []
    # A flood marks the cells it has seen with its own generation number,
    # so no flood clears or allocates a visited set.
    seen = [0] * n
    generations = count(1)
    # Each pending pair keeps the cells of the last free path found between
    # its ends.  Cells are only occupied going deeper and only freed going
    # back, and every occupation is tested against each pending witness, so
    # a witness the head missed is still free: only a hit needs a flood.
    witness: List[Optional[Set[int]]] = [None] * len(pairs)
    parent = [0] * n

    def free_path(src: int, dst: int) -> int:
        """The cell before `dst` on a shortest free path from `src`, or -1
        if there is none.  `parent` leads from it back to `src` until the
        next flood."""
        gen = next(generations)
        seen[src] = gen
        queue = [src]
        for cur in queue:
            for nxt in neighbors[cur]:
                if nxt == dst:
                    return cur
                if occ[nxt] or seen[nxt] == gen:
                    continue
                seen[nxt] = gen
                parent[nxt] = cur
                queue.append(nxt)
        return -1

    def pending_ok(current_idx: int, head: int) -> bool:
        if free_path(head, pairs[current_idx][2]) < 0:
            return False
        for k in range(current_idx + 1, len(pairs)):
            cells = witness[k]
            if cells is None or head in cells:
                _, src, dst = pairs[k]
                cur = free_path(src, dst)
                if cur < 0:
                    return False
                cells = witness[k] = set()
                while cur != src:
                    cells.add(cur)
                    cur = parent[cur]
        return True

    def route(idx: int):
        """Frame: start the path of pair `idx`, or finish."""
        if idx == len(pairs):
            yield FOUND
            return
        label, a, b = pairs[idx]
        path = [a]
        paths.append(path)
        occ[a] = idx + 2
        yield extend(idx, path, b,
                     *toward_keys(width, height, b % width, b // width, lines))
        occ[a] = 1
        paths.pop()

    def extend(idx: int, path: List[int], goal: int, cols: List[int],
               rows: List[int]):
        """Frame: grow `path` by one cell in each direction in turn, those
        towards `goal` first, by the `toward_keys` lists `cols` and
        `rows`, onto no cell next to an earlier cell of `path`."""
        nonlocal nodes
        head = path[-1]
        tag = idx + 2
        for d in order[cols[head % width] + rows[head // width]]:
            nodes += 1
            if nodes > budget:
                raise OutOfBudget
            nxt = head + d
            if occ[nxt] and nxt != goal:
                continue
            for m in neighbors[nxt]:
                if occ[m] == tag and m != head:
                    break
            else:
                path.append(nxt)
                if nxt == goal:
                    yield route(idx + 1)
                else:
                    occ[nxt] = tag
                    if pending_ok(idx, nxt):
                        yield extend(idx, path, goal, cols, rows)
                    occ[nxt] = 0
                path.pop()

    result = run(route(0), lambda: nodes, lambda: NumberlinkSolution(tuple(
        (label, tuple(map(cell_table(width, height).__getitem__, path)))
        for (label, _, _), path in zip(pairs, paths))))
    # `route` and `extend` refer to each other; break the cycle so this
    # solve's tables are freed on return, not by the cyclic collector.
    route = extend = None
    return result


def _border_crossed(width: int, height: int,
                    pairs: List[Tuple[int, int, int]]) -> bool:
    """Whether two of the `(label, a, b)` pairs, on flat cell indices, have
    all four ends on the grid's edge in alternating order around it.

    The edge cells lie on the outer face of the planar grid graph, and two
    disjoint paths cannot join pairs that alternate on the outer face (the
    two-paths theorem), so such a board has no solution.  The edge is
    walked once, clockwise from (0, 0): up the left column, right along
    the top row, down the right column and left along the bottom row.  A
    grid one cell wide or high is a line, walked end to end by the first
    two legs, where alternating pairs cannot both be joined either.

    The walk keeps one stack.  An end whose partner is on top pops it, and
    any other end is pushed: pairs that nest empty the stack, and the
    second end of a pair that crosses another is pushed and never popped.
    A pair with an end off the edge takes no part."""
    n = width * height
    ring = chain(range(0, n, width), range(n - width + 1, n))
    if width > 1 and height > 1:
        ring = chain(ring, range(n - width - 1, 0, -width),
                     range(width - 2, 0, -1))
    sides = (0, width - 1)
    mate: Dict[int, int] = {}
    for _, a, b in pairs:
        if (a < width or a >= n - width or a % width in sides) and \
                (b < width or b >= n - width or b % width in sides):
            mate[a], mate[b] = b, a
    if len(mate) < 4:
        return False
    stack: List[int] = []
    for i in ring:
        if i in mate:
            if stack and stack[-1] == mate[i]:
                stack.pop()
            else:
                stack.append(i)
    return bool(stack)


def normalize_solution(sol: NumberlinkSolution) -> NumberlinkSolution:
    """Canonical direction and order: each path starts at its smaller (y, x)
    endpoint; paths sorted by label."""
    fixed = []
    for label, path in sol.paths:
        first, last = path[0], path[-1]
        if (last[1], last[0]) < (first[1], first[0]):
            path = tuple(reversed(path))
        fixed.append((label, path))
    fixed.sort(key=lambda lp: lp[0])
    return NumberlinkSolution(tuple(fixed))


# ------------------------------------------------------------- documents

def parse_instance(text: Any) -> NumberlinkInstance:
    """Parse an instance document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["puzzle", "width", "height", "terminals"], [],
                      "document")
    if doc["puzzle"] != "numberlink":
        raise ParseError("WRONG_PUZZLE",
                         "expected puzzle 'numberlink', got "
                         f"{docs._shown(doc['puzzle'])}", "puzzle")
    width = docs.as_int(doc["width"], "width")
    height = docs.as_int(doc["height"], "height")
    check_size(width, height, "width")
    entries = docs.as_list(doc["terminals"], "terminals")
    columns = docs._columns(entries, ("label", "cells"))
    if columns is not None:
        labels, cells = columns
        pairs = docs._cell_lists(cells)
        if pairs is not None and docs._all_ints(labels) \
                and set(map(len, pairs)) <= {2}:
            return NumberlinkInstance(width, height, tuple(
                [(label, a, b) for label, (a, b) in zip(labels, pairs)]))
    # The per-entry path, which names the first fault.
    terminals = []
    for i, entry in enumerate(entries):
        loc = f"terminals[{i}]"
        entry = docs.require_object(entry, loc)
        docs.check_fields(entry, ["label", "cells"], [], loc)
        label = docs.as_int(entry["label"], loc + ".label")
        cells = docs.as_cells(entry["cells"], loc + ".cells")
        if len(cells) != 2:
            raise ParseError("BAD_TERMINAL",
                             "a terminal entry needs exactly two cells",
                             loc + ".cells")
        terminals.append((label, cells[0], cells[1]))
    return NumberlinkInstance(width, height, tuple(terminals))


def _instance_document(inst: NumberlinkInstance) -> dict:
    return {
        "puzzle": "numberlink",
        "width": inst.width,
        "height": inst.height,
        "terminals": [
            {"label": label, "cells": [a, b]}
            for label, a, b in inst.terminals
        ],
    }


def serialize_instance(inst: NumberlinkInstance) -> str:
    return docs.dumps_canonical(_instance_document(inst))


def parse_solution(text: Any) -> NumberlinkSolution:
    """Parse a solution document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["paths"], [], "document")
    entries = docs.as_list(doc["paths"], "paths")
    columns = docs._columns(entries, ("label", "cells"))
    if columns is not None:
        labels, cells = columns
        paths = docs._cell_lists(cells)
        if paths is not None and docs._all_ints(labels):
            return NumberlinkSolution(tuple(zip(labels, paths)))
    # The per-entry path, which names the first fault.
    paths = []
    for i, entry in enumerate(entries):
        loc = f"paths[{i}]"
        entry = docs.require_object(entry, loc)
        docs.check_fields(entry, ["label", "cells"], [], loc)
        label = docs.as_int(entry["label"], loc + ".label")
        cells = docs.as_cells(entry["cells"], loc + ".cells")
        paths.append((label, tuple(cells)))
    return NumberlinkSolution(tuple(paths))


def serialize_solution(sol: NumberlinkSolution) -> str:
    doc = {
        "paths": [
            {"label": label, "cells": path}
            for label, path in sol.paths
        ],
    }
    return docs.dumps_canonical(doc)
