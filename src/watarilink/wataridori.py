"""Wataridori: model, region-run verifier, exact solver, serialization.

Paths pair up all circles.  A path's quality is measured in region runs:
its per-cell region ids with consecutive duplicates collapsed.  A path may
enter and exit a region at most once, and the run total must equal the
number on its endpoint circles (wildcard circles accept any total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from . import documents as docs
from . import errors
from .errors import ParseError, ValidationError, Verdict, accept, reject
from .grid import (Cell, Path, RegionMap, first_shared_cell,
                   is_simple_orthogonal_path, region_map_from_rows,
                   region_runs)
# The statuses are read through this module as wd.SOLVED and so on.
from .search import (BUDGET_EXCEEDED, DEFAULT_BUDGET, FOUND, SOLVED, UNSAT,
                     Budget, SolveResult, run, steps)


class Circle(NamedTuple):
    x: int
    y: int
    number: Optional[int] = None  # None is a wildcard

    @property
    def cell(self) -> Cell:
        return (self.x, self.y)


@dataclass(frozen=True)
class WataridoriInstance:
    regions: RegionMap
    circles: Tuple[Circle, ...]

    @property
    def width(self) -> int:
        return self.regions.width

    @property
    def height(self) -> int:
        return self.regions.height


@dataclass(frozen=True)
class WataridoriSolution:
    paths: Tuple[Path, ...]


def validate_instance(inst: WataridoriInstance) -> WataridoriInstance:
    width, height = inst.width, inst.height
    seen = set()
    for x, y, number in inst.circles:
        cell = (x, y)
        if not (0 <= x < width and 0 <= y < height):
            raise ValidationError("OUT_OF_BOUNDS",
                                  f"circle at {cell} outside grid")
        if cell in seen:
            raise ValidationError("DUPLICATE_CIRCLE",
                                  f"two circles on cell {cell}")
        seen.add(cell)
        if number is not None and number < 1:
            raise ValidationError("BAD_NUMBER",
                                  f"circle number must be positive, got "
                                  f"{number}")
    return inst


def verify_solution(inst: WataridoriInstance,
                    sol: WataridoriSolution) -> Verdict:
    """Accept iff the paths pair all circles and satisfy the run rules.

    Check order: path structure, endpoints-are-circles, every circle paired
    exactly once, cell-disjointness, no region re-entry, run counts.
    """
    rmap = inst.regions
    paths = sol.paths
    circle_at: Dict[Cell, Circle] = {c[:2]: c for c in inst.circles}

    for idx, path in enumerate(paths):
        if not is_simple_orthogonal_path(path, rmap.width, rmap.height):
            cell = path[0] if path else None
            return reject(errors.BAD_PATH, path_index=idx, cell=cell,
                          detail="not a simple orthogonal path")

    for idx, path in enumerate(paths):
        for end in (path[0], path[-1]):
            if end not in circle_at:
                return reject(errors.ENDPOINT_NOT_CIRCLE, path_index=idx,
                              cell=end)

    degree: Dict[Cell, int] = dict.fromkeys(circle_at, 0)
    for path in paths:
        degree[path[0]] += 1
        degree[path[-1]] += 1
    for cell, count in degree.items():
        if count != 1:
            return reject(errors.UNPAIRED_CIRCLE, cell=cell,
                          detail=f"circle is an endpoint of {count} paths")

    shared = first_shared_cell(paths)
    if shared is not None:
        return reject(errors.CELL_SHARED, path_index=shared[0],
                      cell=shared[1])

    for idx, path in enumerate(paths):
        runs = region_runs(path, rmap)
        r = len(runs)
        if len(set(runs)) != r:
            seen_rids = set()
            for pos, rid in enumerate(runs):
                if rid in seen_rids:
                    return reject(errors.REGION_REENTERED, path_index=idx,
                                  cell=_run_start(path, rmap, pos),
                                  detail=f"region {rid} entered twice")
                seen_rids.add(rid)
        a = circle_at[path[0]]
        b = circle_at[path[-1]]
        for circle in (a, b):
            if circle.number is not None and circle.number != r:
                return reject(errors.COUNT_MISMATCH, path_index=idx,
                              cell=circle.cell,
                              detail=f"path has {r} region runs, circle "
                                     f"wants {circle.number}")
    return accept()


def _run_start(path: Sequence[Cell], rmap: RegionMap, run_index: int) -> Cell:
    idx = -1
    last = None
    for cell in path:
        rid = rmap.id_at(cell)
        if rid != last:
            idx += 1
            last = rid
        if idx == run_index:
            return cell
    return path[-1]


def solve(inst: WataridoriInstance,
          budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Complete deterministic search over pairings and routed paths.

    Circles are ordered by (y, x).  The lowest unpaired circle is paired
    with each compatible partner in order; each pair is routed immediately
    by DFS with fixed neighbor order before later pairs are chosen.  A
    partial path is cut when it re-enters a region or exceeds its target
    run count, both of which persist under any extension.  Designed for
    boards up to about 7x7 with up to about 16 circles.
    """
    inst = validate_instance(inst)
    rmap = inst.regions
    width, height = rmap.width, rmap.height
    circles = sorted(inst.circles, key=lambda c: (c.y, c.x))
    n = len(circles)
    if n % 2 == 1:
        return SolveResult(UNSAT, nodes=0)

    # No path crosses a circle or another path; reaching the goal circle
    # is tested before `blocked`.
    blocked = [[False] * width for _ in range(height)]
    for x, y, _ in circles:
        blocked[y][x] = True
    neighbors = steps(width, height)
    bud = Budget(budget)
    spend = bud.spend
    paths: List[Tuple[Cell, ...]] = []
    paired = [False] * n

    def compatible(a: Circle, b: Circle) -> bool:
        return a.number is None or b.number is None or a.number == b.number

    def dfs(path: List[Cell], run_ids: List[int], run_set: Set[int],
            target: Optional[int], goal: Cell):
        """Frame: grow `path` by one cell in each direction in turn."""
        for nxt in neighbors[path[-1]]:
            nx, ny = nxt
            spend()
            rid = rmap.ids[ny][nx]
            if nxt == goal:
                if rid == run_ids[-1]:
                    total = len(run_ids)
                elif rid in run_set:
                    continue
                else:
                    total = len(run_ids) + 1
                if target is not None and total != target:
                    continue
                path.append(nxt)
                paths.append(tuple(path))
                yield pair_next()
                paths.pop()
                path.pop()
                continue
            if blocked[ny][nx]:
                continue
            new_run = rid != run_ids[-1]
            if new_run:
                if rid in run_set:
                    continue
                if target is not None and len(run_ids) + 1 > target:
                    continue
                run_ids.append(rid)
                run_set.add(rid)
            blocked[ny][nx] = True
            path.append(nxt)
            yield dfs(path, run_ids, run_set, target, goal)
            path.pop()
            blocked[ny][nx] = False
            if new_run:
                run_ids.pop()
                run_set.discard(rid)

    def pair_next():
        """Frame: pair the lowest unpaired circle with each partner in turn
        and route a path between them."""
        first = next((i for i in range(n) if not paired[i]), None)
        if first is None:
            yield FOUND
            return
        paired[first] = True
        a = circles[first]
        rid = rmap.ids[a.y][a.x]
        for j in range(first + 1, n):
            b = circles[j]
            if paired[j] or not compatible(a, b):
                continue
            spend()
            paired[j] = True
            target = a.number if a.number is not None else b.number
            yield dfs([a.cell], [rid], {rid}, target, b.cell)
            paired[j] = False
        paired[first] = False

    return run(pair_next(), bud,
               lambda: WataridoriSolution(tuple(paths)))


# ------------------------------------------------------------- documents

def parse_instance(text: Any) -> WataridoriInstance:
    """Parse an instance document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["puzzle", "width", "height", "regions",
                            "circles"], [], "document")
    if doc["puzzle"] != "wataridori":
        raise ParseError("WRONG_PUZZLE",
                         f"expected puzzle 'wataridori', got "
                         f"{doc['puzzle']!r}", "puzzle")
    width = docs.as_int(doc["width"], "width")
    height = docs.as_int(doc["height"], "height")
    rows = docs.as_list(doc["regions"], "regions")
    if len(rows) != height:
        raise ParseError("BAD_REGIONS", f"expected {height} region rows, "
                         f"got {len(rows)}", "regions")
    if docs._int_rows(rows, width):
        parsed_rows = rows
    else:
        parsed_rows = []
        for i, row in enumerate(rows):
            row = docs.as_list(row, f"regions[{i}]")
            if len(row) != width:
                raise ParseError("BAD_REGIONS", f"region row length "
                                 f"{len(row)} != width {width}",
                                 f"regions[{i}]")
            parsed_rows.append([docs.as_int(v, f"regions[{i}][{j}]")
                                for j, v in enumerate(row)])
    try:
        rmap = region_map_from_rows(parsed_rows)
    except ValidationError as exc:
        raise ParseError(exc.code, exc.message, "regions")
    entries = docs.as_list(doc["circles"], "circles")
    circles = None
    if docs._all_objects(entries, ["x", "y"], ["number"]):
        xs = [e["x"] for e in entries]
        ys = [e["y"] for e in entries]
        numbers = [e.get("number") for e in entries]
        if docs._all_ints(xs) and docs._all_ints(ys) and docs._all_ints(
                e["number"] for e in entries if "number" in e):
            circles = list(map(Circle, xs, ys, numbers))
    if circles is None:
        circles = [_parse_circle(entry, f"circles[{i}]")
                   for i, entry in enumerate(entries)]
    inst = WataridoriInstance(rmap, tuple(circles))
    try:
        return validate_instance(inst)
    except ValidationError as exc:
        raise ParseError(exc.code, exc.message, "circles")


def _parse_circle(entry: Any, loc: str) -> Circle:
    entry = docs.require_object(entry, loc)
    docs.check_fields(entry, ["x", "y"], ["number"], loc)
    number = None
    if "number" in entry:
        number = docs.as_int(entry["number"], loc + ".number")
    return Circle(docs.as_int(entry["x"], loc + ".x"),
                  docs.as_int(entry["y"], loc + ".y"), number)


def serialize_instance(inst: WataridoriInstance) -> str:
    circles = sorted(inst.circles, key=lambda c: (c.y, c.x))
    circle_docs = []
    for c in circles:
        entry = {"x": c.x, "y": c.y}
        if c.number is not None:
            entry["number"] = c.number
        circle_docs.append(entry)
    doc = {
        "puzzle": "wataridori",
        "width": inst.width,
        "height": inst.height,
        "regions": [list(row) for row in inst.regions.ids],
        "circles": circle_docs,
    }
    return docs.dumps_canonical(doc)


def parse_solution(text: Any) -> WataridoriSolution:
    """Parse a solution document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["paths"], [], "document")
    entries = docs.as_list(doc["paths"], "paths")
    paths = None
    if docs._all_objects(entries, ["cells"]):
        paths = docs._cell_lists([entry["cells"] for entry in entries])
    if paths is None:
        paths = []
        for i, entry in enumerate(entries):
            loc = f"paths[{i}]"
            entry = docs.require_object(entry, loc)
            docs.check_fields(entry, ["cells"], [], loc)
            paths.append(tuple(docs.as_cells(entry["cells"],
                                             loc + ".cells")))
    return WataridoriSolution(tuple(paths))


def serialize_solution(sol: WataridoriSolution) -> str:
    doc = {
        "paths": [{"cells": [list(c) for c in path]} for path in sol.paths],
    }
    return docs.dumps_canonical(doc)
