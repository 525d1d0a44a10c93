"""Wataridori: model, region-run verifier, exact solver, serialization.

Paths pair up all circles.  A path's quality is measured in region runs:
its per-cell region ids with consecutive duplicates collapsed.  A path may
enter and exit a region at most once, and the run total must equal the
number on its endpoint circles (wildcard circles accept any total).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import documents as docs
from . import errors
from .errors import ParseError, ValidationError, Verdict, accept, reject
from .grid import (Cell, Path, RegionMap, _check_paths, check_size,
                   region_map_from_rows)
# The statuses are read through this module as wd.SOLVED and so on.
from .search import (BUDGET_EXCEEDED, DEFAULT_BUDGET, FOUND, SOLVED, UNSAT,
                     OutOfBudget, SolveResult, node_limit, run, steps,
                     toward, toward_keys)


class Circle(NamedTuple):
    x: int
    y: int
    number: Optional[int] = None  # None is a wildcard

    @property
    def cell(self) -> Cell:
        return (self.x, self.y)


# Circles built in bulk are made from the plain tuples they equal, by one C
# call each rather than through the Python constructor.
_as_circle = partial(tuple.__new__, Circle)
_NUMBER = {int, type(None)}     # a circle's number: bools are refused


class WataridoriInstance(NamedTuple):
    regions: RegionMap
    circles: Tuple[Circle, ...]

    @property
    def width(self) -> int:
        return self.regions.width

    @property
    def height(self) -> int:
        return self.regions.height


class WataridoriSolution(NamedTuple):
    paths: Tuple[Path, ...]


def validate_instance(inst: WataridoriInstance) -> WataridoriInstance:
    """Check the circles and return the instance.  Sizes, coordinates and
    numbers must be integers, as the parser's are; a number may be None."""
    width, height = inst.width, inst.height
    if type(width) is not int or type(height) is not int:
        docs.check_ints((width, height), "a grid size")
    seen = set()
    for x, y, number in inst.circles:
        cell = (x, y)
        if type(x) is not int or type(y) is not int:
            docs.check_ints(cell, "a circle coordinate")
        if not (0 <= x < width and 0 <= y < height):
            raise ValidationError("OUT_OF_BOUNDS",
                                  f"circle at {cell} outside grid")
        if cell in seen:
            raise ValidationError("DUPLICATE_CIRCLE",
                                  f"two circles on cell {cell}")
        seen.add(cell)
        if number is not None:
            if type(number) is not int:
                docs.check_ints((number,), "a circle number")
            if number < 1:
                raise ValidationError("BAD_NUMBER", f"circle number must "
                                      f"be positive, got {number}")
    return inst


def verify_solution(inst: WataridoriInstance,
                    sol: WataridoriSolution) -> Verdict:
    """Accept iff the paths pair all circles and satisfy the run rules.

    Check order: path structure, endpoints-are-circles, every circle paired
    exactly once, cell-disjointness, no region re-entry, run counts.
    """
    rmap = inst.regions
    circle_at: Dict[Cell, Circle] = {c[:2]: c for c in inst.circles}

    paths, bad, shared = _check_paths(sol.paths, rmap.width, rmap.height)
    if bad is not None:
        return reject(errors.BAD_PATH, path_index=bad,
                      cell=paths[bad][0] if paths[bad] else None,
                      detail="not a simple orthogonal path")

    degree: Dict[Cell, int] = dict.fromkeys(circle_at, 0)
    for idx, path in enumerate(paths):
        for end in (path[0], path[-1]):
            if end not in degree:
                return reject(errors.ENDPOINT_NOT_CIRCLE, path_index=idx,
                              cell=end)
            degree[end] += 1
    for cell, count in degree.items():
        if count != 1:
            return reject(errors.UNPAIRED_CIRCLE, cell=cell,
                          detail=f"circle is an endpoint of {count} paths")

    if shared is not None:
        return reject(errors.CELL_SHARED, path_index=shared[0],
                      cell=shared[1])

    ids = rmap.ids
    for idx, path in enumerate(paths):
        # A run starts where the id changes; r counts the regions entered.
        entered, last = set(), None
        for x, y in path:
            rid = ids[y][x]
            if rid != last:
                if rid in entered:
                    return reject(errors.REGION_REENTERED, idx, (x, y),
                                  f"region {rid} entered twice")
                entered.add(rid)
                last = rid
        r = len(entered)
        a = circle_at[path[0]]
        b = circle_at[path[-1]]
        for circle in (a, b):
            if circle.number is not None and circle.number != r:
                return reject(errors.COUNT_MISMATCH, path_index=idx,
                              cell=circle.cell,
                              detail=f"path has {r} region runs, circle "
                                     f"wants {circle.number}")
    return accept()


def solve(inst: WataridoriInstance,
          budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Complete deterministic search over pairings and routed paths.

    Circles are ordered most constrained first: numbered circles before
    wildcards, higher numbers first, then by (y, x).  One circle is paired
    with each unpaired partner in turn, and each pair is routed at once by
    DFS that tries the steps towards the partner first; branching on every
    partner and every step keeps the search complete.  A circle numbered t
    pairs with circles numbered t or wildcards in the regions within t - 1
    steps of its own, and for t > 1 not in its own region, which a path of
    two or more runs ending there would re-enter.  Each numbered circle
    counts its unpaired partners, and a pair that leaves one without any is
    skipped unrouted.  The circle paired next is the unpaired numbered
    circle with the fewest unpaired partners, the first on a tie, and once
    every numbered circle is paired the first unpaired wildcard.

    A path to a numbered target is bounded by region distances: entering
    region r needs `runs + 1 + dist(r, goal region) <= target`, where
    `dist` counts steps in the region adjacency graph.  Walls and blocked
    cells only lengthen real paths, so the bound never cuts a solution.  A
    partial path is also cut when it re-enters a region, and when it steps
    next to one of its own earlier cells, in the same region for a
    numbered pair: the path through such a touch keeps the run count, so
    a solution with the fewest path cells has none.  Designed for boards
    up to about 7x7 with up to about 16 circles.
    """
    inst = validate_instance(inst)
    rmap = inst.regions
    width, height = rmap.width, rmap.height
    check_size(width, height)
    n_cells = width * height
    budget = node_limit(budget)
    nodes = 0
    circles = sorted(inst.circles, key=lambda c: (
        c.number is None, -(c.number or 0), c.y, c.x))
    n = len(circles)
    if n % 2 == 1:
        return SolveResult(UNSAT, nodes=0)

    # Cells are flat indices y*width + x.  No path crosses a circle or
    # another path: circles and path cells are `blocked`, so only a blocked
    # cell can be the goal.  `blocked` is read at every node, and the
    # interpreter specializes list reads, not bytearray ones.  It is 1 on a
    # circle and, on a path cell, the tag of the path's run that holds it:
    # ~ the run's first cell, a negative number no other run alive carries.
    # A path's start circle carries its first run's tag while it is routed.
    region = list(chain.from_iterable(rmap.ids))
    neighbors = steps(width, height)
    order = toward(width)
    cells = [c.y * width + c.x for c in circles]
    # Each circle's `toward_keys` lists, built when it is first a goal.
    keys: List[Optional[Tuple[List[int], List[int]]]] = [None] * n
    lines: Dict[int, List[int]] = {}
    blocked = [0] * n_cells
    for i in cells:
        blocked[i] = 1
    # Each path cell records the cell it was entered from, and its first
    # circle -1; a finished path is kept as its last cell and read back
    # through `came` at the end.
    came = [0] * n_cells
    ends: List[int] = []
    paired = [False] * n

    # Regions meet where a cell and the one right of it or below it differ.
    touching = set(zip(region, region[width:]))
    for row in rmap.ids:
        touching.update(zip(row, row[1:]))
    adjacent: List[set] = [set() for _ in range(rmap.region_count)]
    for a, b in touching:
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    # A wildcard pair has no target: it reads zero distances, and its limit
    # `n_cells` never cuts, since a path has at most `n_cells` runs.  A
    # pair numbered 1 reads them too: with limit 1 it enters no region.
    no_bound = [0] * rmap.region_count
    dists: Dict[int, List[int]] = {}

    def distances(goal_rid: int) -> List[int]:
        """Region-graph distances to `goal_rid`, one BFS per goal region.
        The grid is connected, so every region gets a distance."""
        dist = dists.get(goal_rid)
        if dist is None:
            dist = [-1] * rmap.region_count
            dist[goal_rid] = 0
            frontier = [goal_rid]
            for rid in frontier:
                for nrid in adjacent[rid]:
                    if dist[nrid] < 0:
                        dist[nrid] = dist[rid] + 1
                        frontier.append(nrid)
            dists[goal_rid] = dist
        return dist

    # Partner lists in index order.  Wildcards sort last, so a wildcard
    # pairs with the later circles.  The circles numbered t in one region
    # share one list: the circles numbered t or wildcards in the regions
    # within t - 1 steps.  For t > 1 that excludes their own region, since
    # a path with two or more runs that ends where it starts re-enters it;
    # for t = 1 it is their own region, themselves included, which pairing
    # skips as paired.  Numbered circles list each other symmetrically, so
    # the numbered part of a circle's list also names the circles that list
    # it.  `count[i]` is how many of numbered circle i's partners are
    # unpaired, and `watch[j]` lists the numbered circles that list j.
    numbers = [c.number for c in circles]
    rids = [region[i] for i in cells]
    bucket: List[List[int]] = [[] for _ in range(rmap.region_count)]
    for j, rid in enumerate(rids):
        bucket[rid].append(j)
    numbered = n - numbers.count(None)
    partners: List[Sequence[int]] = [range(i + 1, n) for i in range(n)]
    watch: List[List[int]] = [[] for _ in range(n)]
    groups: Dict[Tuple[int, int], Tuple[List[int], ...]] = {}
    for i in range(numbered):
        t, rid = numbers[i], rids[i]
        if (rid, t) not in groups:
            dist = distances(rid) if t > 1 else None
            near = bucket[rid] if dist is None else [
                j for j, r in enumerate(rids) if 0 < dist[r] < t]
            mates = [j for j in near if numbers[j] in (None, t)]
            k = bisect_left(mates, numbered)
            groups[rid, t] = mates, mates[:k], mates[k:]
        partners[i], watch[i], wild = groups[rid, t]
        for j in wild:
            watch[j].append(i)
    count = [len(p) - (t == 1) for p, t in zip(partners, numbers)]
    # A numbered circle with no partner at all refutes the board; during
    # the search no unpaired one is left without a partner.
    if 0 in count[:numbered]:
        return SolveResult(UNSAT, nodes=0)
    # A lower bound on the least count among unpaired numbered circles,
    # so that a pairing frame's scan stops at the first circle reaching it.
    least = min(count[:numbered], default=0)

    def touches(cell: int, head: int) -> bool:
        """Whether `cell` is next to a cell other than `head` with the tag
        of `head`.  A run of one cell, tagged `~head`, has none."""
        tag = blocked[head]
        if tag != ~head:
            for m in neighbors[cell]:
                if blocked[m] == tag and m != head:
                    return True
        return False

    def dfs(after: int, head: int, rid: int, runs: int, entered: bytearray,
            dist: List[int], limit: int, target: Optional[int], goal: int,
            cols: List[int], rows: List[int]):
        """Frame: grow a path by one cell in each direction in turn, those
        towards `goal` first, by the `toward_keys` lists `cols` and `rows`.
        Its last cell `head` is in region `rid`, it has `runs` region runs,
        `entered` flags the regions it has entered, and it may enter region
        r while `runs + dist[r] < limit`.

        The path steps onto no cell next to one of its earlier cells with
        the tag the step would carry: a wildcard path's runs share one tag,
        and a numbered path's do not, since only a touch within one region
        keeps the run count when cut short."""
        nonlocal nodes
        for d in order[cols[head % width] + rows[head // width]]:
            nodes += 1
            if nodes > budget:
                raise OutOfBudget
            nxt = head + d
            if blocked[nxt]:
                if nxt != goal:
                    continue
                nrid = region[nxt]
                if nrid == rid:
                    total = runs
                elif entered[nrid]:
                    continue
                else:
                    total = runs + 1
                if target and total != target:
                    continue
                if (nrid == rid or target is None) and touches(nxt, head):
                    continue
                came[nxt] = head
                ends.append(nxt)
                yield pair_next(after)
                ends.pop()
                continue
            nrid = region[nxt]
            if nrid == rid:
                if touches(nxt, head):
                    continue
                blocked[nxt] = blocked[head]
                came[nxt] = head
                yield dfs(after, nxt, rid, runs, entered, dist, limit, target,
                          goal, cols, rows)
                blocked[nxt] = 0
            elif not entered[nrid] and runs + dist[nrid] < limit:
                if target:
                    blocked[nxt] = ~nxt
                elif touches(nxt, head):
                    continue
                else:
                    blocked[nxt] = blocked[head]
                entered[nrid] = 1
                came[nxt] = head
                yield dfs(after, nxt, nrid, runs + 1, entered, dist, limit,
                          target, goal, cols, rows)
                entered[nrid] = blocked[nxt] = 0

    def pair_next(after: int):
        """Frame: pair a circle with each unpaired partner in turn and
        route a path between them.  The circle is the unpaired numbered
        circle with the fewest unpaired partners, the first of them, or
        once every numbered circle is paired the first unpaired wildcard.
        Every circle before `after` is paired already, so the scan starts
        there.  It stops at the first circle whose count is `least`, which
        no unpaired numbered circle's count is below: `least` falls with
        any such count that falls below it, when a count is decremented or
        a circle unpaired, and a scan that runs to the end sets it to the
        least count it saw."""
        nonlocal nodes, least
        first = after
        while first < n and paired[first]:
            first += 1
        if first == n:
            yield FOUND
            return
        after = first
        fewest = count[first]
        if first < numbered and fewest > least:
            for i in range(first + 1, numbered):
                if count[i] < fewest and not paired[i]:
                    first, fewest = i, count[i]
                    if fewest == least:
                        break
            else:
                least = fewest
        paired[first] = True
        target = numbers[first]
        limit = target or n_cells
        bounded = target is not None and target > 1
        start = cells[first]
        came[start] = -1
        blocked[start] = ~start
        rid = rids[first]
        mine = watch[first]
        for j in partners[first]:
            if paired[j]:
                continue
            nodes += 1
            if nodes > budget:
                raise OutOfBudget
            paired[j] = True
            live = True
            for c in chain(mine, watch[j]):
                if not paired[c]:
                    count[c] -= 1
                    if count[c] < least:
                        # A count of 0 came from 1, so `least` is 1.
                        if count[c]:
                            least = count[c]
                        else:
                            live = False
            if live:
                entered = bytearray(rmap.region_count)
                entered[rid] = 1
                goal = cells[j]
                if keys[j] is None:
                    keys[j] = toward_keys(width, height, goal % width,
                                          goal // width, lines)
                yield dfs(after, start, rid, 1, entered, distances(rids[j])
                          if bounded else no_bound, limit, target, goal,
                          *keys[j])
            for c in chain(mine, watch[j]):
                if not paired[c]:
                    count[c] += 1
            paired[j] = False
        blocked[start] = 1
        paired[first] = False
        # Unpairing a numbered partner j needs no restore of its own: j is
        # in `mine`, so the next partner's trial decrements count[j] and
        # lowers `least` below it before any scan (or, at 0, routes
        # nothing), and this restore leaves `least` at most count[first],
        # which is at most count[j] since `first` had the fewest partners
        # when the frame began.
        if first < numbered and count[first] < least:
            least = count[first]

    def path_cells(end: int) -> Path:
        path = [end]
        while came[end] >= 0:
            end = came[end]
            path.append(end)
        path.reverse()
        return tuple(zip(map(width.__rmod__, path),
                         map(width.__rfloordiv__, path)))

    result = run(pair_next(0), lambda: nodes, lambda: WataridoriSolution(tuple(
        map(path_cells, ends))))
    # `pair_next` and `dfs` refer to each other; break the cycle so this
    # solve's tables are freed on return, not by the cyclic collector.
    pair_next = dfs = None
    return result


# ------------------------------------------------------------- documents

def parse_instance(text: Any) -> WataridoriInstance:
    """Parse an instance document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["puzzle", "width", "height", "regions",
                            "circles"], [], "document")
    if doc["puzzle"] != "wataridori":
        raise ParseError("WRONG_PUZZLE",
                         f"expected puzzle 'wataridori', got "
                         f"{docs._shown(doc['puzzle'])}", "puzzle")
    width = docs.as_int(doc["width"], "width")
    height = docs.as_int(doc["height"], "height")
    check_size(width, height, "width")
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
        xs = list(map(itemgetter("x"), entries))
        ys = list(map(itemgetter("y"), entries))
        numbers = list(map(dict.get, entries, repeat("number")))
        # Every entry has x and y, so the keys beyond two per entry count
        # the numbers given; a null one would read as none, so it is
        # left to the per-entry path, which refuses it.  A bool is not an
        # int here, as in `as_int`.
        given = sum(map(len, entries)) - 2 * len(entries)
        if docs._all_ints(xs) and docs._all_ints(ys) \
                and set(map(type, numbers)) <= _NUMBER \
                and len(numbers) - numbers.count(None) == given:
            circles = tuple(map(_as_circle, zip(xs, ys, numbers)))
            # `validate_instance`'s checks, by column: it runs only to
            # name a fault.
            if 0 <= min(xs, default=0) and max(xs, default=0) < width \
                    and 0 <= min(ys, default=0) \
                    and max(ys, default=0) < height \
                    and len(set(zip(xs, ys))) == len(xs) \
                    and min(set(numbers) - {None}, default=1) >= 1:
                return WataridoriInstance(rmap, circles)
    if circles is None:
        circles = tuple(_parse_circle(entry, f"circles[{i}]")
                        for i, entry in enumerate(entries))
    inst = WataridoriInstance(rmap, circles)
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


# One circle and one cell as canonical text, for the writers' bulk path.
_CIRCLE = '{"x":%d,"y":%d,"number":%d}'
_WILDCARD = '{"x":%d,"y":%d}'
_CELL = "[%d,%d]"


def serialize_instance(inst: WataridoriInstance) -> str:
    circles = sorted(inst.circles, key=attrgetter("y", "x"))
    doc = {
        "puzzle": "wataridori",
        "width": inst.width,
        "height": inst.height,
        "regions": inst.regions.ids,
    }
    xs, ys, numbers = tuple(zip(*circles)) or ((), (), ())
    # Integer fields are written as `json` writes them; any other value
    # takes the per-entry path below.
    if docs._all_ints(xs + ys) and set(map(type, numbers)) <= _NUMBER:
        text = ",".join([_WILDCARD % c[:2] if c[2] is None else _CIRCLE % c
                         for c in circles])
        # The header's closing "}\n" gives way to the circles.
        return (docs.dumps_canonical(doc)[:-2] + ',"circles":[' + text
                + "]}\n")
    circle_docs = []
    for c in circles:
        entry = {"x": c.x, "y": c.y}
        if c.number is not None:
            entry["number"] = c.number
        circle_docs.append(entry)
    doc["circles"] = circle_docs
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
    cells = list(chain.from_iterable(sol.paths))
    if set(map(type, cells)) <= {tuple} and set(map(len, cells)) <= {2} \
            and docs._all_ints(chain.from_iterable(cells)):
        return '{"paths":[' + ",".join([
            '{"cells":[%s]}' % ",".join(map(_CELL.__mod__, path))
            for path in sol.paths]) + "]}\n"
    doc = {
        "paths": [{"cells": [list(c) for c in path]} for path in sol.paths],
    }
    return docs.dumps_canonical(doc)
