"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive: per-cell BFS for region partitions
and exhaustive enumeration of path systems for solvability.  The verifiers
remain the single arbiter of the rules; the enumerators only generate
candidates.
"""

import json
from collections import deque
from itertools import chain, combinations
from operator import add, ne

from watarilink import documents as docs
from watarilink import errors
from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink import wataridori as wd
from watarilink.errors import ParseError, ValidationError
from watarilink.grid import (HORIZONTAL, VERTICAL, RegionMap, Wall,
                             check_size, first_shared_cell)
from watarilink.search import (DEFAULT_BUDGET, FOUND, UNSAT, OutOfBudget,
                               SolveResult, node_limit, run)


class Budget:
    """Counts a reference search's nodes by a method call per node; the
    node after the last allowed one raises."""

    __slots__ = ("limit", "nodes")

    def __init__(self, limit):
        self.limit = node_limit(limit)
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise OutOfBudget


def wall_blocks(walls, a, b):
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        return (HORIZONTAL, x1, max(y1, y2)) in walls
    return (VERTICAL, max(x1, x2), y1) in walls


def region_partition_by_reachability(walls, width, height):
    """Partition the grid by per-cell BFS reachability around the walls."""
    walls = set(walls)
    groups = []
    seen = set()
    for sy in range(height):
        for sx in range(width):
            if (sx, sy) in seen:
                continue
            comp = {(sx, sy)}
            queue = deque([(sx, sy)])
            while queue:
                x, y = queue.popleft()
                for nxt in ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y)):
                    nx, ny = nxt
                    if not (0 <= nx < width and 0 <= ny < height):
                        continue
                    if nxt in comp or wall_blocks(walls, (x, y), nxt):
                        continue
                    comp.add(nxt)
                    queue.append(nxt)
            seen |= comp
            groups.append(frozenset(comp))
    return frozenset(groups)


def regions_from_wall_set(walls, width, height):
    """Reference region map: a flood fill over (x, y) wall-tuple sets
    that shares no code with `grid.regions_from_walls`, which the tests
    compare with it."""
    hset = {(w[1], w[2]) for w in walls if w[0] == HORIZONTAL}
    vset = {(w[1], w[2]) for w in walls if w[0] == VERTICAL}
    ids = [[-1] * width for _ in range(height)]
    count = 0
    for sy in range(height - 1, -1, -1):
        for sx in range(width):
            if ids[sy][sx] != -1:
                continue
            stack = [(sx, sy)]
            ids[sy][sx] = count
            while stack:
                x, y = stack.pop()
                if y + 1 < height and ids[y + 1][x] == -1 \
                        and (x, y + 1) not in hset:
                    ids[y + 1][x] = count
                    stack.append((x, y + 1))
                if y > 0 and ids[y - 1][x] == -1 and (x, y) not in hset:
                    ids[y - 1][x] = count
                    stack.append((x, y - 1))
                if x > 0 and ids[y][x - 1] == -1 and (x, y) not in vset:
                    ids[y][x - 1] = count
                    stack.append((x - 1, y))
                if x + 1 < width and ids[y][x + 1] == -1 \
                        and (x + 1, y) not in vset:
                    ids[y][x + 1] = count
                    stack.append((x + 1, y))
            count += 1
    return RegionMap(width=width, height=height,
                     ids=tuple(tuple(row) for row in ids),
                     region_count=count)


def region_map_from_rows_reference(rows):
    """Reference `grid.region_map_from_rows`: per-cell BFS over equal-id
    neighbors from each unvisited cell in scan order, top row first.  It
    raises the library's codes in the library's order."""
    height = len(rows)
    if height < 1 or any(len(row) < 1 for row in rows):
        raise ValidationError("BAD_DIMENSIONS", "empty region rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValidationError("RAGGED_ROWS", "ragged region rows")
    labels = {label for row in rows for label in row}
    if labels != set(range(len(labels))):
        raise ValidationError("IDS_NOT_DENSE", "ids not 0..count-1")
    ids = [[-1] * width for _ in range(height)]
    count = 0
    for sy in range(height - 1, -1, -1):
        for sx in range(width):
            if ids[sy][sx] != -1:
                continue
            label = rows[sy][sx]
            ids[sy][sx] = count
            queue = deque([(sx, sy)])
            while queue:
                x, y = queue.popleft()
                for nx, ny in ((x, y + 1), (x, y - 1), (x - 1, y),
                               (x + 1, y)):
                    if 0 <= nx < width and 0 <= ny < height \
                            and ids[ny][nx] == -1 and rows[ny][nx] == label:
                        ids[ny][nx] = count
                        queue.append((nx, ny))
            count += 1
    if count != len(labels):
        raise ValidationError("REGION_NOT_CONNECTED", "an id is split")
    return RegionMap(width=width, height=height,
                     ids=tuple(tuple(row) for row in ids),
                     region_count=count)


def walls_between_regions(rows):
    """Wall segments separating orthogonal neighbors with different ids."""
    height, width = len(rows), len(rows[0])
    walls = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width and rows[y][x] != rows[y][x + 1]:
                walls.append(Wall(VERTICAL, x + 1, y))
            if y + 1 < height and rows[y][x] != rows[y + 1][x]:
                walls.append(Wall(HORIZONTAL, x, y + 1))
    return walls


def _placed_templates(g):
    """(gx, gy, block size, template) for every block of the reduction of
    `g`, a number template built for its own label's center number."""
    rmap = rd.ReductionMap(nl.validate_instance(g))
    k, s = rmap.k, rmap.block_size
    numbers = dict(rmap.number_assignment)
    number_at = {c: numbers[label] for label, a, b in rmap.source.terminals
                 for c in (a, b)}
    for gy in range(g.height):
        for gx in range(g.width):
            number = number_at.get((gx, gy))
            yield gx, gy, s, (rd.build_empty_block(k) if number is None else
                              rd.build_number_block(k, number))


def placed_template_walls(g):
    """Union of every block template's walls, placed at its block of the
    reduction of `g`, in target-grid coordinates."""
    walls = set()
    for gx, gy, s, tpl in _placed_templates(g):
        walls |= {Wall(kind, x + s * gx, y + s * gy)
                  for kind, x, y in tpl.walls}
    return walls


def placed_template_circles(g):
    """Every block template's circles, each number template built for its
    own label's center number, placed at its block of the reduction of
    `g`, in (y, x) order."""
    circles = []
    for gx, gy, s, tpl in _placed_templates(g):
        circles += [wd.Circle(x + s * gx, y + s * gy, number)
                    for x, y, number in tpl.circles]
    return tuple(sorted(circles, key=lambda c: (c.y, c.x)))


def placed_filler_pairs(g):
    """Every block template's filler pairs, each template built for its own
    label, placed at its block of the reduction of `g`."""
    pairs = []
    for gx, gy, s, tpl in _placed_templates(g):
        pairs += [((ax + s * gx, ay + s * gy), (bx + s * gx, by + s * gy))
                  for (ax, ay), (bx, by) in tpl.filler_pairs]
    return tuple(pairs)


def v1_map_document(rmap):
    """The version-1 map document, which stored every block placement and
    filler pair, written from the values a map derives from its source."""
    g, k, s = rmap.source, rmap.k, rmap.block_size
    c = 2 * k + 2
    label_at = {cell: label for label, a, b in g.terminals
                for cell in (a, b)}
    blocks = []
    for gy in range(g.height):
        for gx in range(g.width):
            label = label_at.get((gx, gy))
            blocks.append(
                {"gx": gx, "gy": gy, "kind": "empty", "label": None,
                 "center": None} if label is None else
                {"gx": gx, "gy": gy, "kind": "number", "label": label,
                 "center": [s * gx + c, s * gy + c]})
    return json.dumps({
        "k": k,
        "block_size": s,
        "g_width": g.width,
        "g_height": g.height,
        "blocks": blocks,
        "number_assignment": {str(label): num
                              for label, num in rmap.number_assignment},
        "filler_pairs": [[list(a), list(b)] for a, b in rmap.filler_pairs],
    }, separators=(",", ":")) + "\n"


def partition_of_region_map(rmap):
    groups = {}
    for y in range(rmap.height):
        for x in range(rmap.width):
            groups.setdefault(rmap.ids[y][x], set()).add((x, y))
    return frozenset(frozenset(g) for g in groups.values())


def is_simple_orthogonal_path_reference(cells, width, height):
    """Reference `grid.is_simple_orthogonal_path`: at least two cells, all
    on the grid, none twice, and each a unit orthogonal step from the
    one before."""
    return (len(cells) >= 2
            and all(0 <= x < width and 0 <= y < height for x, y in cells)
            and all(cells.count(cell) == 1 for cell in cells)
            and all(abs(x2 - x1) + abs(y2 - y1) == 1
                    for (x1, y1), (x2, y2) in zip(cells, cells[1:])))


def _check_paths_reference(paths, width, height):
    """`grid._check_paths` as it was when the Wataridori verifier kept a
    degree dict and a set of regions per path: the walk compares bounds
    before it tests types, and raises on a cell that is not a pair."""
    def ints(*values):
        return all(isinstance(v, int) and not isinstance(v, bool)
                   for v in values)

    bad = None
    for idx, path in enumerate(paths):
        if len(path) < 2:
            bad = idx
            break
        px, py = path[0]
        for x, y in path:
            if not (0 <= x < width and 0 <= y < height) \
                    or abs(x - px) + abs(y - py) > 1 \
                    or not (type(x) is int is type(y) or ints(x, y)):
                break
            px, py = x, y
        else:
            continue
        bad = idx
        break
    good = paths[:bad]
    try:
        repeats = len(set(chain.from_iterable(good))) != sum(map(len, good))
        lists = bad is not None and list in set(map(type, paths[bad]))
    except TypeError:
        lists = list in set(map(type, chain.from_iterable(good)))
        if not lists:
            raise
    if lists:
        return _check_paths_reference(
            [tuple(tuple(c) if type(c) is list else c for c in path)
             for path in paths], width, height)
    if not repeats:
        return paths, bad, None
    bad = next((idx for idx, path in enumerate(good)
                if len(set(path)) != len(path)), bad)
    return paths, bad, None if bad is not None else first_shared_cell(paths)


def wataridori_verify_reference(inst, sol):
    """`wataridori.verify_solution` as it was before its endpoint rule
    checked all ends at once: a degree per circle counted path by path,
    and a set of the regions each path has entered."""
    rmap = inst.regions
    circle_at = {c[:2]: c for c in inst.circles}

    paths, bad, shared = _check_paths_reference(sol.paths, rmap.width,
                                                rmap.height)
    if bad is not None:
        return errors.reject(errors.BAD_PATH, path_index=bad,
                             cell=paths[bad][0] if paths[bad] else None,
                             detail="not a simple orthogonal path")

    degree = dict.fromkeys(circle_at, 0)
    for idx, path in enumerate(paths):
        for end in (path[0], path[-1]):
            if end not in degree:
                return errors.reject(errors.ENDPOINT_NOT_CIRCLE,
                                     path_index=idx, cell=end)
            degree[end] += 1
    for cell, count in degree.items():
        if count != 1:
            return errors.reject(errors.UNPAIRED_CIRCLE, cell=cell,
                                 detail=f"circle is an endpoint of {count} "
                                        f"paths")

    if shared is not None:
        return errors.reject(errors.CELL_SHARED, path_index=shared[0],
                             cell=shared[1])

    ids = rmap.ids
    for idx, path in enumerate(paths):
        entered, last = set(), None
        for x, y in path:
            rid = ids[y][x]
            if rid != last:
                if rid in entered:
                    return errors.reject(errors.REGION_REENTERED, idx,
                                         (x, y), f"region {rid} entered "
                                                 f"twice")
                entered.add(rid)
                last = rid
        r = len(entered)
        for circle in (circle_at[path[0]], circle_at[path[-1]]):
            if circle.number is not None and circle.number != r:
                return errors.reject(
                    errors.COUNT_MISMATCH, path_index=idx, cell=circle.cell,
                    detail=f"path has {r} region runs, circle wants "
                           f"{circle.number}")
    return errors.accept()


def _all_simple_paths(start, goal, width, height, forbidden):
    """Every simple orthogonal path from start to goal avoiding cells in
    `forbidden` (endpoints excepted)."""
    out = []
    path = [start]
    on_path = {start}

    def walk():
        x, y = path[-1]
        for nxt in ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y)):
            nx, ny = nxt
            if not (0 <= nx < width and 0 <= ny < height):
                continue
            if nxt == goal:
                out.append(tuple(path) + (goal,))
                continue
            if nxt in on_path or nxt in forbidden:
                continue
            on_path.add(nxt)
            path.append(nxt)
            walk()
            path.pop()
            on_path.discard(nxt)

    walk()
    return out


def numberlink_brute_solvable(inst):
    """Try every combination of simple paths, judged by the verifier."""
    inst = nl.validate_instance(inst)
    terminal_cells = {c for _, a, b in inst.terminals for c in (a, b)}

    def place(idx, used):
        if idx == len(inst.terminals):
            return []
        label, a, b = inst.terminals[idx]
        forbidden = (terminal_cells - {a, b}) | used
        for path in _all_simple_paths(a, b, inst.width, inst.height,
                                      forbidden):
            cells = set(path)
            if cells & used:
                continue
            rest = place(idx + 1, used | cells)
            if rest is not None:
                return [(label, path)] + rest
        return None

    paths = place(0, set())
    if paths is None:
        return False
    sol = nl.NumberlinkSolution(tuple(paths))
    assert nl.verify_solution(inst, sol), "oracle produced a bad candidate"
    return True


def wataridori_brute_solvable(inst, return_solution=False):
    """Enumerate every pairing and every disjoint path system; accept the
    first candidate the verifier accepts."""
    inst = wd.validate_instance(inst)
    circles = sorted(inst.circles, key=lambda c: (c.y, c.x))
    if len(circles) % 2 == 1:
        return (False, None) if return_solution else False
    width, height = inst.width, inst.height
    circle_cells = {c.cell for c in circles}

    def pairings(items):
        if not items:
            yield []
            return
        first = items[0]
        for j in range(1, len(items)):
            rest = items[1:j] + items[j + 1:]
            for tail in pairings(rest):
                yield [(first, items[j])] + tail

    def place(pairs, idx, used, acc):
        if idx == len(pairs):
            sol = wd.WataridoriSolution(tuple(acc))
            if wd.verify_solution(inst, sol):
                return sol
            return None
        a, b = pairs[idx]
        forbidden = (circle_cells - {a.cell, b.cell}) | used
        for path in _all_simple_paths(a.cell, b.cell, width, height,
                                      forbidden):
            cells = set(path)
            if cells & used:
                continue
            found = place(pairs, idx + 1, used | cells, acc + [path])
            if found is not None:
                return found
        return None

    for pairing in pairings(circles):
        found = place(pairing, 0, set(), [])
        if found is not None:
            return (True, found) if return_solution else True
    return (False, None) if return_solution else False


# The exact solvers on (x, y) tuple cells, with nested occupancy and region
# lists and a dict neighbor table.  The library's flat-index solvers must
# return equal results, node for node.

def tuple_steps(width, height):
    """The in-bounds neighbors of every cell, up, down, left, right."""
    return {(x, y): tuple((nx, ny) for nx, ny in ((x, y + 1), (x, y - 1),
                                                  (x - 1, y), (x + 1, y))
                          if 0 <= nx < width and 0 <= ny < height)
            for y in range(height) for x in range(width)}


def steps_toward(neighbors, cell, goal):
    """The neighbors of `cell` that are nearer `goal`, then the rest, each
    part in the order `neighbors` lists them."""
    gx, gy = goal
    here = abs(gx - cell[0]) + abs(gy - cell[1])
    return sorted(neighbors[cell],
                  key=lambda c: abs(gx - c[0]) + abs(gy - c[1]) > here)


def touches_itself(neighbors, path, nxt, region=None):
    """Whether `nxt` is next to a cell of `path` other than its last one,
    in the same region as `nxt` if a `region` map is given.  The searches
    never step onto such a cell: the path through the touch is a shortcut,
    and within one region it keeps the region runs."""
    def zone(cell):
        return region.ids[cell[1]][cell[0]] if region else 0
    return any(m in path[:-1] and zone(m) == zone(nxt)
               for m in neighbors[nxt])


def border_place(cell, width, height):
    """How far along the grid's edge `cell` lies, counted from (0, 0) along
    the bottom row, up the right column, left along the top row and down
    the left column; None for a cell off the edge.  On a grid one cell
    wide or high this is the cell's place along the line."""
    x, y = cell
    if y == 0:
        return x
    if x == width - 1:
        return width - 1 + y
    if y == height - 1:
        return 2 * (width - 1) + y - x
    if x == 0:
        return 2 * (width - 1) + 2 * (height - 1) - y
    return None


def border_crossing(inst):
    """Whether two pairs have their four ends on the grid's edge in
    alternating order, by comparing the places of every two such pairs.
    Two disjoint paths cannot join such pairs, since the edge bounds the
    outer face of the planar grid."""
    spans = []
    for _, a, b in inst.terminals:
        ends = [border_place(c, inst.width, inst.height) for c in (a, b)]
        if None not in ends:
            spans.append(sorted(ends))
    return any(a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
               for (a1, b1), (a2, b2) in combinations(spans, 2))


def numberlink_solve_reference(inst, budget=DEFAULT_BUDGET):
    inst = nl.validate_instance(inst)
    width, height = inst.width, inst.height
    occ = [[0] * width for _ in range(height)]
    for label, a, b in inst.terminals:
        occ[a[1]][a[0]] = label
        occ[b[1]][b[0]] = label

    neighbors = tuple_steps(width, height)
    pairs = list(inst.terminals)
    bud = Budget(budget)
    if border_crossing(inst):
        return SolveResult(UNSAT, nodes=0)
    spend = bud.spend
    paths = []

    def reachable(src, dst):
        if src == dst:
            return True
        seen = {src}
        stack = [src]
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt == dst:
                    return True
                if nxt in seen or occ[nxt[1]][nxt[0]] != 0:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return False

    def pending_ok(current_idx, head):
        if not reachable(head, pairs[current_idx][2]):
            return False
        for label, a, b in pairs[current_idx + 1:]:
            if not reachable(a, b):
                return False
        return True

    def route(idx):
        if idx == len(pairs):
            yield FOUND
            return
        label, a, b = pairs[idx]
        path = [a]
        paths.append(path)
        yield extend(idx, path, b)
        paths.pop()

    def extend(idx, path, goal):
        for nxt in steps_toward(neighbors, path[-1], goal):
            nx, ny = nxt
            spend()
            if touches_itself(neighbors, path, nxt):
                continue
            if nxt == goal:
                path.append(nxt)
                yield route(idx + 1)
                path.pop()
                continue
            if occ[ny][nx] != 0:
                continue
            occ[ny][nx] = pairs[idx][0]
            path.append(nxt)
            if pending_ok(idx, nxt):
                yield extend(idx, path, goal)
            path.pop()
            occ[ny][nx] = 0

    return run(route(0), lambda: bud.nodes,
               lambda: nl.NumberlinkSolution(tuple(
                   (label, tuple(path))
                   for (label, _, _), path in zip(pairs, paths))))


def wataridori_solve_reference(inst, budget=DEFAULT_BUDGET):
    inst = wd.validate_instance(inst)
    rmap = inst.regions
    width, height = rmap.width, rmap.height
    # Most constrained first: numbered circles, highest number first, then
    # wildcards; ties by (y, x).
    circles = sorted(inst.circles, key=lambda c: (
        c.number is None, -(c.number or 0), c.y, c.x))
    n = len(circles)
    if n % 2 == 1:
        return SolveResult(UNSAT, nodes=0)

    blocked = [[False] * width for _ in range(height)]
    for x, y, _ in circles:
        blocked[y][x] = True
    neighbors = tuple_steps(width, height)
    bud = Budget(budget)
    spend = bud.spend
    paths = []
    paired = [False] * n

    adjacent = {}
    for (x, y), nbrs in neighbors.items():
        adjacent.setdefault(rmap.ids[y][x], set()).update(
            rmap.ids[ny][nx] for nx, ny in nbrs)
    dists = {}

    def distance_to(goal):
        """Steps in the region adjacency graph from each region to the
        region of cell `goal`, by BFS."""
        goal_rid = rmap.ids[goal[1]][goal[0]]
        if goal_rid not in dists:
            dist = {goal_rid: 0}
            queue = deque([goal_rid])
            while queue:
                rid = queue.popleft()
                for nrid in adjacent[rid]:
                    if nrid not in dist:
                        dist[nrid] = dist[rid] + 1
                        queue.append(nrid)
            dists[goal_rid] = dist
        return dists[goal_rid]

    def compatible(a, b):
        return a.number is None or b.number is None or a.number == b.number

    # The circles each numbered circle may pair with: numbered alike or
    # wildcards, in the regions within number - 1 steps of its own, and not
    # in its own region unless its number is 1.  The relation is symmetric
    # between numbered circles, so the distances are read from the lister's
    # region.
    by_region = {}
    for j, b in enumerate(circles):
        by_region.setdefault(rmap.ids[b.y][b.x], []).append(j)
    mates = {}
    listers = {j: set() for j in range(n)}
    for c, a in enumerate(circles):
        if a.number is not None:
            mates[c] = {j for rid, d in distance_to(a.cell).items()
                        if d < a.number and (d or a.number == 1)
                        for j in by_region.get(rid, ())
                        if j != c and compatible(a, circles[j])}
            for j in mates[c]:
                listers[j].add(c)

    def dfs(path, run_ids, run_set, target, goal):
        for nxt in steps_toward(neighbors, path[-1], goal):
            nx, ny = nxt
            spend()
            rid = rmap.ids[ny][nx]
            if touches_itself(neighbors, path, nxt,
                              None if target is None else rmap):
                continue
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
                if target is not None and len(run_ids) + 1 + \
                        distance_to(goal)[rid] > target:
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

    def unpaired_mates(c):
        return sum(not paired[i] for i in mates[c])

    def pair_next():
        # The numbered circle with the fewest unpaired partners, ties by
        # index; once every numbered circle is paired, the first wildcard.
        first = min((c for c in mates if not paired[c]),
                    key=lambda c: (unpaired_mates(c), c), default=None)
        if first is None:
            first = next((i for i in range(n) if not paired[i]), None)
        if first is None:
            yield FOUND
            return
        paired[first] = True
        a = circles[first]
        rid = rmap.ids[a.y][a.x]
        for j, b in enumerate(circles):
            if paired[j] or not (a.number is None or j in mates[first]):
                continue
            spend()
            paired[j] = True
            # Route the pair only if each circle listing an end keeps an
            # unpaired partner.
            if all(unpaired_mates(c) for c in listers[first] | listers[j]
                   if not paired[c]):
                target = a.number if a.number is not None else b.number
                yield dfs([a.cell], [rid], {rid}, target, b.cell)
            paired[j] = False
        paired[first] = False

    return run(pair_next(), lambda: bud.nodes,
               lambda: wd.WataridoriSolution(tuple(paths)))


def numberlink_parse_instance_reference(text):
    """Reference `numberlink.parse_instance`: the parser as it was when it
    read its terminal entries one by one."""
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
    terminals = []
    for i, entry in enumerate(docs.as_list(doc["terminals"], "terminals")):
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
    return nl.NumberlinkInstance(width, height, tuple(terminals))


def numberlink_parse_solution_reference(text):
    """Reference `numberlink.parse_solution`: the parser as it was when it
    read its path entries one by one."""
    doc = docs._document(text)
    docs.check_fields(doc, ["paths"], [], "document")
    paths = []
    for i, entry in enumerate(docs.as_list(doc["paths"], "paths")):
        loc = f"paths[{i}]"
        entry = docs.require_object(entry, loc)
        docs.check_fields(entry, ["label", "cells"], [], loc)
        label = docs.as_int(entry["label"], loc + ".label")
        cells = docs.as_cells(entry["cells"], loc + ".cells")
        paths.append((label, tuple(cells)))
    return nl.NumberlinkSolution(tuple(paths))


def wataridori_parse_solution_reference(text):
    """Reference `wataridori.parse_solution`: the parser as it was before
    the puzzles shared one entry reader, kept with its per-entry path
    alone, which gave every value its bulk path accepted."""
    doc = docs._document(text)
    docs.check_fields(doc, ["paths"], [], "document")
    entries = docs.as_list(doc["paths"], "paths")
    paths = []
    for i, entry in enumerate(entries):
        loc = f"paths[{i}]"
        entry = docs.require_object(entry, loc)
        docs.check_fields(entry, ["cells"], [], loc)
        paths.append(tuple(docs.as_cells(entry["cells"], loc + ".cells")))
    return wd.WataridoriSolution(tuple(paths))


def svg_reference(width, height, ids, paths, marks):
    """Reference `render._svg`: the SVG drawer as it was before it kept a
    frame per board shape, walls and all formatted on every call.  The
    tests require the library's SVG renders to equal it byte for byte."""
    u = 40
    w, h = width * u, height * u
    edge = [True] * width
    hwalls = [edge]
    hwalls += [[a != b for a, b in zip(ids[y - 1], ids[y])]
               for y in range(1, height)]
    hwalls.append(edge)
    vwalls = [[True, *(a != b for a, b in zip(row, row[1:])), True]
              for row in ids]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
             f'width="{w}" height="{h}">',
             f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>']
    grey = 'stroke="#cccccc" stroke-width="1"/>'
    for x in range(width + 1):
        parts.append(f'<line x1="{x * u}" y1="0" x2="{x * u}" y2="{h}" {grey}')
    for y in range(height + 1):
        parts.append(f'<line x1="0" y1="{y * u}" x2="{w}" y2="{y * u}" {grey}')
    black = 'stroke="black" stroke-width="4"/>'
    for x in range(width):
        for y in range(height + 1):
            if hwalls[y][x]:
                parts.append(f'<line x1="{x * u}" y1="{h - y * u}" '
                             f'x2="{x * u + u}" y2="{h - y * u}" {black}')
    for x in range(width + 1):
        for y in range(height):
            if vwalls[y][x]:
                parts.append(f'<line x1="{x * u}" y1="{h - y * u}" '
                             f'x2="{x * u}" y2="{h - y * u - u}" {black}')
    half = u // 2
    for path in paths:
        points = " ".join(f"{x * u + half},{h - y * u - half}"
                          for x, y in path)
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="red" stroke-width="4"/>')
    for x, y, text, circled in marks:
        cx, cy = x * u + half, h - y * u - half
        if circled:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{u * 3 // 8}" '
                         f'fill="white" stroke="black" stroke-width="2"/>')
        if text:
            parts.append(f'<text x="{cx}" y="{cy}" font-size="{half}" '
                         f'text-anchor="middle" dominant-baseline="central">'
                         f'{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ascii_reference(width, height, ids, paths, marks):
    """Reference `render._ascii`: the ASCII drawer as it was when it built
    wall tables first, `hwalls[y][x]` for the wall along the bottom of
    cell (x, y) and `vwalls[y][x]` for the one along its left, and then
    read each entry of them once.  The tests require the library's ASCII
    renders to equal it byte for byte."""
    edge = [True] * width
    hwalls = [edge]
    hwalls += [list(map(ne, ids[y - 1], ids[y])) for y in range(1, height)]
    hwalls.append(edge)
    vwalls = [[True, *map(ne, row, row[1:]), True] for row in ids]
    cell_w = max(3, max((len(m[2]) for m in marks), default=1) + 2)
    dash, blank, star = "-" * cell_w, " " * cell_w, "*".center(cell_w)
    cells = [[blank] * width for _ in range(height)]
    for x, y in chain.from_iterable(paths):
        if 0 <= x < width and 0 <= y < height:
            cells[y][x] = star
    for x, y, text, circled in marks:
        if 0 <= x < width and 0 <= y < height:
            shown = f"({text or ' '})" if circled else text
            cells[y][x] = shown.center(cell_w)
    lines = []
    for y in range(height, -1, -1):
        lines.append("+" + "+".join([dash if w else blank
                                     for w in hwalls[y]]) + "+")
        if y:
            bars = ["|" if w else " " for w in vwalls[y - 1]]
            lines.append(("".join(map(add, bars, cells[y - 1]))
                          + bars[width]).rstrip())
    return "\n".join(lines) + "\n"
