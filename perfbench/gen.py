"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code: it builds plain Python data
(terminals, region rows, circles, paths) and JSON documents, never calling
the library, so the library only ever sees the generated documents.

Coordinates follow the library's documents: (x, y) with y growing upward,
region rows listed bottom row first.
"""

from __future__ import annotations

import json
import random

from check import AMBIGUOUS, nl_rule, region_runs, wd_rule

STEPS = ((0, 1), (0, -1), (-1, 0), (1, 0))


def _free_neighbors(cell, width, height, blocked):
    x, y = cell
    out = []
    for dx, dy in STEPS:
        nxt = (x + dx, y + dy)
        if 0 <= nxt[0] < width and 0 <= nxt[1] < height \
                and nxt not in blocked:
            out.append(nxt)
    return out


def _walk(rng, width, height, blocked, length, allowed_step=None):
    """A self-avoiding random walk of 2..length cells through free cells,
    or None when the chosen start is boxed in."""
    free = [(x, y) for y in range(height) for x in range(width)
            if (x, y) not in blocked]
    if len(free) < 2:
        return None
    path = [rng.choice(free)]
    on_path = {path[0]}
    while len(path) < length:
        options = [c for c in _free_neighbors(path[-1], width, height,
                                              blocked)
                   if c not in on_path
                   and (allowed_step is None or allowed_step(path, c))]
        if not options:
            break
        nxt = rng.choice(options)
        path.append(nxt)
        on_path.add(nxt)
    return path if len(path) >= 2 else None


# --------------------------------------------------------------- numberlink

def planted_numberlink(rng, width, height, pairs, max_len):
    """Terminals and planted paths made of disjoint self-avoiding walks.

    Labels are 1..p in listing order, so the library's normalization of
    labels is the identity on these boards."""
    for _ in range(10_000):
        blocked = set()
        paths = []
        for _ in range(pairs):
            path = _walk(rng, width, height, blocked,
                         rng.randint(2, max_len))
            if path is None:
                break
            blocked.update(path)
            paths.append(path)
        else:
            terminals = [(i + 1, p[0], p[-1]) for i, p in enumerate(paths)]
            return terminals, [(i + 1, p) for i, p in enumerate(paths)]
    raise RuntimeError(f"cannot plant {pairs} walks on {width}x{height}")


def uniform_numberlink(rng, width, height, pairs):
    """Terminals on 2p distinct cells drawn uniformly; solvability unknown."""
    cells = rng.sample([(x, y) for y in range(height) for x in range(width)],
                       2 * pairs)
    return [(i + 1, cells[2 * i], cells[2 * i + 1]) for i in range(pairs)]


def numberlink_doc(width, height, terminals):
    return json.dumps({
        "puzzle": "numberlink", "width": width, "height": height,
        "terminals": [{"label": label, "cells": [list(a), list(b)]}
                      for label, a, b in terminals]})


def numberlink_solution_doc(paths):
    return json.dumps({"paths": [
        {"label": label, "cells": [list(c) for c in cells]}
        for label, cells in paths]})


# --------------------------------------------------------------- wataridori

def grow_regions(rng, width, height, count):
    """Random region growth from `count` seeds; rows bottom first, dense ids."""
    ids = [[-1] * width for _ in range(height)]
    seeds = rng.sample([(x, y) for y in range(height) for x in range(width)],
                       count)
    frontier = []
    for rid, (x, y) in enumerate(seeds):
        ids[y][x] = rid
        frontier += [(rid, c) for c in _free_neighbors((x, y), width, height,
                                                       ())]
    while frontier:
        rid, (x, y) = frontier.pop(rng.randrange(len(frontier)))
        if ids[y][x] != -1:
            continue
        ids[y][x] = rid
        frontier += [(rid, c) for c in _free_neighbors((x, y), width, height,
                                                       ())
                     if ids[c[1]][c[0]] == -1]
    return ids


def planted_wataridori(rng, width, height, regions, pairs, max_len,
                       wildcard_share=0.3):
    """Regions, circles and planted paths.

    Each walk never re-enters a region it has left; its two endpoint circles
    carry the walk's region-run count, each replaced by a wildcard with
    probability `wildcard_share`."""
    ids = grow_regions(rng, width, height, regions)

    def no_reentry(path, nxt):
        rid = ids[nxt[1]][nxt[0]]
        runs = region_runs(path, ids)
        return rid == runs[-1] or rid not in runs

    for _ in range(10_000):
        blocked = set()
        paths = []
        for _ in range(pairs):
            path = _walk(rng, width, height, blocked,
                         rng.randint(2, max_len), no_reentry)
            if path is None:
                break
            blocked.update(path)
            paths.append(path)
        else:
            circles = []
            for path in paths:
                runs = len(region_runs(path, ids))
                for end in (path[0], path[-1]):
                    number = None if rng.random() < wildcard_share else runs
                    circles.append((end[0], end[1], number))
            circles.sort(key=lambda c: (c[1], c[0]))
            return ids, circles, paths
    raise RuntimeError(f"cannot plant {pairs} walks on {width}x{height}")


def wataridori_doc(width, height, ids, circles):
    circle_docs = []
    for x, y, number in circles:
        entry = {"x": x, "y": y}
        if number is not None:
            entry["number"] = number
        circle_docs.append(entry)
    return json.dumps({"puzzle": "wataridori", "width": width,
                       "height": height, "regions": ids,
                       "circles": circle_docs})


def wataridori_solution_doc(paths):
    return json.dumps({"paths": [{"cells": [list(c) for c in p]}
                                 for p in paths]})


# ---------------------------------------------------------------- mutations

def _bump(rng, paths, idx, width, height):
    """Replace one step u->v of path `idx` by the detour u->c->d->v around
    a unit square; c and d may lie on other paths but not on this one."""
    path = paths[idx]
    own = set(path)
    steps = list(range(len(path) - 1))
    rng.shuffle(steps)
    for i in steps:
        (ux, uy), (vx, vy) = path[i], path[i + 1]
        dx, dy = vx - ux, vy - uy
        sides = [(-dy, dx), (dy, -dx)]
        rng.shuffle(sides)
        for sx, sy in sides:
            c, d = (ux + sx, uy + sy), (vx + sx, vy + sy)
            if all(0 <= p[0] < width and 0 <= p[1] < height
                   and p not in own for p in (c, d)):
                return path[:i + 1] + [c, d] + path[i + 1:]
    return None


def _edits(rng, paths, width, height):
    """Candidate single edits of one random path, as (index, new cells);
    new cells of None drop the path."""
    idx = rng.randrange(len(paths))
    path = paths[idx]
    out = [(idx, None)]
    if len(path) >= 3:
        cut = rng.randrange(1, len(path) - 1)
        out.append((idx, path[:cut] + path[cut + 1:]))
        out.append((idx, path[:-1]))
    bumped = _bump(rng, paths, idx, width, height)
    if bumped is not None:
        out.append((idx, bumped))
    return out


def _replace(items, idx, item):
    return items[:idx] + ([] if item is None else [item]) + items[idx + 1:]


def mutate_numberlink(rng, width, height, terminals, paths):
    """A single-edit mutation of a correct solution and its expected rule,
    classified by the benchmark's own checker (never ambiguous)."""
    while True:
        cells = [c for _, c in paths]
        candidates = [
            _replace(paths, idx, None if new is None
                     else (paths[idx][0], new))
            for idx, new in _edits(rng, cells, width, height)]
        idx = rng.randrange(len(paths))
        unknown = max(label for label, _, _ in terminals) + 1
        candidates.append(_replace(paths, idx, (unknown, paths[idx][1])))
        mutated = rng.choice(candidates)
        rule = nl_rule(width, height, terminals, mutated)
        if rule != AMBIGUOUS:
            return mutated, rule


def mutate_wataridori(rng, width, height, ids, circles, paths):
    """A single-edit mutation of a correct solution and its expected rule."""
    idx, new = rng.choice(_edits(rng, paths, width, height))
    mutated = _replace(paths, idx, new)
    return mutated, wd_rule(width, height, ids, circles, mutated)


def rng_for(stream, seed):
    """An independent random stream per purpose and seed."""
    return random.Random(f"{stream}/{seed}")
