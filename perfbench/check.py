"""The benchmark's own rule checkers, written independently of the library.

They return the first violated rule code in the verifiers' documented check
order, or None when every rule holds.  The benchmark uses them to classify
generated mutations and to check solver answers; the library's verifiers are
only ever the thing being measured.
"""

from __future__ import annotations

AMBIGUOUS = "AMBIGUOUS"


def _simple_path(cells, width, height):
    if len(cells) < 2 or len(set(cells)) != len(cells):
        return False
    for i, (x, y) in enumerate(cells):
        if not (0 <= x < width and 0 <= y < height):
            return False
        if i and abs(x - cells[i - 1][0]) + abs(y - cells[i - 1][1]) != 1:
            return False
    return True


def region_runs(cells, ids):
    """Region ids along a path with consecutive repeats collapsed."""
    runs = []
    for x, y in cells:
        if not runs or runs[-1] != ids[y][x]:
            runs.append(ids[y][x])
    return runs


def _shared(paths):
    owner = {}
    for idx, cells in enumerate(paths):
        for cell in cells:
            if owner.setdefault(cell, idx) != idx:
                return True
    return False


def nl_rule(width, height, terminals, paths):
    """Numberlink: labels, path structure, endpoints, then crossing/sharing.

    `terminals` is [(label, a, b)], `paths` is [(label, cells)].  A solution
    that both crosses a terminal and shares a cell is reported as AMBIGUOUS,
    because the verifier's docstring and code order those two checks
    differently."""
    ends = {label: {a, b} for label, a, b in terminals}
    seen = set()
    for label, _ in paths:
        if label not in ends:
            return "UNKNOWN_LABEL"
        if label in seen:
            return "DUPLICATE_PATH_LABEL"
        seen.add(label)
    if seen != set(ends):
        return "MISSING_PATH"
    for _, cells in paths:
        if not _simple_path(cells, width, height):
            return "BAD_PATH"
    for label, cells in paths:
        if {cells[0], cells[-1]} != ends[label]:
            return "ENDPOINT_MISMATCH"
    terminal_cells = set().union(*ends.values())
    crossed = any(c in terminal_cells for _, cells in paths
                  for c in cells[1:-1])
    shared = _shared([cells for _, cells in paths])
    if crossed and shared:
        return AMBIGUOUS
    if crossed:
        return "TERMINAL_CROSSED"
    return "CELL_SHARED" if shared else None


def wd_rule(width, height, ids, circles, paths):
    """Wataridori: structure, endpoints are circles, pairing, sharing,
    region re-entry, run counts.

    `ids` are region rows bottom first, `circles` is [(x, y, number or
    None)], `paths` is [cells]."""
    for cells in paths:
        if not _simple_path(cells, width, height):
            return "BAD_PATH"
    number = {(x, y): n for x, y, n in circles}
    if any(end not in number for cells in paths
           for end in (cells[0], cells[-1])):
        return "ENDPOINT_NOT_CIRCLE"
    degree = dict.fromkeys(number, 0)
    for cells in paths:
        degree[cells[0]] += 1
        degree[cells[-1]] += 1
    if any(d != 1 for d in degree.values()):
        return "UNPAIRED_CIRCLE"
    if _shared(paths):
        return "CELL_SHARED"
    runs = []
    for cells in paths:
        run = region_runs(cells, ids)
        if len(set(run)) != len(run):
            return "REGION_REENTERED"
        runs.append(len(run))
    for cells, count in zip(paths, runs):
        wanted = {number[cells[0]], number[cells[-1]]} - {None}
        if wanted and wanted != {count}:
            return "COUNT_MISMATCH"
    return None
