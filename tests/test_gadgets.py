"""The gadget facts the reverse direction of the reduction rests on.

A solution of `reduce(G)` yields a solution of G because of four facts
about one block at a time, each checked here exhaustively on the block
templates of `reduction._block` and their `block_region_map`:

  1. fillers are closed off: no filler circle's region holds a cell that a
     path entering through a port can reach;
  2. an empty block is crossed only along its plus, through its middle
     cell, in one region run;
  3. no path crosses a number block from port to port, and a path from a
     port to the center has 2k+2, 2k+4, ..., 4k+2 runs;
  4. an entry cell merges with the region across the block border: the
     walls close every border segment but the four ports', so the ports
     of neighbouring blocks face each other and nothing else joins.

Paths are simple, run over cells without a circle and enter no region
twice, as in a Wataridori solution.  A port is a corridor cell on the
block edge.  The README's correctness section joins the facts.
"""

from collections import Counter

import pytest

from watarilink import numberlink as nl
from watarilink import reduction as rd
from watarilink.grid import (HORIZONTAL, VERTICAL, Wall, region_runs,
                             regions_from_walls)

KS = range(1, 7)


def ports(s):
    """The four corridor cells on the edge of a block of side `s`."""
    c = s // 2
    return [(c, 0), (s - 1, c), (c, s - 1), (0, c)]


def simple_paths(tpl, start, ends, blocked):
    """Every path from `start` over cells not in `blocked` that enters no
    region twice and ends at the first cell of `ends` it steps onto."""
    s, ids = tpl.size, rd.block_region_map(tpl).ids
    rid = ids[start[1]][start[0]]
    path, on, entered = [start], {start}, {rid}

    def grow(x, y, rid):
        for nx, ny in ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y)):
            nxt = (nx, ny)
            if not (0 <= nx < s and 0 <= ny < s) or nxt in on:
                continue
            nrid = ids[ny][nx]
            if nrid != rid and nrid in entered:
                continue
            if nxt in ends:
                yield path + [nxt]
            elif nxt not in blocked:
                path.append(nxt)
                on.add(nxt)
                entered.add(nrid)
                yield from grow(nx, ny, nrid)
                if nrid != rid:
                    entered.discard(nrid)
                on.discard(nxt)
                path.pop()

    return list(grow(*start, rid))


def circle_cells(tpl):
    """The template's circles, with the number block's center circle."""
    cells = {circle.cell for circle in tpl.circles}
    if tpl.center is not None:
        cells.add(tpl.center)
    return cells


@pytest.mark.parametrize("ladders", [False, True])
@pytest.mark.parametrize("k", KS)
def test_fillers_are_closed_off(k, ladders):
    tpl = rd._block(k, ladders)
    s, rmap = tpl.size, rd.block_region_map(tpl)
    blocked = circle_cells(tpl)
    edge = {(x, y) for x in range(s) for y in range(s)
            if {x, y} & {0, s - 1}}
    # A path reaches a block only through its ports.
    assert edge - blocked == set(ports(s))
    filler_regions = {rmap.id_at(circle.cell) for circle in tpl.circles}
    assert len(filler_regions) == 4
    reached, stack = set(ports(s)), ports(s)
    while stack:
        x, y = stack.pop()
        for nxt in ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y)):
            if nxt not in reached and nxt not in blocked \
                    and 0 <= nxt[0] < s and 0 <= nxt[1] < s:
                reached.add(nxt)
                stack.append(nxt)
    assert not {rmap.id_at(cell) for cell in reached} & filler_regions


@pytest.mark.parametrize("ladders", [False, True])
@pytest.mark.parametrize("k", KS)
def test_walls_close_the_border_but_its_ports(k, ladders):
    """The reduction joins neighbouring blocks only at their ports, the
    middle cells of their sides, so every other unit segment of a block's
    border must be walled."""
    tpl = rd._block(k, ladders)
    s, c = tpl.size, tpl.size // 2
    border = {Wall(kind, x, y) for t in range(s) for kind, x, y in (
        (VERTICAL, 0, t), (VERTICAL, s, t),
        (HORIZONTAL, t, 0), (HORIZONTAL, t, s))}
    assert border - tpl.walls == {
        Wall(VERTICAL, 0, c), Wall(VERTICAL, s, c),
        Wall(HORIZONTAL, c, 0), Wall(HORIZONTAL, c, s)}


@pytest.mark.parametrize("k", KS)
def test_empty_block_is_crossed_only_along_its_plus(k):
    tpl = rd._block(k, False)
    rmap, blocked = rd.block_region_map(tpl), circle_cells(tpl)
    paths = [path for port in ports(tpl.size)
             for path in simple_paths(tpl, port, set(ports(tpl.size)) -
                                      {port}, blocked)]
    assert len(paths) == 12
    assert all(len(region_runs(path, rmap)) == 1 for path in paths)
    # Each passes the plus's middle cell, so it is crossed at most once.
    middle = (tpl.size // 2, tpl.size // 2)
    assert all(middle in path for path in paths)


@pytest.mark.parametrize("k", KS)
def test_number_block_is_entered_only_to_its_center(k):
    tpl = rd._block(k, True)
    rmap, blocked = rd.block_region_map(tpl), circle_cells(tpl)
    total = 0
    for port in ports(tpl.size):
        assert simple_paths(tpl, port, set(ports(tpl.size)) - {port},
                            blocked) == []
        runs = Counter(len(region_runs(path, rmap)) for path in
                       simple_paths(tpl, port, {tpl.center}, blocked))
        assert sorted(runs) == list(range(2 * k + 2, 4 * k + 3, 2))
        total += sum(runs.values())
    assert total == 2 ** (2 * k + 1)
    if k <= 3:
        assert total == {1: 8, 2: 32, 3: 128}[k]


def placed(k, kinds, m):
    """The RegionMap of blocks laid `m` to a row, bottom row first, where
    a true kind is a number block and a false one an empty block."""
    tpls = [rd._block(k, ladders) for ladders in (False, True)]
    s = tpls[0].size
    walls = {Wall(kind, x + s * (i % m), y + s * (i // m))
             for i, ladders in enumerate(kinds)
             for kind, x, y in tpls[ladders].walls}
    return regions_from_walls(walls, s * m, s * (len(kinds) // m))


def region_of(rmap, cell):
    rid = rmap.id_at(cell)
    return {(x, y) for y, row in enumerate(rmap.ids)
            for x, r in enumerate(row) if r == rid}


@pytest.mark.parametrize("k", KS)
def test_entry_cells_merge_across_block_borders(k):
    s = 4 * k + 5
    c = s // 2
    # Side by side and stacked, the facing entry cells of two number
    # blocks form one 2-cell region.
    assert region_of(placed(k, [True, True], 2), (s - 1, c)) == \
        {(s - 1, c), (s, c)}
    assert region_of(placed(k, [True, True], 1), (c, s - 1)) == \
        {(c, s - 1), (c, s)}
    # An empty block between them joins both entry cells to its plus.
    plus = {(s + c, y) for y in range(s)} | {(s + x, c) for x in range(s)}
    assert region_of(placed(k, [True, False, True], 3), (s - 1, c)) == \
        plus | {(s - 1, c), (2 * s, c)}
    assert len(plus) + 2 == 8 * k + 11


@pytest.mark.parametrize("width, size", [(2, 2), (3, 19)])
def test_reductions_hold_the_merged_entry_regions(width, size):
    # One pair on the two end cells of a width x 1 source: k = 1, s = 9.
    g = nl.NumberlinkInstance(width, 1, ((1, (0, 0), (width - 1, 0)),))
    h, _ = rd.reduce_instance(g)
    kinds = [True] + [False] * (width - 2) + [True]
    merged = region_of(placed(1, kinds, width), (8, 4))
    assert len(merged) == size
    assert region_of(h.regions, (8, 4)) == merged
