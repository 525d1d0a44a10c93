"""Translate Numberlink instances into equivalent Wataridori instances.

Every cell of an m x n Numberlink grid becomes an s x s block (s = 4k+5)
in a Wataridori grid of (s*m) x (s*n) cells.  A terminal cell becomes a
"number" block carrying a center circle; an empty cell becomes an "empty"
block.  Both block kinds are built from the same skeleton:

  * four (2k+2) x (2k+2) walled quadrants in the corners,
  * a plus-shaped open corridor through the middle row and column,
  * a ring of number-1 "filler" circles around each quadrant, pre-matched
    into adjacent same-region pairs.

A number block additionally carves a 2 x 2k ladder of 1x1 regions into
each corridor arm, isolating four 1-cell entry regions at the block edges
and a 5-cell plus region around the center circle.  The walls close
every block border but its four ports, the middle cells of its sides, so
the ports of adjacent blocks face each other and their regions merge.

The target is assembled from the two templates alone.  Each is flooded
into regions once; every block is a copy of its kind's region map, and
the border merge joins the regions of facing ports and numbers the merged
regions in canonical order.  No flood runs over the target grid.  A
number block's circles are its kind's with the center circle inserted,
one template per center number.

The center circles of the i-th label in terminal order get number 4k+2i+1.
With k chosen so that 2k+1 >= p, those numbers are distinct odd values in
{4k+3, ..., 8k+3}, which pins each pairing in the target puzzle to the
pairing of the source puzzle.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from . import documents as docs
from .errors import ParseError, ValidationError
from .grid import (Cell, HORIZONTAL, VERTICAL, RegionMap, Wall, check_size,
                   regions_from_walls)
from .numberlink import (NumberlinkInstance, _instance_document,
                         parse_instance, validate_instance)
from .wataridori import Circle, WataridoriInstance, _as_circle


WallFields = Tuple[str, int, int]


class BlockTemplate(NamedTuple):
    """One block's geometry in block-local coordinates."""

    size: int
    walls: FrozenSet[Wall]
    circles: Tuple[Circle, ...]
    filler_pairs: Tuple[Tuple[Cell, Cell], ...]
    center: Optional[Cell] = None


class ReductionMap(NamedTuple):
    """What relates a source instance to its reduction: the validated
    source, from which the ladder parameter k and everything else the
    reduction placed are derived."""

    source: NumberlinkInstance

    @property
    def k(self) -> int:
        return choose_k(self.source.pair_count)

    @property
    def block_size(self) -> int:
        return 4 * self.k + 5

    @property
    def number_assignment(self) -> Tuple[Tuple[int, int], ...]:
        """(label, center circle number) per source label, in terminal
        order: the i-th label's centers get 4k + 2i + 1."""
        k, terminals = self.k, self.source.terminals
        return tuple((label, 4 * k + 2 * i + 1)
                     for i, (label, _, _) in enumerate(terminals, 1))

    @property
    def filler_pairs(self) -> Tuple[Tuple[Cell, Cell], ...]:
        """Every pre-matched filler pair, in target-grid coordinates."""
        g, k, s = self.source, self.k, self.block_size
        ends = {cell for _, a, b in g.terminals for cell in (a, b)}
        kinds = [_block(k, ladders).filler_pairs for ladders in (False, True)]
        blocks = ((s * gx, s * gy, kinds[(gx, gy) in ends])
                  for gy in range(g.height) for gx in range(g.width))
        return tuple(((ax + ox, ay + oy), (bx + ox, by + oy))
                     for ox, oy, pairs in blocks
                     for (ax, ay), (bx, by) in pairs)


def choose_k(pair_count: int) -> int:
    """Smallest usable ladder parameter: ceil((p-1)/2), floored at 1."""
    if pair_count < 1:
        raise ValidationError("NO_LABELS", "need at least one pair")
    return max(1, pair_count // 2)


def _rot_cell(cell: Cell, size: int) -> Cell:
    x, y = cell
    return (size - 1 - y, x)


# Walls built in bulk are made from the plain tuples they equal, by one C
# call each rather than through the Python constructor, as circles are by
# `wataridori._as_circle`.
_as_wall = partial(tuple.__new__, Wall)


def _rot_wall(wall: WallFields, size: int) -> WallFields:
    """`wall` turned a quarter like `_rot_cell`, its lattice points
    (x, y) going to (size - y, x)."""
    kind, x, y = wall
    if kind == HORIZONTAL:
        return (VERTICAL, size - y, x)
    return (HORIZONTAL, size - 1 - y, x)


def _lattice_walls(x0: int, x1: int, y0: int, y1: int) -> Set[WallFields]:
    """All unit grid lines inside and on the lattice rectangle."""
    walls: Set[WallFields] = set()
    for x in range(x0, x1 + 1):
        for y in range(y0, y1):
            walls.add((VERTICAL, x, y))
    for y in range(y0, y1 + 1):
        for x in range(x0, x1):
            walls.add((HORIZONTAL, x, y))
    return walls


# A cell's or a circle's (y, x), the order circles and filler pairs are
# listed in.
_yx = itemgetter(1, 0)


def _block(k: int, ladders: bool) -> BlockTemplate:
    """The skeleton both gadgets share: four walled quadrants, each ringed
    by number-1 filler circles matched in pairs along its sides.  With
    `ladders` it is the number block without its center circle: each arm
    carries a ladder, whose flank column pushes the ring's inner column
    in from x = 2k+1 to x = 2k.  The bottom-left quarter is built and
    turned into the other three."""
    if k < 1:
        raise ValidationError("BAD_K", f"k must be at least 1, got {k}")
    s = 4 * k + 5
    c = 2 * k + 2  # quadrant side
    # The quarter: its quadrant's frame, the bottom arm's ladder, and its
    # ring's pairs along the bottom and top rows, then up the outer and
    # inner columns.  The pairs cover every ring cell.
    quarter = {wall for i in range(c) for wall in (
        (VERTICAL, 0, i), (VERTICAL, c, i),
        (HORIZONTAL, i, 0), (HORIZONTAL, i, c))}
    if ladders:
        quarter |= _lattice_walls(c - 1, c + 1, 1, 2 * k + 1)
    inner = 2 * k if ladders else 2 * k + 1
    quadrant = [((2 * j, y), (2 * j + 1, y))
                for j in range(k + 1) for y in (0, c - 1)]
    quadrant += [((x, 2 * j + 1), (x, 2 * j + 2))
                 for j in range(k) for x in (0, inner)]
    walls, pairs = set(quarter), list(quadrant)
    for _ in range(3):
        quarter = {_rot_wall(wall, s) for wall in quarter}
        quadrant = [(_rot_cell(a, s), _rot_cell(b, s)) for a, b in quadrant]
        walls |= quarter
        pairs += quadrant
    # The pairs are disjoint, so ordering them by their first cells and
    # listing their cells sees every ring cell once.
    pairs = [(a, b) if _yx(a) < _yx(b) else (b, a) for a, b in pairs]
    pairs.sort(key=lambda pair: _yx(pair[0]))
    cells = sorted(chain.from_iterable(pairs), key=_yx)
    return BlockTemplate(size=s, walls=frozenset(map(_as_wall, walls)),
                         circles=tuple(_as_circle((x, y, 1))
                                       for x, y in cells),
                         filler_pairs=tuple(pairs),
                         center=(c, c) if ladders else None)


def build_empty_block(k: int) -> BlockTemplate:
    return _block(k, ladders=False)


def build_number_block(k: int, center_number: int) -> BlockTemplate:
    tpl = _block(k, ladders=True)
    lo, hi = 4 * k + 3, 8 * k + 3
    if center_number % 2 == 0 or not lo <= center_number <= hi:
        raise ValidationError("BAD_CENTER_NUMBER",
                              f"center number must be odd in [{lo}, {hi}], "
                              f"got {center_number}")
    return _centered(tpl, center_number)


def _centered(tpl: BlockTemplate, number: int) -> BlockTemplate:
    """`tpl` with a circle numbered `number` at its center, inserted in
    the (y, x) order of its circles."""
    circles = list(tpl.circles)
    insort(circles, Circle(*tpl.center, number), key=_yx)
    return tpl._replace(circles=tuple(circles))


def block_region_map(block: BlockTemplate) -> RegionMap:
    """Regions the block induces on its own, boundary implicitly walled."""
    return regions_from_walls(block.walls, block.size, block.size)


def _stamp_regions(maps: Sequence[RegionMap], kinds: Sequence[int],
                   m: int) -> RegionMap:
    """The RegionMap of blocks laid m to a row, bottom row first: block i
    is a copy of `maps[kinds[i]]`, and the regions of two neighbouring
    blocks' facing ports are merged.  A port is the middle cell of a block
    side; the template walls close the rest of every border."""
    n, s = len(kinds) // m, maps[0].width
    c = s // 2
    # Per kind, the regions of its right, left, top and bottom ports.
    ports = [(ids[c][s - 1], ids[c][0], ids[s - 1][c], ids[0][c])
             for ids in (rmap.ids for rmap in maps)]
    # Region r of block i is node base[i] + r of a union-find.
    base = list(accumulate((maps[kind].region_count for kind in kinds),
                           initial=0))
    parent = list(range(base.pop()))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, kind in enumerate(kinds):
        right, up = i + 1, i + m
        if right % m:
            parent[find(base[i] + ports[kind][0])] = \
                find(base[right] + ports[kinds[right]][1])
        if up < len(kinds):
            parent[find(base[i] + ports[kind][2])] = \
                find(base[up] + ports[kinds[up]][3])

    # Canonical numbers: a merged region is numbered when the scan, top
    # row first, meets the first cell of one of its template regions.  A
    # template map is canonical too, so the regions it first meets in a
    # row are a range of ids.
    firsts = []
    for rmap in maps:
        seen, ranges = 0, []
        for row in reversed(rmap.ids):
            top = max(seen, max(row) + 1)
            ranges.append(range(seen, top))
            seen = top
        firsts.append(ranges[::-1])
    number = [-1] * len(parent)
    count = 0
    for gy in reversed(range(n)):
        for ty in reversed(range(s)):
            for i in range(gy * m, gy * m + m):
                for r in firsts[kinds[i]][ty]:
                    root = find(base[i] + r)
                    if number[root] < 0:
                        number[root] = count
                        count += 1

    # Each target row is its blocks' template rows, looked up per block.
    getters = [[itemgetter(*row) for row in rmap.ids] for rmap in maps]
    lookups = [[number[find(base[i] + r)]
                for r in range(maps[kind].region_count)]
               for i, kind in enumerate(kinds)]
    ids: List[Tuple[int, ...]] = []
    for gy in range(n):
        blocks = [(getters[kinds[i]], lookups[i])
                  for i in range(gy * m, gy * m + m)]
        ids += [tuple(chain.from_iterable(get[ty](lookup)
                                          for get, lookup in blocks))
                for ty in range(s)]
    return RegionMap(width=s * m, height=s * n, ids=tuple(ids),
                     region_count=count)


# Per template row, its circles' x column and number column.
CircleRows = List[Tuple[List[int], List[Any]]]


def _stamp_circles(tpls: Dict[Optional[int], BlockTemplate], m: int,
                   n: int, number_at: Dict[Cell, int]) -> Tuple[Circle, ...]:
    """The circles of blocks laid m to a row, bottom row first: block
    (gx, gy) has those of `tpls[number_at.get((gx, gy))]`.  They come out
    in (y, x) order."""
    s = tpls[None].size
    rows_of: Dict[Optional[int], CircleRows] = {}
    for key, tpl in tpls.items():
        rows = rows_of[key] = [([], []) for _ in range(s)]
        for x, y, number in tpl.circles:
            rows[y][0].append(x)
            rows[y][1].append(number)
    circles: List[Circle] = []
    for gy in range(n):
        blocks = [(s * gx, rows_of[number_at.get((gx, gy))])
                  for gx in range(m)]
        for ty in range(s):
            y = repeat(s * gy + ty)
            for ox, rows in blocks:
                xs, numbers = rows[ty]
                circles += map(_as_circle,
                               zip(map(ox.__add__, xs), y, numbers))
    return tuple(circles)


def reduce_instance(g: NumberlinkInstance
                    ) -> Tuple[WataridoriInstance, ReductionMap]:
    """Build the equivalent Wataridori instance plus the relating map."""
    g = validate_instance(g)
    rmap = ReductionMap(g)
    k, s = rmap.k, rmap.block_size
    check_size(s * g.width, s * g.height)

    # One skeleton per kind, flooded on its own: kind 0 is the empty
    # block, kind 1 the number block without its center circle.  The
    # circles come from one template per center number.
    empty, ladders = _block(k, False), _block(k, True)
    maps = [block_region_map(empty), block_region_map(ladders)]
    numbers = dict(rmap.number_assignment)
    number_at = {cell: numbers[label] for label, a, b in g.terminals
                 for cell in (a, b)}
    kinds = [int((gx, gy) in number_at)
             for gy in range(g.height) for gx in range(g.width)]
    tpls: Dict[Optional[int], BlockTemplate] = {None: empty}
    tpls.update((number, _centered(ladders, number))
                for number in numbers.values())
    regions = _stamp_regions(maps, kinds, g.width)
    circles = _stamp_circles(tpls, g.width, g.height, number_at)
    return WataridoriInstance(regions, circles), rmap


# ------------------------------------------------------------- documents

MAP_VERSION = 2


def parse_map(text: Any) -> ReductionMap:
    """Parse a map document, given as JSON text or already decoded.

    The source instance is validated, and k must be the one the reduction
    chooses for it.
    """
    doc = docs._document(text)
    version = doc.get("version")
    if type(version) is not int or version != MAP_VERSION:
        raise ParseError("BAD_VERSION",
                         f"expected map version {MAP_VERSION}, got "
                         f"{docs._shown(version)}; make older maps again "
                         "with 'reduce'", "version")
    docs.check_fields(doc, ["version", "k", "source"], [], "document")
    k = docs.as_int(doc["k"], "k")
    source = docs.require_object(doc["source"], "source")
    try:
        source = parse_instance(source)
    except ParseError as exc:
        raise exc.under("source") from None
    rmap = ReductionMap(validate_instance(source))
    if k != rmap.k:
        raise ParseError("BAD_K", f"the source's k is {rmap.k}, not {k}",
                         "k")
    return rmap


def serialize_map(rmap: ReductionMap) -> str:
    return docs.dumps_canonical({"version": MAP_VERSION, "k": rmap.k,
                                 "source": _instance_document(rmap.source)})
