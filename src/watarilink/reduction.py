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
and a 5-cell plus region around the center circle.  Corridor openings on
block borders line up, so corridor regions merge across adjacent blocks.

The center circles of the i-th label in terminal order get number 4k+2i+1.
With k chosen so that 2k+1 >= p, those numbers are distinct odd values in
{4k+3, ..., 8k+3}, which pins each pairing in the target puzzle to the
pairing of the source puzzle.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from . import documents as docs
from .errors import ParseError, ValidationError
from .grid import (Cell, HORIZONTAL, VERTICAL, RegionMap, Wall, _flood,
                   check_size, regions_from_walls)
from .numberlink import (NumberlinkInstance, _instance_document,
                         parse_instance, validate_instance)
from .wataridori import Circle, WataridoriInstance


class BlockTemplate(NamedTuple):
    """One block's geometry in block-local coordinates."""

    size: int
    walls: FrozenSet[Wall]
    circles: Tuple[Circle, ...]
    filler_pairs: Tuple[Tuple[Cell, Cell], ...]
    center: Optional[Cell] = None


class ReductionMap(NamedTuple):
    """What relates a source instance to its reduction: the validated
    source and the ladder parameter k.  Everything else the reduction
    placed is derived from those two."""

    k: int
    source: NumberlinkInstance

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


def _rot_wall(wall: Wall, size: int) -> Wall:
    """`wall` turned a quarter like `_rot_cell`, its lattice points
    (x, y) going to (size - y, x)."""
    kind, x, y = wall
    if kind == HORIZONTAL:
        return Wall(VERTICAL, size - y, x)
    return Wall(HORIZONTAL, size - 1 - y, x)


def _lattice_walls(x0: int, x1: int, y0: int, y1: int) -> Set[Wall]:
    """All unit grid lines inside and on the lattice rectangle."""
    walls: Set[Wall] = set()
    for x in range(x0, x1 + 1):
        for y in range(y0, y1):
            walls.add(Wall(VERTICAL, x, y))
    for y in range(y0, y1 + 1):
        for x in range(x0, x1):
            walls.add(Wall(HORIZONTAL, x, y))
    return walls


def _yx(cell: Cell) -> Tuple[int, int]:
    return cell[1], cell[0]


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
        Wall(VERTICAL, 0, i), Wall(VERTICAL, c, i),
        Wall(HORIZONTAL, i, 0), Wall(HORIZONTAL, i, c))}
    if ladders:
        quarter |= _lattice_walls(c - 1, c + 1, 1, 2 * k + 1)
    inner = 2 * k if ladders else 2 * k + 1
    quadrant = [((2 * j, y), (2 * j + 1, y))
                for j in range(k + 1) for y in (0, c - 1)]
    quadrant += [((x, 2 * j + 1), (x, 2 * j + 2))
                 for j in range(k) for x in (0, inner)]
    walls: Set[Wall] = set()
    pairs = []
    for _ in range(4):
        walls |= quarter
        pairs += quadrant
        quarter = {_rot_wall(wall, s) for wall in quarter}
        quadrant = [(_rot_cell(a, s), _rot_cell(b, s)) for a, b in quadrant]
    pairs = [tuple(sorted(pair, key=_yx)) for pair in pairs]
    pairs.sort(key=lambda pr: (_yx(pr[0]), _yx(pr[1])))
    cells = sorted({cell for pair in pairs for cell in pair}, key=_yx)
    return BlockTemplate(size=s, walls=frozenset(walls),
                         circles=tuple(Circle(x, y, 1) for x, y in cells),
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
    center = Circle(*tpl.center, center_number)
    return tpl._replace(circles=tuple(sorted(
        tpl.circles + (center,), key=lambda circ: (circ.y, circ.x))))


def block_region_map(block: BlockTemplate) -> RegionMap:
    """Regions the block induces on its own, boundary implicitly walled."""
    return regions_from_walls(block.walls, block.size, block.size)


def _cut_offsets(tpl: BlockTemplate,
                width: int) -> Tuple[List[int], List[int]]:
    """The joins the block's walls cut, as flat index offsets from the
    block's bottom-left cell in a grid `width` cells wide: (right, up)."""
    right, up = [], []
    for kind, x, y in tpl.walls:
        if kind == HORIZONTAL:
            up.append((y - 1) * width + x)
        else:
            right.append(y * width + x - 1)
    return right, up


def reduce_instance(g: NumberlinkInstance
                    ) -> Tuple[WataridoriInstance, ReductionMap]:
    """Build the equivalent Wataridori instance plus the relating map."""
    g = validate_instance(g)
    rmap = ReductionMap(choose_k(g.pair_count), g)
    k, s = rmap.k, rmap.block_size
    width, height = s * g.width, s * g.height
    check_size(width, height)

    # Every join starts open; each placed block cuts its own walls.  A
    # block wall on the outer boundary cuts a join across the grid's edge,
    # which _flood ignores.
    right = bytearray(b"\x01") * (width * height)
    up = bytearray(b"\x01") * (width * height)
    circle_at: List[Optional[Circle]] = [None] * (width * height)
    numbers = dict(rmap.number_assignment)
    number_at = {cell: numbers[label] for label, a, b in g.terminals
                 for cell in (a, b)}
    # One skeleton per kind, with the joins it cuts; a number block's
    # center circle is stamped with its label's number.
    placed = [(tpl, *_cut_offsets(tpl, width))
              for tpl in (_block(k, False), _block(k, True))]
    c = 2 * k + 2
    for gy in range(g.height):
        for gx in range(g.width):
            number = number_at.get((gx, gy))
            tpl, right_cuts, up_cuts = placed[number is not None]
            ox, oy = s * gx, s * gy
            base = oy * width + ox
            for i in right_cuts:
                right[base + i] = 0
            for i in up_cuts:
                up[base + i] = 0
            for x, y, one in tpl.circles:
                circle_at[(y + oy) * width + x + ox] = Circle(
                    x + ox, y + oy, one)
            if number is not None:
                circle_at[(c + oy) * width + c + ox] = Circle(
                    c + ox, c + oy, number)

    # Cell index order is (y, x) order, the order circles are kept in.
    h = WataridoriInstance(_flood(width, height, right, up),
                           tuple(filter(None, circle_at)))
    return h, rmap


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
                         f"{version!r}; make older maps again with 'reduce'",
                         "version")
    docs.check_fields(doc, ["version", "k", "source"], [], "document")
    k = docs.as_int(doc["k"], "k")
    source = docs.require_object(doc["source"], "source")
    try:
        source = parse_instance(source)
    except ParseError as exc:
        raise exc.under("source") from None
    source = validate_instance(source)
    if k != choose_k(source.pair_count):
        raise ParseError("BAD_K", f"the source's k is "
                         f"{choose_k(source.pair_count)}, not {k}", "k")
    return ReductionMap(k, source)


def serialize_map(rmap: ReductionMap) -> str:
    return docs.dumps_canonical({"version": MAP_VERSION, "k": rmap.k,
                                 "source": _instance_document(rmap.source)})
