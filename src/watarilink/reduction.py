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

The center circle of the block for the cell labeled i gets number 4k+2i+1.
With k chosen so that 2k+1 >= p, those numbers are distinct odd values in
{4k+3, ..., 8k+3}, which pins each pairing in the target puzzle to the
pairing of the source puzzle.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from . import documents as docs
from .errors import ParseError, ValidationError
from .grid import (Cell, HORIZONTAL, VERTICAL, RegionMap, Wall, _flood,
                   check_size, regions_from_walls)
from .numberlink import (NumberlinkInstance, _instance_document,
                         parse_instance, validate_instance)
from .wataridori import Circle, WataridoriInstance

NUMBER = "number"
EMPTY = "empty"


class BlockTemplate(NamedTuple):
    """One block's geometry in block-local coordinates."""

    kind: str
    k: int
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
        """(label, center circle number) per source label."""
        return tuple((label, assigned_number(self.k, label))
                     for label, _, _ in self.source.terminals)

    @property
    def filler_pairs(self) -> Tuple[Tuple[Cell, Cell], ...]:
        """Every pre-matched filler pair, in target-grid coordinates.  A
        number block's pairs do not depend on its center number, so one
        number template serves every label."""
        g, k, s = self.source, self.k, self.block_size
        ends = {cell for _, a, b in g.terminals for cell in (a, b)}
        number = build_number_block(k, assigned_number(k, 1)).filler_pairs
        empty = build_empty_block(k).filler_pairs
        blocks = ((s * gx, s * gy, number if (gx, gy) in ends else empty)
                  for gy in range(g.height) for gx in range(g.width))
        return tuple(((ax + ox, ay + oy), (bx + ox, by + oy))
                     for ox, oy, pairs in blocks
                     for (ax, ay), (bx, by) in pairs)


def choose_k(pair_count: int) -> int:
    """Smallest usable ladder parameter: ceil((p-1)/2), floored at 1."""
    if pair_count < 1:
        raise ValidationError("NO_LABELS", "need at least one pair")
    return max(1, pair_count // 2)


def assigned_number(k: int, label: int) -> int:
    return 4 * k + 2 * label + 1


def _rot_cell(cell: Cell, size: int) -> Cell:
    x, y = cell
    return (size - 1 - y, x)


def _quadrant_frame_walls(k: int) -> Set[Wall]:
    s = 4 * k + 5
    c = 2 * k + 2
    walls: Set[Wall] = set()
    for x in (0, c, c + 1, s):
        for y in range(0, c):
            walls.add(Wall(VERTICAL, x, y))
        for y in range(c + 1, s):
            walls.add(Wall(VERTICAL, x, y))
    for y in (0, c, c + 1, s):
        for x in range(0, c):
            walls.add(Wall(HORIZONTAL, x, y))
        for x in range(c + 1, s):
            walls.add(Wall(HORIZONTAL, x, y))
    return walls


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


def _rotated_quadrants(base_circles: Sequence[Cell],
                       base_pairs: Sequence[Tuple[Cell, Cell]],
                       size: int) -> Tuple[List[Cell],
                                           List[Tuple[Cell, Cell]]]:
    """Replicate the bottom-left quadrant content into all four quadrants
    by repeated 90-degree rotation about the block center."""
    circles = list(base_circles)
    pairs = list(base_pairs)
    cur_circles = list(base_circles)
    cur_pairs = list(base_pairs)
    for _ in range(3):
        cur_circles = [_rot_cell(c, size) for c in cur_circles]
        cur_pairs = [(_rot_cell(a, size), _rot_cell(b, size))
                     for a, b in cur_pairs]
        circles.extend(cur_circles)
        pairs.extend(cur_pairs)
    return circles, pairs


def _canonical_pairs(pairs: Sequence[Tuple[Cell, Cell]]
                     ) -> Tuple[Tuple[Cell, Cell], ...]:
    normed = []
    for a, b in pairs:
        a, b = sorted((a, b), key=lambda cc: (cc[1], cc[0]))
        normed.append((a, b))
    normed.sort(key=lambda pr: (pr[0][1], pr[0][0], pr[1][1], pr[1][0]))
    return tuple(normed)


def build_empty_block(k: int) -> BlockTemplate:
    if k < 1:
        raise ValidationError("BAD_K", f"k must be at least 1, got {k}")
    s = 4 * k + 5
    q = 2 * k + 2  # quadrant side

    # Bottom-left quadrant: full perimeter ring, matched along each side.
    ring = []
    for x in range(q):
        ring.append((x, 0))
        ring.append((x, q - 1))
    for y in range(1, q - 1):
        ring.append((0, y))
        ring.append((q - 1, y))
    pairs = []
    for j in range(k + 1):
        pairs.append(((2 * j, 0), (2 * j + 1, 0)))
        pairs.append(((2 * j, q - 1), (2 * j + 1, q - 1)))
    for j in range(k):
        pairs.append(((0, 2 * j + 1), (0, 2 * j + 2)))
        pairs.append(((q - 1, 2 * j + 1), (q - 1, 2 * j + 2)))

    cells, all_pairs = _rotated_quadrants(ring, pairs, s)
    circles = tuple(Circle(x, y, 1)
                    for x, y in sorted(set(cells), key=lambda c: (c[1], c[0])))
    return BlockTemplate(kind=EMPTY, k=k, size=s,
                         walls=frozenset(_quadrant_frame_walls(k)),
                         circles=circles,
                         filler_pairs=_canonical_pairs(all_pairs))


def build_number_block(k: int, center_number: int) -> BlockTemplate:
    if k < 1:
        raise ValidationError("BAD_K", f"k must be at least 1, got {k}")
    lo, hi = 4 * k + 3, 8 * k + 3
    if center_number % 2 == 0 or not lo <= center_number <= hi:
        raise ValidationError("BAD_CENTER_NUMBER",
                              f"center number must be odd in [{lo}, {hi}], "
                              f"got {center_number}")
    s = 4 * k + 5
    c = 2 * k + 2
    q = c

    walls = _quadrant_frame_walls(k)
    walls |= _lattice_walls(c - 1, c + 1, 1, 2 * k + 1)      # bottom arm
    walls |= _lattice_walls(1, 2 * k + 1, c, c + 2)          # left arm
    walls |= _lattice_walls(c, c + 2, c + 2, s - 1)          # top arm
    walls |= _lattice_walls(c + 2, s - 1, c - 1, c + 1)      # right arm

    # Bottom-left quadrant ring, pushed inward along the side the bottom
    # arm's flank column (x = q-1, y 1..2k) intrudes on.
    ring = []
    for x in range(q):
        ring.append((x, 0))
        ring.append((x, q - 1))
    for y in range(1, q - 1):
        ring.append((0, y))
    for y in range(1, 2 * k + 1):
        ring.append((q - 2, y))
    pairs = []
    for j in range(k + 1):
        pairs.append(((2 * j, 0), (2 * j + 1, 0)))
        pairs.append(((2 * j, q - 1), (2 * j + 1, q - 1)))
    for j in range(k):
        pairs.append(((0, 2 * j + 1), (0, 2 * j + 2)))
        pairs.append(((q - 2, 2 * j + 1), (q - 2, 2 * j + 2)))

    cells, all_pairs = _rotated_quadrants(ring, pairs, s)
    circles = [Circle(x, y, 1)
               for x, y in sorted(set(cells), key=lambda cc: (cc[1], cc[0]))]
    circles.append(Circle(c, c, center_number))
    circles.sort(key=lambda circ: (circ.y, circ.x))
    return BlockTemplate(kind=NUMBER, k=k, size=s, walls=frozenset(walls),
                         circles=tuple(circles),
                         filler_pairs=_canonical_pairs(all_pairs),
                         center=(c, c))


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
    p = g.pair_count
    k = choose_k(p)
    s = 4 * k + 5
    width, height = s * g.width, s * g.height
    check_size(width, height)

    # Every join starts open; each placed block cuts its own walls.  A
    # block wall on the outer boundary cuts a join across the grid's edge,
    # which _flood ignores.
    right = bytearray(b"\x01") * (width * height)
    up = bytearray(b"\x01") * (width * height)
    circle_at: List[Optional[Circle]] = [None] * (width * height)
    label_at = {cell: label for label, a, b in g.terminals
                for cell in (a, b)}
    # Each distinct template is built once, with the joins it cuts.
    placed: Dict[Optional[int], Tuple[Any, ...]] = {}
    for gy in range(g.height):
        for gx in range(g.width):
            label = label_at.get((gx, gy))
            if label not in placed:
                tpl = (build_empty_block(k) if label is None else
                       build_number_block(k, assigned_number(k, label)))
                placed[label] = (tpl, *_cut_offsets(tpl, width))
            tpl, right_cuts, up_cuts = placed[label]
            ox, oy = s * gx, s * gy
            base = oy * width + ox
            for i in right_cuts:
                right[base + i] = 0
            for i in up_cuts:
                up[base + i] = 0
            for x, y, number in tpl.circles:
                circle_at[(y + oy) * width + x + ox] = Circle(
                    x + ox, y + oy, number)

    # Cell index order is (y, x) order, the order circles are kept in.
    h = WataridoriInstance(_flood(width, height, right, up),
                           tuple(filter(None, circle_at)))
    return h, ReductionMap(k, g)


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
