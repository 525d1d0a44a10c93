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

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import documents as docs
from .errors import ParseError, ValidationError
from .grid import (Cell, HORIZONTAL, VERTICAL, RegionMap, Wall, _flood,
                   regions_from_walls)
from .numberlink import NumberlinkInstance, validate_instance
from .wataridori import Circle, WataridoriInstance

NUMBER = "number"
EMPTY = "empty"


@dataclass(frozen=True)
class BlockTemplate:
    """One block's geometry in block-local coordinates."""

    kind: str
    k: int
    size: int
    walls: FrozenSet[Wall]
    circles: Tuple[Circle, ...]
    filler_pairs: Tuple[Tuple[Cell, Cell], ...]
    center: Optional[Cell] = None


@dataclass(frozen=True)
class BlockPlacement:
    gx: int
    gy: int
    kind: str
    label: Optional[int] = None
    center: Optional[Cell] = None  # in target-grid coordinates


@dataclass(frozen=True)
class ReductionMap:
    """Everything needed to relate the source and target instances."""

    k: int
    block_size: int
    g_width: int
    g_height: int
    blocks: Tuple[BlockPlacement, ...]
    number_assignment: Tuple[Tuple[int, int], ...]  # (label, circle number)
    filler_pairs: Tuple[Tuple[Cell, Cell], ...]     # target coordinates

    def assigned_number(self, label: int) -> int:
        for lab, num in self.number_assignment:
            if lab == label:
                return num
        raise ValidationError("UNKNOWN_LABEL", f"no assignment for {label}")

    def label_of_number(self, number: int) -> int:
        for lab, num in self.number_assignment:
            if num == number:
                return lab
        raise ValidationError("UNKNOWN_NUMBER",
                              f"no label assigned the number {number}")


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


def _rot_wall(wall: Wall, size: int) -> Wall:
    kind, x, y = wall
    if kind == HORIZONTAL:
        return Wall(VERTICAL, size - y, x)
    return Wall(HORIZONTAL, size - y - 1, x)


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

    label_at: Dict[Cell, int] = {}
    for label, a, b in g.terminals:
        label_at[a] = label
        label_at[b] = label

    # Center number (None for an empty block) -> template and its cuts.
    templates: Dict[Optional[int],
                    Tuple[BlockTemplate, List[int], List[int]]] = {}

    # Every join starts open; each placed block cuts its own walls.  A
    # block wall on the outer boundary cuts a join across the grid's edge,
    # which _flood ignores.
    right = bytearray(b"\x01") * (width * height)
    up = bytearray(b"\x01") * (width * height)
    circle_at: List[Optional[Circle]] = [None] * (width * height)
    placements: List[BlockPlacement] = []
    filler_pairs: List[Tuple[Cell, Cell]] = []

    for gy in range(g.height):
        for gx in range(g.width):
            ox, oy = s * gx, s * gy
            label = label_at.get((gx, gy))
            num = None if label is None else assigned_number(k, label)
            if num not in templates:
                tpl = (build_empty_block(k) if num is None
                       else build_number_block(k, num))
                templates[num] = (tpl, *_cut_offsets(tpl, width))
            tpl, right_cuts, up_cuts = templates[num]
            if label is None:
                placements.append(BlockPlacement(gx, gy, EMPTY))
            else:
                placements.append(BlockPlacement(
                    gx, gy, NUMBER, label=label,
                    center=(tpl.center[0] + ox, tpl.center[1] + oy)))
            base = oy * width + ox
            for i in right_cuts:
                right[base + i] = 0
            for i in up_cuts:
                up[base + i] = 0
            for x, y, number in tpl.circles:
                circle_at[(y + oy) * width + x + ox] = Circle(x + ox, y + oy,
                                                              number)
            for a, b in tpl.filler_pairs:
                filler_pairs.append(((a[0] + ox, a[1] + oy),
                                     (b[0] + ox, b[1] + oy)))

    # Cell index order is (y, x) order, the order circles are kept in.
    h = WataridoriInstance(_flood(width, height, right, up),
                           tuple(filter(None, circle_at)))
    rmap_doc = ReductionMap(
        k=k, block_size=s, g_width=g.width, g_height=g.height,
        blocks=tuple(placements),
        number_assignment=tuple((label, assigned_number(k, label))
                                for label, _, _ in g.terminals),
        filler_pairs=tuple(filler_pairs))
    return h, rmap_doc


def source_instance_from_map(rmap: ReductionMap) -> NumberlinkInstance:
    """Recover the source Numberlink instance recorded in a reduction map."""
    by_label: Dict[int, List[Cell]] = {}
    for block in rmap.blocks:
        if block.kind == NUMBER:
            by_label.setdefault(block.label, []).append((block.gx, block.gy))
    terminals = []
    for label in sorted(by_label):
        cells = by_label[label]
        if len(cells) != 2:
            raise ValidationError("BAD_MAP",
                                  f"label {label} has {len(cells)} blocks")
        terminals.append((label, cells[0], cells[1]))
    return validate_instance(
        NumberlinkInstance(rmap.g_width, rmap.g_height, tuple(terminals)))


def reconstruct(rmap: ReductionMap
                ) -> Tuple[NumberlinkInstance, WataridoriInstance]:
    """Rebuild both instances a reduction map was produced from."""
    g = source_instance_from_map(rmap)
    h, rebuilt = reduce_instance(g)
    if rebuilt != rmap:
        raise ValidationError("BAD_MAP",
                              "map does not match its own reconstruction")
    return g, h


# ------------------------------------------------------------- documents

def parse_map(text: Any) -> ReductionMap:
    """Parse a map document, given as JSON text or already decoded."""
    doc = docs._document(text)
    docs.check_fields(doc, ["k", "block_size", "g_width", "g_height",
                            "blocks", "number_assignment", "filler_pairs"],
                      [], "document")
    blocks = []
    for i, entry in enumerate(docs.as_list(doc["blocks"], "blocks")):
        loc = f"blocks[{i}]"
        entry = docs.require_object(entry, loc)
        docs.check_fields(entry, ["gx", "gy", "kind", "label", "center"],
                          [], loc)
        kind = entry["kind"]
        if kind not in (NUMBER, EMPTY):
            raise ParseError("BAD_KIND", f"unknown block kind {kind!r}", loc)
        label = entry["label"]
        center = entry["center"]
        if kind == NUMBER:
            label = docs.as_int(label, loc + ".label")
            center = docs.as_cell(center, loc + ".center")
        elif label is not None or center is not None:
            raise ParseError("BAD_KIND",
                             "empty blocks carry no label or center", loc)
        blocks.append(BlockPlacement(
            docs.as_int(entry["gx"], loc + ".gx"),
            docs.as_int(entry["gy"], loc + ".gy"), kind, label, center))
    assignment_doc = docs.require_object(doc["number_assignment"],
                                         "number_assignment")
    assignment = []
    for key, value in assignment_doc.items():
        try:
            label = int(key)
        except ValueError:
            raise ParseError("BAD_LABEL", f"non-integer label {key!r}",
                             "number_assignment")
        assignment.append((label,
                           docs.as_int(value, f"number_assignment[{key}]")))
    assignment.sort()
    entries = docs.as_list(doc["filler_pairs"], "filler_pairs")
    fillers = docs._cell_lists(entries, 2)
    if fillers is None:
        fillers = []
        for i, entry in enumerate(entries):
            loc = f"filler_pairs[{i}]"
            cells = docs.as_cells(entry, loc)
            if len(cells) != 2:
                raise ParseError("BAD_PAIR", "filler pair needs two cells",
                                 loc)
            fillers.append((cells[0], cells[1]))
    return ReductionMap(
        k=docs.as_int(doc["k"], "k"),
        block_size=docs.as_int(doc["block_size"], "block_size"),
        g_width=docs.as_int(doc["g_width"], "g_width"),
        g_height=docs.as_int(doc["g_height"], "g_height"),
        blocks=tuple(blocks),
        number_assignment=tuple(assignment),
        filler_pairs=tuple(fillers))


def serialize_map(rmap: ReductionMap) -> str:
    doc = {
        "k": rmap.k,
        "block_size": rmap.block_size,
        "g_width": rmap.g_width,
        "g_height": rmap.g_height,
        "blocks": [
            {"gx": b.gx, "gy": b.gy, "kind": b.kind, "label": b.label,
             "center": None if b.center is None else list(b.center)}
            for b in rmap.blocks
        ],
        "number_assignment": {str(label): num
                              for label, num in rmap.number_assignment},
        "filler_pairs": [[list(a), list(b)] for a, b in rmap.filler_pairs],
    }
    return docs.dumps_canonical(doc)
