"""Deterministic ASCII and SVG renderings of puzzles and solutions.

Both puzzles are drawn from one board description: a width and a height,
a region id per cell, paths, and marks `(x, y, text, circled)` in drawing
order.  A Wataridori circle is a circled mark whose text is its number,
or "" for a wildcard; a Numberlink terminal is an uncircled mark whose
text is its label.  A Numberlink board gives every cell a region of its
own in ASCII, so every grid line is drawn, and one region to the whole
board in SVG, whose grey grid shows the cells.

Both renderers flip the y axis for display: the top row of the board is
printed first, while all document coordinates stay y-up.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count
from operator import add, itemgetter, ne
from typing import List, Optional, Sequence, Tuple

from .documents import check_ints
from .grid import Cell, check_size
from .numberlink import NumberlinkInstance, NumberlinkSolution
from .wataridori import WataridoriInstance, WataridoriSolution

_SVG_UNIT = 40

_Mark = Tuple[int, int, str, bool]
# width, height, region ids per row (bottom row first), paths, marks
_Board = Tuple[int, int, Sequence[Sequence[int]], Sequence[Sequence[Cell]],
               List[_Mark]]
# head, bottom, top, left, right, xs, ys: see `_frame`
_Frame = Tuple[str, Tuple[str, ...], Tuple[str, ...], str, str,
               Tuple[str, ...], Tuple[str, ...]]


def _ascii(width: int, height: int, ids: Sequence[Sequence[int]],
           paths: Sequence[Sequence[Cell]], marks: List[_Mark]) -> str:
    cell_w = max(3, max((len(m[2]) for m in marks), default=1) + 2)
    dash, blank, star = "-" * cell_w, " " * cell_w, "*".center(cell_w)
    # cells[y][x] is the text of cell (x, y); off-grid cells are not drawn.
    cells = [[blank] * width for _ in range(height)]
    centred = {}  # one string per distinct mark, shared by its cells
    try:
        for x, y in chain.from_iterable(paths):
            if 0 <= x < width and 0 <= y < height:
                cells[y][x] = star
        for x, y, text, circled in marks:
            if 0 <= x < width and 0 <= y < height:
                shown = f"({text or ' '})" if circled else text
                cells[y][x] = centred.setdefault(shown, shown.center(cell_w))
    except TypeError:
        # A coordinate that is not an integer indexes no row: it is
        # refused as the parsers refuse it, with the value named.
        for cell in chain(chain.from_iterable(paths), marks):
            check_ints(cell[:2], "a cell coordinate")
        raise
    # A wall is drawn between two cells with different ids, and all
    # around the board; in a cell row, each cell is followed by the bar
    # on its right.
    edge = "+" + "+".join([dash] * width) + "+"
    lines = [edge]
    for y in range(height - 1, -1, -1):
        row = ids[y]
        bars = ["|" if w else " " for w in map(ne, row, row[1:])]
        bars.append("|")
        lines.append("|" + "".join(map(add, cells[y], bars)))
        lines.append("+" + "+".join([dash if w else blank for w in
                                     map(ne, ids[y - 1], row)]) + "+"
                     if y else edge)
    return "\n".join(lines) + "\n"


_BLACK = 'stroke="black" stroke-width="4"/>'
# A frame's text grows with width + height, so only the frames of boards
# with at most this many sides in all are kept; a larger one is built for
# its render alone.
_CACHED_SIDES = 512


@lru_cache(maxsize=8)
def _frame(width: int, height: int) -> _Frame:
    """The SVG text every `width` x `height` board shares, as (head,
    bottom, top, left, right, xs, ys): `head` is the svg element, the
    background and the grey grid; `bottom[x]` and `top[x]` are column x's
    outer walls; `left` and `right` are the board's sides, each joined;
    `xs[x]` and `ys[y]` are the coordinates of lattice point (x, y), y
    flipped for display.  Built on first use per shape; the eight shapes
    used last stay cached."""
    u = _SVG_UNIT
    w, h = width * u, height * u
    xs = tuple(str(x * u) for x in range(width + 1))
    ys = tuple(str(h - y * u) for y in range(height + 1))
    grey = 'stroke="#cccccc" stroke-width="1"/>'
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
            f'width="{w}" height="{h}">',
            f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>']
    head += [f'<line x1="{x}" y1="0" x2="{x}" y2="{h}" {grey}' for x in xs]
    head += [f'<line x1="0" y1="{y * u}" x2="{w}" y2="{y * u}" {grey}'
             for y in range(height + 1)]
    bottom, top = (tuple(f'<line x1="{a}" y1="{y}" x2="{b}" y2="{y}" {_BLACK}'
                         for a, b in zip(xs, xs[1:]))
                   for y in (ys[0], ys[height]))
    left, right = ("\n".join([f'<line x1="{x}" y1="{a}" x2="{x}" y2="{b}" '
                               f'{_BLACK}' for a, b in zip(ys, ys[1:])])
                   for x in (xs[0], xs[width]))
    return "\n".join(head), bottom, top, left, right, xs, ys


def _svg(width: int, height: int, ids: Sequence[Sequence[int]],
         paths: Sequence[Sequence[Cell]], marks: List[_Mark]) -> str:
    u = _SVG_UNIT
    h = height * u
    frame = _frame if width + height <= _CACHED_SIDES else _frame.__wrapped__
    head, bottom, top, left, right, xs, ys = frame(width, height)
    # The walls column by column: first each column's lines along cell
    # bottoms, from the bottom of the board up, then the lines along cell
    # left sides, the board's left side first and its right side last.
    cols = list(zip(*ids))
    parts = [head]
    for x, col in enumerate(cols):
        a, b = xs[x], xs[x + 1]
        parts.append(bottom[x])
        parts += [f'<line x1="{a}" y1="{ys[y]}" x2="{b}" y2="{ys[y]}" {_BLACK}'
                  for y in compress(count(1), map(ne, col, col[1:]))]
        parts.append(top[x])
    parts.append(left)
    for x in range(1, width):
        a = xs[x]
        parts += [f'<line x1="{a}" y1="{ys[y]}" x2="{a}" y2="{ys[y + 1]}" '
                  f'{_BLACK}'
                  for y in compress(count(), map(ne, cols[x - 1], cols[x]))]
    parts.append(right)
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


def _wataridori(inst: WataridoriInstance,
                sol: Optional[WataridoriSolution]) -> _Board:
    rmap = inst.regions
    check_size(rmap.width, rmap.height)
    # One text per distinct number, shared by its marks.
    texts = {n: "" if n is None else str(n) for _, _, n in inst.circles}
    marks = [(x, y, texts[n], True) for x, y, n in inst.circles]
    return (rmap.width, rmap.height, rmap.ids,
            () if sol is None else sol.paths, marks)


def _numberlink(inst: NumberlinkInstance, sol: Optional[NumberlinkSolution],
                own_regions: bool) -> _Board:
    w, h = inst.width, inst.height
    check_size(w, h)
    ids = ([range(y * w, y * w + w) for y in range(h)] if own_regions
           else [[0] * w] * h)
    marks = [(x, y, str(label), False)
             for label, a, b in inst.terminals for x, y in (a, b)]
    return (w, h, ids, () if sol is None else [p for _, p in sol.paths],
            marks)


def render_wataridori_ascii(inst: WataridoriInstance,
                            sol: Optional[WataridoriSolution] = None) -> str:
    return _ascii(*_wataridori(inst, sol))


def render_wataridori_svg(inst: WataridoriInstance,
                          sol: Optional[WataridoriSolution] = None) -> str:
    width, height, ids, paths, marks = _wataridori(inst, sol)
    return _svg(width, height, ids, paths, sorted(marks, key=itemgetter(1, 0)))


def render_numberlink_ascii(inst: NumberlinkInstance,
                            sol: Optional[NumberlinkSolution] = None) -> str:
    return _ascii(*_numberlink(inst, sol, own_regions=True))


def render_numberlink_svg(inst: NumberlinkInstance,
                          sol: Optional[NumberlinkSolution] = None) -> str:
    return _svg(*_numberlink(inst, sol, own_regions=False))
