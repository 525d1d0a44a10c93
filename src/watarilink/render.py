"""Deterministic ASCII and SVG renderings of puzzles and solutions.

Both renderers flip the y axis for display: the top row of the board is
printed first, while all document coordinates stay y-up.
"""

from __future__ import annotations

from operator import ne
from typing import Dict, List, Optional, Sequence, Tuple

from .grid import Cell, check_size
from .numberlink import NumberlinkInstance, NumberlinkSolution
from .wataridori import WataridoriInstance, WataridoriSolution

_SVG_UNIT = 40

# hwalls[y][x] marks the unit wall along the bottom of cell (x, y), so
# y == height is the top edge; vwalls[y][x] marks the wall along the left
# of cell (x, y), so x == width is the right edge.
WallFlags = Tuple[List[List[bool]], List[List[bool]]]


def _walls(ids: Sequence[Sequence[int]], width: int,
           height: int) -> WallFlags:
    """Walls of a board whose cells carry region ids: the outer boundary
    plus every unit segment between cells with different ids."""
    edge = [True] * width
    hwalls = [edge]
    hwalls += [list(map(ne, ids[y - 1], ids[y])) for y in range(1, height)]
    hwalls.append(edge)
    vwalls = [[True, *map(ne, row, row[1:]), True] for row in ids]
    return hwalls, vwalls


def _ascii_board(width: int, height: int, walls: WallFlags,
                 content: Dict[Cell, str], cell_w: int) -> str:
    hwalls, vwalls = walls
    dash, blank = "-" * cell_w, " " * cell_w
    lines = []
    for y in range(height, -1, -1):
        lines.append("+" + "+".join([dash if w else blank
                                     for w in hwalls[y]]) + "+")
        if y == 0:
            break
        cy = y - 1
        left = vwalls[cy]
        row = []
        for x in range(width):
            row.append("|" if left[x] else " ")
            text = content.get((x, cy))
            row.append(blank if text is None else text.center(cell_w))
        row.append("|" if left[width] else " ")
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def render_wataridori_ascii(inst: WataridoriInstance,
                            sol: Optional[WataridoriSolution] = None) -> str:
    rmap = inst.regions
    content: Dict[Cell, str] = {}
    if sol is not None:
        for path in sol.paths:
            for cell in path:
                content[cell] = "*"
    numbers = [c.number for c in inst.circles if c.number is not None]
    cell_w = max(3, (max(map(len, map(str, numbers))) if numbers else 1) + 2)
    for x, y, number in inst.circles:
        content[x, y] = f"({number})" if number is not None else "( )"
    return _ascii_board(rmap.width, rmap.height,
                        _walls(rmap.ids, rmap.width, rmap.height), content,
                        cell_w)


def render_numberlink_ascii(inst: NumberlinkInstance,
                            sol: Optional[NumberlinkSolution] = None) -> str:
    w, h = inst.width, inst.height
    check_size(w, h)
    content: Dict[Cell, str] = {}
    if sol is not None:
        for _, path in sol.paths:
            for cell in path:
                content[cell] = "*"
    for label, a, b in inst.terminals:
        content[a] = str(label)
        content[b] = str(label)
    cell_w = max(3, max((len(str(label)) for label, _, _ in inst.terminals),
                        default=1) + 2)
    # Every cell is a region of its own, so every grid line is drawn.
    cells = [range(y * w, y * w + w) for y in range(h)]
    return _ascii_board(w, h, _walls(cells, w, h), content, cell_w)


def _svg_open(width: int, height: int) -> List[str]:
    u = _SVG_UNIT
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width * u} {height * u}" '
        f'width="{width * u}" height="{height * u}">',
        f'<rect x="0" y="0" width="{width * u}" height="{height * u}" '
        f'fill="white"/>',
    ]


def _svg_grid(width: int, height: int) -> List[str]:
    u = _SVG_UNIT
    parts = []
    for x in range(width + 1):
        parts.append(f'<line x1="{x * u}" y1="0" x2="{x * u}" '
                     f'y2="{height * u}" stroke="#cccccc" stroke-width="1"/>')
    for y in range(height + 1):
        parts.append(f'<line x1="0" y1="{y * u}" x2="{width * u}" '
                     f'y2="{y * u}" stroke="#cccccc" stroke-width="1"/>')
    return parts


def _svg_walls(walls: WallFlags, width: int, height: int) -> List[str]:
    u = _SVG_UNIT
    hwalls, vwalls = walls
    parts = []
    for x in range(width):
        for y in range(height + 1):
            if hwalls[y][x]:
                parts.append(f'<line x1="{x * u}" y1="{(height - y) * u}" '
                             f'x2="{(x + 1) * u}" y2="{(height - y) * u}" '
                             f'stroke="black" stroke-width="4"/>')
    for x in range(width + 1):
        for y in range(height):
            if vwalls[y][x]:
                parts.append(f'<line x1="{x * u}" y1="{(height - y) * u}" '
                             f'x2="{x * u}" y2="{(height - y - 1) * u}" '
                             f'stroke="black" stroke-width="4"/>')
    return parts


def _svg_paths(paths: Sequence[Sequence[Cell]], height: int) -> List[str]:
    u = _SVG_UNIT
    parts = []
    for path in paths:
        points = " ".join(
            f"{x * u + u // 2},{(height - y) * u - u // 2}" for x, y in path)
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="red" stroke-width="4"/>')
    return parts


def _svg_circle(x: int, y: int, height: int, text: str) -> List[str]:
    u = _SVG_UNIT
    cx, cy = x * u + u // 2, (height - y) * u - u // 2
    parts = [f'<circle cx="{cx}" cy="{cy}" r="{u * 3 // 8}" fill="white" '
             f'stroke="black" stroke-width="2"/>']
    if text:
        parts.append(f'<text x="{cx}" y="{cy}" font-size="{u // 2}" '
                     f'text-anchor="middle" dominant-baseline="central">'
                     f'{text}</text>')
    return parts


def render_wataridori_svg(inst: WataridoriInstance,
                          sol: Optional[WataridoriSolution] = None) -> str:
    rmap = inst.regions
    w, h = rmap.width, rmap.height
    parts = _svg_open(w, h)
    parts += _svg_grid(w, h)
    parts += _svg_walls(_walls(rmap.ids, w, h), w, h)
    if sol is not None:
        parts += _svg_paths(sol.paths, h)
    for c in sorted(inst.circles, key=lambda c: (c.y, c.x)):
        parts += _svg_circle(c.x, c.y, h,
                             "" if c.number is None else str(c.number))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_numberlink_svg(inst: NumberlinkInstance,
                          sol: Optional[NumberlinkSolution] = None) -> str:
    w, h = inst.width, inst.height
    check_size(w, h)
    parts = _svg_open(w, h)
    parts += _svg_grid(w, h)
    # One region covering the board leaves only its outer boundary.
    parts += _svg_walls(_walls([[0] * w] * h, w, h), w, h)
    if sol is not None:
        parts += _svg_paths([path for _, path in sol.paths], h)
    u = _SVG_UNIT
    for label, a, b in inst.terminals:
        for x, y in (a, b):
            cx, cy = x * u + u // 2, (h - y) * u - u // 2
            parts.append(f'<text x="{cx}" y="{cy}" font-size="{u // 2}" '
                         f'text-anchor="middle" '
                         f'dominant-baseline="central">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
