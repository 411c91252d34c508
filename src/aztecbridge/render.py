"""Deterministic SVG pictures of tilings and their path families.

Output is plain hand-assembled SVG text: the dominoes of a tiling mask are
emitted in bit order, which is the sorted order of ``Region.dominoes``, with
integer coordinates only, so identical inputs always produce byte-identical
files.  The lattice is drawn with y increasing upward, which means plane y
maps to SVG (height - y).
"""

from __future__ import annotations

from .engine import is_vertical
from .paths import tiling_to_paths
from .regions import Region, boundary_markers, require_cover

#: Pixels per unit cell.
SCALE = 20
#: Blank border around the drawing, in pixels.
MARGIN = 30

H_FILL = "#9ecae1"  # horizontal dominoes
V_FILL = "#fdae6b"  # vertical dominoes
PATH_STROKE = "#33a02c"
MARKER_FILL = "#e31a1c"


def render_tiling(region: Region, mask: int, overlay_paths: bool = False) -> str:
    """SVG text for a tiling mask that covers the region once, optionally with its paths on top."""
    require_cover(region, mask)
    cells = region.cells
    minx = min(c.x for c in cells)
    maxx = max(c.x for c in cells) + 1
    miny = min(c.y for c in cells)
    maxy = max(c.y for c in cells) + 1
    width = (maxx - minx) * SCALE + 2 * MARGIN
    height = (maxy - miny) * SCALE + 2 * MARGIN

    def px(x) -> int:
        return MARGIN + (x - minx) * SCALE

    def py(y) -> int:
        # plane y in whole units, flipped
        return MARGIN + (maxy - y) * SCALE

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, d in enumerate(region.dominoes):
        if not mask >> k & 1:
            continue
        c1, c2 = d
        x0 = px(min(c1.x, c2.x))
        y0 = py(max(c1.y, c2.y) + 1)
        if is_vertical(d):
            w, h, fill = SCALE, 2 * SCALE, V_FILL
        else:
            w, h, fill = 2 * SCALE, SCALE, H_FILL
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
            f'fill="{fill}" stroke="black" stroke-width="2"/>'
        )
    if overlay_paths:
        out.extend(_path_overlay(region, mask, px, py))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _path_overlay(region: Region, mask: int, px, py) -> list[str]:
    """Polylines for the path family plus labelled marker dots.

    Path points are stored as (x, 2y+1); halving the doubled coordinate
    against the pixel scale keeps everything an integer.
    """
    out = []
    family = tiling_to_paths(region, mask)
    for path in family.paths:
        coords = []
        for x, y2 in path.points:
            coords.append(f"{px(x)},{_py_half(py, y2)}")
        out.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{PATH_STROKE}" stroke-width="3"/>'
        )
    markers = boundary_markers(region)
    for label, pts in (("u", markers.u), ("v", markers.v)):
        for i, (x, y2) in enumerate(pts):
            cx, cy = px(x), _py_half(py, y2)
            out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{MARKER_FILL}"/>')
            out.append(
                f'<text x="{cx + 6}" y="{cy - 6}" font-size="12" '
                f'font-family="monospace">{label}{i + 1}</text>'
            )
    return out


def _py_half(py, y2: int) -> int:
    """Pixel row of a half-unit height y2/2; SCALE is even so this is exact."""
    return py(0) - y2 * SCALE // 2
