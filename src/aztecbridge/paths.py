"""Lattice-path families carried by double-rectangle tilings.

Every tiling decorates its dominoes with steps of partial Schroeder paths:
each vertical domino carries one diagonal step and each horizontal domino
whose left cell is black carries one length-2 level step (the white-left
horizontals carry nothing).  A vertical domino steps up when its bottom cell
is black and down when it is white.  This convention is the unique one of
the four candidates under which every enumerated tiling yields a family of
non-intersecting paths joining the i-th southwest marker to the i-th
southeast marker; see tests/test_paths.py for the calibration.

Points live on vertical edge midpoints, stored as (x, y2) with y2 = 2*y + 1,
so an up step is (+1, +2), a down step (+1, -2) and a level step (+2, 0).
The ground line is y2 = 1, through the first marker pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .engine import Tiling, is_vertical
from .regions import Region

UP, DOWN, LEVEL = "U", "D", "L"


class DecorationError(RuntimeError):
    """The decorated segments do not assemble into marker-to-marker paths."""


class SchroederPath(NamedTuple):
    points: tuple  # (x, y2) vertices, left to right
    steps: tuple  # step letters, len(points) - 1


class PathFamily(NamedTuple):
    paths: tuple  # SchroederPath, one per marker index


def _segments(region: Region, tiling: Tiling) -> dict:
    """Map from segment start point to (end point, step letter)."""
    segs: dict = {}
    white = region.white_parity
    for d in tiling:
        c1, c2 = d
        if is_vertical(d):
            bot, top = (c1, c2) if c1.y < c2.y else (c2, c1)
            if (bot.x + bot.y) % 2 == white:
                start = (top.x, 2 * top.y + 1)
                segs[start] = ((top.x + 1, 2 * bot.y + 1), DOWN)
            else:
                start = (bot.x, 2 * bot.y + 1)
                segs[start] = ((bot.x + 1, 2 * top.y + 1), UP)
        else:
            left = c1 if c1.x < c2.x else c2
            if (left.x + left.y) % 2 != white:
                start = (left.x, 2 * left.y + 1)
                segs[start] = ((left.x + 2, 2 * left.y + 1), LEVEL)
    return segs


def tiling_to_paths(region: Region, tiling: Tiling) -> PathFamily:
    """Assemble the decorated segments into the marker-joined path family."""
    segs = _segments(region, tiling)
    markers = region.markers
    v_index = {p: i for i, p in enumerate(markers.v)}
    seen: set = set()
    used_starts: set = set()
    paths = []
    for i, u in enumerate(markers.u):
        pts = [u]
        steps = []
        p = u
        while p not in v_index:
            if p not in segs:
                raise DecorationError(f"path {i + 1} dangles at {p}")
            used_starts.add(p)
            p, letter = segs[p]
            steps.append(letter)
            pts.append(p)
        if v_index[p] != i:
            raise DecorationError(
                f"path from marker u_{i + 1} ends at v_{v_index[p] + 1}"
            )
        for pt in pts:
            if pt in seen:
                raise DecorationError(f"paths intersect at {pt}")
            seen.add(pt)
        paths.append(SchroederPath(points=tuple(pts), steps=tuple(steps)))
    if set(segs) - used_starts:
        raise DecorationError("decorated segments left over after assembly")
    return PathFamily(paths=tuple(paths))


def step_counts(family: PathFamily) -> tuple[int, int, int]:
    """Totals of up, down and level steps over the whole family."""
    up = down = level = 0
    for p in family.paths:
        up += p.steps.count(UP)
        down += p.steps.count(DOWN)
        level += p.steps.count(LEVEL)
    return up, down, level


def underneath_area(family: PathFamily) -> Fraction:
    """Total lattice area between the paths and the ground line y2 = 1.

    A step at heights h -> h' (in whole units above the ground) contributes
    the trapezoid (h + h')/2 per unit of horizontal run, so a level step at
    height h counts 2h and a diagonal step h + 1/2 or h - 1/2.  With
    h = (y2 - 1) / 2 each step adds (y2 + y2' - 2) * run / 4, so the sum is
    kept in integer quarter units.
    """
    total = 0
    for p in family.paths:
        for (x0, y0), (x1, y1) in zip(p.points, p.points[1:]):
            total += (y0 + y1 - 2) * (x1 - x0)
    return Fraction(total, 4)
