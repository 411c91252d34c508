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

from .engine import Tiling
from .regions import Region

UP, DOWN, LEVEL = "U", "D", "L"


class DecorationError(RuntimeError):
    """The decorated segments do not assemble into marker-to-marker paths."""


class SchroederPath(NamedTuple):
    points: tuple  # (x, y2) vertices, left to right
    steps: tuple  # step letters, len(points) - 1


class PathFamily(NamedTuple):
    paths: tuple  # SchroederPath, one per marker index
    quarter_area: int  # four times ``underneath_area``, summed by the walk


def _path_segments(region: Region) -> dict:
    """Map from each decorated domino of the region to (start, (end, letter))."""
    segs: dict = {}
    white = region.white_parity
    for c, nbs in region.neighbours.items():
        for d in nbs:
            if d < c:
                continue
            if c.x == d.x:  # vertical: c is the bottom cell
                if (c.x + c.y) % 2 == white:
                    segs[(c, d)] = ((d.x, 2 * d.y + 1), ((d.x + 1, 2 * c.y + 1), DOWN))
                else:
                    segs[(c, d)] = ((c.x, 2 * c.y + 1), ((c.x + 1, 2 * d.y + 1), UP))
            elif (c.x + c.y) % 2 != white:  # horizontal with a black left cell
                segs[(c, d)] = ((c.x, 2 * c.y + 1), ((c.x + 2, 2 * c.y + 1), LEVEL))
    return segs


def _segments(region: Region, tiling: Tiling) -> dict:
    """Map from segment start point to (end point, step letter)."""
    return dict(filter(None, map(region.path_segments.get, tiling)))


def _walk(region: Region, tiling: Tiling, paths: list | None = None) -> int:
    """Follow every path from its u marker over the tiling's decorated segments.

    Returns four times the family's underneath area: each step adds
    (y2 + y2' - 2) * run.  When ``paths`` is a list, each path is also
    appended to it as a SchroederPath.  Each segment leaves the tiling's
    segment map as a path takes it, so a path that reaches a point an
    earlier path has left finds no segment there: the paths intersect.
    Every step moves right, so a path cannot meet itself, and a path that
    runs onto an earlier path's end marker ends at the wrong one.
    """
    segs = _segments(region, tiling)
    take = segs.pop
    v_index = region.v_index
    quarter = 0
    for i, p in enumerate(region.markers.u):
        if paths is not None:
            pts, steps = [p], []
        x0, y0 = p
        while p not in v_index:
            seg = take(p, None)
            if seg is None:
                if p in _segments(region, tiling):
                    raise DecorationError(f"paths intersect at {p}")
                raise DecorationError(f"path {i + 1} dangles at {p}")
            p, letter = seg
            x1, y1 = p
            quarter += (y0 + y1 - 2) * (x1 - x0)
            x0, y0 = x1, y1
            if paths is not None:
                pts.append(p)
                steps.append(letter)
        if v_index[p] != i:
            raise DecorationError(
                f"path from marker u_{i + 1} ends at v_{v_index[p] + 1}"
            )
        if paths is not None:
            paths.append(SchroederPath(tuple(pts), tuple(steps)))
    if segs:
        raise DecorationError("decorated segments left over after assembly")
    return quarter


def tiling_to_paths(region: Region, tiling: Tiling) -> PathFamily:
    """Assemble the decorated segments into the marker-joined path family."""
    paths: list = []
    quarter = _walk(region, tiling, paths)
    return PathFamily(tuple(paths), quarter)


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
    kept in integer quarter units, added up by the walk that assembles the
    family.
    """
    return Fraction(family.quarter_area, 4)
