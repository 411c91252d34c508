"""Lattice-path families carried by double-rectangle tilings.

Every tiling decorates its dominoes with steps of partial Schroeder paths:
each vertical domino carries one diagonal step and each horizontal domino
whose left cell is black carries one length-2 level step (the white-left
horizontals carry nothing).  A vertical domino steps up when its bottom cell
is black and down when it is white.  This convention is the unique one of
the four candidates under which every enumerated tiling yields a family of
non-intersecting paths joining the i-th u marker to the i-th v marker; see
tests/test_paths.py for the calibration.  Every decorated domino runs from
the west edge of a black cell to the east edge of a white cell, so the
markers (``regions.boundary_markers``) are the west edges of the black cells
with no west neighbour and the east edges of the white cells with no east
neighbour.

Points live on vertical edge midpoints, stored as (x, y2) with y2 = 2*y + 1,
so an up step is (+1, +2), a down step (+1, -2) and a level step (+2, 0).
The ground line is y2 = 1, through the first marker pair.

The walk reads tilings as int masks over ``Lattice.pairs``, a batch at a
time, and yields each one's area as it goes; its segments come from the
region's dominoes as cell id pairs (``Region.lattice``).  A mask from a
caller enters at ``tiling_to_paths``, which checks that its dominoes cover
the region once each (``regions.require_cover``).  Per region, the
path points are numbered once (``regions.derived``), densely, in
sorted (x, y2) order, and the walk's tables are indexed by those point ids:
the bits of the decorated dominoes that start at each point, the step of
each bit, the ids of the u markers and the v marker index of each point.  A
walk step is then one list index and one int-keyed lookup.  The walk
builds no path, so a point becomes (x, y2) again only in an error message
or in the family that ``tiling_to_paths`` reads off a checked mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from types import MappingProxyType

from .regions import (
    InvariantError,
    Region,
    _Tuple,
    _tuple_new,
    boundary_markers,
    derived,
    require_cover,
)
from .stats import minimal_tiling

UP, DOWN, LEVEL = "U", "D", "L"


class DecorationError(RuntimeError):
    """The decorated segments do not assemble into marker-to-marker paths."""


class SchroederPath(_Tuple):
    """``points``: the (x, y2) vertices, left to right; ``steps``: the step letters between them."""

    __slots__ = ()

    def __new__(cls, points, steps):
        return _tuple_new(cls, (points, steps))


class PathFamily(_Tuple):
    """A SchroederPath per marker index, and the area under them in quarter cells, summed by the walk."""

    __slots__ = ()

    def __new__(cls, paths, quarter_area):
        return _tuple_new(cls, (paths, quarter_area))


class PathTables(_Tuple):
    """The walk's tables.  The fields:

    - ``starts``: point id -> OR of the bits of the decorated dominoes that start there;
    - ``steps``: bit -> (end point id, step letter, quarter area of the step);
    - ``u``: point id of each u marker;
    - ``v_at``: point id -> index of the v marker there, or -1;
    - ``points``: point id -> (x, y2), in sorted order;
    - ``decorated``: OR of the bits of every decorated domino.
    """

    __slots__ = ()

    def __new__(cls, starts, steps, u, v_at, points, decorated):
        return _tuple_new(cls, (starts, steps, u, v_at, points, decorated))


def _compile_tables(u: Sequence, v: Sequence, segments: Sequence) -> PathTables:
    """The walk's tables for the markers u and v and the segments (bit, start, end, letter).

    Every marker and segment end is numbered, densely and in sorted (x, y2)
    order.  A step from (x, y2) to (x', y2') adds (y2 + y2' - 2) * (x' - x)
    quarter cells of area under the path; see ``underneath_area``.
    """
    points = tuple(sorted({*u, *v, *(p for _, s, e, _ in segments for p in (s, e))}))
    pid = {p: i for i, p in enumerate(points)}
    starts = [0] * len(points)
    steps = {}
    for bit, (x0, y0), (x1, y1), letter in segments:
        starts[pid[(x0, y0)]] |= bit
        steps[bit] = (pid[(x1, y1)], letter, (y0 + y1 - 2) * (x1 - x0))
    v_at = [-1] * len(points)
    for i, p in enumerate(v):
        v_at[pid[p]] = i
    return PathTables(
        tuple(starts),
        MappingProxyType(steps),
        tuple(pid[p] for p in u),
        tuple(v_at),
        points,
        sum(steps),
    )


@derived
def _path_tables(region: Region) -> PathTables:
    """The region's walk tables: the path step of every decorated domino, keyed by its mask bit."""
    segments = []
    cells, colour = region.lattice.cells, region.lattice.colour
    for k, (i, j) in enumerate(region.lattice.pairs):
        c, d, bit = cells[i], cells[j], 1 << k
        if c.x == d.x:  # vertical: c is the bottom cell
            if colour[i]:
                start, end, letter = (c.x, 2 * c.y + 1), (c.x + 1, 2 * d.y + 1), UP
            else:
                start, end, letter = (d.x, 2 * d.y + 1), (d.x + 1, 2 * c.y + 1), DOWN
        elif colour[i]:  # horizontal with a black left cell
            start, end, letter = (c.x, 2 * c.y + 1), (c.x + 2, 2 * c.y + 1), LEVEL
        else:
            continue
        segments.append((bit, start, end, letter))
    markers = boundary_markers(region)
    return _compile_tables(markers.u, markers.v, segments)


def _walk(region: Region, masks: Iterable[int]) -> Iterator[int]:
    """Follow every path from its u marker over the decorated dominoes of each tiling mask.

    Yields, per mask, four times the family's underneath area, summed from
    the steps' quarter areas: a generator, so a caller can check each mask
    in the same pass as its other statistics.  No path is built; a caller
    that wants the family assembles it once the walk has returned
    (``tiling_to_paths``).  A path takes the one decorated domino of the
    mask that starts at its point and that no path has used yet, and stops
    where there is none: no domino starts at a v marker, so a path stops
    there or dangles.  A path that stops because the domino at its point was
    used has met an earlier path, and a point where two unused ones start
    is a branch.  Every step moves right, so a path cannot meet itself, and
    a path that runs onto an earlier path's end marker ends at the wrong
    one.  The walk runs on point ids; see ``_compile_tables``.
    """
    starts, steps, u, v_at, points, decorated = _path_tables(region)
    # a plain dict's get is faster than the read-only view's; the step
    # letter is not read here
    step_of = {bit: (end, q) for bit, (end, _, q) in steps.items()}.get
    for mask in masks:
        unused = mask
        quarter = 0
        for i, p in enumerate(u):
            while True:
                here = starts[p] & unused
                step = step_of(here)  # None unless here is one domino's bit
                if step is None:
                    break
                unused ^= here
                p, q = step
                quarter += q
            if here or v_at[p] != i:
                if here:
                    raise DecorationError(f"paths branch at {points[p]}")
                if v_at[p] >= 0:
                    raise DecorationError(f"path from marker u_{i + 1} ends at v_{v_at[p] + 1}")
                if starts[p] & mask:
                    raise DecorationError(f"paths intersect at {points[p]}")
                raise DecorationError(f"path {i + 1} dangles at {points[p]}")
        if unused & decorated:
            raise DecorationError("decorated segments left over after assembly")
        yield quarter


@derived
def _minimal_area(region: Region) -> int:
    """Underneath area of the minimal tiling's path family, in whole quarter cells."""
    (quarter,) = _walk(region, [minimal_tiling(region)])
    return quarter


def area_ranks(region: Region, masks: Iterable[int]) -> Iterator[int]:
    """Rank of each tiling mask as the underneath-area excess of its path family over minimal.

    The ranks come lazily, in the order of ``masks``, so a caller can check
    each mask in the same pass as its other statistics.  Each area comes
    from the walk, which builds no path, and is compared with
    ``_minimal_area``, in quarter cells like the walk's.  A region that is
    not a double Aztec rectangle raises KindError at the call.
    """
    return _excess_ranks(_walk(region, masks), _minimal_area(region))


def _excess_ranks(quarters: Iterable[int], base: int) -> Iterator[int]:
    """Each quarter-cell area's excess over ``base``, in whole cells."""
    for quarter in quarters:
        excess = quarter - base
        if excess % 4:
            raise InvariantError("area excess must be a whole number of cells")
        yield excess // 4


def tiling_to_paths(region: Region, mask: int) -> PathFamily:
    """Assemble the decorated segments of a tiling mask into the marker-joined path family.

    A mask whose dominoes do not cover the region once each raises
    ConstraintError (``regions.require_cover``) before the walk, and the
    walk raises DecorationError unless the decorated dominoes assemble into
    marker-joined paths.  Then each path is read off the mask from its u
    marker: every decorated domino starts at the west edge of its black
    cell, so in a tiling at most one starts at each point, and the path
    follows ``starts[p] & mask`` until none does, at its v marker.
    """
    require_cover(region, mask)
    (quarter,) = _walk(region, [mask])
    starts, steps, u, _, points, _ = _path_tables(region)
    family = []
    for p in u:
        pts, letters = [points[p]], []
        while here := starts[p] & mask:
            p, letter, _ = steps[here]
            pts.append(points[p])
            letters.append(letter)
        family.append(SchroederPath(tuple(pts), tuple(letters)))
    return PathFamily(tuple(family), quarter)


@derived
def step_masks(region: Region) -> tuple[int, int, int]:
    """The masks, over ``Lattice.pairs``, of the decorated dominoes that step up, down and level."""
    steps = _path_tables(region).steps
    return tuple(
        sum(bit for bit, (_, step, _) in steps.items() if step == letter)
        for letter in (UP, DOWN, LEVEL)
    )


def step_counts(family: PathFamily) -> tuple[int, int, int]:
    """Totals of up, down and level steps over the whole family."""
    up = down = level = 0
    for p in family.paths:
        up += p.steps.count(UP)
        down += p.steps.count(DOWN)
        level += p.steps.count(LEVEL)
    return up, down, level


def underneath_area(family: PathFamily) -> int:
    """Total lattice area between the paths and the ground line y2 = 1, in quarter cells.

    A step at heights h -> h' (in whole units above the ground) contributes
    the trapezoid (h + h')/2 per unit of horizontal run, so a level step at
    height h counts 2h and a diagonal step h + 1/2 or h - 1/2.  With
    h = (y2 - 1) / 2 each step adds (y2 + y2' - 2) * run / 4, so the sum is
    kept in integer quarter units, read per step from the region's path
    tables and added up by the walk that checks the family.  The area in
    cells is ``rational.reduced(quarters, 4)``.
    """
    return family.quarter_area
