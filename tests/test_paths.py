"""Path decoration: bijectivity, step counts, and area."""

from fractions import Fraction

import pytest

from aztecbridge.engine import enumerate_tilings, is_vertical
from aztecbridge.paths import (
    DOWN,
    LEVEL,
    UP,
    step_counts,
    tiling_to_paths,
    underneath_area,
)
from aztecbridge.regions import build_double_rectangle

TUPLES = [(1, 2, 0, 1, 2), (1, 2, 1, 1, 2), (2, 3, 1, 2, 3)]


def test_every_tiling_decorates_cleanly():
    for tup in TUPLES:
        m1, n1, k, m2, n2 = tup
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            family = tiling_to_paths(region, t)
            assert len(family.paths) == m2 + n1


def test_paths_join_matching_marker_indices():
    from aztecbridge.regions import boundary_markers

    region = build_double_rectangle(1, 2, 0, 1, 2)
    markers = boundary_markers(region)
    for t in enumerate_tilings(region):
        family = tiling_to_paths(region, t)
        for i, path in enumerate(family.paths):
            assert path.points[0] == markers.u[i]
            assert path.points[-1] == markers.v[i]


def test_families_are_disjoint_and_distinct():
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        seen = set()
        for t in enumerate_tilings(region):
            family = tiling_to_paths(region, t)
            pts = [p for path in family.paths for p in path.points]
            assert len(pts) == len(set(pts))  # non-intersecting
            key = tuple(path.points for path in family.paths)
            assert key not in seen  # injective on tilings
            seen.add(key)


def test_step_geometry():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    moves = {UP: (1, 2), DOWN: (1, -2), LEVEL: (2, 0)}
    for t in enumerate_tilings(region):
        for path in tiling_to_paths(region, t).paths:
            for (x0, y0), (x1, y1), s in zip(path.points, path.points[1:], path.steps):
                assert (x1 - x0, y1 - y0) == moves[s]


def test_step_count_identity():
    for tup in TUPLES:
        m1, n1, k, m2, n2 = tup
        g = n1 - m1
        expected = m2 * (m2 + 1) + 2 * g * (m2 - k + 1) + g * (m1 + k) + m1 * (m1 + 1)
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            up, down, level = step_counts(tiling_to_paths(region, t))
            assert up + down + 2 * level == expected


def test_diagonal_steps_count_vertical_dominoes():
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            up, down, _ = step_counts(tiling_to_paths(region, t))
            assert up + down == sum(map(is_vertical, t))


def test_area_is_a_half_integer_and_rank_difference_whole():
    region = build_double_rectangle(1, 2, 1, 1, 2)
    areas = [
        underneath_area(tiling_to_paths(region, t)) for t in enumerate_tilings(region)
    ]
    base = min(areas)
    assert all(((a - base) * 1).denominator == 1 for a in areas)


def test_underneath_area_is_pinned():
    from aztecbridge.stats import minimal_tiling

    region = build_double_rectangle(2, 3, 1, 2, 3)
    tilings = list(enumerate_tilings(region))
    area = lambda t: underneath_area(tiling_to_paths(region, t))
    assert area(minimal_tiling(region)) == region.minimal_area == Fraction(111, 2)
    assert area(tilings[0]) == Fraction(145, 2)
    assert area(tilings[5]) == Fraction(139, 2)


def test_wrong_kind_is_rejected():
    from aztecbridge.regions import KindError, build_aztec_diamond
    from aztecbridge.stats import minimal_tiling

    region = build_aztec_diamond(2)
    with pytest.raises(KindError):
        tiling_to_paths(region, minimal_tiling(region))


def test_v_marker_index_is_derived_once_per_region():
    region = build_double_rectangle(2, 3, 1, 2, 3)
    assert region.v_index is region.v_index
    assert [region.v_index[p] for p in region.markers.v] == list(range(len(region.markers.v)))
    with pytest.raises(TypeError):
        region.v_index[(0, 0)] = 0


def _old_segments(region, tiling):
    """The per-tiling segment derivation that the region's table replaced."""
    segs = {}
    white = region.white_parity
    for c1, c2 in tiling:
        if c1.x == c2.x:
            bot, top = (c1, c2) if c1.y < c2.y else (c2, c1)
            if (bot.x + bot.y) % 2 == white:
                segs[(top.x, 2 * top.y + 1)] = ((top.x + 1, 2 * bot.y + 1), DOWN)
            else:
                segs[(bot.x, 2 * bot.y + 1)] = ((bot.x + 1, 2 * top.y + 1), UP)
        else:
            left = c1 if c1.x < c2.x else c2
            if (left.x + left.y) % 2 != white:
                segs[(left.x, 2 * left.y + 1)] = ((left.x + 2, 2 * left.y + 1), LEVEL)
    return segs


def _selected_segments(region, mask):
    """The steps that the region's mask tables select for a tiling mask, by start point."""
    starts, steps, _ = region.path_tables
    return {p: steps[bits & mask][:2] for p, bits in starts.items() if bits & mask}


def test_path_tables_are_derived_once_per_region_and_read_only(monkeypatch):
    from aztecbridge import paths

    calls = []
    real = paths._path_tables
    monkeypatch.setattr(paths, "_path_tables", lambda r: calls.append(r) or real(r))
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            assert _selected_segments(region, region.tiling_mask(t)) == _old_segments(region, t)
            tiling_to_paths(region, t)
        assert calls[-1] is region
        tables = region.path_tables
        assert tables is region.path_tables
        assert tables.decorated == sum(tables.steps)
        # the walk stops where no domino starts, which every v marker is
        assert not set(tables.starts) & set(region.markers.v)
        for table in (tables.starts, tables.steps):
            with pytest.raises(TypeError):
                table[next(iter(table))] = None
    assert len(calls) == len(TUPLES)


def test_decoration_guards_reject_broken_segment_sets():
    from aztecbridge.paths import DecorationError, PathTables, _family
    from aztecbridge.regions import BoundaryMarkers
    from aztecbridge.stats import _area_rank

    region = build_double_rectangle(1, 2, 0, 1, 2)
    # two level paths, (0, 1) -> (2, 1) and (0, 5) -> (2, 5), over stand-in dominoes
    region.__dict__["markers"] = BoundaryMarkers(u=[(0, 1), (0, 5)], v=[(2, 1), (2, 5)])
    segments = {
        "low": ((0, 1), (2, 1), LEVEL),
        "high": ((0, 5), (2, 5), LEVEL),
        "cross": ((0, 5), (1, 3), DOWN),
        "on": ((1, 3), (2, 1), DOWN),
        "rise": ((0, 1), (1, 3), UP),
        "spare": ((4, 3), (5, 5), UP),
    }
    bit = {name: 1 << i for i, name in enumerate(segments)}
    starts, steps = {}, {}
    for name, ((x0, y0), (x1, y1), letter) in segments.items():
        starts[(x0, y0)] = starts.get((x0, y0), 0) | bit[name]
        steps[bit[name]] = ((x1, y1), letter, (y0 + y1 - 2) * (x1 - x0))
    region.__dict__["path_tables"] = PathTables(starts, steps, sum(steps))
    region.__dict__["minimal_area"] = Fraction(4)  # the level paths at heights 0 and 2
    # the stand-ins cover no cells, so Region.tiling_mask would reject every
    # one; the guards are driven through the mask functions that
    # tiling_to_paths and rank_via_area call after it

    def paths_of(tiling):
        return _family(region, sum(map(bit.__getitem__, tiling)))

    def rank_of(tiling):
        return _area_rank(region, sum(map(bit.__getitem__, tiling)))

    family = paths_of(("low", "high"))
    assert [p.steps for p in family.paths] == [(LEVEL,), (LEVEL,)]
    assert underneath_area(family) == 4
    assert rank_of(("low", "high")) == 0
    broken = [
        (("low",), "path 2 dangles at"),
        (("low", "cross", "on"), "ends at v_1"),
        # path 2 runs onto the point where path 1 turned down
        (("rise", "on", "cross"), r"paths intersect at \(1, 3\)"),
        (("low", "high", "spare"), "left over"),
        # two decorated dominoes start where path 1 starts
        (("low", "rise", "high"), r"paths branch at \(0, 1\)"),
    ]
    for tiling, message in broken:
        for entry in (paths_of, rank_of):
            with pytest.raises(DecorationError, match=message):
                entry(tiling)
