"""Path decoration: bijectivity, step counts, and area."""

from fractions import Fraction

import pytest

from aztecbridge.engine import enumerate_tilings
from aztecbridge.paths import (
    DOWN,
    LEVEL,
    UP,
    step_counts,
    tiling_to_paths,
    underneath_area,
)
from aztecbridge.regions import build_double_rectangle
from aztecbridge.stats import vertical_halfcount

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
            assert Fraction(up + down, 2) == vertical_halfcount(t)


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
