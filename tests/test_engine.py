"""Enumeration vs counting, on both lattices."""

import hashlib

import pytest

from aztecbridge.engine import (
    count_lozenge_tilings,
    count_tilings,
    enumerate_lozenge_tilings,
    enumerate_tilings,
    is_vertical,
)
from aztecbridge.regions import (
    TriRegion,
    build_aztec_diamond,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
)


def test_diamond_counts_are_powers_of_two():
    for n in range(1, 7):
        assert count_tilings(build_aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)


def test_counting_agrees_with_enumeration():
    for region in [
        build_aztec_diamond(2),
        build_aztec_diamond(3),
        build_double_rectangle(1, 2, 0, 1, 2),
        build_double_rectangle(2, 3, 1, 2, 3),
    ]:
        assert count_tilings(region) == sum(1 for _ in enumerate_tilings(region))


def test_small_double_rectangle_count():
    assert count_tilings(build_double_rectangle(1, 2, 0, 1, 2)) == 12


def test_enumeration_yields_valid_tilings():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    for t in enumerate_tilings(region):
        covered = [c for d in t for c in d]
        assert len(covered) == len(set(covered)) == len(region.cells)
        assert set(covered) == set(region.cells)


def test_enumeration_order_is_stable():
    region = build_aztec_diamond(2)
    first = list(enumerate_tilings(region))
    again = list(enumerate_tilings(region))
    assert first == again
    assert all(t == tuple(sorted(t)) for t in first)


def test_vertical_predicate():
    region = build_aztec_diamond(1)
    tilings = list(enumerate_tilings(region))
    assert len(tilings) == 2
    counts = sorted(sum(1 for d in t if is_vertical(d)) for t in tilings)
    assert counts == [0, 2]


@pytest.mark.parametrize("sides,expected", [((1, 1, 1), 2), ((2, 2, 2), 20)])
def test_hexagon_counts(sides, expected):
    assert count_lozenge_tilings(build_hexagon(*sides)) == expected


@pytest.mark.parametrize(
    "spec,count,digest",
    [
        ("dr:2,3,1,2,3", 640, "6eb98e6e2019edb1"),
        ("ad:3", 64, "4f798716fd777f5f"),
        ("hex:2,2,2", 20, "f1f0e3416b29b051"),
        ("hex:3,2,2", 50, "43770ab25a3df40f"),
    ],
)
def test_enumeration_order_is_pinned(spec, count, digest):
    # paths and render pick tilings by their index in this order
    region = parse_spec(spec)
    enumerate_ = enumerate_lozenge_tilings if isinstance(region, TriRegion) else enumerate_tilings
    tilings = list(enumerate_(region))
    assert len(tilings) == count
    assert hashlib.sha256(repr(tilings).encode()).hexdigest()[:16] == digest
