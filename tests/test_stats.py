"""Height functions, minimal tilings, flips, and the two rank computations."""

from fractions import Fraction

import pytest

from aztecbridge import stats
from aztecbridge.cli import small_double_rectangles, suite_rank
from aztecbridge.engine import enumerate_tilings, is_vertical
from aztecbridge.formulas import aztec_genfun, main_genfun
from aztecbridge.polyring import LaurentPoly2
from aztecbridge.regions import build_aztec_diamond, build_double_rectangle, build_hexagon
from aztecbridge.stats import (
    UnreachableError,
    flips,
    height_function,
    minimal_tiling,
    rank_bfs,
    rank_table,
    rank_via_area,
    tq_sum,
    vertical_halfcount,
)


def test_minimal_diamond_tiling_is_all_horizontal():
    for n in range(1, 4):
        t0 = minimal_tiling(build_aztec_diamond(n))
        assert all(not is_vertical(d) for d in t0)


def test_minimal_tiling_has_rank_zero_and_least_area():
    from aztecbridge.paths import tiling_to_paths, underneath_area

    region = build_double_rectangle(1, 2, 0, 1, 2)
    t0 = minimal_tiling(region)
    table = rank_table(region)
    assert table[t0] == 0
    areas = {
        t: underneath_area(tiling_to_paths(region, t)) for t in enumerate_tilings(region)
    }
    assert min(areas, key=areas.get) == t0


def test_height_function_is_consistent():
    region = build_aztec_diamond(2)
    for t in enumerate_tilings(region):
        h = height_function(region, t)
        assert min(h.values()) == 0
        # neighboring vertices differ by 1 or 3
        assert all(abs(v) in (0, 1, 2, 3, 4, 5, 6, 7, 8) for v in h.values())


def test_flip_count_of_all_horizontal_diamond():
    region = build_aztec_diamond(2)
    t0 = minimal_tiling(region)
    # the 2x2 flippable blocks of the all-horizontal tiling
    assert len(flips(t0)) == 2


def test_flips_are_involutive_neighbors():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    for t in enumerate_tilings(region):
        for t2 in flips(t):
            assert t in flips(t2)


def test_rank_table_covers_all_tilings():
    for params in [(1, 2, 0, 1, 2), (1, 2, 1, 1, 2)]:
        region = build_double_rectangle(*params)
        table = rank_table(region)
        assert set(table) == set(enumerate_tilings(region))


def test_diamond_rank_multiset_order_two():
    region = build_aztec_diamond(2)
    ranks = sorted(rank_table(region).values())
    assert ranks == [0, 1, 1, 2, 3, 4, 4, 5]
    assert {1, 2, 5} <= set(ranks)


def test_rank_bfs_equals_area_rank():
    for params in [(1, 2, 0, 1, 2), (2, 3, 1, 2, 3)]:
        region = build_double_rectangle(*params)
        for t in enumerate_tilings(region):
            assert rank_bfs(region, t) == rank_via_area(region, t)


def test_rank_rejects_foreign_tiling():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    other = minimal_tiling(build_double_rectangle(1, 2, 1, 1, 2))
    with pytest.raises(UnreachableError):
        rank_bfs(region, other)


def test_vertical_halfcount():
    region = build_aztec_diamond(1)
    halves = sorted(vertical_halfcount(t) for t in enumerate_tilings(region))
    assert halves == [Fraction(0), Fraction(1)]


def test_region_invariants_are_derived_once(monkeypatch):
    calls = []
    extreme = stats._extreme_tiling

    def counting(region):
        calls.append(region.params)
        return extreme(region)

    monkeypatch.setattr(stats, "_extreme_tiling", counting)
    cases = suite_rank(32)
    assert len(cases) == 28 and all(c["ok"] for c in cases)
    assert len(calls) == 28 and len(set(calls)) == 28


def test_rank_table_is_kept_on_the_region_and_read_only():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    table = rank_table(region)
    assert rank_table(region) is table
    assert rank_table(build_double_rectangle(1, 2, 0, 1, 2)) is not table
    assert minimal_tiling(region) is minimal_tiling(region)
    with pytest.raises(TypeError):
        table[minimal_tiling(region)] = 1


def test_minimal_tiling_wrong_kind():
    from aztecbridge.regions import KindError

    with pytest.raises(KindError):
        minimal_tiling(build_hexagon(1, 1, 1))


def _tq_sum_by_enumeration(region):
    """Oracle: list every tiling and rank it through the flip BFS table."""
    table = rank_table(region)
    terms = {}
    for t in enumerate_tilings(region):
        key = (sum(1 for d in t if is_vertical(d)), 2 * table[t])
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly2(terms)


def test_tq_sum_sweep_equals_enumeration_and_flip_bfs():
    regions = [build_aztec_diamond(n) for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(32)]
    assert len(regions) == 32
    for region in regions:
        assert tq_sum(region) == _tq_sum_by_enumeration(region), region.spec_string()


def test_tq_sum_matches_the_product_beyond_enumeration():
    # 2,007,040 and 2,097,152 tilings: out of reach of enumeration plus flip BFS
    assert tq_sum(build_double_rectangle(3, 5, 1, 3, 5)) == main_genfun(3, 5, 1, 3, 5)
    assert tq_sum(build_aztec_diamond(6)) == aztec_genfun(6)


def test_flips_swap_exactly_one_block_and_stay_sorted():
    region = build_double_rectangle(2, 3, 1, 2, 3)
    for t in enumerate_tilings(region):
        for t2 in flips(t):
            assert t2 == tuple(sorted(t2))
            assert all(type(c).__name__ == "Cell" for d in t2 for c in d)
            gone, new = set(t) - set(t2), set(t2) - set(t)
            assert len(gone) == len(new) == 2 and len(t2) == len(t)
            block = {c for d in gone for c in d}
            assert block == {c for d in new for c in d}
            xs, ys = {c.x for c in block}, {c.y for c in block}
            assert len(block) == 4 and len(xs) == len(ys) == 2
