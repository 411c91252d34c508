"""Height functions, minimal tilings, flips, the three rank computations and the sweep."""

from fractions import Fraction

import pytest

from aztecbridge import stats
from aztecbridge.cli import small_double_rectangles, suite_rank
from aztecbridge.engine import CapacityError, enumerate_tilings, is_vertical
from aztecbridge.formulas import aztec_genfun, main_genfun
from aztecbridge.polyring import LaurentPoly2
from aztecbridge.regions import (
    Cell,
    InvariantError,
    build_aztec_diamond,
    build_double_rectangle,
    build_hexagon,
)
from aztecbridge.stats import (
    UnreachableError,
    flips,
    height_function,
    minimal_tiling,
    rank_bfs,
    rank_linear,
    rank_table,
    rank_via_area,
    require_sweep_budget,
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
    assert tq_sum(build_aztec_diamond(7)) == aztec_genfun(7)


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


def _rank_regions():
    regions = [build_aztec_diamond(n) for n in range(1, 5)]
    return regions + [build_double_rectangle(*tup) for tup in small_double_rectangles(32)]


def test_rank_linear_equals_the_flip_distance():
    regions = _rank_regions()
    assert len(regions) == 32
    tilings = 0
    for region in regions:
        for t, r in rank_table(region).items():
            assert rank_linear(region, t) == r, region.spec_string()
            tilings += 1
    assert tilings == 3566


def _old_line_q2(region, h0, x, mask):
    """The height walk the sweep used before its line weights were linear."""
    cells = region.cells
    rows = max(c.y for c in cells) + 1
    deficit = 0
    h = None
    for y in range(rows):
        if Cell(x - 1, y) not in cells and Cell(x, y) not in cells:
            h = None
            continue
        if h is None:
            h = h0[(x, y)]
        step = 1 if (x - 1 + y) % 2 == region.white_parity else -1
        h += -3 * step if mask >> y & 1 else step
        deficit += h0[(x, y + 1)] - h
    return deficit // 2


def test_line_weights_equal_the_height_walk_on_every_live_mask():
    regions = [build_aztec_diamond(n) for n in range(1, 7)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(60)]
    checked = 0
    for region in regions:
        lines = region.line_weights
        h0 = height_function(region, minimal_tiling(region))
        moves = stats._live_moves(region)
        assert len(lines) == len(moves) + 1
        live = [list(table) for table in moves] + [[0]]
        for x, masks in enumerate(live):
            for mask in masks:
                q2 = stats._deficit(lines[x], mask) // 2
                assert q2 == _old_line_q2(region, h0, x, mask), (region.spec_string(), x, mask)
                checked += 1
    assert checked > 10_000


def test_a_too_narrow_packing_trips_the_coefficient_sum_guard():
    region = build_aztec_diamond(3)
    region.__dict__["kasteleyn_det"] = 7  # 64 tilings; 3-bit slots overflow
    with pytest.raises(InvariantError, match="coefficients sum to"):
        tq_sum(region)


def test_a_shifted_rank_trips_the_ground_guard():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    (const, w), *rest = region.line_weights
    region.__dict__["line_weights"] = ((const + 4, w), *rest)  # every rank + 1
    with pytest.raises(InvariantError, match=r"q\^0 part"):
        tq_sum(region)


def test_the_deficit_guard_rejects_a_negative_or_fractional_deficit():
    for line in ((-4, (0, 0)), (2, (0, 0)), (0, (-4, 0))):
        with pytest.raises(InvariantError, match="height deficit"):
            stats._deficit(line, 1)


def test_sweep_budget_admits_the_checked_regions_and_rejects_ad11(monkeypatch):
    require_sweep_budget(build_aztec_diamond(9))
    for tup in small_double_rectangles(104):
        require_sweep_budget(build_double_rectangle(*tup))

    def no_fill(*args):
        raise AssertionError("filled a column over the budget")

    monkeypatch.setattr(stats, "_fill_column", no_fill)
    with pytest.raises(CapacityError, match="22 cells"):
        tq_sum(build_aztec_diamond(11))
