"""Kasteleyn determinants against the exponential engines they replace."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aztecbridge import engine
from aztecbridge.engine import _det, count_tilings, enumerate_tilings
from aztecbridge.formulas import ResampleError, macmahon_count, macmahon_q, weighted_formula_rhs
from aztecbridge.matchgraph import (
    WeightScheme,
    dual_graph,
    matching_genfun,
    region_matching_sum,
)
from aztecbridge.regions import (
    Cell,
    InvariantError,
    Region,
    Tri,
    TriRegion,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
)
from aztecbridge.stats import tq_sum
from aztecbridge.verify import SUITE_TUPLES, small_double_rectangles


def signed_fraction(rng):
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v:
            return v


def plain_region(cells):
    return Region(kind="plain", params=(), cells=frozenset(cells), white_parity=0)


def annulus():
    """The 4 x 4 square without its central 2 x 2 block: balanced, one hole."""
    return [Cell(x, y) for x in range(4) for y in range(4) if not (x in (1, 2) and y in (1, 2))]


def test_determinant_matches_a_cofactor_expansion():
    rng = random.Random(3)

    def cofactor(m):
        if not m:
            return 1
        return sum(
            (-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(len(m))
            if m[0][j]
        )

    for n in range(1, 6):
        for _ in range(20):
            # sparse, often singular, and often with a zero leading entry
            m = [[rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
            rows = [{j: v for j, v in enumerate(row) if v} for row in m]
            assert _det(rows) == cofactor(m)
            # rational rows, each cleared by the lcm of its own denominators
            q = [[Fraction(v, rng.randint(1, 4)) for v in row] for row in m]
            mults = [math.lcm(*(v.denominator for v in row)) for row in q]
            cleared = [
                {j: int(v * mult) for j, v in enumerate(row) if v} for row, mult in zip(q, mults)
            ]
            assert Fraction(_det(cleared), math.prod(mults)) == cofactor(q)


def test_domino_determinant_equals_enumeration_and_the_sweep():
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    for region in regions:
        det = count_tilings(region)
        assert det == sum(1 for _ in enumerate_tilings(region)), region.spec_string()
        assert det == sum(c for _, c in tq_sum(region).items()), region.spec_string()


def test_lozenge_determinant_equals_enumeration():
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                region = build_hexagon(a, b, c)
                assert count_tilings(region) == sum(1 for _ in enumerate_tilings(region))


def test_weighted_determinant_equals_brute_force_with_signed_weights():
    rng = random.Random(20240)
    for tup in SUITE_TUPLES:
        region = build_double_rectangle(*tup)
        for _ in range(6):
            scheme = WeightScheme(*(signed_fraction(rng) for _ in range(5)))
            assert region_matching_sum(region, scheme) == matching_genfun(
                dual_graph(region, scheme)
            )


BOX = frozenset(Cell(x, y) for x in range(4) for y in range(5))


@st.composite
def box_regions(draw):
    """The empty or the full 4 x 5 box with dominoes toggled, then a pair of opposite colours."""
    cells = set(BOX) if draw(st.booleans()) else set()
    placements = draw(st.lists(st.tuples(st.sampled_from(sorted(BOX)), st.booleans()), max_size=12))
    for c, horizontal in placements:
        d = Cell(c.x + 1, c.y) if horizontal else Cell(c.x, c.y + 1)
        if d in BOX and (c in cells) == (d in cells):
            cells ^= {c, d}
    if draw(st.booleans()):
        # toggling a cell of each colour keeps the colour balance when both
        # cells go in or both go out, and can make the region untileable
        cells ^= {draw(st.sampled_from(sorted(c for c in BOX if (c.x + c.y) % 2 == p))) for p in (0, 1)}
    assume(cells and 2 * sum((c.x + c.y) % 2 for c in cells) == len(cells))
    return plain_region(cells)


nonzero_fractions = st.builds(
    lambda num, den, negative: Fraction(-num if negative else num, den),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(box_regions(), st.lists(nonzero_fractions, min_size=5, max_size=5))
def test_determinant_enumeration_and_brute_force_agree_on_random_regions(region, weights):
    try:
        det = engine._unit_det(region)
    except InvariantError:
        assume(False)
    assert abs(det) == sum(1 for _ in enumerate_tilings(region)) == matching_genfun(dual_graph(region))
    scheme = WeightScheme(*weights)
    assert region_matching_sum(region, scheme) == matching_genfun(dual_graph(region, scheme))


def test_the_unweighted_determinant_is_derived_once_per_region(monkeypatch):
    calls = []
    real = engine._unit_det.__wrapped__
    monkeypatch.setattr(engine._unit_det, "__wrapped__", lambda r: calls.append(r) or real(r))
    rng = random.Random(7)
    region = build_double_rectangle(*SUITE_TUPLES[0])
    for _ in range(3):
        scheme = WeightScheme(*(signed_fraction(rng) for _ in range(5)))
        assert region_matching_sum(region, scheme) == matching_genfun(dual_graph(region, scheme))
    assert count_tilings(region) == sum(1 for _ in enumerate_tilings(region))
    hexagon = build_hexagon(2, 2, 2)
    assert count_tilings(hexagon) == count_tilings(hexagon) == engine._unit_det(hexagon) == 20
    assert calls == [region, hexagon]


def test_the_kasteleyn_skeleton_keys_each_entry_by_its_piece():
    for spec in ("ad:3", "dr:2,3,1,2,3", "hex:2,2,2"):
        region = parse_spec(spec)
        lat = region.lattice
        rows = engine._kasteleyn_rows(region)
        assert rows is engine._kasteleyn_rows(region)
        assert len(rows) == len(lat.white) == len(lat.black)
        for w, row in zip(lat.white, rows):
            assert [lat.black[j] for j, _, _ in row] == list(lat.adjacent[w]), spec
            for j, sign, k in row:
                b = lat.black[j]
                assert lat.pairs[k] == tuple(sorted((w, b))), spec
                # -1 on a vertical edge in an odd column; every lozenge sign is +1
                c, d = lat.cells[w], lat.cells[b]
                assert sign == (-1 if isinstance(region, Region) and c.x == d.x and c.x % 2 else 1)
        assert sorted(k for row in rows for _, _, k in row) == list(range(len(lat.pairs))), spec
    # a lone rectangle is imbalanced: its skeleton is not square and its count is 0
    rect = build_aztec_rectangle(2, 3)
    assert len(engine._kasteleyn_rows(rect)) != len(rect.lattice.black)
    assert count_tilings(rect) == 0


def test_a_count_keeps_no_kasteleyn_skeleton_and_a_weighted_sum_keeps_one():
    rng = random.Random(11)
    for tup in SUITE_TUPLES:
        region = build_double_rectangle(*tup)
        assert count_tilings(region) > 0
        kept = region.__dict__["_derived"]
        assert engine._unit_det in kept and engine._kasteleyn_rows not in kept, tup
        scheme = WeightScheme(*(signed_fraction(rng) for _ in range(5)))
        assert region_matching_sum(region, scheme) == matching_genfun(dual_graph(region, scheme))
        assert engine._kasteleyn_rows in kept, tup
    hexagon = build_hexagon(2, 2, 2)
    assert count_tilings(hexagon) == 20
    assert engine._kasteleyn_rows not in hexagon.__dict__["_derived"]


def test_counts_at_scale():
    assert count_tilings(build_aztec_diamond(20)) == 2**210
    assert count_tilings(build_hexagon(8, 8, 8)) == macmahon_count(8, 8, 8)


def test_weighted_formula_at_ninety_cells():
    # far past the 40-vertex bound of the brute-force matching sum
    tup = (3, 6, 2, 3, 6)
    region = build_double_rectangle(*tup)
    assert len(region.cells) == 90
    rng = random.Random(7)
    done = 0
    while done < 3:
        vals = tuple(signed_fraction(rng) for _ in range(5))
        try:
            rhs = weighted_formula_rhs(*tup, *vals)
        except ResampleError:
            continue
        assert region_matching_sum(region, WeightScheme(*vals)) == rhs
        done += 1


def test_a_region_with_a_hole_is_rejected():
    region = plain_region(annulus())
    assert region.imbalance() == 0
    with pytest.raises(InvariantError, match="hole"):
        count_tilings(region)
    scheme = WeightScheme(*(Fraction(v) for v in (2, 3, 5, 7, 11)))
    with pytest.raises(InvariantError, match="hole"):
        region_matching_sum(region, scheme)


def test_a_hole_in_one_of_two_components_is_rejected():
    # E - V + 1 alone would miss this hole: the second component offsets it
    with pytest.raises(InvariantError, match="hole"):
        count_tilings(plain_region(annulus() + [Cell(9, 0), Cell(10, 0)]))


def test_disconnected_hole_free_regions_multiply():
    square = [Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)]
    far = [Cell(c.x + 5, c.y) for c in square]
    assert count_tilings(plain_region(square + far)) == 4


def test_a_hexagon_with_a_hole_is_rejected():
    full = build_hexagon(2, 2, 2)
    # the six triangles around the central lattice point (0, 2)
    x, y = 0, 2
    around = {
        Tri(x, y, True),
        Tri(x - 1, y, True),
        Tri(x, y - 1, True),
        Tri(x - 1, y, False),
        Tri(x, y - 1, False),
        Tri(x - 1, y - 1, False),
    }
    assert around <= full.tris
    holed = TriRegion(kind="hexagon", params=(2, 2, 2), tris=full.tris - around)
    with pytest.raises(InvariantError, match="hole"):
        count_tilings(holed)


def test_lozenges_weighted_by_two_to_their_row_sum_to_macmahons_q_product_at_two():
    """A lozenge whose two triangles D(x, y), U(x, y) share (x, y) weighs 2^y, every other 1.

    The sum is then 2^e0 times MacMahon's q-product at q = 2, e0 = b a (a - 1) / 2:
    the volume statistic of the plane partitions, on boxes far past the brute-force bound.
    """
    for a, b, c in ((1, 1, 1), (2, 2, 2), (2, 3, 4), (4, 3, 3), (3, 3, 3), (6, 6, 6), (8, 8, 8)):
        region = build_hexagon(a, b, c)
        tris = region.lattice.cells
        weights = []
        for i, j in region.lattice.pairs:  # i a down-triangle, j an up-triangle
            down, up = tris[i], tris[j]
            weights.append((2**down.y if (down.x, down.y) == (up.x, up.y) else 1, 1))
        e0 = b * a * (a - 1) // 2
        expected = 2**e0 * macmahon_q(a, b, c).eval_rational(1, 2)
        assert engine.kasteleyn_sum(region, weights) == expected, (a, b, c)
    rect = build_aztec_rectangle(2, 3)  # imbalanced: no tiling, so the sum is 0
    assert engine.kasteleyn_sum(rect, [(2, 1)] * len(rect.lattice.pairs)) == 0
