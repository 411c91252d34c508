"""Product formulas against brute-force enumeration oracles."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from test_polyring import q_integer
from test_rational import as_fraction

from aztecbridge.formulas import (
    ResampleError,
    _exponent_n,
    _repunit_quotient,
    aztec_genfun,
    corollary_count,
    macmahon_count,
    macmahon_q,
    main_genfun,
    weighted_formula_rhs,
)
from aztecbridge.matchgraph import WeightScheme, dual_graph, matching_genfun
from aztecbridge.planepart import q_genfun_brute
from aztecbridge.polyring import LaurentPoly2, one
from aztecbridge.regions import InvariantError, build_double_rectangle

SMALL_TUPLES = [(1, 2, 0, 1, 2), (1, 2, 1, 1, 2), (2, 3, 0, 2, 3), (2, 3, 1, 2, 3), (1, 3, 0, 2, 4)]


def test_macmahon_counts():
    assert macmahon_count(1, 1, 1) == 2
    assert macmahon_count(2, 2, 2) == 20
    assert macmahon_count(0, 5, 5) == 1
    assert macmahon_q(1, 1, 1) == LaurentPoly2({(0, 0): 1, (0, 2): 1})
    assert macmahon_q(0, 2, 2) == one()


def macmahon_q_by_division(a, b, c, step=1):
    """MacMahon's ratio by multiset cancellation, a product of q-integers and long division."""
    num, den = {}, {}
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num[i + j + c - 1] = num.get(i + j + c - 1, 0) + 1
            den[i + j - 1] = den.get(i + j - 1, 0) + 1
    for n in list(den):
        cancel = min(den[n], num.get(n, 0))
        if cancel:
            den[n] -= cancel
            num[n] -= cancel
    poly = divisor = one()
    for n, mult in sorted(num.items()):
        for _ in range(mult):
            poly = poly * q_integer(n, step)
    for n, mult in sorted(den.items()):
        for _ in range(mult):
            divisor = divisor * q_integer(n, step)
    return poly.divide_exact(divisor)


@pytest.mark.parametrize("step", [1, 2])
def test_macmahon_q_equals_the_long_division_on_every_box_up_to_4x4x4(step):
    for a, b, c in itertools.product(range(5), repeat=3):
        assert macmahon_q(a, b, c, step) == macmahon_q_by_division(a, b, c, step), (a, b, c)


def test_a_ratio_of_q_integers_that_is_no_polynomial_raises():
    for num, den in [([3], [2]), ([4], [3]), ([2, 3], [4]), ([5, 5], [2, 3]), ([6], [4])]:
        with pytest.raises(InvariantError, match="not a polynomial"):
            _repunit_quotient(num, den, math.prod(num).bit_length())


def test_digits_that_carry_in_a_base_too_narrow_are_caught():
    # (2,2,2) has a coefficient 4, which carries at q = 2^2 and leaves no
    # remainder, so only the digit sum tells
    num = [i + j + 1 for i in (1, 2) for j in (1, 2)]
    den = [i + j - 1 for i in (1, 2) for j in (1, 2)]
    assert _repunit_quotient(num, den, 3) == [1, 1, 3, 3, 4, 3, 3, 1, 1]
    with pytest.raises(InvariantError, match="do not sum"):
        _repunit_quotient(num, den, 2)


def test_macmahon_q_matches_brute_force():
    for a, b, c in [(1, 2, 2), (2, 2, 2), (1, 1, 3), (3, 2, 1)]:
        assert macmahon_q(a, b, c) == q_genfun_brute(a, b, c)


def test_macmahon_q_counts_at_one():
    for a, b, c in [(2, 2, 2), (3, 2, 2), (1, 3, 3)]:
        assert as_fraction(macmahon_q(a, b, c).eval_rational(1, 1)) == macmahon_count(a, b, c)


def test_aztec_genfun_order_one():
    assert aztec_genfun(1) == LaurentPoly2({(0, 0): 1, (2, 2): 1})  # 1 + tq


def test_main_genfun_matches_enumeration():
    from aztecbridge.cli import tq_sum

    for tup in [(1, 2, 0, 1, 2), (2, 3, 1, 2, 3)]:
        region = build_double_rectangle(*tup)
        assert tq_sum(region) == main_genfun(*tup)


def test_main_genfun_rank_normalization():
    # the minimal tiling contributes rank 0, so the lowest q-power must be 0
    for tup in SMALL_TUPLES:
        poly = main_genfun(*tup)
        assert min(eq for (_, eq), _ in poly.items()) == 0


def test_corollary_counts():
    assert corollary_count(1, 2, 0, 1, 2) == 12
    from aztecbridge.engine import count_tilings

    for tup in SMALL_TUPLES:
        assert count_tilings(build_double_rectangle(*tup)) == corollary_count(*tup)


def test_weighted_formula_frozen_points():
    # values frozen from exhaustive weighted matching sums
    assert as_fraction(weighted_formula_rhs(1, 2, 0, 1, 2, 2, 3, 1, 1, 2)) == 980
    assert as_fraction(
        weighted_formula_rhs(2, 3, 1, 2, 3, 1, 1, 2, 1, Fraction(1, 2))
    ) == Fraction(313875, 4294967296)


def test_weighted_formula_matches_matching_sum():
    rng = random.Random(11)

    def rq():
        while True:
            v = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            if v:
                return v

    for tup in SMALL_TUPLES:
        region = build_double_rectangle(*tup)
        done = 0
        while done < 3:
            vals = tuple(rq() for _ in range(5))
            try:
                rhs = weighted_formula_rhs(*tup, *vals)
            except ResampleError:
                continue
            assert matching_genfun(dual_graph(region, WeightScheme(*vals))) == rhs
            done += 1


def test_weighted_formula_resamples_at_q_one():
    # every q-integer ratio [i+j+t-1] / [i+j+t-2] has a pole at q = 1
    with pytest.raises(ResampleError):
        weighted_formula_rhs(1, 2, 0, 1, 2, 1, 1, 1, 1, 1)


def test_weighted_formula_rejects_zero_q():
    with pytest.raises(ValueError):
        weighted_formula_rhs(1, 2, 0, 1, 2, 1, 1, 1, 1, 0)


def triple_product_rhs(m1, n1, k, m2, n2, a, b, c, d, q):
    """The weighted product with its MacMahon ratio as the untelescoped triple product."""
    g = n1 - m1
    total = c ** ((m2 - k + 1) * g) * d ** ((m1 + k) * g)
    for i in range(m1):
        total *= (a * d + b * c * q**i) ** (m1 - i)
    for i in range(m2):
        total *= (a * d + b * c * q ** (-(i + 1))) ** (m2 - i)
    e2 = _exponent_n(m1, n1, k, m2, n2)
    e2 += (m2 + n2 - 2) * m2 * (m2 + 1) + (k + m2) * m1 * (m1 + 1) - 2 * g * m1 + g * (g - 3)
    total *= q ** (e2 // 2)
    for i in range(1, g + 1):
        for j in range(1, m2 - k + 2):
            for t in range(1, m1 + k + 1):
                den = 1 - q ** (i + j + t - 2)
                if den == 0:
                    raise ResampleError(f"q^{i + j + t - 2} = 1 at the sampled point q={q}")
                total *= (1 - q ** (i + j + t - 1)) / den
    return total


def test_telescoped_weighted_formula_equals_the_triple_product():
    from aztecbridge.verify import small_double_rectangles

    rng = random.Random(3)
    for tup in small_double_rectangles(60):
        for q in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)] + [q]
            assert as_fraction(weighted_formula_rhs(*tup, *vals)) == triple_product_rhs(*tup, *vals), tup
        m1, n1 = tup[:2]
        for q in (Fraction(1), Fraction(-1)):
            vals = (Fraction(2), Fraction(3), Fraction(5), Fraction(7), q)
            if n1 == m1:  # no MacMahon ratio, so no pole
                assert as_fraction(weighted_formula_rhs(*tup, *vals)) == triple_product_rhs(*tup, *vals)
                continue
            with pytest.raises(ResampleError) as reference:
                triple_product_rhs(*tup, *vals)
            with pytest.raises(ResampleError, match=re.escape(str(reference.value))):
                weighted_formula_rhs(*tup, *vals)


def test_the_integer_formula_equals_the_triple_product_at_signed_weights_and_q():
    """q < 0, |q| > 1 and |q| < 1, with the linear factors down to q^-4."""
    from aztecbridge.verify import small_double_rectangles

    rng = random.Random(19)
    tuples = list(small_double_rectangles(60))
    assert max(tup[3] for tup in tuples) == 4  # the last linear factor carries q^-4
    for tup in tuples:
        for q in (Fraction(-2), Fraction(-3, 2), Fraction(7, 3), Fraction(-5, 9)):
            vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
            assert as_fraction(weighted_formula_rhs(*tup, *vals, q)) == triple_product_rhs(*tup, *vals, q), tup


def test_weighted_formula_rhs_equals_a_term_by_term_fraction_evaluation_up_to_forty_cells():
    """Weights given as Fractions, pairs and ints alike; q = 1 and q = -1 resample on both sides."""
    from aztecbridge.verify import small_double_rectangles

    gen = random.Random(47)
    tuples = list(small_double_rectangles(40))
    assert len(tuples) == 49
    for tup in tuples:
        for q in (Fraction(2), Fraction(-1, 3), Fraction(5, 7), Fraction(-9, 4), Fraction(1), Fraction(-1)):
            vals = [Fraction(gen.choice((-1, 1)) * gen.randint(1, 12), gen.randint(1, 12)) for _ in range(4)] + [q]
            given_as = [v.as_integer_ratio() if i % 2 else v for i, v in enumerate(vals)]
            if q.denominator == 1:
                given_as[4] = q.numerator
            try:
                expected = triple_product_rhs(*tup, *vals)
            except ResampleError:
                with pytest.raises(ResampleError):
                    weighted_formula_rhs(*tup, *given_as)
                continue
            assert as_fraction(weighted_formula_rhs(*tup, *given_as)) == expected, (tup, vals)
    assert as_fraction(weighted_formula_rhs(1, 2, 0, 1, 2, 2, 3, 1, 1, 2)) == 980
