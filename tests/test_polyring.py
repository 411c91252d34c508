"""Ring axioms, division, and serialization of the sparse Laurent ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rational import as_fraction

from aztecbridge.polyring import LaurentPoly2, one

keys = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(keys, st.integers(-9, 9), max_size=6).map(LaurentPoly2)
# few keys and small signed coefficients, so that sums and products cancel
close_keys = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
close_polys = st.dictionaries(close_keys, st.integers(-2, 2), max_size=5).map(LaurentPoly2)
# binomials, and the monomials and zero that the power treats as binomials
binomials = st.dictionaries(close_keys, st.integers(-5, 5).filter(bool), max_size=2).map(
    LaurentPoly2
)


def q_integer(n, step=1):
    """The q-integer 1 + q^step + ... + q^((n-1)*step), an oracle factor of ``macmahon_q``."""
    if n < 1:
        raise ValueError("q_integer requires n >= 1")
    return LaurentPoly2({(0, 2 * i * step): 1 for i in range(n)})


def test_zero_and_one():
    assert not LaurentPoly2.zero()
    assert one().coeff(0, 0) == 1
    assert len(one()) == 1


def test_q_integer_small():
    assert q_integer(1) == one()
    assert q_integer(3) == LaurentPoly2({(0, 0): 1, (0, 2): 1, (0, 4): 1})
    with pytest.raises(ValueError):
        q_integer(0)


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
@settings(max_examples=60)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_evaluation_is_a_ring_map(p, q):
    t0, q0 = Fraction(3, 2), Fraction(2, 3)
    # integer exponents only, so no square roots are needed
    pe = LaurentPoly2({(2 * a, 2 * b): c for (a, b), c in p.items()})
    qe = LaurentPoly2({(2 * a, 2 * b): c for (a, b), c in q.items()})
    value = lambda poly: as_fraction(poly.eval_rational(t0, q0))
    assert value(pe * qe) == value(pe) * value(qe)
    assert value(pe + qe) == value(pe) + value(qe)


@given(polys, polys)
def test_exact_division_round_trip(p, q):
    if not p or not q:
        return
    assert (p * q).divide_exact(q) == p


def test_inexact_division_raises():
    p = LaurentPoly2({(0, 0): 1, (0, 2): 1})
    d = LaurentPoly2({(0, 0): 1, (0, 2): 3})
    with pytest.raises(ValueError):
        p.divide_exact(d)


@given(polys)
def test_swap_vars_is_an_involution(p):
    assert p.swap_vars().swap_vars() == p


def to_json_obj(p):
    """A polynomial's JSON form, [2*t_exp, 2*q_exp, coeff-as-string] per term in key order.

    The oracle of ``cli._dumps``, which writes each polynomial in this form.
    """
    return [[et, eq, str(c)] for (et, eq), c in p.items()]


@given(polys)
def test_json_round_trip(p):
    obj = to_json_obj(p)
    assert all(type(et) is int and type(eq) is int and type(c) is str for et, eq, c in obj)
    assert [(et, eq) for et, eq, _ in obj] == sorted({(et, eq) for et, eq, _ in obj})
    assert LaurentPoly2({(et, eq): int(c) for et, eq, c in obj}) == p


@given(
    polys,
    st.integers(-4, 4).filter(bool),
    st.integers(1, 4),
    st.integers(-4, 4).filter(bool),
    st.integers(1, 4),
)
def test_evaluation_equals_a_term_by_term_fraction_sum(p, tn, td, qn, qd):
    """At squares, half-integer and negative exponents included; at signed bases, whole exponents."""
    rt, rq = Fraction(tn, td), Fraction(qn, qd)
    at_squares = sum((c * abs(rt) ** et * abs(rq) ** eq for (et, eq), c in p.items()), Fraction(0))
    assert as_fraction(p.eval_rational(rt**2, (qn**2, qd**2))) == at_squares
    whole = LaurentPoly2({(2 * et, 2 * eq): c for (et, eq), c in p.items()})
    at_signed = sum((c * rt**et * rq**eq for (et, eq), c in p.items()), Fraction(0))
    assert as_fraction(whole.eval_rational(rt, rq.as_integer_ratio())) == at_signed


def test_evaluation_at_zero_and_at_bases_with_no_rational_root():
    assert as_fraction(LaurentPoly2({(0, 0): 3, (2, 4): 5}).eval_rational(0, 7)) == 3
    assert as_fraction(LaurentPoly2({}).eval_rational(0, 0)) == 0
    with pytest.raises(ValueError, match="zero base with negative exponent"):
        LaurentPoly2.monomial(1, -2, 0).eval_rational(0, 1)
    with pytest.raises(ValueError, match="zero base with negative exponent"):
        LaurentPoly2.monomial(1, 0, -1).eval_rational(1, 0)
    with pytest.raises(ValueError, match="negative base"):
        LaurentPoly2.monomial(1, 0, 1).eval_rational(1, Fraction(-1, 4))
    with pytest.raises(ValueError, match="3 is not a perfect square"):
        LaurentPoly2.monomial(1, 1, 0).eval_rational(Fraction(3, 4), 1)


def test_half_exponent_evaluation():
    p = LaurentPoly2.monomial(1, 1, 0)  # t^(1/2)
    assert as_fraction(p.eval_rational(Fraction(9, 4), 1)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        p.eval_rational(Fraction(2), 1)


def test_power_and_shift():
    p = LaurentPoly2({(0, 0): 1, (2, 2): 1})  # 1 + tq
    assert p**2 == LaurentPoly2({(0, 0): 1, (2, 2): 2, (4, 4): 1})
    assert p.shift(2, 0) == LaurentPoly2({(2, 0): 1, (4, 2): 1})


def _product_through_init(p, q):
    terms = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            terms[a1 + a2, b1 + b2] = terms.get((a1 + a2, b1 + b2), 0) + c1 * c2
    return LaurentPoly2(terms)


def _assert_canonical(result, through_init):
    assert all(type(a) is int and type(b) is int for a, b in result._terms)
    assert 0 not in result._terms.values()
    assert result == LaurentPoly2(dict(result._terms)) == through_init


@given(close_polys, close_polys, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=300)
def test_every_operation_builds_a_canonical_polynomial(p, q, et2, eq2):
    raw_p, raw_q = dict(p.items()), dict(q.items())
    summed = dict(raw_p)
    for k, v in raw_q.items():
        summed[k] = summed.get(k, 0) + v
    _assert_canonical(p + q, LaurentPoly2(summed))
    _assert_canonical(p + -p, LaurentPoly2())
    _assert_canonical(-p, LaurentPoly2({k: -v for k, v in raw_p.items()}))
    negated = [(k, -v) for k, v in raw_q.items()]
    _assert_canonical(p - q, LaurentPoly2(list(raw_p.items()) + negated))
    _assert_canonical(p * q, _product_through_init(p, q))
    shifted = {(a + et2, b + eq2): v for (a, b), v in raw_p.items()}
    _assert_canonical(p.shift(et2, eq2), LaurentPoly2(shifted))
    _assert_canonical(p.swap_vars(), LaurentPoly2({(b, a): v for (a, b), v in raw_p.items()}))
    if q:
        _assert_canonical((p * q).divide_exact(q), p)


@given(binomials, st.integers(0, 12))
def test_a_binomial_power_equals_repeated_multiplication(p, n):
    expected = one()
    for _ in range(n):
        expected = _product_through_init(expected, p)
    _assert_canonical(p**n, expected)


def test_only_a_polynomial_of_at_most_two_terms_has_a_power():
    assert LaurentPoly2() ** 0 == one() and LaurentPoly2() ** 3 == LaurentPoly2()
    with pytest.raises(ValueError):
        LaurentPoly2({(0, 0): 1, (2, 0): 1, (0, 2): 1}) ** 2
    with pytest.raises(ValueError):
        LaurentPoly2({(0, 0): 1, (2, 0): 1}) ** -1
