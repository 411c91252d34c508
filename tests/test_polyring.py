"""Ring axioms, division, and serialization of the sparse Laurent ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztecbridge.polyring import LaurentPoly2, one, q_integer

keys = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
polys = st.dictionaries(keys, st.integers(-9, 9), max_size=6).map(LaurentPoly2)


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
    assert (pe * qe).eval_rational(t0, q0) == pe.eval_rational(t0, q0) * qe.eval_rational(t0, q0)
    assert (pe + qe).eval_rational(t0, q0) == pe.eval_rational(t0, q0) + qe.eval_rational(t0, q0)


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


@given(polys)
def test_json_round_trip(p):
    obj = p.to_json_obj()
    assert all(type(et) is int and type(eq) is int and type(c) is str for et, eq, c in obj)
    assert [(et, eq) for et, eq, _ in obj] == sorted({(et, eq) for et, eq, _ in obj})
    assert LaurentPoly2({(et, eq): int(c) for et, eq, c in obj}) == p


def test_half_exponent_evaluation():
    p = LaurentPoly2.monomial(1, 1, 0)  # t^(1/2)
    assert p.eval_rational(Fraction(9, 4), 1) == Fraction(3, 2)
    with pytest.raises(ValueError):
        p.eval_rational(Fraction(2), 1)


def test_power_and_shift():
    p = LaurentPoly2({(0, 0): 1, (2, 2): 1})  # 1 + tq
    assert p**2 == LaurentPoly2({(0, 0): 1, (2, 2): 2, (4, 4): 1})
    assert p.shift(2, 0) == LaurentPoly2({(2, 0): 1, (4, 2): 1})
