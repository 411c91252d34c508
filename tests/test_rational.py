"""The package's one rational format, reduced int pairs, against ``fractions.Fraction``.

``as_fraction`` is how every test compares a pair the package returns with
a Fraction oracle: it rejects a pair that is not in lowest terms with a
positive denominator, so a producer that skips the reduction fails.  The
oracle parity tests of the producers sit with their modules' tests.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aztecbridge.rational import as_pair, pair_mul, pair_str, reduced


def as_fraction(pair) -> Fraction:
    """The Fraction of a pair the package returned, which must be a reduced pair of ints."""
    assert type(pair) is tuple and len(pair) == 2, pair
    num, den = pair
    assert type(num) is int and type(den) is int, pair
    assert den > 0 and math.gcd(num, den) == 1, f"{pair} is not reduced"
    return Fraction(num, den)


ints = st.integers(-10**30, 10**30)
nonzero = ints.filter(bool)


@given(ints, nonzero)
def test_reduced_is_the_fraction_in_lowest_terms(num, den):
    assert as_fraction(reduced(num, den)) == Fraction(num, den)
    assert reduced(num, den) == Fraction(num, den).as_integer_ratio()


def test_reduced_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        reduced(3, 0)
    assert reduced(0, -7) == (0, 1)


@given(ints, nonzero)
def test_as_pair_takes_ints_pairs_and_anything_with_an_integer_ratio(num, den):
    f = Fraction(num, den)
    assert as_pair(f) == as_pair((num, den)) == f.as_integer_ratio()
    assert as_pair(num) == (num, 1)
    assert as_pair(float(den) / 4) == Fraction(float(den) / 4).as_integer_ratio()


def test_as_pair_rejects_what_is_no_exact_rational():
    for bad in ("1/2", None, (1.5, 2), [1, 2]):
        with pytest.raises(TypeError):
            as_pair(bad)
    with pytest.raises(ZeroDivisionError):
        as_pair((1, 0))
    with pytest.raises(ValueError):
        as_pair((1, 2, 3))


@given(ints, nonzero, ints, nonzero)
def test_pair_mul_is_the_fraction_product(a, b, c, d):
    x, y = reduced(a, b), reduced(c, d)
    assert as_fraction(pair_mul(x, y)) == Fraction(a, b) * Fraction(c, d)


@given(ints, nonzero)
def test_pair_str_is_the_fractions_str(num, den):
    assert pair_str(reduced(num, den)) == str(Fraction(num, den))

