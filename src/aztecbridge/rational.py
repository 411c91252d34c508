"""Exact rationals as reduced integer pairs, the package's one rational format.

A rational is a pair (num, den) of ints in lowest terms with den > 0, so
two pairs are equal exactly when their values are, and 0 is (0, 1).  Every
function that returns a rational value returns such a pair; ``as_pair``
takes one in from a caller, and ``pair_str`` writes one as ``str`` of the
equal ``fractions.Fraction`` would.  A leaf module: it imports no other
module of the package, and not ``fractions``, whose import (with
``decimal`` and ``numbers``) was about 40% of the command line's.
"""

from __future__ import annotations

from math import gcd
from operator import index


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator; den 0 raises ZeroDivisionError."""
    if not den:
        raise ZeroDivisionError(f"rational {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def as_pair(v) -> tuple[int, int]:
    """Any exact rational v as a reduced pair.

    v is an int, a (numerator, nonzero denominator) pair of ints, or any
    object with ``as_integer_ratio()``, such as a Fraction.
    """
    if isinstance(v, tuple):
        num, den = v
        return reduced(index(num), index(den))
    try:
        ratio = v.as_integer_ratio
    except AttributeError:
        raise TypeError(f"{v!r} is not an exact rational") from None
    return reduced(*ratio())


def pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two reduced pairs, reduced: each numerator is cancelled against the other's denominator."""
    (a, b), (c, d) = x, y
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def pair_str(x: tuple[int, int]) -> str:
    """A reduced pair as text: 'num' when den is 1, else 'num/den'."""
    num, den = x
    return str(num) if den == 1 else f"{num}/{den}"
