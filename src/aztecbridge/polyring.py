"""Exact bivariate Laurent polynomials in t and q.

Exponents may be half-integers (they show up both in the t-exponent of the
double-rectangle product formula and in q raised to half of an integer
constant), so every exponent is stored doubled: the term map is keyed by
``(2*exponent_of_t, 2*exponent_of_q)`` with arbitrary-precision integer
coefficients.  Values are immutable and kept in canonical form: int keys and
no zero coefficient.

``LaurentPoly2(terms)`` is the normalizing entry, for input from outside:
it converts every key and coefficient to int, merges repeated keys and drops
zeros.  ``LaurentPoly2._of(terms)`` trusts a map that is canonical already
and checks nothing; every operation of the ring but ``scale`` builds its
result that way, dropping a coefficient that cancels as it builds the map,
and so does ``stats.tq_sum``: ``engine.frontier_sum`` unpacks only nonzero
coefficients.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from math import comb
from operator import index

Key = tuple[int, int]


class LaurentPoly2:
    """Sparse Laurent polynomial in t, q with doubled integer exponents."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, int] | Iterable[tuple[Key, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Key, int] = {}
        for (et, eq), c in items:
            if c:
                k = (int(et), int(eq))
                c0 = clean.get(k, 0) + int(c)
                if c0:
                    clean[k] = c0
                elif k in clean:
                    del clean[k]
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[Key, int]) -> LaurentPoly2:
        """A polynomial on a term map that is canonical already; nothing is checked.

        The map must have int keys and no zero coefficient, and it is kept,
        not copied.
        """
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly2":
        return LaurentPoly2()

    @staticmethod
    def const(c: int) -> "LaurentPoly2":
        return LaurentPoly2({(0, 0): c})

    @staticmethod
    def monomial(coeff: int, et2: int, eq2: int) -> "LaurentPoly2":
        """Monomial ``coeff * t^(et2/2) * q^(eq2/2)``."""
        return LaurentPoly2({(et2, eq2): coeff})

    # -- canonical access --------------------------------------------------

    def items(self) -> Iterator[tuple[Key, int]]:
        """Terms in sorted (lexicographic) key order."""
        return iter(sorted(self._terms.items()))

    def coeff(self, et2: int, eq2: int) -> int:
        return self._terms.get((et2, eq2), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly2(0)"
        bits = []
        for (et, eq), c in self.items():
            part = str(c)
            if et:
                part += f"*t^{Fraction(et, 2)}"
            if eq:
                part += f"*q^{Fraction(eq, 2)}"
            bits.append(part)
        return "LaurentPoly2(" + " + ".join(bits) + ")"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        terms = dict(self._terms)
        for k, c in other._terms.items():
            c += terms.get(k, 0)
            if c:
                terms[k] = c
            else:  # c was nonzero, so k was a term of self
                del terms[k]
        return LaurentPoly2._of(terms)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        terms: dict[Key, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                terms[k] = terms.get(k, 0) + c1 * c2
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        return LaurentPoly2._of(terms)

    def scale(self, c: int) -> "LaurentPoly2":
        return LaurentPoly2({k: c * v for k, v in self._terms.items()})

    def shift(self, et2: int, eq2: int) -> "LaurentPoly2":
        """Multiply by the monomial t^(et2/2) q^(eq2/2)."""
        et2, eq2 = index(et2), index(eq2)
        return LaurentPoly2._of({(a + et2, b + eq2): c for (a, b), c in self._terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly2":
        """Power of a binomial by the binomial theorem, in one map.

        The n + 1 terms of (c1 m1 + c2 m2)^n have distinct keys, since
        m1 != m2, and nonzero coefficients, so nothing cancels.  A monomial
        is a binomial with c2 = 0, and zero one with c1 = c2 = 0 as well;
        their vanishing terms are dropped.  A longer polynomial raises
        ValueError: the product formulas raise only binomials to powers.
        """
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        if len(self._terms) > 2:
            raise ValueError("only a polynomial of at most two terms has a power here")
        pad = [((0, 0), 0)] * (2 - len(self._terms))
        ((a1, b1), c1), ((a2, b2), c2) = [*self._terms.items(), *pad]
        terms: dict[Key, int] = {}
        for j in range(n + 1):
            c = comb(n, j) * c1 ** (n - j) * c2**j
            if c:
                terms[a1 * (n - j) + a2 * j, b1 * (n - j) + b2 * j] = c
        return LaurentPoly2._of(terms)

    def swap_vars(self) -> "LaurentPoly2":
        """Exchange the roles of t and q."""
        return LaurentPoly2._of({(b, a): c for (a, b), c in self._terms.items()})

    # -- division ----------------------------------------------------------

    def divide_exact(self, divisor: "LaurentPoly2") -> "LaurentPoly2":
        """Exact division; raises ValueError when the division leaves a remainder.

        Terms are eliminated greedily by largest key, which terminates for any
        divisor whose leading term divides all intermediate leading terms over
        the integers (true for the q-integer factors used by the product
        formulas).  The leading key falls at every step, so each quotient
        term is new and nonzero.
        """
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        lead_key = max(divisor._terms)
        lead_coeff = divisor._terms[lead_key]
        rem = dict(self._terms)
        quo: dict[Key, int] = {}
        while rem:
            k = max(rem)
            c = rem[k]
            if c % lead_coeff:
                raise ValueError("inexact polynomial division (coefficient)")
            qk = (k[0] - lead_key[0], k[1] - lead_key[1])
            qc = c // lead_coeff
            quo[qk] = qc
            for dk, dc in divisor._terms.items():
                kk = (qk[0] + dk[0], qk[1] + dk[1])
                nc = rem.get(kk, 0) - qc * dc
                if nc:
                    rem[kk] = nc
                elif kk in rem:
                    del rem[kk]
        return LaurentPoly2._of(quo)

    # -- evaluation --------------------------------------------------------

    def eval_rational(self, t0: Fraction | int, q0: Fraction | int) -> Fraction:
        """Exact value at rational t=t0, q=q0.

        When any half-integer exponent is present the corresponding base must
        be a perfect square of a rational so the half-power stays rational.
        A zero base with a negative exponent raises ValueError.
        """
        t0 = Fraction(t0)
        q0 = Fraction(q0)
        need_half_t = any(et % 2 for (et, _), _ in self.items())
        need_half_q = any(eq % 2 for (_, eq), _ in self.items())
        rt = _exact_sqrt(t0) if need_half_t else None
        rq = _exact_sqrt(q0) if need_half_q else None
        total = Fraction(0)
        for (et, eq), c in self.items():
            total += c * _half_power(t0, rt, et) * _half_power(q0, rq, eq)
        return total


def _exact_sqrt(x: Fraction) -> Fraction:
    """Square root of a rational that must be a perfect square."""
    if x < 0:
        raise ValueError("negative base for a half-integer exponent")
    num = _isqrt_exact(x.numerator)
    den = _isqrt_exact(x.denominator)
    return Fraction(num, den)


def _isqrt_exact(n: int) -> int:
    import math

    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square; half-integer exponents need square bases")
    return r


def _half_power(base: Fraction, root: Fraction | None, e2: int) -> Fraction:
    """base^(e2/2) as an exact rational."""
    if e2 % 2 == 0:
        e = e2 // 2
    elif root is None:
        raise ValueError(f"the half-integer exponent {e2}/2 needs the square root of the base")
    else:
        base, e = root, e2
    if e < 0 and base == 0:
        raise ValueError("zero base with negative exponent")
    if e >= 0:
        return base**e
    return 1 / (base ** (-e))


def one() -> LaurentPoly2:
    return LaurentPoly2.const(1)
