"""Closed-form product formulas for tiling counts and generating functions.

Everything here is exact: polynomial identities are assembled in the
doubled-exponent Laurent ring and rational specializations use Fraction
arithmetic throughout.  Division of product numerators by product
denominators is checked to leave no remainder, so a typo in a product
formula cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .polyring import LaurentPoly2, _exact_sqrt, one, q_integer
from .regions import InvariantError, _check_dr_params


class ResampleError(ArithmeticError):
    """A rational sample point hit a pole; pick a new point and retry."""


def macmahon_q(a: int, b: int, c: int, step: int = 1) -> LaurentPoly2:
    """Boxed plane partition generating function as a polynomial in q^step.

    The double product of q-integer ratios prod_{i<=a, j<=b}
    [i+j+c-1] / [i+j-1] is assembled by multiset cancellation of the integer
    factor sizes, then one exact polynomial division.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a == 0 or b == 0 or c == 0:
        return one()
    num: dict[int, int] = {}
    den: dict[int, int] = {}
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num[i + j + c - 1] = num.get(i + j + c - 1, 0) + 1
            den[i + j - 1] = den.get(i + j - 1, 0) + 1
    for n in list(den):
        cancel = min(den[n], num.get(n, 0))
        if cancel:
            den[n] -= cancel
            num[n] -= cancel
    poly = one()
    for n, mult in sorted(num.items()):
        for _ in range(mult):
            poly = poly * q_integer(n, step)
    divisor = one()
    for n, mult in sorted(den.items()):
        for _ in range(mult):
            divisor = divisor * q_integer(n, step)
    return poly.divide_exact(divisor)


def macmahon_count(a: int, b: int, c: int) -> int:
    """Number of lozenge tilings of the hexagon with sides a, b, c."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for t in range(1, c + 1):
                total *= Fraction(i + j + t - 1, i + j + t - 2)
    if total.denominator != 1:
        raise InvariantError(f"MacMahon product {total} for {(a, b, c)} is not an integer")
    return total.numerator


def aztec_genfun(n: int) -> LaurentPoly2:
    """prod_{k=0}^{n-1} (1 + t q^{2k+1})^{n-k} for the order-n diamond."""
    if n < 1:
        raise ValueError("order must be at least 1")
    poly = one()
    for k in range(n):
        factor = LaurentPoly2({(0, 0): 1, (2, 2 * (2 * k + 1)): 1})
        poly = poly * factor ** (n - k)
    return poly


@dataclass(frozen=True)
class MainConstants:
    """The exponent constants and linear factors of the bivariate product."""

    N: int
    A: int
    star: tuple[LaurentPoly2, ...]
    starp: tuple[LaurentPoly2, ...]


def main_constants(m1: int, n1: int, k: int, m2: int, n2: int) -> MainConstants:
    _check_dr_params(m1, n1, k, m2, n2)
    N = (
        m1 * (m1 + 1) * (n1 - 1)
        - m2 * (m2 + 1) * (n2 - 1)
        + (n1 - m1)
        * (2 * m2 * m2 + m2 * m1 + m2 * n1 + k * k + 2 * k * m1 + m1 * n1 + k - m2)
    )
    A2 = (
        Fraction(2 * m2 * (m2 - 1) * (m2 + 1), 3)
        + (m2 - k + 1) * (m2 + n2 - 1) * (n1 - m1)
        + Fraction(m1 * (m1 + 1) * (2 * k + 2 * m1 + 2 * n2 - 1), 2)
    )
    if A2.denominator != 1:
        raise InvariantError(f"exponent constant A = {A2} must be an integer")
    A = A2.numerator
    if A != _a_sum_form(m1, n1, k, m2, n2):
        raise InvariantError("the two forms of the exponent constant A must agree")
    star = tuple(
        LaurentPoly2({(0, 0): 1, (-2, -2 * (2 * i + 1)): 1}).shift(
            0, 2 * (2 * m2 + 2 * n2 - 3)
        )
        for i in range(m2)
    )
    starp = tuple(
        LaurentPoly2({(0, 0): 1, (-2, 2 * (2 * i + 1)): 1}).shift(
            0, 2 * (2 * m2 + 2 * k + 1)
        )
        for i in range(m1)
    )
    return MainConstants(N=N, A=A, star=star, starp=starp)


def _a_sum_form(m1, n1, k, m2, n2):
    """A recomputed from the summation shape it telescopes from."""
    base = Fraction(2 * m2 * (m2 - 1) * (m2 + 1), 3) + (m2 - k + 1) * (
        m2 + n2 - 1
    ) * (n2 - m2)
    tail = sum(
        2 * (m1 - i) * (k + n2 + 2 * i) + (m1 - i) ** 2 for i in range(m1)
    )
    total = base + tail
    if total.denominator != 1:
        raise InvariantError(f"summed exponent constant A = {total} must be an integer")
    return total.numerator


def main_genfun(
    m1: int, n1: int, k: int, m2: int, n2: int, as_published: bool = False
) -> LaurentPoly2:
    """The bivariate tiling generating function of the double rectangle.

    Under the convention in which t tracks half the vertical-domino count and
    q tracks the rank; callers wanting the opposite reading can swap_vars().

    The additive constant in the published q-exponent is inconsistent with
    the rank normalization (the minimal tiling has rank 0, so the lowest
    q-power of the sum must be q^0, yet the published prefactor leaves a
    strictly positive minimum).  By default the prefactor is therefore the
    one forced by that normalization: it exactly cancels the smallest
    q-contribution of the linear factors.  Pass as_published=True to get the
    product with the constant as printed (a pure q-power times the default).
    """
    cst = main_constants(m1, n1, k, m2, n2)
    t_exp2 = 2 * (comb(m1 + 1, 2) + comb(m2 + 1, 2)) + (n1 - m1) * (m1 + k)
    if as_published:
        q_exp2 = 2 * (cst.N + (n1 - m1) * (m1 + k) + cst.A)
    else:
        # minimal q-exponent of prod (starp_i)^(m1-i): the q^(2m2+2k+1) term;
        # of prod (star_i)^(m2-i): the t^(-1) q^(2m2+2n2-4-2i) term.  All
        # coefficients are +1, so the minima multiply without cancellation.
        q_exp2 = -2 * (
            (2 * m2 + 2 * k + 1) * (m1 * (m1 + 1) // 2)
            + sum((m2 - i) * (2 * m2 + 2 * n2 - 4 - 2 * i) for i in range(m2))
        )
    poly = LaurentPoly2.monomial(1, t_exp2, q_exp2)
    for i, f in enumerate(cst.starp):
        poly = poly * f ** (m1 - i)
    for i, f in enumerate(cst.star):
        poly = poly * f ** (m2 - i)
    return poly * macmahon_q(n1 - m1, m2 - k + 1, m1 + k, step=2)


def corollary_count(m1: int, n1: int, k: int, m2: int, n2: int) -> int:
    """Tiling count of the double rectangle as a power of 2 times a hexagon count."""
    _check_dr_params(m1, n1, k, m2, n2)
    return 2 ** (comb(m1 + 1, 2) + comb(m2 + 1, 2)) * macmahon_count(
        n1 - m1, m2 - k + 1, m1 + k
    )


def weighted_formula_rhs(
    m1: int,
    n1: int,
    k: int,
    m2: int,
    n2: int,
    a: Fraction,
    b: Fraction,
    c: Fraction,
    d: Fraction,
    q: Fraction,
    as_published: bool = False,
) -> Fraction:
    """Exact value of the weighted tiling sum product formula.

    The default form is the one calibrated against exhaustive weighted
    matching sums (exact symbolic agreement over 53 parameter tuples; see
    tests/test_formulas.py): the linear factors are (ad + bc q^i)^(m1-i)
    and (ad + bc q^{-(i+1)})^(m2-i), and the monomial prefactor q^E has

        2E = N + (m2+n2-2) m2 (m2+1) + (k+m2) m1 (m1+1) - 2 g m1 + g (g-3)

    with g = n1 - m1, which is always an even total.  Pass as_published=True
    for the variant with the factor gradings shifted by one and a q^(N/2)
    prefactor instead; there q must then be a square of a rational when N is
    odd.  A sampled q that makes a ratio denominator vanish raises
    ResampleError.
    """
    _check_dr_params(m1, n1, k, m2, n2)
    a, b, c, d, q = (Fraction(v) for v in (a, b, c, d, q))
    if q == 0:
        raise ValueError("q must be nonzero")
    g = n1 - m1
    cst = main_constants(m1, n1, k, m2, n2)
    total = c ** ((m2 - k + 1) * g) * d ** ((m1 + k) * g)
    if as_published:
        for i in range(m1):
            dpi = q ** (k + m2 + i) * (a * d * q**-i + b * c * q)
            total *= dpi ** (m1 - i)
        for i in range(m2):
            di = q ** (m2 + n2 - 2 - i) * (a * d * q**i + b * c)
            total *= di ** (m2 - i)
        if cst.N % 2 == 0:
            total *= q ** (cst.N // 2)
        else:
            total *= _exact_sqrt(q) ** cst.N
    else:
        for i in range(m1):
            total *= (a * d + b * c * q**i) ** (m1 - i)
        for i in range(m2):
            total *= (a * d + b * c * q ** (-(i + 1))) ** (m2 - i)
        e2 = (
            cst.N
            + (m2 + n2 - 2) * m2 * (m2 + 1)
            + (k + m2) * m1 * (m1 + 1)
            - 2 * g * m1
            + g * (g - 3)
        )
        if e2 % 2:
            raise InvariantError(f"monomial exponent {e2}/2 must be an integer")
        total *= q ** (e2 // 2)
    for i in range(1, n1 - m1 + 1):
        for j in range(1, m2 - k + 2):
            for t in range(1, m1 + k + 1):
                den = 1 - q ** (i + j + t - 2)
                if den == 0:
                    raise ResampleError(
                        f"q^{i + j + t - 2} = 1 at the sampled point q={q}"
                    )
                total *= (1 - q ** (i + j + t - 1)) / den
    return total
