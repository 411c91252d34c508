"""Closed-form product formulas for tiling counts and generating functions.

Everything here is exact: polynomial identities are assembled in the
doubled-exponent Laurent ring, and the rational specialization of the
weighted formula multiplies integer numerators and denominators and
normalizes once, into one reduced pair (``rational``).  Division of product
numerators by product denominators is checked to leave no remainder, so a
typo in a product formula cannot pass silently.
"""

from __future__ import annotations

from math import comb, prod

from .polyring import LaurentPoly2, one
from .rational import as_pair, reduced
from .regions import InvariantError, _check_dr_params


class ResampleError(ArithmeticError):
    """A rational sample point hit a pole; pick a new point and retry."""


def macmahon_q(a: int, b: int, c: int, step: int = 1) -> LaurentPoly2:
    """Boxed plane partition generating function as a polynomial in q^step.

    The double product of q-integer ratios prod_{i<=a, j<=b}
    [i+j+c-1] / [i+j-1] is one integer quotient at x = 2^w (Kronecker
    substitution), with w the bit length of P = prod (i+j+c-1): each
    q-integer [n] becomes the repunit (x^n - 1) / (x - 1), and the base-x
    digits of the quotient of the two integer products are the coefficients
    of q^(step*e) (``_repunit_quotient``).  This is exact because x > P and
    the quotient is checked: the division must leave no remainder, and the
    digits must sum to P / prod (i+j-1).  Then the product of the
    denominator and the digit polynomial has nonnegative coefficients that
    sum to P, as the numerator's do, so every coefficient of both is below
    x, and their equal values at x mean equal polynomials.  A typo in a
    factor cannot pass: a ratio that is not a polynomial raises
    InvariantError.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    num = [i + j + c - 1 for i in range(1, a + 1) for j in range(1, b + 1)]
    den = [i + j - 1 for i in range(1, a + 1) for j in range(1, b + 1)]
    digits = _repunit_quotient(num, den, prod(num).bit_length())
    return LaurentPoly2._of({(0, 2 * step * e): d for e, d in enumerate(digits) if d})


def _repunit_quotient(num: list[int], den: list[int], width: int) -> list[int]:
    """The coefficients of prod_n [n] / prod_d [d], from one integer quotient at q = 2^width.

    Exact when 2^width exceeds prod(num), as ``macmahon_q`` explains; an
    inexact division, or digits that do not sum to prod(num) / prod(den),
    raise InvariantError.
    """
    mask = (1 << width) - 1
    quo, rest = divmod(
        prod(((1 << n * width) - 1) // mask for n in num),
        prod(((1 << d * width) - 1) // mask for d in den),
    )
    if rest:
        raise InvariantError(f"{num} over {den} is not a polynomial ratio of q-integers")
    digits = []
    for _ in range(sum(num) - len(num) - sum(den) + len(den) + 1):
        digits.append(quo & mask)
        quo >>= width
    if quo or sum(digits) * prod(den) != prod(num):
        raise InvariantError(
            f"the digits of {num} over {den} at q = 2^{width} do not sum to the ratio at q = 1"
        )
    return digits


def macmahon_count(a: int, b: int, c: int) -> int:
    """Number of lozenge tilings of the hexagon with sides a, b, c.

    MacMahon's prod_{i<=a, j<=b, t<=c} (i+j+t-1) / (i+j+t-2) telescopes
    over t to prod_{i<=a, j<=b} (i+j+c-1) / (i+j-1), computed as one exact
    division of two integer products.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    total, rest = divmod(num, den)
    if rest:
        raise InvariantError(f"MacMahon product {num}/{den} for {(a, b, c)} is not an integer")
    return total


def aztec_count(n: int) -> int:
    """Number of domino tilings 2^(n(n+1)/2) of the order-n Aztec diamond."""
    return 2 ** (n * (n + 1) // 2)


def aztec_genfun(n: int) -> LaurentPoly2:
    """prod_{k=0}^{n-1} (1 + t q^{2k+1})^{n-k} for the order-n diamond."""
    if n < 1:
        raise ValueError("order must be at least 1")
    poly = one()
    for k in range(n):
        factor = LaurentPoly2({(0, 0): 1, (2, 2 * (2 * k + 1)): 1})
        poly = poly * factor ** (n - k)
    return poly


def _exponent_n(m1: int, n1: int, k: int, m2: int, n2: int) -> int:
    """The exponent constant N of the paper's product formulas."""
    return (
        m1 * (m1 + 1) * (n1 - 1)
        - m2 * (m2 + 1) * (n2 - 1)
        + (n1 - m1)
        * (2 * m2 * m2 + m2 * m1 + m2 * n1 + k * k + 2 * k * m1 + m1 * n1 + k - m2)
    )


def main_genfun(m1: int, n1: int, k: int, m2: int, n2: int) -> LaurentPoly2:
    """The bivariate tiling generating function of the double rectangle.

    Under the convention in which t tracks half the vertical-domino count and
    q tracks the rank; callers wanting the opposite reading can swap_vars().

    The prefactor is the one forced by the rank normalization: the minimal
    tiling has rank 0, so the lowest q-power of the sum is q^0, and the
    prefactor exactly cancels the smallest q-contribution of the linear
    factors.  Erratum: the printed prefactor q^(N + (n1 - m1)(m1 + k) + A),
    with A = 2 m2 (m2^2 - 1)/3 + (m2 - k + 1)(m2 + n2 - 1)(n1 - m1)
    + m1 (m1 + 1)(2k + 2m1 + 2n2 - 1)/2, is this one times a strictly positive
    pure q-power (q^6 to q^350 on the double rectangles of at most 60 cells),
    so it breaks that normalization.
    """
    _check_dr_params(m1, n1, k, m2, n2)
    t_exp2 = 2 * (comb(m1 + 1, 2) + comb(m2 + 1, 2)) + (n1 - m1) * (m1 + k)
    # minimal q-exponent of prod (starp_i)^(m1-i): the q^(2m2+2k+1) term;
    # of prod (star_i)^(m2-i): the t^(-1) q^(2m2+2n2-4-2i) term.  All
    # coefficients are +1, so the minima multiply without cancellation.
    q_exp2 = -2 * (
        (2 * m2 + 2 * k + 1) * (m1 * (m1 + 1) // 2)
        + sum((m2 - i) * (2 * m2 + 2 * n2 - 4 - 2 * i) for i in range(m2))
    )
    poly = LaurentPoly2.monomial(1, t_exp2, q_exp2)
    for i in range(m1):  # starp_i = q^(2m2+2k+1) (1 + t^(-1) q^(2i+1))
        starp = LaurentPoly2({(0, 0): 1, (-2, 2 * (2 * i + 1)): 1})
        poly = poly * starp.shift(0, 2 * (2 * m2 + 2 * k + 1)) ** (m1 - i)
    for i in range(m2):  # star_i = q^(2m2+2n2-3) (1 + t^(-1) q^(-(2i+1)))
        star = LaurentPoly2({(0, 0): 1, (-2, -2 * (2 * i + 1)): 1})
        poly = poly * star.shift(0, 2 * (2 * m2 + 2 * n2 - 3)) ** (m2 - i)
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
    a,
    b,
    c,
    d,
    q,
) -> tuple[int, int]:
    """Exact value of the weighted tiling sum product formula, as a reduced pair.

    The weights a, b, c, d and q are exact rationals (``rational.as_pair``).

    The form is the one calibrated against exhaustive weighted
    matching sums (exact symbolic agreement over 53 parameter tuples; see
    tests/test_formulas.py): the linear factors are (ad + bc q^i)^(m1-i)
    and (ad + bc q^{-(i+1)})^(m2-i), and the monomial prefactor q^E has

        2E = N + (m2+n2-2) m2 (m2+1) + (k+m2) m1 (m1+1) - 2 g m1 + g (g-3)

    with g = n1 - m1, which is always an even total.  The MacMahon ratio
    prod_{i<=g, j<=m2-k+1, t<=m1+k} (1 - q^(i+j+t-1)) / (1 - q^(i+j+t-2))
    telescopes over t to prod_{i, j} (1 - q^(i+j+m1+k-1)) / (1 - q^(i+j-1)).
    A sampled q at which a denominator of the untelescoped ratio vanishes,
    q = 1 or q = -1 when g > 0, raises ResampleError.  Each factor is
    multiplied in as an integer numerator and denominator, and the value is
    normalized once.
    """
    _check_dr_params(m1, n1, k, m2, n2)
    (an, ad), (bn, bd), (cn, cd), (dn, dd), (qn, qd) = map(as_pair, (a, b, c, d, q))
    if not qn:
        raise ValueError("q must be nonzero")
    ad_num, ad_den = an * dn, ad * dd
    bc_num, bc_den = bn * cn, bd * cd

    def q_power(e: int) -> tuple[int, int]:
        return (qn**e, qd**e) if e >= 0 else (qd**-e, qn**-e)

    def linear(e: int) -> tuple[int, int]:  # ad + bc q^e
        pn, pd = q_power(e)
        return ad_num * bc_den * pd + bc_num * ad_den * pn, ad_den * bc_den * pd

    g = n1 - m1
    h = m2 - k + 1
    num = cn ** (h * g) * dn ** ((m1 + k) * g)
    den = cd ** (h * g) * dd ** ((m1 + k) * g)
    for e, power in [(i, m1 - i) for i in range(m1)] + [(-(i + 1), m2 - i) for i in range(m2)]:
        fn, fd = linear(e)
        num *= fn**power
        den *= fd**power
    e2 = (
        _exponent_n(m1, n1, k, m2, n2)
        + (m2 + n2 - 2) * m2 * (m2 + 1)
        + (k + m2) * m1 * (m1 + 1)
        - 2 * g * m1
        + g * (g - 3)
    )
    if e2 % 2:
        raise InvariantError(f"monomial exponent {e2}/2 must be an integer")
    pn, pd = q_power(e2 // 2)
    num *= pn
    den *= pd
    # the untelescoped exponents i+j+t-2 start 1, 2 and reach g+m1+m2-1 >= 2
    # whenever g > 0, so its first pole is q^1 at q = 1 and q^2 at q = -1
    if g and qd == 1 and qn in (1, -1):
        raise ResampleError(f"q^{1 if qn == 1 else 2} = 1 at the sampled point q={qn}")
    # (1 - q^s) / (1 - q^t) = (qd^s - qn^s) / (qd^t - qn^t) / qd^(s - t),
    # and s - t = m1 + k in every factor
    for i in range(1, g + 1):
        for j in range(1, h + 1):
            s, t = i + j + m1 + k - 1, i + j - 1
            num *= qd**s - qn**s
            den *= qd**t - qn**t
    den *= qd ** ((m1 + k) * g * h)
    return reduced(num, den)
