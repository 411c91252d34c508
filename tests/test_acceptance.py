"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion is an exact identity at desk scale; the verification suites
of the ``verify`` module do the actual work, for both the ``verify``
command and this gate, so the two can never drift apart.
"""

import itertools

from aztecbridge.engine import count_tilings
from aztecbridge.formulas import aztec_genfun, corollary_count, macmahon_q
from aztecbridge.regions import build_aztec_diamond, build_double_rectangle
from aztecbridge.stats import rank_table, tq_sum
from aztecbridge.verify import (
    SUITE_TUPLES,
    suite_aztec,
    suite_lemmas,
    suite_macmahon,
    suite_main,
    suite_paths,
    suite_rank,
    suite_weighted,
)


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_diamond_counts():
    ok = all(
        count_tilings(build_aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)
        for n in range(1, 7)
    )
    _report(1, "diamond counts are 2^(n(n+1)/2) for n=1..6", ok)


def test_criterion_02_diamond_genfun_and_ranks():
    ok = all(
        tq_sum(build_aztec_diamond(n)) == aztec_genfun(n) for n in range(1, 5)
    )
    ranks = set(rank_table(build_aztec_diamond(2)).values())
    ok = ok and {1, 2, 5} <= ranks
    _report(2, "diamond bivariate sums match the product for n=1..4; order-2 ranks include {1,2,5}", ok)


def test_criterion_03_macmahon():
    cases = suite_macmahon(3)
    _report(3, "boxed q-counts and lozenge enumerations match for sides <= 3", all(c["ok"] for c in cases))


def test_criterion_04_double_rectangle_genfun():
    cases = suite_main()
    conventions = {tuple(c["matched_conventions"]) for c in cases}
    ok = all(c["ok"] for c in cases)
    print(f"  matched (t,q) ordering per case: {sorted(conventions)}")
    _report(4, "double-rectangle bivariate sums match the product (proof-side ordering)", ok)


def test_criterion_05_counting_corollary():
    ok = corollary_count(1, 2, 0, 1, 2) == 12
    for tup in SUITE_TUPLES:
        ok = ok and count_tilings(build_double_rectangle(*tup)) == corollary_count(*tup)
    _report(5, "power-of-two times hexagon-count formula matches brute force", ok)


def test_criterion_06_weighted_formula():
    cases = suite_weighted(trials=5, seed=417)
    _report(6, "weighted matching sums match the product at 5 random rational points per case", all(c["ok"] for c in cases))


def test_criterion_07_rewrite_lemmas():
    cases = suite_lemmas(trials=50, seed=417)
    _report(7, "vertex-split, star, spider and rectangle-reduction identities over 50 trials", all(c["ok"] for c in cases))


def test_criterion_08_rank_consistency():
    cases = suite_rank(bound=40)
    _report(8, "flip-distance rank equals area rank on all small double rectangles", all(c["ok"] for c in cases))


def test_criterion_09_path_bijection():
    cases = suite_paths()
    _report(9, "tilings map injectively to non-intersecting path families with the step identity", all(c["ok"] for c in cases))


def test_criterion_10_palindromic_plane_partitions():
    ok = True
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        poly = macmahon_q(a, b, c)
        coeffs = {eq // 2: coef for (_, eq), coef in poly.items()}
        top = a * b * c
        ok = ok and all(coeffs.get(v, 0) == coeffs.get(top - v, 0) for v in range(top + 1))
    _report(10, "box generating functions are palindromic for volumes <= 27", ok)
