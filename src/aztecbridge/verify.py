"""Verification suites: each checks one of the paper's identities by at least two methods.

Suite x is the function ``suite_x``, and it reads the options its parameters
name (``bound`` is --max, ``trials``, ``seed``), with its own defaults; the
CLI passes only the options given.  A suite returns a list of JSON-ready
cases, each with an ``ok`` key.  Where a polynomial method exists the suites
use it in place of a listing.  The two suites that check every tiling,
``rank`` and ``paths``, run one case (``_rank_case``) on different tuples.
It takes the tilings from the flip BFS (``stats.rank_table``), certifies by
the determinant count that the BFS reached them all, and checks the three
ranks and the path family of each tiling mask in one pass over the masks,
with no path built.  The enumerator, which lists every tiling, is its oracle
in the tests only.  The (t, q) identity is checked in one place,
``genfun_check``, which the ``genfun`` command calls too.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator
from .engine import count_tilings, require_frontier_budget
from .formulas import (
    ResampleError,
    aztec_count,
    aztec_genfun,
    corollary_count,
    macmahon_count,
    macmahon_q,
    main_genfun,
    weighted_formula_rhs,
)
from .matchgraph import (
    WeightScheme,
    WeightedGraph,
    ar_reduce,
    connected_sum,
    dual_graph,
    matching_genfun,
    region_matching_sum,
    spider_reduce,
    star_scale,
    vertex_split,
)
from .paths import area_ranks, step_masks
from .planepart import q_genfun_brute, require_brute_budget
from .polyring import LaurentPoly2
from .rational import pair_mul, reduced
from .regions import (
    MAX_SPEC_CELLS,
    ConstraintError,
    KindError,
    Region,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
    build_hexagon,
)
from .stats import linear_ranks, rank_table, require_listing_budget, tq_sum

#: Seed of the randomized suites when --seed is not given.
DEFAULT_SEED = 20240

#: Every suite, by name: the CLI runs suite x as ``suite_x`` of this module,
#: looked up when it runs, with the options given that its parameters name.
SUITES = ("macmahon", "aztec", "main", "weighted", "lemmas", "rank", "paths")

#: The double-rectangle parameter tuples a suite checks when given no size bound.
SUITE_TUPLES = (
    (1, 2, 0, 1, 2),
    (1, 2, 1, 1, 2),
    (2, 3, 0, 2, 3),
    (2, 3, 1, 2, 3),
    (1, 3, 0, 2, 4),
)


def small_double_rectangles(max_cells: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Every valid double-rectangle parameter tuple with at most max_cells cells, in sorted order.

    The tuples are yielded lazily, so a caller that stops at the first one
    over its budget lists no more.  With n1 - m1 = g, the order is sorted
    because for each (m1, n1) k rises, and for each k, m2 rises from the
    least it admits, max(k, k + 1 - g, 1).  A bound over the spec budget
    (``regions.MAX_SPEC_CELLS``), which no spec may name, raises
    ConstraintError before the first tuple.
    """
    if max_cells > MAX_SPEC_CELLS:
        raise ConstraintError(
            f"a bound of {max_cells} cells is over the spec budget of {MAX_SPEC_CELLS}"
        )

    def cells(m, n):  # of one m x n Aztec rectangle, increasing in m and n
        return 2 * m * n + m + n

    m1 = 1
    while cells(m1, m1) + cells(1, 1) <= max_cells:
        n1 = m1
        while cells(m1, n1) + cells(1, 1 + n1 - m1) <= max_cells:
            g, k, m2 = n1 - m1, 0, 1
            while cells(m1, n1) + cells(m2, m2 + g) <= max_cells:  # the least m2 of k fits
                while cells(m1, n1) + cells(m2, m2 + g) <= max_cells:
                    yield m1, n1, k, m2, m2 + g
                    m2 += 1
                k += 1
                m2 = max(k, k + 1 - g, 1)
            n1 += 1
        m1 += 1


def suite_tuples(max_cells: int | None) -> Iterable[tuple[int, int, int, int, int]]:
    """SUITE_TUPLES, or every double rectangle of at most max_cells cells."""
    return SUITE_TUPLES if max_cells is None else small_double_rectangles(max_cells)


def compare_conventions(enum_poly: LaurentPoly2, base: LaurentPoly2) -> list[str]:
    """The (t, q) orderings of the formula side that equal enum_poly.

    ``proof`` is the product as proved; ``statement`` swaps t and q.
    """
    sides = {"proof": base, "statement": base.swap_vars()}
    return [name for name, poly in sides.items() if poly == enum_poly]


def genfun_check(region: Region) -> tuple[LaurentPoly2, LaurentPoly2, list[str]]:
    """A region's frontier-sweep (t, q) sum, its product formula, and their matched orderings.

    The one check of the (t, q) identity, for the ``genfun`` command and the
    ``aztec`` and ``main`` suites.  The formula is ``aztec_genfun`` for an
    Aztec diamond and ``main_genfun`` for a double rectangle, each called by
    its module-level name; any other kind raises KindError before the sweep.
    """
    if region.kind not in ("aztec_diamond", "double_aztec_rectangle"):
        raise KindError("genfun needs an aztec diamond or double rectangle")
    enum_poly = tq_sum(region)
    product = aztec_genfun if region.kind == "aztec_diamond" else main_genfun
    base = product(*region.params)
    return enum_poly, base, compare_conventions(enum_poly, base)


def _draw_table(positive: bool = False) -> dict[tuple[int, int], tuple[int, int]]:
    """Every value num/den that ``_draw`` can return, a reduced pair, by (num, den); |num/den| if positive."""
    return {
        (num, den): reduced(abs(num) if positive else num, den)
        for num in range(-6, 7)
        for den in range(1, 7)
    }


def _draw(rng: random.Random, table: dict[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """A random nonzero num/den with -6 <= num <= 6 and 1 <= den <= 6, looked up in table.

    It makes the same rng calls as (rng.randint(-6, 6), rng.randint(1, 6))
    retried on a zero numerator; the table of ``_draw_table`` saves reducing
    the pair.
    """
    while True:
        v = table[rng.randint(-6, 6), rng.randint(1, 6)]
        if v[0]:
            return v


def _random_host(rng: random.Random, table: dict, marked: int, partners: int) -> WeightedGraph:
    """Bipartite-ish host with the given marked fringe and partner pool."""
    ms = [("m", i) for i in range(marked)]
    ps = [("p", j) for j in range(partners)]
    edges = []
    for u in ms:
        for v in ps:
            if rng.random() < 0.8:
                edges.append((u, v, _draw(rng, table)))
    return WeightedGraph(ms + ps, edges, ms)


def _admitted(items: Iterable, require: Callable) -> Iterator:
    """Yield the items (regions or boxes) in order once ``require`` has passed each as it was made.

    So a suite fails before its first case, at the first item over budget,
    with no later item made, and builds each region once.  Every admitted
    region therefore stays alive, with the tables its check derived, from
    the check until its case has run: ``verify main --max 200`` peaks at
    171 MB, against 40 MB when each case built its own region.  Building
    each region twice would cost more time: the pre-check is 0.7 of 2.9 ms
    of ``verify main``, 1.1 of 8.2 ms of ``verify aztec --max 6`` and 6.1 of
    25.5 ms of ``verify rank --max 32`` (in-process, best of 7, on a shared
    2-vCPU x86_64 host).  A region is dropped here as it is yielded.
    """
    kept = []
    for item in items:
        require(item)
        kept.append(item)
    kept.reverse()
    while kept:
        yield kept.pop()


def suite_macmahon(bound: int = 3) -> list[dict]:
    boxes = itertools.product(range(1, bound + 1), repeat=3)
    cases = []
    for a, b, c in _admitted(boxes, lambda box: require_brute_budget(*box)):
        ok = q_genfun_brute(a, b, c) == macmahon_q(a, b, c)
        ok = ok and count_tilings(build_hexagon(a, b, c)) == macmahon_count(a, b, c)
        cases.append({"box": [a, b, c], "ok": ok})
    return cases


def suite_aztec(bound: int = 6) -> list[dict]:
    cases = []
    diamonds = map(build_aztec_diamond, range(1, bound + 1))
    for n, region in enumerate(_admitted(diamonds, require_frontier_budget), 1):
        ok = count_tilings(region) == aztec_count(n) and "proof" in genfun_check(region)[2]
        cases.append({"order": n, "ok": ok})
    return cases


def suite_main(bound: int | None = None) -> list[dict]:
    """SUITE_TUPLES, or every double rectangle of at most bound cells, each within budget."""
    regions = (build_double_rectangle(*tup) for tup in suite_tuples(bound))
    cases = []
    for region in _admitted(regions, require_frontier_budget):
        tup = region.params
        matched = genfun_check(region)[2]
        ok = "proof" in matched and count_tilings(region) == corollary_count(*tup)
        cases.append({"params": list(tup), "matched_conventions": matched, "ok": ok})
    return cases


def suite_weighted(
    trials: int = 5, seed: int = DEFAULT_SEED, bound: int | None = None
) -> list[dict]:
    """SUITE_TUPLES, or every double rectangle of at most bound cells."""
    rng = random.Random(seed)
    table = _draw_table()
    cases = []
    for tup in suite_tuples(bound):
        region = build_double_rectangle(*tup)
        done = 0
        ok = True
        while done < trials:
            vals = tuple(_draw(rng, table) for _ in range(5))
            try:
                rhs = weighted_formula_rhs(*tup, *vals)
            except ResampleError:
                continue
            lhs = region_matching_sum(region, WeightScheme(*vals))
            ok = ok and lhs == rhs
            done += 1
        cases.append({"params": list(tup), "trials": done, "ok": ok})
    return cases


def suite_lemmas(trials: int = 50, seed: int = DEFAULT_SEED) -> list[dict]:
    """The rewrite lemmas, each on random graphs in every trial.

    The Aztec rectangles are built once, before the first trial, and passed
    down to every trial that glues one on.  The random weights come from the
    tables of ``_draw_table``, built once per call.
    """
    rng = random.Random(seed)
    signed, positive = _draw_table(), _draw_table(positive=True)
    # every m x n rectangle a trial draws (1 <= m <= 2, m < n <= 3) and its m x (n - 1) trim
    rects = {(m, n): build_aztec_rectangle(m, n) for m in (1, 2) for n in range(m, 4)}
    split_ok = star_ok = spider_ok = reduce_ok = True
    for _ in range(trials):
        # vertex split on a small random graph (balanced so M is often nonzero)
        side = rng.randint(2, 4)
        g = _random_host(rng, signed, side, side)
        v = g.vertices[0]
        nbs = g.neighbors(v)
        part = [u for u in nbs if rng.random() < 0.5]
        base = matching_genfun(g)
        split_ok = split_ok and matching_genfun(vertex_split(g, v, part)) == base
        # star scaling
        factor = _draw(rng, positive)
        star_ok = star_ok and matching_genfun(star_scale(g, v, factor)) == pair_mul(factor, base)
        # spider on a wheel: 4-cycle with unit spokes to 4 tips, the first two
        # tips matched out through an outer pair.  The reduced graph has three
        # pairs to match, so a sign lost from all its edges shows in M, and a
        # matching of it with one new cycle edge shows a sign lost from those.
        inner = [("i", j) for j in range(4)]
        tips = [("t", j) for j in range(4)]
        outer = [("o", j) for j in range(2)]
        # signed cycle weights x, y, z, t, so the cell's xz + yt takes both signs;
        # a singular cell, xz + yt = 0, has no reduction and is drawn again
        while True:
            cyc = [_draw(rng, signed) for _ in range(4)]
            (xn, xd), (yn, yd), (zn, zd), (tn, td) = cyc
            if xn * zn * yd * td + yn * tn * xd * zd:
                break
        edges = [(inner[j], inner[(j + 1) % 4], cyc[j]) for j in range(4)]
        edges += [(inner[j], tips[j], 1) for j in range(4)]
        edges += [(tips[j], outer[j], _draw(rng, signed)) for j in range(2)]
        edges += [(outer[0], outer[1], _draw(rng, signed))]
        g2 = WeightedGraph(inner + tips + outer, edges)
        smaller, delta = spider_reduce(g2, tuple(inner))
        spider_ok = spider_ok and matching_genfun(g2) == pair_mul(delta, matching_genfun(smaller))
        # rectangle reduction against a random host
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 3)
        scheme = WeightScheme(*(_draw(rng, positive) for _ in range(5)))
        host = _random_host(rng, signed, n, n - m)
        whole = connected_sum(host, dual_graph(rects[m, n], scheme))
        trimmed, fac = ar_reduce(host, rects[m, n], rects[m, n - 1], scheme)
        reduce_ok = reduce_ok and matching_genfun(whole) == pair_mul(fac, matching_genfun(trimmed))
    return [
        {"lemma": "vertex-split", "trials": trials, "ok": split_ok},
        {"lemma": "star-scale", "trials": trials, "ok": star_ok},
        {"lemma": "spider", "trials": trials, "ok": spider_ok},
        {"lemma": "rectangle-reduce", "trials": trials, "ok": reduce_ok},
    ]


def _path_length(m1: int, n1: int, k: int, m2: int, n2: int) -> int:
    """up + down + 2 * level, the same for the path family of every tiling of the tuple."""
    g = n1 - m1
    return m2 * (m2 + 1) + 2 * g * (m2 - k + 1) + g * (m1 + k) + m1 * (m1 + 1)


def _rank_case(region: Region) -> dict:
    """Check every tiling of one double rectangle on the flip BFS's masks.

    The BFS tries only rank-raising flips, and the determinant count
    certifies that it reached every tiling: a BFS that took a wrong
    direction would stop short of the count.  One pass over the masks
    checks that the area and linear ranks of each equal its flip distance,
    with one tiling of rank 0: both rank functions are lazy, so no call is
    made per mask.  The area walk builds no path; it raises DecorationError
    unless the mask's decorated dominoes assemble into marker-joined paths,
    and a walk that returns has used them all, each as one segment.  So the
    family is read off the mask with no path built: it is the mask's
    decorated dominoes, and each step total is a popcount against the
    dominoes of that letter.  The families must be distinct and meet the
    step-count identities.
    """
    table = rank_table(region)
    # every flip of a tiling is a tiling, so the table holds distinct tilings,
    # and it holds all of them exactly when it is as long as the count
    ok = len(table) == count_tilings(region)
    # where the area ranks equal the flip distances, the minimal tiling has
    # the least area, uniquely, when exactly one rank is 0 and none negative
    ranks = list(table.values())
    ok = ok and min(ranks) == 0 and ranks.count(0) == 1
    up, down, level = step_masks(region)
    diagonal, decorated = up | down, up | down | level
    vertical = sum(region.lattice.grid.north)
    length = _path_length(*region.params)
    families = set()
    for (mask, rank), area, linear in zip(
        table.items(), area_ranks(region, table), linear_ranks(region, table)
    ):
        slanted = (mask & diagonal).bit_count()
        ok = (
            ok
            and area == rank == linear
            and slanted + 2 * (mask & level).bit_count() == length
            and slanted == (mask & vertical).bit_count()
        )
        families.add(mask & decorated)
    ok = ok and len(families) == len(table)
    return {"params": list(region.params), "tilings": len(table), "ok": ok}


def suite_rank(bound: int = 40) -> list[dict]:
    """Every double rectangle of at most bound cells, each checked by ``_rank_case``.

    No tiling is listed outside the flip BFS: the enumerator checks the BFS
    in the tests instead.  Each region is counted once, for its budget.
    """
    regions = (build_double_rectangle(*tup) for tup in small_double_rectangles(bound))
    listable = _admitted(regions, lambda r: require_listing_budget(r, count_tilings(r)))
    return [_rank_case(region) for region in listable]


def suite_paths() -> list[dict]:
    """SUITE_TUPLES, each checked by ``_rank_case``, as ``suite_rank`` checks its tuples."""
    return [_rank_case(build_double_rectangle(*tup)) for tup in SUITE_TUPLES]
