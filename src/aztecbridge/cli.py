"""Command-line surface: counting, generating functions, verification, SVG.

Every command prints a single JSON document (schema version 1) to stdout,
except render, which writes SVG to --out.  Exit codes: 0 for success, 1 when
a verification finds a mismatch, 2 for usage or domain errors.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

import click

from .engine import CapacityError, count_lozenge_tilings, count_tilings, enumerate_tilings
from .formulas import (
    ResampleError,
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
    ar_graph,
    ar_reduce,
    connected_sum,
    matching_genfun,
    region_matching_sum,
    spider_reduce,
    star_scale,
    vertex_split,
)
from .paths import step_counts, tiling_to_paths, underneath_area
from .planepart import q_genfun_brute
from .regions import ConstraintError, KindError, Region, TriRegion, parse_spec
from .render import render_tiling, render_to_file
from .stats import (
    minimal_tiling,
    rank_linear,
    rank_table,
    rank_via_area,
    require_listing_budget,
    require_sweep_budget,
    tq_sum,
    vertical_halfcount,
)

DEFAULT_SEED = 20240

#: The double-rectangle parameter tuples exercised by the verification suites.
SUITE_TUPLES = (
    (1, 2, 0, 1, 2),
    (1, 2, 1, 1, 2),
    (2, 3, 0, 2, 3),
    (2, 3, 1, 2, 3),
    (1, 3, 0, 2, 4),
)


def _emit(payload: dict, status: str = "ok", out: str | None = None) -> None:
    doc = {"schema": 1, "status": status}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _region_or_usage(spec: str):
    try:
        return parse_spec(spec)
    except ConstraintError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
def main() -> None:
    """Exact tiling enumeration workbench."""


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None, help="Write the JSON document to a file.")
def count(region_spec: str, out: str | None) -> None:
    """Number of tilings of a region (ad:N, ar:MxN, dr:M1,N1,K,M2,N2, hex:A,B,C)."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion):
        n = count_lozenge_tilings(region)
    else:
        n = count_tilings(region)
    _emit({"region": region.spec_string(), "count": n}, out=out)


@main.command()
@click.argument("region_spec")
@click.option(
    "--convention",
    type=click.Choice(["proof", "statement"]),
    default="proof",
    show_default=True,
    help="Which (t, q) ordering the formula side uses.",
)
@click.option("--out", default=None)
def genfun(region_spec: str, convention: str, out: str | None) -> None:
    """Transfer-matrix bivariate sum vs product formula, with a verdict."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion) or region.kind == "aztec_rectangle":
        raise click.UsageError("genfun needs an aztec diamond or double rectangle")
    try:
        enum_poly = tq_sum(region)
    except CapacityError as exc:
        raise click.UsageError(str(exc)) from exc
    if region.kind == "aztec_diamond":
        base = aztec_genfun(region.params[0])
    else:
        base = main_genfun(*region.params)
    sides = {"proof": base, "statement": base.swap_vars()}
    matched = [name for name, poly in sides.items() if poly == enum_poly]
    verdict = "ok" if convention in matched else "mismatch"
    _emit(
        {
            "region": region.spec_string(),
            "convention": convention,
            "matched_conventions": matched,
            "enumeration": enum_poly.to_json_obj(),
            "formula": sides[convention].to_json_obj(),
            "verdict": verdict,
        },
        status=verdict,
        out=out,
    )
    if verdict != "ok":
        sys.exit(1)


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None)
def formula(region_spec: str, out: str | None) -> None:
    """Closed-form tiling count of a region, no enumeration."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion):
        value = macmahon_count(*region.params)
    elif region.kind == "aztec_diamond":
        n = region.params[0]
        value = 2 ** (n * (n + 1) // 2)
    elif region.kind == "double_aztec_rectangle":
        value = corollary_count(*region.params)
    else:
        raise click.UsageError("no closed-form count for a lone aztec rectangle")
    _emit({"region": region.spec_string(), "count": value}, out=out)


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None)
def rank(region_spec: str, out: str | None) -> None:
    """Histogram of flip distances from the minimal tiling."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion):
        raise click.UsageError("rank is defined for square-lattice regions only")
    try:
        poly = tq_sum(region)
    except (KindError, ConstraintError, CapacityError) as exc:
        raise click.UsageError(str(exc)) from exc
    hist: dict[int, int] = {}
    for (_, eq), c in poly.items():  # sum out t; eq is 2 * rank
        hist[eq // 2] = hist.get(eq // 2, 0) + c
    _emit(
        {
            "region": region.spec_string(),
            "tilings": sum(hist.values()),
            "ranks": {str(r): hist[r] for r in sorted(hist)},
        },
        out=out,
    )


#: Lets a negative tiling index such as -1 through as an argument, so that it
#: reaches the range check instead of failing as an unknown option.
_TILING_ARG = {"ignore_unknown_options": True}


def _pick_tiling(region: Region, which: str):
    if which == "minimal":
        try:
            return minimal_tiling(region)
        except (KindError, ConstraintError) as exc:
            raise click.UsageError(str(exc)) from exc
    try:
        index = int(which)
    except ValueError:
        raise click.UsageError(f"tiling index must be an integer or 'minimal', got {which!r}")
    # the determinant count bounds the index before any tiling is listed
    if not 0 <= index < count_tilings(region):
        raise click.UsageError(f"tiling index {index} out of range")
    try:
        require_listing_budget(region, index + 1)
    except CapacityError as exc:
        raise click.UsageError(str(exc)) from exc
    return next(itertools.islice(enumerate_tilings(region), index, None))


@main.command(context_settings=_TILING_ARG)
@click.argument("region_spec")
@click.argument("tiling", default="minimal")
@click.option("--out", default=None)
def paths(region_spec: str, tiling: str, out: str | None) -> None:
    """The non-intersecting path family carried by a double-rectangle tiling."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion) or region.kind != "double_aztec_rectangle":
        raise click.UsageError("paths are defined for double rectangles only")
    t = _pick_tiling(region, tiling)
    family = tiling_to_paths(region, t)
    up, down, level = step_counts(family)
    _emit(
        {
            "region": region.spec_string(),
            "tiling": tiling,
            "paths": [
                {"points": [list(p) for p in path.points], "steps": "".join(path.steps)}
                for path in family.paths
            ],
            "steps": {"up": up, "down": down, "level": level},
            "area": str(underneath_area(family)),
        },
        out=out,
    )


@main.command(context_settings=_TILING_ARG)
@click.argument("region_spec")
@click.argument("tiling", default="minimal")
@click.option(
    "--overlay",
    type=click.Choice(["none", "paths"]),
    default="none",
    show_default=True,
)
@click.option("--out", default="tiling.svg", show_default=True)
def render(region_spec: str, tiling: str, overlay: str, out: str) -> None:
    """Write a deterministic SVG of a tiling, optionally with its paths."""
    region = _region_or_usage(region_spec)
    if isinstance(region, TriRegion):
        raise click.UsageError("render supports square-lattice regions only")
    if overlay == "paths" and region.kind != "double_aztec_rectangle":
        raise click.UsageError("path overlay needs a double rectangle")
    t = _pick_tiling(region, tiling)
    svg = render_tiling(region, t, overlay_paths=(overlay == "paths"))
    render_to_file(out, svg)
    _emit({"region": region.spec_string(), "tiling": tiling, "file": out})


# -- verification suites -----------------------------------------------------


def _rand_fraction(rng: random.Random) -> Fraction:
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v:
            return v


def _random_host(rng: random.Random, marked: int, partners: int) -> WeightedGraph:
    """Bipartite-ish host with the given marked fringe and partner pool."""
    ms = [("m", i) for i in range(marked)]
    ps = [("p", j) for j in range(partners)]
    edges = []
    for u in ms:
        for v in ps:
            if rng.random() < 0.8:
                edges.append((u, v, _rand_fraction(rng)))
    return WeightedGraph(ms + ps, edges, ms)


def suite_macmahon(bound: int) -> list[dict]:
    cases = []
    for a, b, c in itertools.product(range(1, bound + 1), repeat=3):
        from .regions import build_hexagon

        ok = q_genfun_brute(a, b, c) == macmahon_q(a, b, c)
        ok = ok and count_lozenge_tilings(build_hexagon(a, b, c)) == macmahon_count(a, b, c)
        cases.append({"box": [a, b, c], "ok": ok})
    return cases


def suite_aztec(bound: int) -> list[dict]:
    from .regions import build_aztec_diamond

    regions = []
    for n in range(1, bound + 1):  # fail before the first sweep, not after the last
        regions.append(build_aztec_diamond(n))
        require_sweep_budget(regions[-1])
    cases = []
    for n, region in enumerate(regions, 1):
        ok = count_tilings(region) == 2 ** (n * (n + 1) // 2)
        ok = ok and tq_sum(region) == aztec_genfun(n)
        cases.append({"order": n, "ok": ok})
    return cases


def suite_main(max_cells: int | None = None) -> list[dict]:
    """SUITE_TUPLES, or every double rectangle of at most max_cells cells."""
    from .regions import build_double_rectangle

    tuples = SUITE_TUPLES if max_cells is None else small_double_rectangles(max_cells)
    cases = []
    for tup in tuples:
        region = build_double_rectangle(*tup)
        enum_poly = tq_sum(region)
        base = main_genfun(*tup)
        matched = [
            name
            for name, poly in (("proof", base), ("statement", base.swap_vars()))
            if poly == enum_poly
        ]
        ok = "proof" in matched
        ok = ok and count_tilings(region) == corollary_count(*tup)
        cases.append({"params": list(tup), "matched_conventions": matched, "ok": ok})
    return cases


def suite_weighted(trials: int, seed: int, max_cells: int | None = None) -> list[dict]:
    """SUITE_TUPLES, or every double rectangle of at most max_cells cells."""
    from .regions import build_double_rectangle

    rng = random.Random(seed)
    tuples = SUITE_TUPLES if max_cells is None else small_double_rectangles(max_cells)
    cases = []
    for tup in tuples:
        region = build_double_rectangle(*tup)
        done = 0
        ok = True
        while done < trials:
            vals = tuple(_rand_fraction(rng) for _ in range(5))
            try:
                rhs = weighted_formula_rhs(*tup, *vals)
            except ResampleError:
                continue
            lhs = region_matching_sum(region, WeightScheme(*vals))
            ok = ok and lhs == rhs
            done += 1
        cases.append({"params": list(tup), "trials": done, "ok": ok})
    return cases


def suite_lemmas(trials: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    split_ok = star_ok = spider_ok = reduce_ok = True
    for _ in range(trials):
        # vertex split on a small random graph (balanced so M is often nonzero)
        side = rng.randint(2, 4)
        g = _random_host(rng, side, side)
        v = g.vertices[0]
        nbs = g.neighbors(v)
        part = [u for u in nbs if rng.random() < 0.5]
        split_ok = split_ok and matching_genfun(vertex_split(g, v, part)) == matching_genfun(g)
        # star scaling
        factor = abs(_rand_fraction(rng))
        star_ok = star_ok and matching_genfun(star_scale(g, v, factor)) == factor * matching_genfun(g)
        # spider on a wheel: 4-cycle with unit spokes to 4 tips, tips matched out
        inner = [("i", j) for j in range(4)]
        tips = [("t", j) for j in range(4)]
        outer = [("o", j) for j in range(4)]
        cyc = [abs(_rand_fraction(rng)) for _ in range(4)]
        edges = [
            (inner[j], inner[(j + 1) % 4], cyc[j]) for j in range(4)
        ]
        edges += [(inner[j], tips[j], Fraction(1)) for j in range(4)]
        edges += [(tips[j], outer[j], _rand_fraction(rng)) for j in range(4)]
        edges += [(outer[0], outer[1], _rand_fraction(rng))]
        g2 = WeightedGraph(inner + tips + outer, edges)
        reduced, delta = spider_reduce(g2, tuple(inner))
        spider_ok = spider_ok and matching_genfun(g2) == delta * matching_genfun(reduced)
        # rectangle reduction against a random host
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 3)
        scheme = WeightScheme(*(abs(_rand_fraction(rng)) for _ in range(5)))
        host = _random_host(rng, n, n - m)
        whole = connected_sum(host, ar_graph(m, n, scheme))
        trimmed, fac = ar_reduce(host, m, n, scheme)
        reduce_ok = reduce_ok and matching_genfun(whole) == fac * matching_genfun(trimmed)
    return [
        {"lemma": "vertex-split", "trials": trials, "ok": split_ok},
        {"lemma": "star-scale", "trials": trials, "ok": star_ok},
        {"lemma": "spider", "trials": trials, "ok": spider_ok},
        {"lemma": "rectangle-reduce", "trials": trials, "ok": reduce_ok},
    ]


def small_double_rectangles(max_cells: int):
    """Every valid double-rectangle parameter tuple with at most max_cells cells."""
    out = []
    for m1 in range(1, 4):
        for n1 in range(m1, 8):
            for m2 in range(1, 4):
                n2 = m2 + (n1 - m1)
                for k in range(0, min(m2, n2 - 1) + 1):
                    cells = 2 * m1 * n1 + m1 + n1 + 2 * m2 * n2 + m2 + n2
                    if cells <= max_cells:
                        out.append((m1, n1, k, m2, n2))
    return sorted(out)


def suite_rank(max_cells: int) -> list[dict]:
    from .regions import build_double_rectangle

    tuples = small_double_rectangles(max_cells)
    for tup in tuples:  # fail before the first BFS, not after the last
        region = build_double_rectangle(*tup)
        require_listing_budget(region, count_tilings(region))
    cases = []
    for tup in tuples:
        # built again rather than kept, so one region's tables are alive at a time
        region = build_double_rectangle(*tup)
        table = rank_table(region)
        tilings = list(enumerate_tilings(region))
        ok = set(table) == set(tilings)  # flip connectivity
        ranks = [rank_via_area(region, t) for t in tilings]
        ok = ok and ranks == [table.get(t) for t in tilings]
        ok = ok and ranks == [rank_linear(region, t) for t in tilings]
        # the area rank is the area excess over the minimal tiling, so the
        # minimal tiling has the least area, uniquely, when exactly one
        # tiling has area rank 0 and none has a negative one
        ok = ok and min(ranks) == 0 and ranks.count(0) == 1
        cases.append({"params": list(tup), "tilings": len(tilings), "ok": ok})
    return cases


def suite_paths() -> list[dict]:
    from .regions import build_double_rectangle

    cases = []
    for tup in SUITE_TUPLES:
        m1, n1, k, m2, n2 = tup
        g = n1 - m1
        expected = (
            m2 * (m2 + 1) + 2 * g * (m2 - k + 1) + g * (m1 + k) + m1 * (m1 + 1)
        )
        region = build_double_rectangle(*tup)
        seen = set()
        ok = True
        for t in enumerate_tilings(region):
            family = tiling_to_paths(region, t)
            key = tuple(p.points for p in family.paths)
            ok = ok and key not in seen
            seen.add(key)
            up, down, level = step_counts(family)
            ok = ok and up + down + 2 * level == expected
            ok = ok and Fraction(up + down, 2) == vertical_halfcount(t)
        cases.append({"params": list(tup), "tilings": len(seen), "ok": ok})
    return cases


@main.command()
@click.argument(
    "suite",
    type=click.Choice(["macmahon", "aztec", "main", "weighted", "lemmas", "rank", "paths"]),
)
@click.option("--max", "bound", default=None, type=int, help="Size bound for the suite.")
@click.option("--trials", default=None, type=int, help="Randomized trial count.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option("--out", default=None)
def verify(suite: str, bound: int | None, trials: int | None, seed: int, out: str | None) -> None:
    """Run a verification suite; exit 1 if any case fails."""
    try:
        if suite == "macmahon":
            cases = suite_macmahon(bound or 3)
        elif suite == "aztec":
            cases = suite_aztec(bound or 6)
        elif suite == "main":
            cases = suite_main(bound)
        elif suite == "weighted":
            cases = suite_weighted(trials or 5, seed, bound)
        elif suite == "lemmas":
            cases = suite_lemmas(trials or 50, seed)
        elif suite == "rank":
            cases = suite_rank(bound or 40)
        else:
            cases = suite_paths()
    except CapacityError as exc:
        raise click.UsageError(str(exc)) from exc
    bad = [c for c in cases if not c["ok"]]
    status = "ok" if not bad else "mismatch"
    _emit({"suite": suite, "cases": cases, "failures": len(bad)}, status=status, out=out)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
