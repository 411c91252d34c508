"""Command-line surface: counting, generating functions, verification, SVG.

Every command prints a single JSON document (schema version 1) to stdout,
except render, which writes SVG to --out.  Exit codes: 0 for success, 1 when
a verification finds a mismatch, 2 for usage or domain errors, among them an
--out file that cannot be written.
"""

from __future__ import annotations

import itertools
import json
import sys

import click

from .engine import CapacityError, count_tilings, enumerate_tilings
from .formulas import aztec_count, aztec_genfun, corollary_count, macmahon_count, main_genfun
from .paths import step_counts, tiling_to_paths, underneath_area
from .regions import ConstraintError, KindError, Region, TriRegion, parse_spec
from .render import render_tiling
from .stats import minimal_tiling, require_listing_budget, tq_sum
from .verify import DEFAULT_SEED, SUITES, compare_conventions


class _OutputError(click.FileError):
    """An --out file that cannot be written: a one-line usage error, exit 2."""

    exit_code = 2


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _OutputError(path, exc.strerror) from None


def _emit(payload: dict, status: str = "ok", out: str | None = None) -> None:
    doc = {"schema": 1, "status": status}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=False)
    if out:
        _write(out, text + "\n")
    else:
        # not click.echo: on a stream with no declared encoding, such as a
        # StringIO, its first call imports a codec
        print(text)


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
    _emit({"region": region.spec_string(), "count": count_tilings(region)}, out=out)


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
    if region.kind not in ("aztec_diamond", "double_aztec_rectangle"):
        raise click.UsageError("genfun needs an aztec diamond or double rectangle")
    try:
        enum_poly = tq_sum(region)
    except CapacityError as exc:
        raise click.UsageError(str(exc)) from exc
    if region.kind == "aztec_diamond":
        base = aztec_genfun(region.params[0])
    else:
        base = main_genfun(*region.params)
    sides, matched = compare_conventions(enum_poly, base)
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
        value = aztec_count(region.params[0])
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
    if region.kind != "double_aztec_rectangle":
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
    _write(out, svg)
    _emit({"region": region.spec_string(), "tiling": tiling, "file": out})


@main.command()
@click.argument("suite", type=click.Choice(list(SUITES)))
@click.option("--max", "bound", type=click.IntRange(min=1), help="Size bound for the suite.")
@click.option("--trials", type=click.IntRange(min=1), help="Randomized trial count.")
@click.option("--seed", type=int, help=f"Seed of weighted and lemmas (default {DEFAULT_SEED}).")
@click.option("--out", default=None)
def verify(
    suite: str, bound: int | None, trials: int | None, seed: int | None, out: str | None
) -> None:
    """Run a verification suite; exit 1 if any case fails.

    An option the suite does not read, and a bound that admits no case, are
    usage errors.
    """
    reads, run = SUITES[suite]
    for option, value in (("--max", bound), ("--trials", trials), ("--seed", seed)):
        if value is not None and option not in reads:
            raise click.UsageError(f"verify {suite} does not read {option}")
    try:
        cases = run(bound, trials, seed)
    except CapacityError as exc:
        raise click.UsageError(str(exc)) from exc
    if not cases:
        raise click.UsageError(f"verify {suite} --max {bound} admits no case")
    bad = [c for c in cases if not c["ok"]]
    status = "ok" if not bad else "mismatch"
    _emit({"suite": suite, "cases": cases, "failures": len(bad)}, status=status, out=out)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
