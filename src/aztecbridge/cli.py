"""Command-line surface: counting, generating functions, verification, SVG.

Every command prints a single JSON document (schema version 1) to stdout,
except render, which writes SVG to --out.  Exit codes: 0 for success, 1 when
a verification finds a mismatch, 2 for usage or domain errors.  Every
subcommand is a ``_Command``, whose ``invoke`` makes a ConstraintError,
KindError or CapacityError a usage error; the callback of every --out fails
on a path that cannot be written before any work, and ``_write`` on the rest.

Each process runs one command, so its start counts: the package import is
most of a small command's time.  Nothing is imported while a command runs.
The group and every subcommand build their own ``--help`` option
(``_OwnHelp``), because click's calls ``gettext`` on each process's first
parse, which imports ``locale`` and looks for a message catalog; and
``_emit`` prints rather than calls ``click.echo``.
"""

from __future__ import annotations

import errno
import inspect
import itertools
import json
import os
import sys

import click

from . import verify as suites
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


def _writable(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """An --out callback: fail on a directory, or on a path in no directory, before any work."""
    if path:
        if os.path.isdir(path):
            raise _OutputError(path, os.strerror(errno.EISDIR))
        try:
            os.stat(os.path.dirname(path) or ".")
        except OSError as exc:
            raise _OutputError(path, exc.strerror) from None
    return path


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


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


class _OwnHelp:
    """A command whose ``--help`` option is built here, once per command object.

    click's own builds its help text with ``gettext`` on the first parse of
    each process, which imports ``locale`` (0.7 ms in a fresh interpreter)
    and looks for a message catalog.  The option is kept in an attribute of
    its own, because click before 8.1.8 has no ``_help_option``, and is the
    same object on every call, because click 8.1.8 and later order the eager
    parameters by identity.
    """

    _help_flag: click.Option | None = None

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        if self._help_flag is None:
            self._help_flag = click.Option(
                names,
                is_flag=True,
                expose_value=False,
                is_eager=True,
                help="Show this message and exit.",
                callback=_show_help,
            )
        return self._help_flag


class _Command(_OwnHelp, click.Command):
    """A subcommand whose domain errors are usage errors: one line, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConstraintError, KindError, CapacityError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(_OwnHelp, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Exact tiling enumeration workbench."""


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None, callback=_writable, help="Write the JSON document to a file.")
def count(region_spec: str, out: str | None) -> None:
    """Number of tilings of a region (ad:N, ar:MxN, dr:M1,N1,K,M2,N2, hex:A,B,C)."""
    region = parse_spec(region_spec)
    _emit({"region": region.spec_string(), "count": count_tilings(region)}, out=out)


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None, callback=_writable)
def genfun(region_spec: str, out: str | None) -> None:
    """Transfer-matrix bivariate sum vs product formula, with a verdict."""
    region = parse_spec(region_spec)
    if region.kind not in ("aztec_diamond", "double_aztec_rectangle"):
        raise click.UsageError("genfun needs an aztec diamond or double rectangle")
    enum_poly = tq_sum(region)
    if region.kind == "aztec_diamond":
        base = aztec_genfun(region.params[0])
    else:
        base = main_genfun(*region.params)
    matched = compare_conventions(enum_poly, base)
    verdict = "ok" if "proof" in matched else "mismatch"
    _emit(
        {
            "region": region.spec_string(),
            "convention": "proof",
            "matched_conventions": matched,
            "enumeration": enum_poly.to_json_obj(),
            "formula": base.to_json_obj(),
            "verdict": verdict,
        },
        status=verdict,
        out=out,
    )
    if verdict != "ok":
        sys.exit(1)


@main.command()
@click.argument("region_spec")
@click.option("--out", default=None, callback=_writable)
def formula(region_spec: str, out: str | None) -> None:
    """Closed-form tiling count of a region, no enumeration."""
    region = parse_spec(region_spec)
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
@click.option("--out", default=None, callback=_writable)
def rank(region_spec: str, out: str | None) -> None:
    """Histogram of flip distances from the minimal tiling."""
    region = parse_spec(region_spec)
    if isinstance(region, TriRegion):
        raise click.UsageError("rank is defined for square-lattice regions only")
    poly = tq_sum(region)
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


def _pick_tiling(region: Region, which: str) -> int:
    """The mask of the minimal tiling, or of the tiling at an index of the enumeration order."""
    if which == "minimal":
        return minimal_tiling(region)
    try:
        index = int(which)
    except ValueError:
        raise click.UsageError(f"tiling index must be an integer or 'minimal', got {which!r}")
    # the determinant count bounds the index before any tiling is listed
    if not 0 <= index < count_tilings(region):
        raise click.UsageError(f"tiling index {index} out of range")
    require_listing_budget(region, index + 1)
    return next(itertools.islice(enumerate_tilings(region), index, None))


@main.command(context_settings=_TILING_ARG)
@click.argument("region_spec")
@click.argument("tiling", default="minimal")
@click.option("--out", default=None, callback=_writable)
def paths(region_spec: str, tiling: str, out: str | None) -> None:
    """The non-intersecting path family carried by a double-rectangle tiling."""
    region = parse_spec(region_spec)
    if region.kind != "double_aztec_rectangle":
        raise click.UsageError("paths are defined for double rectangles only")
    family = tiling_to_paths(region, _pick_tiling(region, tiling))
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
@click.option("--out", default="tiling.svg", show_default=True, callback=_writable)
def render(region_spec: str, tiling: str, overlay: str, out: str) -> None:
    """Write a deterministic SVG of a tiling, optionally with its paths."""
    region = parse_spec(region_spec)
    if isinstance(region, TriRegion):
        raise click.UsageError("render supports square-lattice regions only")
    if overlay == "paths" and region.kind != "double_aztec_rectangle":
        raise click.UsageError("path overlay needs a double rectangle")
    svg = render_tiling(region, _pick_tiling(region, tiling), overlay_paths=(overlay == "paths"))
    _write(out, svg)
    _emit({"region": region.spec_string(), "tiling": tiling, "file": out})


@main.command()
@click.argument("suite", type=click.Choice(SUITES))
@click.option("--max", "bound", type=click.IntRange(min=1), help="Size bound for the suite.")
@click.option("--trials", type=click.IntRange(min=1), help="Randomized trial count.")
@click.option("--seed", type=int, help=f"Seed of weighted and lemmas (default {DEFAULT_SEED}).")
@click.option("--out", default=None, callback=_writable)
def verify(
    suite: str, bound: int | None, trials: int | None, seed: int | None, out: str | None
) -> None:
    """Run a verification suite; exit 1 if any case fails.

    The suite is ``verify.suite_<name>``, looked up at each run and called
    with the options given.  An option it does not name (``--max`` is
    ``bound``), and a bound that admits no case, are usage errors.
    """
    run = getattr(suites, "suite_" + suite)
    options = {"bound": bound, "trials": trials, "seed": seed}
    given = {name: value for name, value in options.items() if value is not None}
    reads = inspect.signature(run).parameters
    for name in given:
        if name not in reads:
            option = "--max" if name == "bound" else "--" + name
            raise click.UsageError(f"verify {suite} does not read {option}")
    cases = run(**given)
    if not cases:
        raise click.UsageError(f"verify {suite} --max {bound} admits no case")
    bad = [c for c in cases if not c["ok"]]
    status = "ok" if not bad else "mismatch"
    _emit({"suite": suite, "cases": cases, "failures": len(bad)}, status=status, out=out)
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
