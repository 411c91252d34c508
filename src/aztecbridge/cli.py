"""Command-line surface: counting, generating functions, verification, SVG.

Every command prints a single JSON document (schema version 1) to stdout,
except render, which writes SVG to --out.  Exit codes: 0 for success, 1 when
a verification finds a mismatch, 2 for usage or domain errors.

A document's bytes are those of ``json.dumps(doc, indent=2)``, strings
escaped to ASCII, and one newline.  ``_dumps`` writes them in one pass, in
place of ``json``'s pure-Python indenting encoder: it takes dicts, lists,
tuples, str, int, bool, None and ``LaurentPoly2``, which it writes as its
sorted ``[2*t_exp, 2*q_exp, "coeff"]`` terms, each in one f-string; any
other value raises TypeError.  ``genfun`` hands its sum to both keys when
the verdict is ok (the two term maps are equal), so its text is formatted
once, and the formula's own terms on a mismatch.

``main`` dispatches through ``COMMANDS``, one entry per command: its
function, its positional arguments with their defaults, and its options with
a converter each.  The parser accepts ``--opt value`` and ``--opt=value``,
options before, between and after the arguments, ``--`` to end the options,
and ``--help`` on the group and on every command.  A token that starts with
a minus sign and a digit is an argument, so a negative tiling index reaches
the range check.  A usage error, and a ConstraintError, KindError or
CapacityError from a command, exits 2 and writes ``Usage:``, ``Try '...
--help' for help.`` and ``Error:`` lines to stderr, as click did.  The --out
converter fails on a path that cannot be written before any work, and
``_write`` on the rest, each in a single ``Error:`` line.

Each process runs one command, so its start counts: the package import is
most of a small command's time.  The command line was built on click, which
with ``inspect`` took two thirds of this module's import (click imports
``uuid``, ``platform`` and ``datetime``), and whose two-level parse cost more
than a millisecond per command; the table does the same work without them.
The escaping comes from the ``_json`` C module, not from the ``json``
package, and the package imports no ``typing`` and defines its records
without ``namedtuple`` (see ``regions._Tuple``); the three took 30% of the
import.  It keeps exact rationals as reduced int pairs (``rational``), not
as ``fractions.Fraction``, whose import of ``decimal`` and ``numbers`` and
a regex took about 40% of what was left.  The import is now about 3.3 ms
on a shared 2-vCPU x86_64 host, 8.8 ms under ``python -S``.  Nothing is
imported while a command runs.
"""

from __future__ import annotations

import errno
import os
import sys
from _json import encode_basestring_ascii as _quote

from . import verify as suites
from .engine import count_tilings, tiling_at
from .formulas import aztec_count, corollary_count, macmahon_count
from .paths import step_counts, tiling_to_paths, underneath_area
from .polyring import LaurentPoly2
from .rational import pair_str, reduced
from .regions import CapacityError, ConstraintError, KindError, Region, TriRegion, parse_spec
from .render import render_tiling
from .stats import minimal_tiling, tq_sum
from .verify import DEFAULT_SEED, SUITES


class UsageError(Exception):
    """A usage or domain error: exit 2.  ``usage`` False leaves out the Usage and Try lines."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


def _unwritable(path: str, reason: str) -> UsageError:
    return UsageError(f"Could not open file {path!r}: {reason}", usage=False)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc.strerror) from None


def _writable(path: str) -> str:
    """The --out converter: fail on a directory, or on a path in no directory, before any work."""
    if path:
        if os.path.isdir(path):
            raise _unwritable(path, os.strerror(errno.EISDIR))
        try:
            os.stat(os.path.dirname(path) or ".")
        except OSError as exc:
            raise _unwritable(path, exc.strerror) from None
    return path


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"{value} is not in the range x>=1.")
    return value


class _Choice(tuple):
    """A converter that accepts only its own items."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, self))}.")
        return text


def _dumps(doc) -> str:
    """The text ``json.dumps(doc, indent=2)`` gives, in one pass (see the module docstring).

    Strings and keys go through ``_json``'s ASCII escaping, the function
    ``json.encoder`` exports as ``encode_basestring_ascii``.  A polynomial
    object is formatted once per document and depth; where it is held
    again, its text is written again.
    """
    parts: list[str] = []
    write = parts.append
    polys: dict[tuple[int, str], str] = {}

    def encode(obj, indent: str) -> None:  # indent: newline and spaces of obj's own line
        if isinstance(obj, str):
            write(_quote(obj))
        elif obj is None:
            write("null")
        elif obj is True:
            write("true")
        elif obj is False:
            write("false")
        elif isinstance(obj, int):
            write(int.__repr__(obj))
        elif isinstance(obj, dict):
            inner = indent + "  "
            sep = "{" + inner
            for key, value in obj.items():
                write(f"{sep}{_quote(key)}: ")
                encode(value, inner)
                sep = "," + inner
            write("{}" if not obj else indent + "}")
        elif isinstance(obj, (list, tuple)):
            inner = indent + "  "
            sep = "[" + inner
            for value in obj:
                write(sep)
                encode(value, inner)
                sep = "," + inner
            write("[]" if not obj else indent + "]")
        elif isinstance(obj, LaurentPoly2):
            text = polys.get((id(obj), indent))
            if text is None:
                inner = indent + "  "
                leaf = inner + "  "
                terms = f",{inner}".join(
                    f'[{leaf}{et},{leaf}{eq},{leaf}"{c}"{inner}]' for (et, eq), c in obj.items()
                )
                text = polys[id(obj), indent] = f"[{inner}{terms}{indent}]" if terms else "[]"
            write(text)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    encode(doc, "\n")
    return "".join(parts)


def _emit(payload: dict, status: str = "ok", out: str | None = None) -> None:
    doc = {"schema": 1, "status": status}
    doc.update(payload)
    text = _dumps(doc)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def count(region_spec: str, out: str | None) -> None:
    """Number of tilings of a region (ad:N, ar:MxN, dr:M1,N1,K,M2,N2, hex:A,B,C)."""
    region = parse_spec(region_spec)
    _emit({"region": region.spec_string(), "count": count_tilings(region)}, out=out)


def genfun(region_spec: str, out: str | None) -> None:
    """Frontier-sweep bivariate sum vs product formula, with a verdict."""
    region = parse_spec(region_spec)
    enum_poly, base, matched = suites.genfun_check(region)
    verdict = "ok" if "proof" in matched else "mismatch"
    _emit(
        {
            "region": region.spec_string(),
            "convention": "proof",
            "matched_conventions": matched,
            "enumeration": enum_poly,
            # equal to the enumeration when ok: one object, so its text is formatted once
            "formula": enum_poly if verdict == "ok" else base,
            "verdict": verdict,
        },
        status=verdict,
        out=out,
    )
    if verdict != "ok":
        sys.exit(1)


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
        raise UsageError("no closed-form count for a lone aztec rectangle")
    _emit({"region": region.spec_string(), "count": value}, out=out)


def rank(region_spec: str, out: str | None) -> None:
    """Histogram of flip distances from the minimal tiling."""
    region = parse_spec(region_spec)
    if isinstance(region, TriRegion):
        raise UsageError("rank is defined for square-lattice regions only")
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


def _pick_tiling(region: Region, which: str) -> int:
    """The mask of the minimal tiling, or of the tiling at an index of the enumeration order.

    The index is unranked from completion counts (``engine.tiling_at``), so
    no tiling is listed; an index out of range is a usage error.
    """
    if which == "minimal":
        return minimal_tiling(region)
    try:
        index = int(which)
    except ValueError:
        raise UsageError(f"tiling index must be an integer or 'minimal', got {which!r}")
    try:
        return tiling_at(region, index)
    except IndexError as exc:
        raise UsageError(str(exc)) from None


def paths(region_spec: str, tiling: str, out: str | None) -> None:
    """The non-intersecting path family carried by a double-rectangle tiling.

    TILING is 'minimal' (the default), the tiling of least rank, or an index
    from 0 into the order in which the region's tilings are enumerated.
    """
    region = parse_spec(region_spec)
    if region.kind != "double_aztec_rectangle":
        raise UsageError("paths are defined for double rectangles only")
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
            "area": pair_str(reduced(underneath_area(family), 4)),
        },
        out=out,
    )


def render(region_spec: str, tiling: str, overlay: str, out: str) -> None:
    """Write a deterministic SVG of a tiling, optionally with its paths.

    TILING is 'minimal' (the default), the tiling of least rank, or an index
    from 0 into the order in which the region's tilings are enumerated.
    """
    region = parse_spec(region_spec)
    if isinstance(region, TriRegion):
        raise UsageError("render supports square-lattice regions only")
    if overlay == "paths" and region.kind != "double_aztec_rectangle":
        raise UsageError("path overlay needs a double rectangle")
    svg = render_tiling(region, _pick_tiling(region, tiling), overlay_paths=(overlay == "paths"))
    _write(out, svg)
    _emit({"region": region.spec_string(), "tiling": tiling, "file": out})


def verify(
    suite: str, bound: int | None, trials: int | None, seed: int | None, out: str | None
) -> None:
    """Run a verification suite; exit 1 if any case fails.

    --max bounds the sizes a suite checks; --trials and --seed drive the
    randomized suites, weighted and lemmas.  An option the suite does not
    read, and a --max that admits no case, exit 2.
    """
    # the suite is verify.suite_<name>, looked up at each run and called with
    # the options given; the options it reads are its parameters (bound is --max)
    run = getattr(suites, "suite_" + suite)
    options = {"bound": bound, "trials": trials, "seed": seed}
    given = {name: value for name, value in options.items() if value is not None}
    named = run
    while hasattr(named, "__wrapped__"):  # a tracer or a decorator wraps the suite
        named = named.__wrapped__
    reads = named.__code__.co_varnames[: named.__code__.co_argcount]
    for name in given:
        if name not in reads:
            option = "--max" if name == "bound" else "--" + name
            raise UsageError(f"verify {suite} does not read {option}")
    cases = run(**given)
    if not cases:
        raise UsageError(f"verify {suite} --max {bound} admits no case")
    bad = [c for c in cases if not c["ok"]]
    status = "ok" if not bad else "mismatch"
    _emit({"suite": suite, "cases": cases, "failures": len(bad)}, status=status, out=out)
    if bad:
        sys.exit(1)


_SPEC = (("REGION_SPEC", None, str),)
_TILING = (*_SPEC, ("TILING", "minimal", str))
_OUT = ("out", "TEXT", _writable, None, "Write the JSON document to a file.")
_MAX_HELP = "Size bound for the suite.  [x>=1]"
_TRIALS_HELP = "Randomized trial count.  [x>=1]"
_SEED_HELP = f"Seed of weighted and lemmas (default {DEFAULT_SEED})."

#: Each command's function; its positional arguments, passed in order, as
#: (metavar, default, converter), where a default of None makes one
#: required; and its options, as flag -> (parameter, metavar, converter,
#: default, help).  A default that is not None is converted too.
COMMANDS = {
    "count": (count, _SPEC, {"--out": _OUT}),
    "formula": (formula, _SPEC, {"--out": _OUT}),
    "genfun": (genfun, _SPEC, {"--out": _OUT}),
    "paths": (paths, _TILING, {"--out": _OUT}),
    "rank": (rank, _SPEC, {"--out": _OUT}),
    "render": (
        render,
        _TILING,
        {
            "--overlay": (
                "overlay", "[none|paths]", _Choice(("none", "paths")), "none", "[default: none]"
            ),
            "--out": ("out", "TEXT", _writable, "tiling.svg", "[default: tiling.svg]"),
        },
    ),
    "verify": (
        verify,
        (("{" + "|".join(SUITES) + "}", None, _Choice(SUITES)),),
        {
            "--max": ("bound", "INTEGER RANGE", _positive, None, _MAX_HELP),
            "--trials": ("trials", "INTEGER RANGE", _positive, None, _TRIALS_HELP),
            "--seed": ("seed", "INTEGER", _integer, None, _SEED_HELP),
            "--out": _OUT,
        },
    ),
}

_HELP_ROW = ("--help", "Show this message and exit.")


def _convert(convert, text: str, name: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise UsageError(f"Invalid value for '{name}': {exc}") from None


def _parse(arguments: tuple, options: dict, tokens: list[str]) -> tuple[list, dict] | None:
    """The converted arguments and options that tokens give a command, or None for --help."""
    given, positional = {}, []
    rest = iter(tokens)
    for token in rest:
        if token == "--":
            positional.extend(rest)
        elif token.startswith("-") and token != "-" and not token[1:2].isdigit():
            flag, eq, value = token.partition("=")
            if flag == "--help":
                return None
            if flag not in options:
                raise UsageError(f"No such option '{flag}'.")
            if not eq:
                value = next(rest, None)
                if value is None:
                    raise UsageError(f"Option '{flag}' requires an argument.")
            given[flag] = value
        else:
            positional.append(token)
    for metavar, default, _ in arguments[len(positional) :]:
        if default is None:
            raise UsageError(f"Missing argument '{metavar}'.")
        positional.append(default)
    values = [_convert(convert, text, m) for (m, _, convert), text in zip(arguments, positional)]
    params = {}
    for flag, (param, _, convert, default, _) in options.items():
        value = given.get(flag, default)
        params[param] = None if value is None else _convert(convert, value, flag)
    extra = positional[len(arguments) :]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return values, params


def _usage(prog: str, name: str | None) -> str:
    if name is None:
        return f"{prog} [OPTIONS] COMMAND [ARGS]..."
    metavars = [m if default is None else f"[{m}]" for m, default, _ in COMMANDS[name][1]]
    return f"{prog} {name} [OPTIONS] {' '.join(metavars)}"


def _table(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {text}".rstrip() for left, text in rows]


def _help(prog: str, name: str | None) -> str:
    """A command's help, or with name None the group's, laid out as click laid it out."""
    if name is None:
        summary, body, rows = "Exact tiling enumeration workbench.", [], [_HELP_ROW]
        limit = 74 - max(map(len, COMMANDS))  # click's room for a summary in 80 columns
        shorts = []
        for command, (run, _, _) in COMMANDS.items():
            short = (run.__doc__ or "").partition("\n")[0]
            if len(short) > limit:
                short = short[: limit - 3].rsplit(" ", 1)[0] + "..."
            shorts.append((command, short))
        tail = ["", "Commands:", *_table(shorts)]
    else:
        run, _, options = COMMANDS[name]
        summary, _, body = (run.__doc__ or "").partition("\n")
        body = [line[4:] for line in body.rstrip().splitlines()]
        rows = [(f"{flag} {option[1]}", option[4]) for flag, option in options.items()]
        rows.append(_HELP_ROW)
        tail = []
    text = [f"  {line}" if line else "" for line in (summary, *body)]
    lines = [f"Usage: {_usage(prog, name)}", "", *text, "", "Options:", *_table(rows), *tail]
    return "\n".join(lines)


def main(args: list[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> None:
    """Run the command that args name (by default the process's arguments).

    In standalone mode a usage error is reported and exits 2; otherwise it
    is raised, as click's ``main`` did.
    """
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or os.path.basename(sys.argv[0])
    name = None
    try:
        if not args or args[0] == "--help":
            print(_help(prog, None), file=sys.stdout if args else sys.stderr)
            if not args:
                sys.exit(2)
            return
        if args[0].startswith("-"):
            raise UsageError(f"No such option '{args[0].partition('=')[0]}'.")
        if args[0] not in COMMANDS:
            raise UsageError(f"No such command '{args[0]}'.")
        name = args[0]
        run, arguments, options = COMMANDS[name]
        parsed = _parse(arguments, options, args[1:])
        if parsed is None:
            print(_help(prog, name))
            return
        try:
            run(*parsed[0], **parsed[1])
        except (ConstraintError, KindError, CapacityError) as exc:
            raise UsageError(str(exc)) from exc
    except UsageError as exc:
        if not standalone_mode:
            raise
        if exc.usage:
            command = prog if name is None else f"{prog} {name}"
            print(f"Usage: {_usage(prog, name)}", file=sys.stderr)
            print(f"Try '{command} --help' for help.\n", file=sys.stderr)
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(prog_name="python -m aztecbridge.cli")
