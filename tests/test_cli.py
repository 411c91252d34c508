"""Command-line contract: JSON schema, exit codes, determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_polyring import polys, to_json_obj

import aztecbridge
from aztecbridge import cli, engine, stats, verify
from aztecbridge.cli import main
from aztecbridge.engine import CapacityError
from aztecbridge.formulas import main_genfun
from aztecbridge.polyring import LaurentPoly2
from aztecbridge.regions import ConstraintError, KindError

Result = namedtuple("Result", "exit_code output exception")


def run(*args):
    """Run the command line in this process, named ``main``.

    Returns the exit code, stdout and stderr as one text, and the SystemExit.
    """
    buf = io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main(list(args), prog_name="main")
        except SystemExit as exc:
            code, exception = exc.code or 0, exc
    return Result(code, buf.getvalue(), exception)


def test_count_commands():
    for spec, expected in [("ad:4", 1024), ("hex:1,1,1", 2), ("dr:1,2,0,1,2", 12)]:
        result = run("count", spec)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema"] == 1 and doc["status"] == "ok"
        assert doc["count"] == expected


def test_usage_errors_exit_two():
    assert run("count", "nonsense").exit_code == 2
    assert run("count", "dr:2,1,0,2,1").exit_code == 2
    assert run("genfun", "hex:1,1,1").exit_code == 2
    assert run("render", "dr:1,2,0,1,2", "99999").exit_code == 2
    # a color-imbalanced region has no minimal tiling and no ranks
    assert run("render", "ar:2x3", "minimal").exit_code == 2
    assert run("rank", "ar:2x3").exit_code == 2


def test_a_spec_over_the_cell_budget_exits_two():
    for spec in ["ad:100000", "hex:10000,10000,10000", "ad:" + "9" * 4000]:
        result = run("count", spec)
        assert result.exit_code == 2
        assert "than the budget" in result.output


def _assert_unwritable(result, path):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    (line,) = result.output.splitlines()
    assert line.startswith("Error: ") and repr(str(path)) in line


def test_an_unwritable_json_out_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    _assert_unwritable(run("count", "ad:2", "--out", str(out)), out)
    _assert_unwritable(run("count", "ad:2", "--out", str(tmp_path)), tmp_path)


def test_an_unwritable_render_out_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "x.svg"
    _assert_unwritable(run("render", "dr:1,2,0,1,2", "--out", str(out)), out)


@pytest.mark.parametrize(
    "args",
    [
        ("render", "dr:2,3,1,2,3", "600", "--out", "{dir}/missing/x.svg"),  # of 640 tilings
        ("render", "dr:2,3,1,2,3", "600", "--out", "{dir}"),
        ("verify", "main", "--max", "104", "--out", "{dir}/missing/x.json"),
        ("verify", "main", "--max", "104", "--out", "{dir}"),
    ],
)
def test_an_unwritable_out_exits_two_before_any_work(monkeypatch, tmp_path, args):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    monkeypatch.setattr(verify, "suite_main", no_work)
    monkeypatch.setattr(engine, "_matchings", no_work)
    args = [arg.format(dir=tmp_path) for arg in args]
    start = time.perf_counter()
    result = run(*args)
    assert time.perf_counter() - start < 1
    _assert_unwritable(result, args[-1])


@pytest.mark.parametrize("error", [ConstraintError, KindError, CapacityError])
@pytest.mark.parametrize(
    "args",
    [
        ("count", "ad:2"),
        ("genfun", "ad:2"),
        ("formula", "ad:2"),
        ("rank", "ad:2"),
        ("paths", "dr:1,2,0,1,2"),
        ("render", "dr:1,2,0,1,2", "--out", os.devnull),
        ("verify", "paths"),
    ],
)
def test_a_domain_error_in_any_command_is_a_usage_error(monkeypatch, args, error):
    def fail(*args):
        raise error("nothing to do here")

    monkeypatch.setattr(cli, "parse_spec", fail)
    monkeypatch.setattr(verify, "suite_paths", fail)
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    lines = result.output.splitlines()
    assert lines[0].startswith(f"Usage: main {args[0]} ")
    assert [line for line in lines if line.startswith("Error:")] == ["Error: nothing to do here"]


def test_genfun_has_no_convention_option():
    result = run("genfun", "ad:4", "--convention", "statement")
    assert result.exit_code == 2
    (line,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert "No such option" in line and "--convention" in line


def test_options_parse_before_between_and_after_the_arguments(tmp_path):
    svgs = []
    for i, args in enumerate(
        [
            ("render", "dr:2,3,1,2,3", "3", "--overlay", "paths", "--out", "{out}"),
            ("render", "--overlay", "paths", "--out", "{out}", "dr:2,3,1,2,3", "3"),
            ("render", "dr:2,3,1,2,3", "--overlay=paths", "3", "--out={out}"),
            ("render", "--out", "{out}", "dr:2,3,1,2,3", "--overlay", "paths", "--", "3"),
        ]
    ):
        out = tmp_path / f"{i}.svg"
        result = run(*(a.format(out=out) for a in args))
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["file"] == str(out)
        svgs.append(out.read_bytes())
    assert svgs[0].startswith(b"<?xml") and svgs.count(svgs[0]) == 4
    docs = {
        run(*args).output
        for args in [
            ("verify", "--max", "2", "aztec"),
            ("verify", "aztec", "--max", "2"),
            ("verify", "--max=2", "aztec"),
        ]
    }
    assert len(docs) == 1 and json.loads(docs.pop())["status"] == "ok"


def test_an_option_value_may_follow_an_equals_sign():
    result = run("verify", "aztec", "--max=3")
    assert result.exit_code == 0
    cases = json.loads(result.output)["cases"]
    assert len(cases) == 3 and all(c["ok"] for c in cases)


@pytest.mark.parametrize(
    "args, error",
    [
        (("count", "ad:2", "--bogus"), "Error: No such option '--bogus'."),
        (("count", "--bogus=1", "ad:2"), "Error: No such option '--bogus'."),
        (("--bogus", "count", "ad:2"), "Error: No such option '--bogus'."),
        (("count", "ad:2", "--out"), "Error: Option '--out' requires an argument."),
        (("count", "ad:2", "ad:3"), "Error: Got unexpected extra argument (ad:3)"),
        (("paths", "dr:1,2,0,1,2", "1", "2", "3"), "Error: Got unexpected extra arguments (2 3)"),
        (("count",), "Error: Missing argument 'REGION_SPEC'."),
        (
            ("verify", "aztec", "--max", "0"),
            "Error: Invalid value for '--max': 0 is not in the range x>=1.",
        ),
        (
            ("verify", "lemmas", "--seed", "x"),
            "Error: Invalid value for '--seed': 'x' is not a valid integer.",
        ),
        (
            ("render", "dr:1,2,0,1,2", "--overlay", "bogus"),
            "Error: Invalid value for '--overlay': 'bogus' is not one of 'none', 'paths'.",
        ),
        (
            ("verify", "bogus"),
            "Error: Invalid value for '{macmahon|aztec|main|weighted|lemmas|rank|paths}': "
            "'bogus' is not one of 'macmahon', 'aztec', 'main', 'weighted', 'lemmas', 'rank', "
            "'paths'.",
        ),
        (("paths", "dr:2,3,1,2,3", "-1"), "Error: tiling index -1 out of range"),
        (("bogus",), "Error: No such command 'bogus'."),
    ],
)
def test_a_usage_error_writes_usage_and_exactly_one_error_line(args, error):
    result = run(*args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    lines = result.output.splitlines()
    command = f"main {args[0]}" if args[0] in cli.COMMANDS else "main"
    assert lines[0].startswith(f"Usage: {command} ")
    assert lines[1] == f"Try '{command} --help' for help."
    assert [line for line in lines if line.startswith("Error:")] == [error]


def test_outside_standalone_mode_a_usage_error_is_raised_unreported(capsys):
    with pytest.raises(cli.UsageError, match="x>=1"):
        main(["verify", "aztec", "--max", "0"], standalone_mode=False)
    assert capsys.readouterr() == ("", "")


def test_run_as_a_module_the_usage_names_python_m():
    proc = _fresh("-m", "aztecbridge.cli", "count")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[:2] == [
        "Usage: python -m aztecbridge.cli count [OPTIONS] REGION_SPEC",
        "Try 'python -m aztecbridge.cli count --help' for help.",
    ]


def _fresh(*args):
    """Run a fresh interpreter on args, with the package's source directory on its path."""
    src = str(Path(aztecbridge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_domain_error_exit_code_survives_optimized_mode():
    proc = _fresh("-O", "-m", "aztecbridge.cli", "rank", "ar:2x3")
    assert proc.returncode == 2, proc.stderr
    assert "no tilings" in proc.stderr


#: Prints the modules of a start-up cost that importing the command line brings in.
_HEAVY_IMPORTS = """
import sys
before = set(sys.modules)
import aztecbridge.cli
print(sorted({'click', 'dataclasses', 'inspect', 'json', 'typing'} & (set(sys.modules) - before)))
"""


def test_importing_the_cli_imports_no_dataclasses():
    """Nor json, typing, inspect or click.  Under -S no ``site`` module runs first to import one."""
    proc = _fresh("-S", "-c", _HEAVY_IMPORTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


#: Imports the command line, runs one command and prints the modules the run imported.
_NEW_MODULES = """
import contextlib, io, sys
from aztecbridge.cli import main
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:], standalone_mode=False)
print(sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "args",
    [
        ("count", "ad:2"),
        ("formula", "dr:1,2,0,1,2"),
        ("genfun", "ad:2"),
        ("rank", "dr:1,2,0,1,2"),
        ("paths", "dr:1,2,0,1,2", "3"),
        ("render", "dr:1,2,0,1,2", "minimal", "--overlay", "paths", "--out", "{dir}/t.svg"),
        ("verify", "macmahon", "--max", "1"),
        ("verify", "aztec", "--max", "2"),
        ("verify", "main", "--max", "20"),
        ("verify", "weighted", "--max", "20", "--trials", "1"),
        ("verify", "lemmas", "--trials", "2"),
        ("verify", "rank", "--max", "12"),
        ("verify", "paths"),
    ],
)
def test_a_command_imports_no_module_while_it_runs(tmp_path, args):
    proc = _fresh("-c", _NEW_MODULES, *(a.format(dir=tmp_path) for a in args))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", [(), *((name,) for name in sorted(cli.COMMANDS))])
def test_help_exits_zero_with_its_own_help_line(command):
    proc = _fresh("-m", "aztecbridge.cli", *command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"Usage: python -m aztecbridge.cli {' '.join(command)}".rstrip())
    (line,) = [line for line in proc.stdout.splitlines() if "--help" in line]
    assert line.split() == ["--help", "Show", "this", "message", "and", "exit."]


def test_genfun_reports_convention():
    result = run("genfun", "ad:1")
    doc = json.loads(result.output)
    assert result.exit_code == 0
    assert doc["matched_conventions"] == ["proof"] or set(
        doc["matched_conventions"]
    ) == {"proof", "statement"}
    assert doc["enumeration"] == [[0, 0, "1"], [2, 2, "1"]]  # 1 + tq


def test_a_genfun_mismatch_writes_the_formulas_own_terms(monkeypatch):
    enumeration = json.loads(run("genfun", "dr:2,3,1,3,4").output)["enumeration"]
    for other, matched in (
        (LaurentPoly2({(0, 0): 7, (2, 4): -3}), []),
        # the product with t and q swapped equals the sum in the statement's convention only
        (main_genfun(2, 3, 1, 3, 4).swap_vars(), ["statement"]),
    ):
        monkeypatch.setattr(cli, "main_genfun", lambda *params: other)
        result = run("genfun", "dr:2,3,1,3,4")
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["status"] == doc["verdict"] == "mismatch"
        assert doc["matched_conventions"] == matched
        assert doc["formula"] == to_json_obj(other) != enumeration
        assert doc["enumeration"] == enumeration


def test_genfun_double_rectangle_proof_convention():
    result = run("genfun", "dr:1,2,0,1,2")
    doc = json.loads(result.output)
    assert result.exit_code == 0
    assert "proof" in doc["matched_conventions"]
    assert doc["verdict"] == "ok"


def test_formula_command():
    doc = json.loads(run("formula", "dr:1,2,0,1,2").output)
    assert doc["count"] == 12
    doc = json.loads(run("formula", "hex:2,2,2").output)
    assert doc["count"] == 20
    assert run("formula", "ar:2x3").exit_code == 2


def test_rank_command():
    doc = json.loads(run("rank", "dr:1,2,0,1,2").output)
    assert doc["tilings"] == 12
    assert doc["ranks"]["0"] == 1


def test_paths_command():
    doc = json.loads(run("paths", "dr:1,2,0,1,2", "minimal").output)
    assert len(doc["paths"]) == 3
    assert doc["steps"]["up"] + doc["steps"]["down"] + 2 * doc["steps"]["level"] > 0


def test_render_command(tmp_path):
    out = tmp_path / "t.svg"
    result = run("render", "dr:1,2,0,1,2", "0", "--overlay", "paths", "--out", str(out))
    assert result.exit_code == 0
    first = out.read_bytes()
    run("render", "dr:1,2,0,1,2", "0", "--overlay", "paths", "--out", str(out))
    assert out.read_bytes() == first
    assert first.startswith(b"<?xml")


def test_verify_small_suites():
    for args in [
        ("verify", "aztec", "--max", "3"),
        ("verify", "macmahon", "--max", "2"),
        ("verify", "lemmas", "--trials", "5"),
    ]:
        result = run(*args)
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["status"] == "ok" and doc["failures"] == 0


def test_verify_main_honours_max():
    result = run("verify", "main", "--max", "30")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["failures"] == 0
    assert len(doc["cases"]) == 21 and all(c["ok"] for c in doc["cases"])
    assert len(json.loads(run("verify", "main").output)["cases"]) == 5


@pytest.mark.parametrize("suite", ["rank", "main", "weighted"])
def test_a_bound_that_admits_no_double_rectangle_exits_two(suite):
    # the smallest double rectangle, dr:1,1,0,1,1, has 8 cells
    assert verify.small_double_rectangles(7) == []
    result = run("verify", suite, "--max", "7")
    assert result.exit_code == 2
    assert f"verify {suite} --max 7 admits no case" in result.output
    assert run("verify", suite, "--max", "8").exit_code == 0


def test_verify_macmahon_checks_every_box_before_the_first(monkeypatch):
    def no_count(*args):
        raise AssertionError("counted a box before checking the budget")

    monkeypatch.setattr(verify, "q_genfun_brute", no_count)
    result = run("verify", "macmahon", "--max", "4")
    assert result.exit_code == 2
    assert "box volume 48 exceeds brute-force bound 36" in result.output


def test_verify_is_seed_deterministic():
    a = run("verify", "weighted", "--trials", "2", "--seed", "9").output
    b = run("verify", "weighted", "--trials", "2", "--seed", "9").output
    assert a == b


def test_verify_weighted_honours_max():
    result = run("verify", "weighted", "--max", "60")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["status"] == "ok" and doc["failures"] == 0
    assert len(doc["cases"]) == 118 and all(c["trials"] == 5 for c in doc["cases"])
    fixed = json.loads(run("verify", "weighted").output)["cases"]
    assert [tuple(c["params"]) for c in fixed] == list(verify.SUITE_TUPLES)


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "weighted", "--trials", "0"),
        ("verify", "lemmas", "--trials", "0"),
        ("verify", "macmahon", "--max", "0"),
        ("verify", "aztec", "--max", "0"),
        ("verify", "weighted", "--trials", "-3"),
    ],
)
def test_verify_rejects_a_size_or_trial_count_below_one(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "x>=1" in result.output


@pytest.mark.parametrize(
    "args, option",
    [
        (("verify", "paths", "--max", "1"), "--max"),
        (("verify", "paths", "--max", "1", "--trials", "7"), "--max"),
        (("verify", "rank", "--max", "20", "--trials", "3"), "--trials"),
        (("verify", "main", "--seed", "5"), "--seed"),
        (("verify", "aztec", "--max", "2", "--seed", "5"), "--seed"),
        (("verify", "macmahon", "--trials", "2"), "--trials"),
        (("verify", "lemmas", "--max", "3"), "--max"),
    ],
)
def test_verify_rejects_an_option_its_suite_does_not_read(args, option):
    result = run(*args)
    assert result.exit_code == 2
    assert f"verify {args[1]} does not read {option}" in result.output


def test_verify_seed_defaults_for_the_randomized_suites():
    for suite in ("weighted", "lemmas"):
        given = run("verify", suite, "--trials", "2", "--seed", str(verify.DEFAULT_SEED))
        assert given.exit_code == 0
        assert run("verify", suite, "--trials", "2").output == given.output


def test_tiling_index_is_bounded_before_enumeration(monkeypatch):
    def no_unranking(region):
        raise AssertionError("unranked an out-of-range index")

    monkeypatch.setattr(engine._completions, "__wrapped__", no_unranking)
    for index in ("-1", "640", "99999"):
        result = run("paths", "dr:2,3,1,2,3", "--", index)
        assert result.exit_code == 2
        assert f"tiling index {index} out of range" in result.output


def test_a_negative_tiling_index_needs_no_double_dash(tmp_path):
    svg = tmp_path / "t.svg"
    for args in (
        ("paths", "dr:2,3,1,2,3", "-1"),
        ("paths", "dr:2,3,1,2,3", "-1", "--out", str(tmp_path / "p.json")),
        ("render", "dr:2,3,1,2,3", "-1"),
        ("render", "dr:2,3,1,2,3", "-1", "--overlay", "paths", "--out", str(svg)),
    ):
        result = run(*args)
        assert result.exit_code == 2
        assert "tiling index -1 out of range" in result.output
    assert not svg.exists()
    # the options still parse around an index
    result = run("render", "dr:2,3,1,2,3", "3", "--overlay", "paths", "--out", str(svg))
    assert result.exit_code == 0 and "<svg" in svg.read_text()


def test_sweep_budget_exits_two_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept before checking the budget")

    monkeypatch.setattr(engine, "_sweep", no_sweep)
    # dr:1,2,0,11,12, the 77th tuple of at most 300 cells, is the first over the budget
    for args in (
        ("genfun", "ad:12"),
        ("verify", "aztec", "--max", "12"),
        ("verify", "main", "--max", "300"),
    ):
        start = time.perf_counter()
        result = run(*args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "sweep cost" in result.output and "over the budget" in result.output


def test_listing_budget_exits_two_before_any_listing(monkeypatch, tmp_path):
    def no_listing(*args):
        raise AssertionError("listed tilings before checking the budget")

    monkeypatch.setattr(stats.rank_table, "__wrapped__", no_listing)
    monkeypatch.setattr(engine, "_matchings", no_listing)
    start = time.perf_counter()
    result = run("verify", "rank", "--max", "80")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert "over the budget of 100000" in result.output
    # a tiling index lists nothing: dr:1,6,1,3,8 has 150,528 tilings, and
    # indices past the listing budget give the enumerator's tilings
    picks = (
        ("paths", "dr:1,6,1,3,8", "100000", "--out", "{out}.json"),
        ("render", "dr:1,6,1,3,8", "150527", "--out", "{out}.svg"),
    )
    for args in picks:
        result = run(*(a.format(out=tmp_path / "unranked") for a in args))
        assert result.exit_code == 0, result.output
    monkeypatch.undo()

    def listed(region, index):
        return next(itertools.islice(engine.enumerate_tilings(region), index, None))

    monkeypatch.setattr(cli, "tiling_at", listed)
    for args in picks:
        assert run(*(a.format(out=tmp_path / "listed") for a in args)).exit_code == 0
    for suffix in (".json", ".svg"):
        unranked = (tmp_path / "unranked").with_suffix(suffix).read_bytes()
        assert unranked == (tmp_path / "listed").with_suffix(suffix).read_bytes()


def test_index_budget_exits_two_before_any_determinant(monkeypatch):
    def no_work(*args):
        raise AssertionError("took a determinant or a pass before checking the budget")

    monkeypatch.setattr(engine._unit_det, "__wrapped__", no_work)
    monkeypatch.setattr(engine._completions, "__wrapped__", no_work)
    for args in (
        ("render", "ad:10", "0", "--out", os.devnull),
        ("paths", "dr:5,8,3,6,9", "0"),
    ):
        start = time.perf_counter()
        result = run(*args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "tiling index cost" in result.output and "over the budget of 2e+07" in result.output


# strings that json escapes: quotes, backslashes, control characters, non-ASCII
texts = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é\u2028😀"])
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | texts,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(texts, kids, max_size=4),
    max_leaves=24,
)


@given(json_docs)
@example({"": [], "empty": {}, "tuple": (), "true": True, "one": 1, "none": None})
@example([True, 1, False, 0, -(10**30), '"\\/\b\f\n\r\t\x01é\u2028😀', {"é": ["\x7f"]}])
def test_the_emitter_writes_the_text_of_json_dumps_indent_2(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@given(polys, polys)
def test_the_emitter_writes_a_polynomial_as_its_json_form_at_any_depth(p, q):
    doc = {"p": p, "list": [q, {"p": p}], "q": q}
    p_obj, q_obj = to_json_obj(p), to_json_obj(q)
    oracle = {"p": p_obj, "list": [q_obj, {"p": p_obj}], "q": q_obj}
    assert cli._dumps(doc) == json.dumps(oracle, indent=2)
    assert cli._dumps(p) == json.dumps(to_json_obj(p), indent=2)


def test_the_emitter_formats_a_polynomial_once_per_depth():
    formatted = []

    class Counted(LaurentPoly2):
        def items(self):
            formatted.append(self)
            return super().items()

    p = Counted({(0, 0): 1, (2, 2): 3})
    oracle = json.dumps({"enumeration": to_json_obj(p), "formula": to_json_obj(p)}, indent=2)
    formatted.clear()
    assert cli._dumps({"enumeration": p, "formula": p}) == oracle
    assert len(formatted) == 1
    cli._dumps({"enumeration": p, "nested": [p]})
    assert len(formatted) == 3


@pytest.mark.parametrize("value", [1.5, {1, 2}, object(), [0, {"x": 0.0}], {"x": frozenset()}])
def test_the_emitter_rejects_any_other_type(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._dumps({"value": value})


EMITTED = [
    ("count", "ad:4"),
    ("formula", "dr:2,3,1,3,4"),
    ("genfun", "dr:2,3,1,3,4"),
    ("paths", "dr:2,3,1,2,3", "639"),
    ("rank", "dr:2,4,1,2,4"),
    ("verify", "aztec", "--max", "4"),
    ("verify", "main", "--max", "30"),
    ("verify", "macmahon", "--max", "2"),
    ("verify", "weighted", "--trials", "1"),
    ("verify", "lemmas", "--trials", "3"),
    ("verify", "rank", "--max", "24"),
    ("verify", "paths"),
]


def _canonical(text):
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("args", EMITTED, ids=" ".join)
def test_every_json_document_is_the_text_of_json_dumps_indent_2(args, tmp_path):
    result = run(*args)
    assert result.exit_code == 0
    assert result.output == _canonical(result.output)
    out = tmp_path / "doc.json"
    result = run(*args, "--out", str(out))
    assert result.exit_code == 0 and result.output == ""
    text = out.read_text(encoding="utf-8")
    assert text == _canonical(text)


def test_the_emitted_documents_cover_every_command(tmp_path):
    assert {args[0] for args in EMITTED} | {"render"} == set(cli.COMMANDS)
    result = run("render", "dr:2,3,1,2,3", "17", "--out", str(tmp_path / "t.svg"))
    assert result.exit_code == 0
    assert result.output == _canonical(result.output)
