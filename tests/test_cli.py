"""Command-line contract: JSON schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from click.testing import CliRunner

import aztecbridge
from aztecbridge import cli, stats
from aztecbridge.cli import main

runner = CliRunner()


def run(*args):
    return runner.invoke(main, list(args))


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


def test_domain_error_exit_code_survives_optimized_mode():
    src = str(Path(aztecbridge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aztecbridge.cli", "rank", "ar:2x3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "no tilings" in proc.stderr


def test_genfun_reports_convention():
    result = run("genfun", "ad:1")
    doc = json.loads(result.output)
    assert result.exit_code == 0
    assert doc["matched_conventions"] == ["proof"] or set(
        doc["matched_conventions"]
    ) == {"proof", "statement"}
    assert doc["enumeration"] == [[0, 0, "1"], [2, 2, "1"]]  # 1 + tq


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


def test_verify_is_seed_deterministic():
    a = run("verify", "weighted", "--trials", "2", "--seed", "9").output
    b = run("verify", "weighted", "--trials", "2", "--seed", "9").output
    assert a == b


def test_verify_weighted_honours_max():
    result = run("verify", "weighted", "--max", "60")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["status"] == "ok" and doc["failures"] == 0
    assert len(doc["cases"]) == 96 and all(c["trials"] == 5 for c in doc["cases"])
    fixed = json.loads(run("verify", "weighted").output)["cases"]
    assert [tuple(c["params"]) for c in fixed] == list(cli.SUITE_TUPLES)


def test_tiling_index_is_bounded_before_enumeration(monkeypatch):
    def no_enumeration(region):
        raise AssertionError("enumerated an out-of-range index")

    monkeypatch.setattr(cli, "enumerate_tilings", no_enumeration)
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
    def no_fill(*args):
        raise AssertionError("filled a column before checking the budget")

    monkeypatch.setattr(stats, "_fill_column", no_fill)
    for args in (("genfun", "ad:11"), ("verify", "aztec", "--max", "11")):
        start = time.perf_counter()
        result = run(*args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "the q-weighted sweep is bounded at" in result.output
