"""Tests of the benchmark's own code: tracer arithmetic, patching, gate, seeds.

Run with ``python3 -m pytest benchmarks`` from the repository root.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import workloads
from tracer import POLY_METHODS, Tracer, self_times

cli = run.load_cli()

from aztecbridge import engine, polyring, regions, stats  # noqa: E402


def _module_attrs():
    mods = {n: m for n, m in sys.modules.items() if n.startswith("aztecbridge")}
    attrs = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    attrs.update({("LaurentPoly2", a): v for a, v in vars(polyring.LaurentPoly2).items()})
    return attrs


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", None, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["c", 3, 6.0, 6.5],
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.0, "b": 5.5, "c": 1.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_install_then_uninstall_leaves_module_attributes_identical():
    before = _module_attrs()
    tracer = Tracer()
    tracer.install()
    try:
        # rebound in the defining module and wherever it was imported by name
        assert engine.enumerate_tilings is not before[("aztecbridge.engine", "enumerate_tilings")]
        assert cli.count_tilings is not before[("aztecbridge.cli", "count_tilings")]
        assert stats.minimal_tiling.__wrapped__ is before[("aztecbridge.stats", "minimal_tiling")]
        for attr in POLY_METHODS:
            assert vars(polyring.LaurentPoly2)[attr] is not before[("LaurentPoly2", attr)]
        # hot helpers and the CLI's own functions stay as they are
        assert engine.is_vertical is before[("aztecbridge.engine", "is_vertical")]
        assert cli.tq_sum is before[("aztecbridge.cli", "tq_sum")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _module_attrs()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_counters_on_the_order_two_diamond():
    region = regions.parse_spec("ad:2")
    tracer = Tracer()
    tracer.install()
    try:
        tilings = list(engine.enumerate_tilings(region))
        table = stats.rank_table(region)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert len(tilings) == 8 and len(table) == 8
    assert summary["engine.enumerate_tilings.calls"] == 1
    assert summary["engine.enumerate_tilings.items"] == 8
    assert summary["stats.rank_table.calls"] == 1
    assert summary["stats.rank_table.entries"] == 8
    # one span per next(), including the one that ends the generator
    assert sum(1 for s in tracer.spans if s[0] == "engine.enumerate_tilings") == 9


def test_polynomial_multiply_counts_term_products():
    a = polyring.LaurentPoly2({(0, 0): 1, (2, 2): 1})
    b = polyring.LaurentPoly2({(0, 0): 1, (2, 0): 3, (0, 4): 1})
    tracer = Tracer()
    tracer.install()
    try:
        product = a * b
    finally:
        tracer.uninstall()
    assert product == polyring.LaurentPoly2.__mul__(a, b)
    summary = tracer.summary()
    assert summary["polyring.mul.calls"] == 1
    assert summary["polyring.mul.terms"] == 6


def _traced(args):
    res, _ = run.in_child(lambda: run.invoke(cli, args, traced=True))
    return res


def test_traced_command_gives_the_same_answer_and_repeatable_counters():
    args = ["genfun", "dr:1,2,0,1,2"]
    plain, _ = run.in_child(lambda: run.invoke(cli, args))
    first, second = _traced(args), _traced(args)
    assert first["stdout"] == plain["stdout"] == second["stdout"]
    cmd = workloads.Command(tuple(args), {"verdict": "ok"})
    assert workloads.check(cmd, first["code"], first["stdout"], {}, None) is None

    def counters(res):
        return {k: v for k, v in res["trace"].items() if not k.endswith(".self_s")}

    assert counters(first) == counters(second)
    assert counters(first)["stats.rank_table.entries"] == 12
    assert first["trace"]["cli.genfun.self_s"] > 0


@pytest.mark.parametrize("name", ["counts", "ranks", "genfuns"])
def test_second_seed_keeps_the_commands_and_verdicts(name):
    a, b = workloads.commands(name, 1), workloads.commands(name, 2)
    assert len(a) == len(b)
    assert [c.args[:2] for c in a] == [c.args[:2] for c in b]
    assert [c.expect for c in a] == [c.expect for c in b]
    assert workloads.commands(name, 1) == a


def test_seed_feeds_the_randomized_suites():
    vertices = []
    for seed in (1, 2):
        cmd = workloads.Command(
            ("verify", "lemmas", "--trials", "5", "--seed", str(seed)), {"cases": 4}
        )
        res = _traced(list(cmd.args))
        assert workloads.check(cmd, res["code"], res["stdout"], {}, None) is None
        vertices.append(res["trace"]["matchgraph.matching_genfun.vertices"])
    assert vertices[0] != vertices[1]
    seeded = [c.args for c in workloads.commands("counts", 7) if "--seed" in c.args]
    assert [a[1] for a in seeded] == ["weighted", "lemmas"]
    assert all(a[-1] == "7" for a in seeded)


def test_reference_counts():
    assert workloads.reference_count("ad:4") == 1024
    assert workloads.reference_count("hex:2,2,2") == 20
    assert workloads.reference_count("hex:3,3,3") == 980
    assert workloads.reference_count("dr:1,2,0,1,2") == 12
    assert workloads.reference_count("dr:2,3,1,3,4") == 10240


def test_gate_rejects_wrong_answers():
    cmd = workloads.Command(("count", "ad:2"), {"count": 8})
    ok = json.dumps({"schema": 1, "status": "ok", "count": 8})
    assert workloads.check(cmd, 0, ok, {"ad:2": 8}, None) is None
    assert workloads.check(cmd, 2, ok, {"ad:2": 8}, None) == "exit code 2"
    assert "formula" in workloads.check(cmd, 0, ok, {"ad:2": 9}, None)
    wrong = json.dumps({"schema": 1, "status": "ok", "count": 9})
    assert "reference" in workloads.check(cmd, 0, wrong, {"ad:2": 9}, None)
    suite = workloads.Command(("verify", "main"), {"cases": 5})
    failing = json.dumps({"status": "mismatch", "cases": [], "failures": 1})
    assert workloads.check(suite, 0, failing, {}, None) is not None
    short = json.dumps({"status": "ok", "cases": [{"ok": True}], "failures": 0})
    assert workloads.check(suite, 0, short, {}, None) is not None


def test_record_matches_the_code_and_the_declared_metrics():
    record = json.loads((run.HERE / "record.json").read_text())
    spec = run.load_spec()
    seed = record["seed"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    assert list(record["workloads"]) == list(why)
    for name, entry in record["workloads"].items():
        assert entry["commands"] == [" ".join(c.args) for c in workloads.commands(name, seed)]
        assert entry["why"] == why[name]
    assert list(record["layer_targets"]) == [m["name"] for m in spec["per_layer"]]
