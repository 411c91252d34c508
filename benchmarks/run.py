"""Benchmark of the aztecbridge command line over fixed command lists.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload counts --seed 20240 --seconds 30 --trace 0

``--workload`` is one of the workloads in BENCHMARK.json, or ``all``.  Every
command runs ``aztecbridge.cli:main`` in-process with its stdout captured, in
a child forked from a parent that has only imported the package, one child at
a time, so no command inherits state (such as a module-level cache) from an
earlier one.  Rounds over the command list repeat until ``--seconds`` would
be exceeded.  Every answer is checked (see workloads.check).  Reported times
are rescaled to a reference host speed (see hostspeed.py).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
untraced and traced rounds alternate and the run reports the per-layer
metrics of the traced rounds (see tracer.py).  A summary of every metric,
its unit and its sample count goes to stderr; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when any answer is wrong and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for setup_s.
SETUP_REPS = 9

# The calibration runs after the import, so it cannot pre-import anything.
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import aztecbridge.cli; dt = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
    "import hostspeed; print(hostspeed.after_import_scale(dt))"
)


def load_spec() -> dict:
    """The benchmark declaration: workloads and metric names with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_cli():
    """Import aztecbridge.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "aztecbridge" / "cli.py").is_file():
        raise FileNotFoundError(f"no aztecbridge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import aztecbridge.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"aztecbridge was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(reps: int) -> list[float]:
    """Host-scaled seconds to import aztecbridge.cli, each in a fresh interpreter."""
    code = _IMPORT_TIMER.format(src=str(SRC), here=str(HERE))
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", code],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        out.append(float(proc.stdout))
    return out


def in_child(fn):
    """Run fn() in a forked child; return its JSON result and its peak RSS in KiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(fn()).encode())
            status = 0
        except Exception:
            traceback.print_exc()
        finally:  # the child must never return into the parent's code
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise RuntimeError(f"benchmark child exited with status {status}")
    return json.loads(data), usage.ru_maxrss


def invoke(cli, args: list[str], traced: bool = False) -> dict:
    """Run one CLI command in this process: exit code, stdout, wall time.

    ``wall`` excludes the host-speed samples taken during the command;
    ``time`` and the traced self times are rescaled by them.
    """
    import click

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    buf = io.StringIO()
    code = 0
    speed = hostspeed.Sampler()
    speed.start()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer:
                rv = tracer.call("cli." + args[0], cli.main, args, standalone_mode=False)
            else:
                rv = cli.main(args, standalone_mode=False)
        if isinstance(rv, int):
            code = rv
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:
        traceback.print_exc()
        code = 1
    wall = perf_counter() - t0 - speed.inside_s
    speed.stop()
    if tracer:
        tracer.uninstall()
    result = {"code": code, "stdout": buf.getvalue(), "wall": wall, "time": speed.scale(wall)}
    if tracer:
        result["trace"] = {
            k: speed.scale(v) if k.endswith(".self_s") else v
            for k, v in tracer.summary().items()
        }
    return result


def formula_counts(cli, cmds) -> dict:
    """Count printed by the ``formula`` command for every spec that is counted."""
    out = {}
    for cmd in cmds:
        if "count" in cmd.expect:
            spec = cmd.args[1]
            res, _ = in_child(lambda: invoke(cli, ["formula", spec]))
            if res["code"] == 0:
                out[spec] = json.loads(res["stdout"]).get("count")
    return out


def run_round(cli, cmds, traced, formula, outdir) -> list[dict]:
    """Each command once, in its own child, with its answer checked."""
    out_path = os.path.join(outdir, "tiling.svg")
    results = []
    for cmd in cmds:
        args = [a.replace("{out}", out_path) for a in cmd.args]
        try:
            res, rss_kib = in_child(lambda: invoke(cli, args, traced))
            error = workloads.check(cmd, res["code"], res["stdout"], formula, out_path)
        except RuntimeError as exc:  # the child died; its figures are meaningless
            res, rss_kib, error = {"wall": 0.0, "time": 0.0, "trace": {}}, 0, str(exc)
        if os.path.exists(out_path):
            os.remove(out_path)
        if error:
            print(f"FAILED {' '.join(cmd.args)}: {error}", file=sys.stderr)
        results.append({**res, "stdout": None, "rss_kib": rss_kib, "error": error})
    return results


def per_command(rounds, key: str = "time") -> list[list[float]]:
    """One list per command of its values across rounds."""
    return [[r[key] for r in col] for col in zip(*rounds)]


def batch_seconds(rounds, key: str = "time") -> float:
    """Sum over commands of each command's median time."""
    return sum(statistics.median(col) for col in per_command(rounds, key))


def end_to_end(cmds, plain, setup):
    n = len(plain)
    peak_kib = max(statistics.median(r["rss_kib"] for r in col) for col in zip(*plain))
    metrics = {
        "setup_s": statistics.median(setup),
        "batch_s": batch_seconds(plain),
        "peak_rss_mb": peak_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "batch_s": f"sum of {len(cmds)} per-command medians over {n} rounds"
        f" (unscaled wall: {batch_seconds(plain, 'wall'):.4f} s)",
        "peak_rss_mb": f"max of {len(cmds)} per-command medians over {n} rounds",
    }
    return metrics, notes


def per_layer(declared, plain, traced_rounds):
    """Per-layer metrics; None when a counter differs between traced rounds."""
    totals = [sum((Counter(r["trace"]) for r in rnd), Counter()) for rnd in traced_rounds]
    counters = [{k: v for k, v in t.items() if not k.endswith(".self_s")} for t in totals]
    if any(c != counters[0] for c in counters):
        return None, None
    count = counters[0]
    k = len(totals)
    metrics, notes = {}, {}
    for m in declared:
        key = m["name"]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(t.get(key, 0.0) for t in totals)
            notes[key] = f"median of {k} traced rounds"
        elif key == "stats.minimal_tiling.regions_per_call":
            calls = count.get("stats.minimal_tiling.calls", 0)
            metrics[key] = count.get("stats.minimal_tiling.regions", 0) / calls if calls else 0.0
            notes[key] = "distinct regions / calls"
        elif key == "trace.overhead_frac":
            metrics[key] = batch_seconds(traced_rounds) / batch_seconds(plain) - 1
            notes[key] = f"{k} traced vs {len(plain)} untraced rounds"
        else:
            metrics[key] = count.get(key, 0)
            notes[key] = "exact count, same in every traced round"
    return metrics, notes


def run_workload(cli, spec: dict, name: str, seed: int, seconds: float, traced: bool):
    cmds = workloads.commands(name, seed)
    formula = formula_counts(cli, cmds)
    plain, traced_rounds, setup = [], [], []
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="render-", dir=ROOT / ".bench_build")
    try:
        start = perf_counter()
        last = 0.0
        while not plain or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            if not traced:
                setup += measure_setup(2)
            plain.append(run_round(cli, cmds, False, formula, outdir))
            if traced:
                traced_rounds.append(run_round(cli, cmds, True, formula, outdir))
            last = perf_counter() - t0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if not traced and len(setup) < SETUP_REPS:
        setup += measure_setup(SETUP_REPS - len(setup))

    every = [r for rnd in plain + traced_rounds for r in rnd]
    attempted = len(every)
    failed = sum(1 for r in every if r["error"])
    if traced:
        declared = spec["per_layer"]
        metrics, notes = per_layer(declared, plain, traced_rounds)
    else:
        declared = spec["end_to_end"]
        metrics, notes = end_to_end(cmds, plain, setup)
    units = {m["name"]: m["unit"] for m in declared}

    lines = [
        f"workload {name}  seed {seed}  {len(cmds)} commands  {len(plain)} untraced rounds"
        + (f"  {len(traced_rounds)} traced rounds" if traced else ""),
        f"  {'fail_frac':<42} {failed / attempted:<14.6g} {'frac':<6}"
        f" {failed} of {attempted} commands",
    ]
    if metrics is None:
        lines.append("  counters differ between traced rounds")
    else:
        for key, value in metrics.items():
            lines.append(f"  {key:<42} {value:<14.6g} {units[key]:<6} {notes[key]}")
    lines.append("  untraced median per command (s): host-scaled, unscaled wall")
    for cmd, scaled, wall in zip(cmds, per_command(plain), per_command(plain, "wall")):
        med, med_wall = statistics.median(scaled), statistics.median(wall)
        lines.append(f"    {med:8.4f} {med_wall:8.4f}  {' '.join(cmd.args)}")
    print("\n".join(lines), file=sys.stderr)
    return {
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in (metrics or {}).items()},
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    try:
        cli = load_cli()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chosen = names if opts.workload == "all" else [opts.workload]
    results = {
        w: run_workload(cli, spec, w, opts.seed, opts.seconds, bool(opts.trace)) for w in chosen
    }
    if opts.workload == "all":
        doc = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        doc = results[opts.workload]
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
