"""The benchmark's command lists, its own reference answers and the gate.

A workload is a fixed list of CLI invocations.  The seed only feeds the
randomized suites (``--seed`` of ``verify weighted`` and ``verify lemmas``)
and picks tiling indices for ``paths`` and ``render``; the command count and
every expected verdict are the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
from math import comb
from typing import NamedTuple

#: Region whose tilings ``paths`` and ``render`` pick by seeded index.
PICK_REGION = "dr:2,3,1,2,3"

class Command(NamedTuple):
    args: tuple[str, ...]
    expect: dict  # what the gate checks beyond exit code 0 and status "ok"


def boxed_plane_partitions(a: int, b: int, c: int) -> int:
    """MacMahon's product prod_{i<=a, j<=b} (i+j+c-1)/(i+j-1)."""
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"MacMahon product for {(a, b, c)} is not an integer")
    return value


def reference_count(spec: str) -> int:
    """Tiling count from the closed forms, computed without the package."""
    tag, _, rest = spec.partition(":")
    nums = [int(p) for p in rest.split(",")]
    if tag == "ad":
        (n,) = nums
        return 2 ** (n * (n + 1) // 2)
    if tag == "hex":
        return boxed_plane_partitions(*nums)
    if tag == "dr":
        m1, n1, k, m2, n2 = nums
        return 2 ** (comb(m1 + 1, 2) + comb(m2 + 1, 2)) * boxed_plane_partitions(
            n1 - m1, m2 - k + 1, m1 + k
        )
    raise ValueError(f"no reference count for {spec!r}")


def _count(spec):
    return Command(("count", spec), {"count": reference_count(spec)})


def _verify(suite, *opts, cases):
    return Command(("verify", suite, *opts), {"cases": cases})


def _dr_params(spec):
    return tuple(int(p) for p in spec.partition(":")[2].split(","))


def _dr_paths(spec):
    m1, n1, k, m2, n2 = _dr_params(spec)
    return m2 + n1


def _dr_dominoes(spec):
    m1, n1, k, m2, n2 = _dr_params(spec)
    return (2 * m1 * n1 + m1 + n1 + 2 * m2 * n2 + m2 + n2) // 2


def commands(workload: str, seed: int) -> list[Command]:
    rng = random.Random(seed)
    if workload == "counts":
        return [
            _count("ad:6"),
            _count("ad:7"),
            _count("ad:8"),
            _count("dr:3,6,2,3,6"),
            _count("dr:3,5,1,3,5"),
            _count("hex:3,3,3"),
            _count("hex:4,3,3"),
            _verify("macmahon", "--max", "3", cases=27),
            _verify("weighted", "--trials", "10", "--seed", str(seed), cases=5),
            _verify("lemmas", "--trials", "100", "--seed", str(seed), cases=4),
        ]
    if workload == "ranks":
        picks = rng.sample(range(reference_count(PICK_REGION)), 3)
        npaths = _dr_paths(PICK_REGION)
        return [
            _verify("rank", "--max", "32", cases=28),
            Command(("rank", "dr:2,4,1,2,4"), {"tilings": reference_count("dr:2,4,1,2,4")}),
            Command(("rank", "ad:4"), {"tilings": reference_count("ad:4")}),
            _verify("paths", cases=5),
            Command(("paths", PICK_REGION, "minimal"), {"paths": npaths}),
            Command(("paths", PICK_REGION, str(picks[0])), {"paths": npaths}),
            Command(("paths", PICK_REGION, str(picks[1])), {"paths": npaths}),
            Command(
                ("render", PICK_REGION, str(picks[2]), "--overlay", "paths", "--out", "{out}"),
                {"svg": _dr_dominoes(PICK_REGION)},
            ),
        ]
    if workload == "genfuns":
        return [
            Command(("genfun", "ad:4"), {"verdict": "ok"}),
            Command(("genfun", "dr:2,4,1,2,4"), {"verdict": "ok"}),
            Command(("genfun", "dr:3,3,1,3,3"), {"verdict": "ok"}),
            Command(("genfun", "dr:2,3,1,3,4"), {"verdict": "ok"}),
            _verify("main", cases=5),
            _verify("aztec", "--max", "6", cases=6),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(cmd: Command, code: int, stdout: str, formula: dict, out_path: str | None) -> str | None:
    """None when the answer is right, else the reason it is wrong.

    ``formula`` maps a region spec to the count the ``formula`` command
    printed for it.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    exp = cmd.expect
    if "cases" in exp:
        if doc.get("failures") != 0:
            return f"{doc.get('failures')} failed cases"
        cases = doc.get("cases", [])
        if len(cases) != exp["cases"] or not all(c.get("ok") is True for c in cases):
            return f"expected {exp['cases']} passing cases, got {len(cases)}"
    if "count" in exp:
        if doc.get("count") != exp["count"]:
            return f"count {doc.get('count')} != reference {exp['count']}"
        if doc["count"] != formula.get(cmd.args[1]):
            return f"count {doc['count']} != formula {formula.get(cmd.args[1])}"
    if "verdict" in exp and doc.get("verdict") != exp["verdict"]:
        return f"verdict {doc.get('verdict')!r}"
    if "tilings" in exp:
        ranks = doc.get("ranks", {})
        if doc.get("tilings") != exp["tilings"] or sum(ranks.values()) != exp["tilings"]:
            return f"rank table holds {doc.get('tilings')} tilings, expected {exp['tilings']}"
        if ranks.get("0") != 1:
            return "rank 0 is not held by exactly one tiling"
    if "paths" in exp and len(doc.get("paths", [])) != exp["paths"]:
        return f"expected {exp['paths']} paths"
    if "svg" in exp:
        if not out_path or not os.path.isfile(out_path):
            return "render wrote no file"
        with open(out_path, encoding="utf-8") as fh:
            svg = fh.read()
        if "<svg " not in svg or not svg.rstrip().endswith("</svg>"):
            return "render output is not an SVG document"
        if svg.count("<rect x=") != exp["svg"]:
            return f"SVG does not draw {exp['svg']} dominoes"
    return None
