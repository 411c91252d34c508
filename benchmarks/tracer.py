"""In-memory span tracer that wraps the public functions of each layer.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every public function of every loaded ``aztecbridge`` module (except ``cli``)
wherever it is bound in any loaded ``aztecbridge`` module, so a call made
through ``from .x import f`` is caught as well.  ``LaurentPoly2`` arithmetic
is patched on the class.  ``uninstall`` puts every original object back.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span (or None).  A generator function gets one span per ``next()``
and counts the items it yields, so the consumer's own work between items is
not charged to the generator.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "aztecbridge"

#: Modules whose own functions are not wrapped.  The CLI is the root span.
UNWRAPPED_MODULES = {"cli"}

#: Inner helpers that run up to a million times per command; wrapping them
#: would make the tracer the hot layer.
HOT_HELPERS = {"engine.is_vertical", "engine.piece", "regions.tri_neighbors"}

#: LaurentPoly2 methods patched on the class, with their span names.
POLY_METHODS = {
    "__mul__": "polyring.mul",
    "__pow__": "polyring.pow",
    "__add__": "polyring.add",
    "__sub__": "polyring.sub",
    "__neg__": "polyring.neg",
    "divide_exact": "polyring.divide_exact",
    "swap_vars": "polyring.swap_vars",
    "scale": "polyring.scale",
    "shift": "polyring.shift",
    "eval_rational": "polyring.eval_rational",
}

#: Spans summed into ``regions.build.self_s``.
REGION_BUILDERS = (
    "regions.parse_spec",
    "regions.build_aztec_diamond",
    "regions.build_aztec_rectangle",
    "regions.build_double_rectangle",
    "regions.build_hexagon",
)


def _meter_rank_table(tracer, args, result):
    tracer.counts["stats.rank_table.entries"] += len(result)


def _meter_minimal_tiling(tracer, args, result):
    region = args[0]
    tracer.seen["stats.minimal_tiling.regions"].add((region.kind, region.params))


def _meter_matching_genfun(tracer, args, result):
    tracer.counts["matchgraph.matching_genfun.vertices"] += len(args[0].vertices)


def _meter_mul(tracer, args, result):
    # term products formed by the schoolbook multiply
    tracer.counts["polyring.mul.terms"] += len(args[0]) * len(args[1])


#: Work counters beyond calls and items, recorded after a call returns.
METERS = {
    "stats.rank_table": _meter_rank_table,
    "stats.minimal_tiling": _meter_minimal_tiling,
    "matchgraph.matching_genfun": _meter_matching_genfun,
    "polyring.mul": _meter_mul,
}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        counts = self.counts
        calls = name + ".calls"
        if inspect.isgeneratorfunction(fn):
            items = name + ".items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[items] += 1
                    yield item

            return gen_wrapper

        meter = METERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counts[calls] += 1
            if meter is not None:
                meter(self, args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer in UNWRAPPED_MODULES:
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in HOT_HELPERS
                ):
                    wrappers[obj] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        poly = sys.modules[PACKAGE + ".polyring"].LaurentPoly2
        for attr, name in POLY_METHODS.items():
            self._set(poly, attr, self.wrap(name, vars(poly)[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Self time per span name, per module and of the region builders, plus counters."""
        out: dict[str, float] = defaultdict(float)
        for name, secs in self_times(self.spans).items():
            out[name + ".self_s"] += secs
            out[name.partition(".")[0] + ".self_s"] += secs
        out["regions.build.self_s"] = sum(out.get(m + ".self_s", 0.0) for m in REGION_BUILDERS)
        out.update(self.counts)
        for key, keys in self.seen.items():
            out[key] = len(keys)
        return dict(out)
