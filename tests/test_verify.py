"""The verification module's tuple generator, suite names and defaults, and rank and path suites."""

import functools
import inspect
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from aztecbridge import engine, paths, regions, stats, verify
from aztecbridge.paths import DOWN, LEVEL, UP, tiling_to_paths
from aztecbridge.regions import ConstraintError, _check_dr_params, build_double_rectangle
from aztecbridge.verify import (
    SUITE_TUPLES,
    small_double_rectangles,
    suite_paths,
    suite_rank,
    suite_tuples,
)
from test_cli import run
from test_rational import as_fraction


def _valid(tup):
    try:
        _check_dr_params(*tup)
    except ConstraintError:
        return False
    return True


def test_the_generator_yields_every_valid_tuple_in_a_box():
    for max_cells in (48, 60):
        # an m x n Aztec rectangle has at least 3n + 1 cells, so no side exceeds max_cells / 3
        side = range(max_cells // 3 + 1)
        brute = [
            (m1, n1, k, m2, n2)
            for m1, n1, m2, n2 in itertools.product(side, repeat=4)
            if 2 * m1 * n1 + m1 + n1 + 2 * m2 * n2 + m2 + n2 <= max_cells
            for k in side
            if _valid((m1, n1, k, m2, n2))
        ]
        assert list(small_double_rectangles(max_cells)) == sorted(brute)
    assert len(list(small_double_rectangles(48))) == 80
    assert len(list(small_double_rectangles(60))) == 118


def test_the_generator_is_lazy_sorted_and_within_the_spec_budget():
    tuples = list(small_double_rectangles(300))
    assert tuples == sorted(set(tuples))
    # the first tuple of the largest bound comes with no later one listed
    assert next(small_double_rectangles(regions.MAX_SPEC_CELLS)) == (1, 1, 0, 1, 1)
    with pytest.raises(ConstraintError, match="over the spec budget of 10000"):
        next(small_double_rectangles(regions.MAX_SPEC_CELLS + 1))


def test_suite_tuples_fall_back_to_the_fixed_tuples():
    assert suite_tuples(None) is SUITE_TUPLES
    assert list(suite_tuples(30)) == list(small_double_rectangles(30))


def test_each_suite_names_the_options_it_reads_with_their_defaults():
    defaults = {
        "macmahon": {"bound": 3},
        "aztec": {"bound": 6},
        "main": {"bound": None},
        "weighted": {"trials": 5, "seed": 20240, "bound": None},
        "lemmas": {"trials": 50, "seed": 20240},
        "rank": {"bound": 40},
        "paths": {},
    }
    assert verify.SUITES == tuple(defaults)
    for name in verify.SUITES:
        params = inspect.signature(getattr(verify, "suite_" + name)).parameters
        assert set(params) <= {"bound", "trials", "seed"}
        assert {k: p.default for k, p in params.items()} == defaults[name]


def test_verify_runs_the_suite_bound_on_the_module_when_it_runs(monkeypatch):
    calls = []

    def fake(bound=None, trials=1):
        calls.append((bound, trials))
        return [{"fake": True, "ok": True}]

    monkeypatch.setattr(verify, "suite_main", fake)
    result = run("verify", "main", "--max", "9")
    assert result.exit_code == 0
    assert json.loads(result.output)["cases"] == [{"fake": True, "ok": True}]
    assert calls == [(9, 1)]  # only the options given, the rest by default
    # the signature of the suite bound now decides which options it reads
    assert run("verify", "main", "--trials", "2").exit_code == 0
    assert calls == [(9, 1), (None, 2)]
    result = run("verify", "main", "--seed", "3")
    assert result.exit_code == 2 and "verify main does not read --seed" in result.output


def test_verify_reads_the_options_of_a_wrapped_suite_off_the_function_it_wraps(monkeypatch):
    calls = []

    def fake(bound=None):
        calls.append(bound)
        return [{"fake": True, "ok": True}]

    @functools.wraps(fake)
    def wrapper(*args, **kwargs):  # as a tracer or a decorator wraps a suite
        return fake(*args, **kwargs)

    monkeypatch.setattr(verify, "suite_main", wrapper)
    assert run("verify", "main", "--max", "9").exit_code == 0
    assert calls == [9]
    result = run("verify", "main", "--trials", "2")
    assert result.exit_code == 2 and "verify main does not read --trials" in result.output


def test_a_flip_bfs_that_misses_a_tiling_fails_its_case(monkeypatch):
    real = stats.rank_table.__wrapped__

    def dropping(region):  # one BFS misses a tiling of nonzero rank
        table = dict(real(region))
        if region.params == (1, 2, 1, 1, 2):
            del table[next(t for t, r in table.items() if r)]
        return table

    monkeypatch.setattr(stats.rank_table, "__wrapped__", dropping)
    cases = suite_rank(32)
    assert [c["params"] for c in cases if not c["ok"]] == [[1, 2, 1, 1, 2]]
    result = run("verify", "rank", "--max", "32")
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["status"] == "mismatch" and doc["failures"] == 1


def _no_listing(later):
    raise AssertionError("listed tilings outside the flip BFS")


def test_suite_rank_builds_and_counts_each_region_once_and_lists_no_tiling(monkeypatch):
    builds, dets = [], []
    build, det = verify.build_double_rectangle, engine._unit_det.__wrapped__
    monkeypatch.setattr(verify, "build_double_rectangle", lambda *t: builds.append(t) or build(*t))
    monkeypatch.setattr(engine._unit_det, "__wrapped__", lambda r: dets.append(r.params) or det(r))
    monkeypatch.setattr(engine, "_matchings", _no_listing)
    cases = suite_rank(32)
    assert len(cases) == 28 and all(c["ok"] for c in cases)
    assert sum(c["tilings"] for c in cases) == 2_468
    assert len(builds) == 28 and sorted(set(builds)) == builds
    assert sorted(dets) == sorted(builds)


def test_suite_lemmas_builds_each_rectangle_once(monkeypatch):
    builds, matched = [], []
    build, genfun = regions.build_aztec_rectangle, verify.matching_genfun

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(regions, "build_aztec_rectangle", counting)
    monkeypatch.setattr(verify, "build_aztec_rectangle", counting)
    monkeypatch.setattr(verify, "matching_genfun", lambda g: matched.append(g) or genfun(g))
    cases = verify.suite_lemmas(100, 20240)
    assert len(cases) == 4 and all(c["ok"] for c in cases)
    assert len(builds) <= 5
    assert len(matched) == 700
    assert sum(len(g.vertices) for g in matched) == 6_050


def test_suite_lemmas_reduces_spider_cells_of_both_signs(monkeypatch):
    deltas = []
    real = verify.spider_reduce

    def recording(graph, inner):
        reduced, delta = real(graph, inner)
        deltas.append(as_fraction(delta))
        return reduced, delta

    monkeypatch.setattr(verify, "spider_reduce", recording)
    cases = verify.suite_lemmas(100, 20240)
    assert len(cases) == 4 and all(c["ok"] for c in cases)
    assert len(deltas) == 100
    assert sum(d < 0 for d in deltas) >= 20 and sum(d > 0 for d in deltas) >= 20


def test_a_draw_returns_what_building_the_fraction_returned():
    rng, reference = random.Random(20240), random.Random(20240)
    signed, positive = verify._draw_table(), verify._draw_table(positive=True)
    assert len(signed) == len(positive) == 78

    def built():
        while True:
            v = Fraction(reference.randint(-6, 6), reference.randint(1, 6))
            if v:
                return v

    for i in range(1_000):
        expected = built()
        got = verify._draw(rng, positive) if i % 3 == 0 else verify._draw(rng, signed)
        assert as_fraction(got) == (abs(expected) if i % 3 == 0 else expected)
        assert type(got) is tuple
    assert rng.getstate() == reference.getstate()


def test_suite_rank_releases_each_region_after_its_case(monkeypatch):
    refs = []
    real = verify._rank_case

    def checking(region):
        assert all(ref() is None for ref in refs), "an earlier region is still alive"
        refs.append(weakref.ref(region))
        return real(region)

    monkeypatch.setattr(verify, "_rank_case", checking)
    assert len(suite_rank(24)) == len(refs) > 1


def test_suite_paths_lists_no_tiling(monkeypatch):
    monkeypatch.setattr(engine, "_matchings", _no_listing)
    cases = suite_paths()
    assert [c["params"] for c in cases] == [list(t) for t in SUITE_TUPLES]
    assert all(c["ok"] for c in cases)
    assert sum(c["tilings"] for c in cases) == 1_464


def test_a_flip_bfs_that_misses_a_tiling_fails_its_paths_case(monkeypatch):
    real = stats.rank_table.__wrapped__

    def dropping(region):  # one BFS misses a tiling of nonzero rank
        table = dict(real(region))
        if region.params == (2, 3, 0, 2, 3):
            del table[next(t for t, r in table.items() if r)]
        return table

    monkeypatch.setattr(stats.rank_table, "__wrapped__", dropping)
    assert [c["params"] for c in suite_paths() if not c["ok"]] == [[2, 3, 0, 2, 3]]


def test_an_inverted_colour_rule_stops_the_bfs_at_the_minimal_tiling(monkeypatch):
    real = stats._raising_flips
    inverted = lambda region: [(both ^ pair, both) for pair, both in real(region)]
    monkeypatch.setattr(stats, "_raising_flips", inverted)
    region = build_double_rectangle(2, 3, 1, 2, 3)
    assert list(stats.rank_table(region)) == [stats.minimal_tiling(region)]
    assert not verify._rank_case(region)["ok"]
    result = run("verify", "rank", "--max", "20")
    assert result.exit_code == 1
    cases = json.loads(result.output)["cases"]
    assert cases and not any(c["ok"] for c in cases)


def test_the_bfs_masks_carry_the_families_of_the_enumerated_tilings():
    for tup in SUITE_TUPLES:
        region = build_double_rectangle(*tup)
        bfs = {tiling_to_paths(region, mask) for mask in stats.rank_table(region)}
        listed = {tiling_to_paths(region, t) for t in engine.enumerate_tilings(region)}
        assert bfs == listed, tup
        assert len(bfs) == engine.count_tilings(region)


def test_the_decorated_dominoes_of_a_bfs_mask_are_its_family_and_its_step_counts():
    for tup in SUITE_TUPLES:
        region = build_double_rectangle(*tup)
        tables = paths._path_tables(region)
        up, down, level = paths.step_masks(region)
        masks = {UP: up, DOWN: down, LEVEL: level}
        assert all(masks[letter] & bit for bit, (_, letter, _) in tables.steps.items())
        assert up + down + level == tables.decorated
        for mask in stats.rank_table(region):
            family = tiling_to_paths(region, mask)
            segments = [
                (p, q) for path in family.paths for p, q in zip(path.points, path.points[1:])
            ]
            bits = mask & tables.decorated
            assert len(segments) == len(set(segments)) == bits.bit_count(), tup
            letters = [tables.steps[1 << i][1] for i in range(bits.bit_length()) if bits >> i & 1]
            assert sorted(letters) == sorted(s for path in family.paths for s in path.steps)


def test_suite_paths_builds_no_path(monkeypatch):
    def no_path(*args):
        raise AssertionError("built a path for a BFS mask")

    monkeypatch.setattr(paths, "SchroederPath", no_path)
    cases = suite_paths()
    assert len(cases) == 5 and all(c["ok"] for c in cases)
    assert sum(c["tilings"] for c in cases) == 1_464


def _without_level_dominoes(monkeypatch):
    real = verify.step_masks
    monkeypatch.setattr(verify, "step_masks", lambda region: (*real(region)[:2], 0))


def _with_an_empty_up_mask(monkeypatch):
    real = verify.step_masks
    monkeypatch.setattr(verify, "step_masks", lambda region: (0, *real(region)[1:]))


def _with_the_path_length_off_by_one(monkeypatch):
    real = verify._path_length
    monkeypatch.setattr(verify, "_path_length", lambda *tup: real(*tup) + 1)


@pytest.mark.parametrize(
    "mutate",
    [_without_level_dominoes, _with_an_empty_up_mask, _with_the_path_length_off_by_one],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_a_broken_path_check_fails_every_case_of_both_suites(monkeypatch, mutate):
    mutate(monkeypatch)
    for cases in (suite_rank(24), suite_paths()):
        assert len(cases) > 1 and not any(c["ok"] for c in cases)
