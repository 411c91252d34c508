"""Path decoration: bijectivity, step counts, and area."""

import json
from fractions import Fraction

import pytest
from test_cli import run
from test_engine import decode

from aztecbridge import paths
from aztecbridge.engine import enumerate_tilings, is_vertical
from aztecbridge.paths import (
    DOWN,
    LEVEL,
    UP,
    DecorationError,
    SchroederPath,
    _walk,
    area_ranks,
    step_counts,
    tiling_to_paths,
    underneath_area,
)
from aztecbridge.regions import boundary_markers, build_double_rectangle
from aztecbridge.verify import SUITE_TUPLES

TUPLES = [(1, 2, 0, 1, 2), (1, 2, 1, 1, 2), (2, 3, 1, 2, 3)]


def test_every_tiling_decorates_cleanly():
    for tup in TUPLES:
        m1, n1, k, m2, n2 = tup
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            family = tiling_to_paths(region, t)
            assert len(family.paths) == m2 + n1


def test_paths_join_matching_marker_indices():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    markers = boundary_markers(region)
    for t in enumerate_tilings(region):
        family = tiling_to_paths(region, t)
        for i, path in enumerate(family.paths):
            assert path.points[0] == markers.u[i]
            assert path.points[-1] == markers.v[i]


def test_families_are_disjoint_and_distinct():
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        seen = set()
        for t in enumerate_tilings(region):
            family = tiling_to_paths(region, t)
            pts = [p for path in family.paths for p in path.points]
            assert len(pts) == len(set(pts))  # non-intersecting
            key = tuple(path.points for path in family.paths)
            assert key not in seen  # injective on tilings
            seen.add(key)


def test_step_geometry():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    moves = {UP: (1, 2), DOWN: (1, -2), LEVEL: (2, 0)}
    for t in enumerate_tilings(region):
        for path in tiling_to_paths(region, t).paths:
            for (x0, y0), (x1, y1), s in zip(path.points, path.points[1:], path.steps):
                assert (x1 - x0, y1 - y0) == moves[s]


def test_step_count_identity():
    for tup in TUPLES:
        m1, n1, k, m2, n2 = tup
        g = n1 - m1
        expected = m2 * (m2 + 1) + 2 * g * (m2 - k + 1) + g * (m1 + k) + m1 * (m1 + 1)
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            up, down, level = step_counts(tiling_to_paths(region, t))
            assert up + down + 2 * level == expected


def test_diagonal_steps_count_vertical_dominoes():
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        for t in enumerate_tilings(region):
            up, down, _ = step_counts(tiling_to_paths(region, t))
            assert up + down == sum(map(is_vertical, decode(region, t)))


def test_area_is_a_half_integer_and_rank_difference_whole():
    region = build_double_rectangle(1, 2, 1, 1, 2)
    areas = [
        Fraction(underneath_area(tiling_to_paths(region, t)), 4) for t in enumerate_tilings(region)
    ]
    base = min(areas)
    assert all(((a - base) * 1).denominator == 1 for a in areas)


def test_underneath_area_is_pinned():
    from aztecbridge.stats import minimal_tiling

    region = build_double_rectangle(2, 3, 1, 2, 3)
    tilings = list(enumerate_tilings(region))
    area = lambda t: Fraction(underneath_area(tiling_to_paths(region, t)), 4)
    minimal_area = Fraction(paths._minimal_area(region), 4)
    assert area(minimal_tiling(region)) == minimal_area == Fraction(111, 2)
    assert area(tilings[0]) == Fraction(145, 2)
    assert area(tilings[5]) == Fraction(139, 2)


def test_wrong_kind_is_rejected():
    from aztecbridge.regions import KindError, build_aztec_diamond
    from aztecbridge.stats import minimal_tiling

    region = build_aztec_diamond(2)
    with pytest.raises(KindError):
        tiling_to_paths(region, minimal_tiling(region))


def test_v_marker_index_is_derived_once_per_region():
    region = build_double_rectangle(2, 3, 1, 2, 3)
    tables = paths._path_tables(region)
    assert tables is paths._path_tables(region)
    markers = boundary_markers(region)
    assert markers is boundary_markers(region)
    v_at, points = tables.v_at, tables.points
    assert len(v_at) == len(points)
    assert [v_at[points.index(p)] for p in markers.v] == list(range(len(markers.v)))
    assert sorted(i for i in v_at if i >= 0) == list(range(len(markers.v)))
    assert [points[i] for i in tables.u] == markers.u
    assert list(points) == sorted(points)
    with pytest.raises(TypeError):
        v_at[0] = 0


def _old_segments(region, tiling):
    """The per-tiling segment derivation that the region's table replaced."""
    segs = {}
    white = region.white_parity
    for c1, c2 in tiling:
        if c1.x == c2.x:
            bot, top = (c1, c2) if c1.y < c2.y else (c2, c1)
            if (bot.x + bot.y) % 2 == white:
                segs[(top.x, 2 * top.y + 1)] = ((top.x + 1, 2 * bot.y + 1), DOWN)
            else:
                segs[(bot.x, 2 * bot.y + 1)] = ((bot.x + 1, 2 * top.y + 1), UP)
        else:
            left = c1 if c1.x < c2.x else c2
            if (left.x + left.y) % 2 != white:
                segs[(left.x, 2 * left.y + 1)] = ((left.x + 2, 2 * left.y + 1), LEVEL)
    return segs


def _selected_segments(region, mask):
    """The steps that the region's mask tables select for a tiling mask, by start point."""
    tables = paths._path_tables(region)
    points = tables.points
    selected = {}
    for p, bits in enumerate(tables.starts):
        if bits & mask:
            end, letter, _ = tables.steps[bits & mask]
            selected[points[p]] = (points[end], letter)
    return selected


def _old_path_tables(region):
    """The point-keyed tables that the id tables replaced: start point -> bits, bit -> step."""
    starts, steps = {}, {}
    white = region.white_parity
    for k, (c, d) in enumerate(region.dominoes):
        bit = 1 << k
        if c.x == d.x:
            if (c.x + c.y) % 2 == white:
                start, end, letter = (d.x, 2 * d.y + 1), (d.x + 1, 2 * c.y + 1), DOWN
            else:
                start, end, letter = (c.x, 2 * c.y + 1), (c.x + 1, 2 * d.y + 1), UP
        elif (c.x + c.y) % 2 != white:
            start, end, letter = (c.x, 2 * c.y + 1), (c.x + 2, 2 * c.y + 1), LEVEL
        else:
            continue
        starts[start] = starts.get(start, 0) | bit
        steps[bit] = (end, letter, (start[1] + end[1] - 2) * (end[0] - start[0]))
    return starts, steps, sum(steps)


def _old_walk(region, mask):
    """The point-keyed walk that the id tables replaced: its paths and quarter area."""
    starts, steps, decorated = _old_path_tables(region)
    markers = boundary_markers(region)
    v_index = {p: i for i, p in enumerate(markers.v)}
    unused = mask
    quarter = 0
    walked = []
    for i, p in enumerate(markers.u):
        pts, letters = [p], []
        while True:
            here = starts.get(p, 0) & unused
            step = steps.get(here)
            if step is None:
                break
            unused ^= here
            p, letter, q = step
            quarter += q
            pts.append(p)
            letters.append(letter)
        if here or v_index.get(p) != i:
            if here:
                raise DecorationError(f"paths branch at {p}")
            if p in v_index:
                raise DecorationError(f"path from marker u_{i + 1} ends at v_{v_index[p] + 1}")
            if starts.get(p, 0) & mask:
                raise DecorationError(f"paths intersect at {p}")
            raise DecorationError(f"path {i + 1} dangles at {p}")
        walked.append(SchroederPath(tuple(pts), tuple(letters)))
    if unused & decorated:
        raise DecorationError("decorated segments left over after assembly")
    return walked, quarter


def test_the_id_walk_equals_the_point_keyed_walk():
    walked = 0
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        for mask in enumerate_tilings(region):
            family = tiling_to_paths(region, mask)
            (quarter,) = _walk(region, [mask])
            assert (list(family.paths), quarter) == _old_walk(region, mask)
            assert family.quarter_area == quarter
            walked += 1
    assert walked == 8 + 16 + 640


def test_path_tables_are_derived_once_per_region_and_read_only(monkeypatch):
    calls = []
    real = paths._path_tables.__wrapped__
    monkeypatch.setattr(paths._path_tables, "__wrapped__", lambda r: calls.append(r) or real(r))
    for tup in TUPLES:
        region = build_double_rectangle(*tup)
        for mask in enumerate_tilings(region):
            assert _selected_segments(region, mask) == _old_segments(region, decode(region, mask))
            tiling_to_paths(region, mask)
        assert calls[-1] is region
        tables = paths._path_tables(region)
        assert tables is paths._path_tables(region)
        assert tables.decorated == sum(tables.steps)
        # the walk stops where no domino starts, which every v marker is
        assert not any(tables.starts[p] for p, i in enumerate(tables.v_at) if i >= 0)
        for table in (tables.starts, tables.steps):
            with pytest.raises(TypeError):
                table[next(iter(table))] = None
    assert len(calls) == len(TUPLES)


def test_decoration_guards_reject_broken_segment_sets(monkeypatch):
    from aztecbridge.paths import _compile_tables

    region = build_double_rectangle(1, 2, 0, 1, 2)
    # two level paths, (0, 1) -> (2, 1) and (0, 5) -> (2, 5), over stand-in dominoes
    segments = {
        "low": ((0, 1), (2, 1), LEVEL),
        "high": ((0, 5), (2, 5), LEVEL),
        "cross": ((0, 5), (1, 3), DOWN),
        "on": ((1, 3), (2, 1), DOWN),
        "rise": ((0, 1), (1, 3), UP),
        "spare": ((4, 3), (5, 5), UP),
    }
    bit = {name: 1 << i for i, name in enumerate(segments)}
    tables = _compile_tables(
        [(0, 1), (0, 5)],
        [(2, 1), (2, 5)],
        [(bit[name], *segment) for name, segment in segments.items()],
    )
    monkeypatch.setattr(paths, "_path_tables", lambda r: tables)
    # quarter cells: the level paths at heights 0 and 2
    monkeypatch.setattr(paths, "_minimal_area", lambda r: 16)
    # the stand-ins cover no cells, so the cover check of tiling_to_paths
    # would reject every one; the guards are driven through the walk itself
    # and through area_ranks, and a whole family is assembled with the check off
    monkeypatch.setattr(paths, "require_cover", lambda *args: None)

    def paths_of(tiling):
        mask = sum(map(bit.__getitem__, tiling))
        (quarter,) = _walk(region, [mask])
        family = tiling_to_paths(region, mask)
        assert family.quarter_area == quarter
        return family

    def rank_of(tiling):
        (rank,) = area_ranks(region, [sum(map(bit.__getitem__, tiling))])
        return rank

    family = paths_of(("low", "high"))
    assert [p.steps for p in family.paths] == [(LEVEL,), (LEVEL,)]
    assert Fraction(underneath_area(family), 4) == 4
    assert rank_of(("low", "high")) == 0
    broken = [
        (("low",), "path 2 dangles at"),
        (("low", "cross", "on"), "ends at v_1"),
        # path 2 runs onto the point where path 1 turned down
        (("rise", "on", "cross"), r"paths intersect at \(1, 3\)"),
        (("low", "high", "spare"), "left over"),
        # two decorated dominoes start where path 1 starts
        (("low", "rise", "high"), r"paths branch at \(0, 1\)"),
    ]
    for tiling, message in broken:
        for entry in (paths_of, rank_of):
            with pytest.raises(DecorationError, match=message):
                entry(tiling)


def test_the_area_text_is_the_fraction_text_on_every_tiling_of_the_suite_tuples():
    texts = set()
    for tup in SUITE_TUPLES:
        region = build_double_rectangle(*tup)
        spec = region.spec_string()
        for index, mask in enumerate(enumerate_tilings(region)):
            quarters = underneath_area(tiling_to_paths(region, mask))
            result = run("paths", spec, str(index))
            assert result.exit_code == 0, result.output
            area = json.loads(result.output)["area"]
            assert area == str(Fraction(quarters, 4)), (spec, index)
            texts.add(area)
    # whole and half areas both occur
    assert any("/" in t for t in texts) and any("/" not in t for t in texts)
