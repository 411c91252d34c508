"""Height functions, minimal tilings, flips, the three rank computations and the sweep."""

import re
from bisect import bisect_left, insort
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from test_engine import decode
from test_kasteleyn import box_regions

from aztecbridge import engine, paths, stats
from aztecbridge.engine import (
    CapacityError,
    count_tilings,
    enumerate_tilings,
    is_vertical,
    require_frontier_budget,
)
from aztecbridge.formulas import aztec_genfun, main_genfun
from aztecbridge.paths import area_ranks, tiling_to_paths
from aztecbridge.polyring import LaurentPoly2
from aztecbridge.regions import (
    Cell,
    ConstraintError,
    InvariantError,
    KindError,
    Region,
    build_aztec_diamond,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
)
from aztecbridge.stats import (
    linear_ranks,
    minimal_tiling,
    rank_table,
    rank_weights,
    tq_sum,
)
from aztecbridge.verify import _rank_case, small_double_rectangles, suite_rank


def test_minimal_diamond_tiling_is_all_horizontal():
    for n in (1, 2, 3, 20):
        region = build_aztec_diamond(n)
        t0 = decode(region, minimal_tiling(region))
        assert len(t0) == n * (n + 1) and all(not is_vertical(d) for d in t0)


def _cell_grid_edges(region):
    """The Cell-keyed height steps that the grid-position ones replaced.

    Maps each lattice point to its moves (point, step, domino or None).
    """
    cells = region.cells
    edges = {}
    for c in cells:
        x, y = c
        step = 1 if (x + y) % 2 == region.white_parity else -1
        # counterclockwise around c, so c is on the left of each edge
        corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
        across = (Cell(x, y - 1), Cell(x + 1, y), Cell(x, y + 1), Cell(x - 1, y))
        for i, other in enumerate(across):
            if other in cells and other < c:
                continue  # added from the other side
            a, b = corners[i], corners[(i + 1) % 4]
            domino = (c, other) if other in cells else None  # other > c: the sorted pair
            edges.setdefault(a, []).append((b, step, domino))
            edges.setdefault(b, []).append((a, -step, domino))
    return edges


def height_function(region, mask):
    """Vertex heights of a tiling mask, normalized to minimum height 0, keyed by lattice point.

    Crossing an edge with a white cell on the left raises the height by 1,
    unless a domino of the tiling crosses the edge, in which case it drops
    by 3 (and symmetrically for black).
    """
    edges = stats._grid_edges(region)
    start = next(a for a, moves in enumerate(edges) if moves)  # the leftmost-lowest vertex
    h = {start: 0}
    stack = [start]
    while stack:
        a = stack.pop()
        for b, step, crossed in edges[a]:
            hb = h[a] - 3 * step if crossed & mask else h[a] + step
            if b in h:
                if h[b] != hb:
                    raise InvariantError("inconsistent height function")
            else:
                h[b] = hb
                stack.append(b)
    m = min(h.values())
    point = region.lattice.grid.point
    return {point(v): hv - m for v, hv in h.items()}


def encode(region, tiling):
    """The mask of a tuple of the region's dominoes."""
    bit = {domino: 1 << k for k, domino in enumerate(region.dominoes)}
    return sum(map(bit.__getitem__, tiling))


def flips(tiling):
    """Tilings one elementary move away (rotating a 2x2 block)."""
    have = set(tiling)
    out = []
    for i, (c1, c2) in enumerate(tiling):
        # The parallel mate sits to the right of a vertical, above a
        # horizontal; it sorts after (c1, c2), and (c1, a), (c2, b) are sorted.
        dx, dy = (1, 0) if c1.x == c2.x else (0, 1)
        a, b = Cell(c1.x + dx, c1.y + dy), Cell(c2.x + dx, c2.y + dy)
        if (a, b) in have:
            flipped = list(tiling)
            del flipped[bisect_left(tiling, (a, b))]  # the mate, then (c1, c2)
            del flipped[i]
            insort(flipped, (c1, a))
            insort(flipped, (c2, b))
            out.append(tuple(flipped))
    return out


def two_way_rank_table(region):
    """Oracle: the flip BFS over flips in both directions, as the rank table was first built.

    Each block flips when the tiling holds either of its pairs, and the
    blocks are tried in the order of their lower left cell.
    """
    lat = region.lattice
    grid = lat.grid
    blocks = []
    for i in lat.faces:
        e = grid.at[grid.pos[i] + grid.stride]
        h = grid.east[i] | grid.east[i + 1]
        v = grid.north[i] | grid.north[e]
        blocks.append((h, v, h | v))
    full = (1 << len(lat.pairs)) - 1
    start = minimal_tiling(region)
    dist = {start: 0}
    frontier = [start]
    rank = 0
    while frontier:
        rank += 1
        nxt = []
        for m in frontier:
            free = full ^ m
            for h, v, both in blocks:
                if not h & free or not v & free:
                    m2 = m ^ both
                    if m2 not in dist:
                        dist[m2] = rank
                        nxt.append(m2)
        frontier = nxt
    return dist


def _relaxed_heights(edges):
    """Oracle: lower interior heights against the caps until none is violated."""
    boundary = {min(edges): 0}
    stack = [min(edges)]
    while stack:
        a = stack.pop()
        for b, step, domino in edges[a]:
            if domino is None and b not in boundary:
                boundary[b] = boundary[a] + step
                stack.append(b)
    val = dict.fromkeys(edges, 4 * (len(edges) + 4))
    val.update(boundary)
    stack = list(boundary)
    while stack:
        a = stack.pop()
        for b, step, _ in edges[a]:
            if b not in boundary and val[b] > val[a] + (1 if step > 0 else 3):
                val[b] = val[a] + (1 if step > 0 else 3)
                stack.append(b)
    return val


def _by_point(region, table):
    """A table over grid positions as a dict from lattice point to entry, where there is one."""
    point = region.lattice.grid.point
    return {point(a): v for a, v in enumerate(table) if v not in (None, [])}


def test_the_bucket_queue_finds_the_relaxed_heights():
    # the grid edges, the heights and the minimal tiling, each against the
    # Cell-keyed construction it replaced
    regions = [build_aztec_diamond(n) for n in range(1, 13)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(104)]
    for region in regions:
        edges = _cell_grid_edges(region)
        dominoes = region.dominoes
        grid_moves = _by_point(region, stats._grid_edges(region))
        point = region.lattice.grid.point
        named = {
            a: sorted(
                (point(b), step, dominoes[bit.bit_length() - 1] if bit else None)
                for b, step, bit in m
            )
            for a, m in grid_moves.items()
        }
        assert named == {a: sorted(m) for a, m in edges.items()}, region.spec_string()
        val = _relaxed_heights(edges)
        assert _by_point(region, stats._extreme_heights(region)) == val, region.spec_string()
        pieces = {
            domino
            for a, moves in edges.items()
            for b, _, domino in moves
            if domino is not None and abs(val[b] - val[a]) == 3
        }
        assert decode(region, minimal_tiling(region)) == tuple(sorted(pieces)), region.spec_string()


def test_minimal_tiling_has_rank_zero_and_least_area():
    from aztecbridge.paths import underneath_area

    region = build_double_rectangle(1, 2, 0, 1, 2)
    t0 = minimal_tiling(region)
    table = rank_table(region)
    assert table[t0] == 0
    areas = {
        t: underneath_area(tiling_to_paths(region, t)) for t in enumerate_tilings(region)
    }
    assert min(areas, key=areas.get) == t0


def test_height_function_is_consistent():
    region = build_aztec_diamond(2)
    for t in enumerate_tilings(region):
        h = height_function(region, t)
        assert min(h.values()) == 0
        # neighboring vertices differ by 1 or 3
        assert all(abs(v) in (0, 1, 2, 3, 4, 5, 6, 7, 8) for v in h.values())


def test_flip_count_of_all_horizontal_diamond():
    region = build_aztec_diamond(2)
    t0 = decode(region, minimal_tiling(region))
    # the 2x2 flippable blocks of the all-horizontal tiling
    assert len(flips(t0)) == 2


def test_flips_are_involutive_neighbors():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    for mask in enumerate_tilings(region):
        t = decode(region, mask)
        for t2 in flips(t):
            assert t in flips(t2)


def test_rank_table_covers_all_tilings():
    # the enumerator is the flip BFS's oracle; the rank suite relies on the count
    tuples = small_double_rectangles(32)
    assert len(tuples) == 28
    for params in tuples:
        region = build_double_rectangle(*params)
        assert set(rank_table(region)) == set(enumerate_tilings(region)), params


def test_diamond_rank_multiset_order_two():
    region = build_aztec_diamond(2)
    ranks = sorted(rank_table(region).values())
    assert ranks == [0, 1, 1, 2, 3, 4, 4, 5]
    assert {1, 2, 5} <= set(ranks)


def test_rank_bfs_equals_area_rank():
    for params in [(1, 2, 0, 1, 2), (2, 3, 1, 2, 3)]:
        region = build_double_rectangle(*params)
        masks = list(enumerate_tilings(region))
        assert list(area_ranks(region, masks)) == [rank_table(region)[m] for m in masks]


def test_a_mask_that_does_not_cover_the_region_once_is_rejected():
    region = build_double_rectangle(2, 3, 1, 2, 3)
    t0 = minimal_tiling(region)
    bit = {domino: 1 << k for k, domino in enumerate(region.dominoes)}
    # a domino that carries no path step: without it the paths are still whole
    dropped = bit[(Cell(3, 3), Cell(4, 3))]
    assert t0 & dropped
    partial = t0 ^ dropped
    assert len(list(paths._walk(region, [partial]))) == 1  # the walk alone takes it
    # two distinct dominoes of the region on one cell, with one cell left bare
    overlap = partial | bit[(Cell(3, 3), Cell(3, 4))]
    covered = {c for d in decode(region, partial) for c in d}
    (shared,) = (c for c in (Cell(3, 3), Cell(3, 4)) if c in covered)
    past = f"the tiling has a bit past the {len(bit)} pieces of dr:2,3,1,2,3"
    for mask, message in (
        (t0 | 1 << len(bit), re.escape(past)),
        (partial, re.escape("the tiling leaves Cell(x=3, y=3) of dr:2,3,1,2,3 bare")),
        (overlap, re.escape(f"{shared} is covered twice in the tiling")),
    ):
        with pytest.raises(ConstraintError, match=message):
            tiling_to_paths(region, mask)


def test_a_minimal_tiling_that_is_no_cover_trips_its_guard(monkeypatch):
    region = build_double_rectangle(2, 3, 1, 2, 3)
    # flat heights: no edge has a difference of 3, so no domino is placed
    flat = lambda r: [0] * len(stats._grid_edges(r))
    monkeypatch.setattr(stats._extreme_heights, "__wrapped__", flat)
    message = f"the tiling leaves {min(region.cells)} of dr:2,3,1,2,3 bare"
    with pytest.raises(InvariantError, match=re.escape(message)):
        minimal_tiling(region)


def test_vertical_halfcount():
    region = build_aztec_diamond(1)
    halves = sorted(
        Fraction(sum(map(is_vertical, decode(region, mask))), 2)
        for mask in enumerate_tilings(region)
    )
    assert halves == [Fraction(0), Fraction(1)]


def test_region_invariants_are_derived_once(monkeypatch):
    calls = []
    extreme = stats.minimal_tiling.__wrapped__

    def counting(region):
        calls.append(region.params)
        return extreme(region)

    monkeypatch.setattr(stats.minimal_tiling, "__wrapped__", counting)
    cases = suite_rank(32)
    assert len(cases) == 28 and all(c["ok"] for c in cases)
    assert len(calls) == 28 and len(set(calls)) == 28


def test_the_kept_minimal_heights_are_the_minimal_tilings_up_to_a_constant():
    regions = [build_aztec_diamond(n) for n in range(1, 7)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    for region in regions:
        table = stats._extreme_heights(region)
        assert table is stats._extreme_heights(region)
        kept = _by_point(region, table)
        walked = height_function(region, minimal_tiling(region))
        assert kept.keys() == walked.keys()
        assert len({kept[v] - walked[v] for v in walked}) == 1, region.spec_string()
        with pytest.raises(TypeError):
            table[0] = 0


def test_rank_table_is_kept_on_the_region_and_read_only():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    table = rank_table(region)
    assert rank_table(region) is table
    assert rank_table(build_double_rectangle(1, 2, 0, 1, 2)) is not table
    assert minimal_tiling(region) is minimal_tiling(region)
    with pytest.raises(TypeError):
        table[minimal_tiling(region)] = 1


def test_minimal_tiling_wrong_kind():
    with pytest.raises(KindError):
        minimal_tiling(build_hexagon(1, 1, 1))


def _tq_sum_by_enumeration(region):
    """Oracle: list every tiling and rank it through the flip BFS table."""
    table = rank_table(region)
    terms = {}
    for mask in enumerate_tilings(region):
        key = (sum(1 for d in decode(region, mask) if is_vertical(d)), 2 * table[mask])
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly2(terms)


def test_tq_sum_sweep_equals_enumeration_and_flip_bfs():
    regions = [build_aztec_diamond(n) for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(32)]
    assert len(regions) == 32
    for region in regions:
        assert tq_sum(region) == _tq_sum_by_enumeration(region), region.spec_string()


def test_tq_sum_matches_the_product_beyond_enumeration():
    # 2,007,040 and 2,097,152 tilings: out of reach of enumeration plus flip BFS
    assert tq_sum(build_double_rectangle(3, 5, 1, 3, 5)) == main_genfun(3, 5, 1, 3, 5)
    assert tq_sum(build_aztec_diamond(6)) == aztec_genfun(6)
    assert tq_sum(build_aztec_diamond(7)) == aztec_genfun(7)


def test_flips_swap_exactly_one_block_and_stay_sorted():
    region = build_double_rectangle(2, 3, 1, 2, 3)
    for mask in enumerate_tilings(region):
        t = decode(region, mask)
        for t2 in flips(t):
            assert t2 == tuple(sorted(t2))
            assert all(type(c).__name__ == "Cell" for d in t2 for c in d)
            gone, new = set(t) - set(t2), set(t2) - set(t)
            assert len(gone) == len(new) == 2 and len(t2) == len(t)
            block = {c for d in gone for c in d}
            assert block == {c for d in new for c in d}
            xs, ys = {c.x for c in block}, {c.y for c in block}
            assert len(block) == 4 and len(xs) == len(ys) == 2


def _anchored(heights):
    """Heights less that of the leftmost-lowest vertex, which is on the boundary."""
    base = heights[min(heights)]
    return {v: h - base for v, h in heights.items()}


def test_the_crossing_weights_are_the_height_deficit_over_4_on_every_tiling():
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    assert len(regions) == 54
    tilings = 0
    for region in regions:
        a = stats._crossing_weights(region)
        assert len(a) == len(region.lattice.pairs), region.spec_string()
        t0 = minimal_tiling(region)
        h0 = _anchored(height_function(region, t0))
        weight0 = sum(c for k, c in enumerate(a) if t0 >> k & 1)
        for mask in enumerate_tilings(region):
            h = _anchored(height_function(region, mask))
            weight = sum(c for k, c in enumerate(a) if mask >> k & 1)
            assert sum(h0[v] - h[v] for v in h0) == 4 * (weight - weight0), region.spec_string()
            tilings += 1
    assert tilings == 48_982


def test_a_too_narrow_packing_trips_the_coefficient_sum_guard(monkeypatch):
    region = build_aztec_diamond(3)
    # ad:3 has 64 tilings, so 3-bit slots overflow
    monkeypatch.setattr(engine._unit_det, "__wrapped__", lambda r: 7)
    with pytest.raises(InvariantError, match="coefficients sum to"):
        tq_sum(region)


def test_a_shifted_rank_trips_the_ground_guard(monkeypatch):
    region = build_double_rectangle(1, 2, 0, 1, 2)
    shifted = tuple(c + 1 for c in rank_weights(region))  # every rank + 7, one per domino
    monkeypatch.setattr(stats, "rank_weights", lambda r: shifted)
    with pytest.raises(InvariantError, match=r"q\^0 part"):
        tq_sum(region)


def test_frontier_budget_admits_ad11_and_the_checked_tuples_and_rejects_ad12(monkeypatch):
    require_frontier_budget(build_aztec_diamond(11))
    for tup in small_double_rectangles(120):
        require_frontier_budget(build_double_rectangle(*tup))

    def no_work(*args):
        raise AssertionError("took a determinant or swept over the budget")

    monkeypatch.setattr(engine, "_sweep", no_work)
    monkeypatch.setattr(engine._unit_det, "__wrapped__", no_work)
    monkeypatch.setattr(stats.rank_weights, "__wrapped__", no_work)
    with pytest.raises(CapacityError, match="over the budget"):
        tq_sum(build_aztec_diamond(12))


def _four_connected(cells):
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for d in (Cell(x - 1, y), Cell(x + 1, y), Cell(x, y - 1), Cell(x, y + 1)):
            if d in cells and d not in seen:
                seen.add(d)
                stack.append(d)
    return len(seen) == len(cells)


def _pinched(cells):
    """Some 2x2 window holds exactly one diagonal pair of cells."""
    for x, y in cells:
        for dx in (1, -1):  # the window above and to the right, then to the left
            if (
                Cell(x + dx, y + 1) in cells
                and Cell(x + dx, y) not in cells
                and Cell(x, y + 1) not in cells
            ):
                return True
    return False


@settings(max_examples=150, derandomize=True, deadline=None)
@given(box_regions())
def test_rank_linear_equals_the_flip_distance_on_random_regions(region):
    # A pinched region is rejected before any height is derived (one such
    # region is in test_a_pinched_region_has_no_minimal_tiling).
    assume(_four_connected(region.cells) and not _pinched(region.cells))
    try:
        tileable = count_tilings(region) > 0
    except InvariantError:  # a hole
        tileable = False
    assume(tileable)
    table = rank_table(region)
    masks = list(enumerate_tilings(region))
    assert set(table) == set(masks)
    assert list(linear_ranks(region, masks)) == [table[m] for m in masks]


def test_a_pinched_region_has_no_minimal_tiling():
    # tileable and hole-free, but its two parts touch only at a vertex
    rows = ["####", ".###", "##..", "#.##", "####"]  # top row first
    cells = {
        Cell(x, y) for y, row in enumerate(reversed(rows)) for x, ch in enumerate(row) if ch == "#"
    }
    assert _four_connected(cells) and _pinched(cells)
    region = Region(kind="plain", params=(), cells=frozenset(cells), white_parity=0)
    assert count_tilings(region) == 4
    # rejected up front, before any height is computed
    with pytest.raises(ConstraintError, match=r"pinched at vertex \(2, 2\)"):
        rank_table(region)
    with pytest.raises(ConstraintError, match="pinched"):
        height_function(region, next(enumerate_tilings(region)))


def test_the_bitmask_bfs_is_a_bfs_layering_under_flips():
    regions = [build_aztec_diamond(n) for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    for region in regions:
        table = rank_table(region)
        assert len(table) == count_tilings(region), region.spec_string()
        assert table[minimal_tiling(region)] == 0
        dominoes = region.dominoes
        assert type(dominoes) is tuple and dominoes == tuple(sorted(dominoes))
        assert all(type(d) is tuple and len(d) == 2 for d in dominoes)
        assert all(type(c) is Cell for d in dominoes for c in d)
        for m, r in table.items():
            assert type(m) is int
            t = decode(region, m)
            assert encode(region, t) == m
            ranks = [table[encode(region, t2)] for t2 in flips(t)]
            assert all(abs(r2 - r) == 1 for r2 in ranks), region.spec_string()
            assert r == 0 or r - 1 in ranks, region.spec_string()


def test_listing_budget_admits_the_sixty_cell_tuples():
    counts = [count_tilings(build_double_rectangle(*tup)) for tup in small_double_rectangles(60)]
    assert max(counts) == 89_600 <= stats.MAX_LISTED_TILINGS
    region = build_aztec_diamond(6)
    stats.require_listing_budget(region, stats.MAX_LISTED_TILINGS)
    with pytest.raises(CapacityError, match="over the budget"):
        stats.require_listing_budget(region, stats.MAX_LISTED_TILINGS + 1)


def test_an_over_budget_rank_table_fails_before_the_bfs(monkeypatch):
    square = frozenset(Cell(x, y) for x in range(8) for y in range(8))  # 12,988,816 tilings
    for region, message in (
        (build_aztec_diamond(6), "ad:6: listing 2097152 tilings"),
        (Region(kind="plain", params=(), cells=square, white_parity=0), "64 cells: listing"),
    ):
        monkeypatch.setattr(stats, "minimal_tiling", lambda r: None)  # a BFS would fail at once
        with pytest.raises(CapacityError, match=message):
            rank_table(region)


def test_suite_rank_checks_every_tuple_before_the_first_bfs(monkeypatch):
    def no_bfs(region):
        raise AssertionError("ran a flip BFS before checking every tuple")

    monkeypatch.setattr(stats.rank_table, "__wrapped__", no_bfs)
    with pytest.raises(CapacityError, match="over the budget"):
        suite_rank(80)


def test_a_fractional_area_excess_trips_the_whole_cell_guard(monkeypatch):
    region = build_double_rectangle(1, 2, 0, 1, 2)
    t0 = [minimal_tiling(region)]
    assert list(area_ranks(region, t0)) == [0]
    base = paths._minimal_area(region)
    monkeypatch.setattr(paths, "_minimal_area", lambda r: base + 2)  # quarter cells
    with pytest.raises(InvariantError, match="whole number of cells"):
        list(area_ranks(region, t0))


def _rank_suite_regions():
    """The 68 regions whose rank tables are checked against both-way flips and weights."""
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [parse_spec(f"ar:{n}x{n}") for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(44)]
    assert len(regions) == 68
    return regions


def test_the_raising_flip_bfs_lists_the_table_of_the_two_way_bfs_in_order():
    for region in _rank_suite_regions():
        table = rank_table(region)
        assert list(table.items()) == list(two_way_rank_table(region).items()), region.spec_string()
        assert len(table) == count_tilings(region), region.spec_string()


def test_each_block_raises_the_rank_from_one_pair_by_the_colour_of_its_lower_left_cell():
    for region in _rank_suite_regions()[:20]:
        table = rank_table(region)
        blocks = stats._raising_flips(region)
        assert len(blocks) == len(region.lattice.faces)
        full = (1 << len(region.lattice.pairs)) - 1
        for m, r in table.items():
            for pair, both in blocks:
                if not pair & (full ^ m):
                    assert table[m ^ both] == r + 1, region.spec_string()
                elif not (both ^ pair) & (full ^ m):
                    assert table[m ^ both] == r - 1, region.spec_string()


def test_linear_ranks_are_the_flip_distance_on_every_bfs_mask_of_the_rank_suite():
    checked = 0
    for region in _rank_suite_regions():
        table = rank_table(region)
        assert list(linear_ranks(region, table)) == list(table.values()), region.spec_string()
        checked += len(table)
    assert checked == 67_904


def test_the_rank_weights_and_their_planes_are_derived_once_per_region(monkeypatch):
    calls = []
    for derive in (stats.rank_weights, stats._rank_planes):
        real = derive.__wrapped__
        counting = lambda r, name=derive.__name__, real=real: calls.append(name) or real(r)
        monkeypatch.setattr(derive, "__wrapped__", counting)
    region = build_double_rectangle(2, 3, 1, 2, 3)
    table = rank_table(region)
    assert list(linear_ranks(region, table)) == list(table.values())
    assert list(linear_ranks(region, table)) == list(table.values())
    assert tq_sum(region) == main_genfun(2, 3, 1, 2, 3)
    assert sorted(calls) == ["_rank_planes", "rank_weights"]
    planes = stats._rank_planes(region)
    assert planes is stats._rank_planes(region)
    assert type(planes) is tuple and all(type(plane) is tuple for plane in planes)
    with pytest.raises(TypeError):
        planes[0] = (0, 0)


def test_rank_weights_are_non_negative_zero_on_the_minimal_tiling_and_sum_to_the_rank():
    checked = 0
    for region in _rank_suite_regions():
        weights = rank_weights(region)
        t0 = minimal_tiling(region)
        assert len(weights) == len(region.lattice.pairs), region.spec_string()
        assert min(weights) >= 0, region.spec_string()
        assert not any(c for k, c in enumerate(weights) if t0 >> k & 1), region.spec_string()
        by_weight = {}
        for k, c in enumerate(weights):
            by_weight[c] = by_weight.get(c, 0) | 1 << k
        for mask, rank in rank_table(region).items():
            assert sum(c * (mask & m).bit_count() for c, m in by_weight.items()) == rank
            checked += 1
    assert checked == 67_904


def test_a_minimal_tiling_of_more_than_least_weight_trips_the_gauge(monkeypatch):
    region = build_aztec_diamond(3)
    table = rank_table(region)
    highest = max(table, key=table.get)
    monkeypatch.setattr(stats, "minimal_tiling", lambda r: highest)
    with pytest.raises(InvariantError, match="negative cycle"):
        rank_weights(region)


def test_every_cell_order_covers_each_cell_once_and_gives_the_same_polynomial():
    regions = [build_aztec_diamond(n) for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(32)]
    for region in regions:
        slot = count_tilings(region).bit_length()
        every_piece = decode(region, (1 << len(region.lattice.pairs)) - 1)
        vertical = [int(is_vertical(d)) for d in every_piece]
        shifts = [c * slot for c in rank_weights(region)]
        orders = engine._cell_orders(region)
        assert len(orders) == 4
        assert all(sorted(place) == list(range(len(region.cells))) for _, place in orders)
        sweeps = [
            engine._sweep(engine._moves(region, place), vertical, shifts) for _, place in orders
        ]
        assert sweeps[0] and all(sweep == sweeps[0] for sweep in sweeps), region.spec_string()


def test_a_diamond_is_narrowest_along_a_diagonal():
    for n in range(1, 8):
        widths = [width for width, _ in engine._cell_orders(build_aztec_diamond(n))]
        assert widths == [n + 1, n + 1, 2 * n, 2 * n]


def _keyed_order(region, key):
    """(width, place) of the cells sorted by ((a, b), (c, d)) = key: by (a x + b y, c x + d y)."""
    (a, b), (c, d) = key
    keys = [(a * x + b * y, c * x + d * y) for x, y in region.lattice.cells]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    place = [0] * len(keys)
    for step, i in enumerate(order):
        place[i] = step
    width = max(abs(place[i] - place[j]) for i, j in region.lattice.pairs)
    return width, tuple(place)


COLUMNS, ROWS = ((1, 0), (0, 1)), ((0, 1), (1, 0))
SUM, DIFFERENCE = ((1, 1), (1, 0)), ((1, -1), (1, 0))


def test_the_column_order_is_the_id_order_so_its_moves_are_the_enumerators():
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    assert len(regions) == 54
    for region in regions:
        width, place = _keyed_order(region, COLUMNS)
        assert place == tuple(range(len(region.cells))), region.spec_string()
        assert (width, place) in engine._cell_orders(region), region.spec_string()


@pytest.mark.parametrize(
    "spec,key",
    [("ad:4", SUM), ("dr:3,3,1,3,3", DIFFERENCE), ("dr:4,5,5,5,6", ROWS), ("dr:4,6,6,6,8", ROWS)],
)
def test_the_sweep_runs_on_the_first_order_of_least_width(spec, key):
    region = parse_spec(spec)
    orders = [COLUMNS, ROWS, SUM, DIFFERENCE]
    widths = [_keyed_order(region, k)[0] for k in orders]
    assert orders[widths.index(min(widths))] == key
    assert engine._cell_orders(region)[0] == _keyed_order(region, key)


def test_the_sweep_equals_the_product_on_every_tuple_of_104_cells_and_on_ad1_to_ad10():
    tuples = small_double_rectangles(104)
    assert len(tuples) == 424
    for tup in tuples:
        assert tq_sum(build_double_rectangle(*tup)) == main_genfun(*tup), tup
    for n in range(1, 11):
        assert tq_sum(build_aztec_diamond(n)) == aztec_genfun(n), n


def test_a_weight_off_by_one_changes_the_sum(monkeypatch):
    region = build_double_rectangle(2, 3, 1, 2, 3)
    t0 = minimal_tiling(region)
    weights = list(rank_weights(region))
    weights[next(k for k in range(len(weights)) if not t0 >> k & 1)] += 1
    monkeypatch.setattr(stats, "rank_weights", lambda r: tuple(weights))
    assert tq_sum(region) != main_genfun(2, 3, 1, 2, 3)


def test_a_rank_weight_off_by_one_fails_the_rank_case(monkeypatch):
    assert _rank_case(build_double_rectangle(2, 3, 1, 2, 3))["ok"]
    region = build_double_rectangle(2, 3, 1, 2, 3)  # fresh: no bit planes derived yet
    t0 = minimal_tiling(region)
    weights = list(rank_weights(region))
    weights[next(k for k in range(len(weights)) if not t0 >> k & 1)] += 1
    monkeypatch.setattr(stats, "rank_weights", lambda r: tuple(weights))
    assert not _rank_case(region)["ok"]


def _peak_states(region, place):
    """The most states the sweep over ``place`` holds after a step, by a states-only pass."""
    states, most = {0}, 1
    for here in engine._moves(region, place):
        states = {
            (state | bit) >> 1
            for state in states
            for bit in ([0] if state & 1 else [bit for bit, _ in here])
            if not state & bit
        }
        most = max(most, len(states))
    return most


def test_the_central_binomial_of_the_width_bounds_the_states_and_is_exact_on_diamonds():
    for n in range(1, 9):
        region = build_aztec_diamond(n)
        width, place = engine._cell_orders(region)[0]
        assert _peak_states(region, place) == comb(width, width // 2), n
    for tup in small_double_rectangles(60):
        region = build_double_rectangle(*tup)
        for width, place in engine._cell_orders(region):
            assert _peak_states(region, place) <= comb(width, width // 2), tup
