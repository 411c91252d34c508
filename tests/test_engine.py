"""Enumeration vs counting, on both lattices."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from test_kasteleyn import box_regions

from aztecbridge import engine
from aztecbridge.engine import (
    CapacityError,
    count_tilings,
    enumerate_tilings,
    frontier_sum,
    is_vertical,
    require_index_budget,
    tiling_at,
)
from aztecbridge.regions import (
    InvariantError,
    build_aztec_diamond,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
    require_cover,
)
from aztecbridge.verify import small_double_rectangles


def decode(region, mask):
    """The pieces of a tiling mask as a sorted tuple of cell (triangle) pairs."""
    cells = region.lattice.cells
    pairs = region.lattice.pairs
    return tuple((cells[i], cells[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1)


def test_diamond_counts_are_powers_of_two():
    for n in range(1, 7):
        assert count_tilings(build_aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)


def test_counting_agrees_with_enumeration():
    for region in [
        build_aztec_diamond(2),
        build_aztec_diamond(3),
        build_double_rectangle(1, 2, 0, 1, 2),
        build_double_rectangle(2, 3, 1, 2, 3),
    ]:
        assert count_tilings(region) == sum(1 for _ in enumerate_tilings(region))


def test_small_double_rectangle_count():
    assert count_tilings(build_double_rectangle(1, 2, 0, 1, 2)) == 12


def test_enumeration_yields_valid_tilings():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    for mask in enumerate_tilings(region):
        covered = [c for d in decode(region, mask) for c in d]
        assert len(covered) == len(set(covered)) == len(region.cells)
        assert set(covered) == set(region.cells)


def test_enumeration_order_is_stable():
    region = build_aztec_diamond(2)
    first = list(enumerate_tilings(region))
    again = list(enumerate_tilings(region))
    assert first == again
    assert all(type(mask) is int for mask in first) and len(set(first)) == len(first)
    assert all(decode(region, mask) == tuple(sorted(decode(region, mask))) for mask in first)


def test_vertical_predicate():
    region = build_aztec_diamond(1)
    tilings = [decode(region, mask) for mask in enumerate_tilings(region)]
    assert len(tilings) == 2
    counts = sorted(sum(1 for d in t if is_vertical(d)) for t in tilings)
    assert counts == [0, 2]


@pytest.mark.parametrize("sides,expected", [((1, 1, 1), 2), ((2, 2, 2), 20)])
def test_hexagon_counts(sides, expected):
    assert count_tilings(build_hexagon(*sides)) == expected


@pytest.mark.parametrize(
    "spec,count,digest",
    [
        ("dr:2,3,1,2,3", 640, "6eb98e6e2019edb1"),
        ("ad:3", 64, "4f798716fd777f5f"),
        ("hex:2,2,2", 20, "f1f0e3416b29b051"),
        ("hex:3,2,2", 50, "43770ab25a3df40f"),
    ],
)
def test_enumeration_order_is_pinned(spec, count, digest):
    # paths and render pick tilings by their index in this order
    region = parse_spec(spec)
    tilings = [decode(region, mask) for mask in enumerate_tilings(region)]
    assert len(tilings) == count
    assert hashlib.sha256(repr(tilings).encode()).hexdigest()[:16] == digest


def _recursive_matchings(later):
    """The recursive enumerator that the iterative one replaced."""
    order = list(later)
    covered = set()
    pieces = []

    def rec(i):
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            yield tuple(sorted(pieces))
            return
        v = order[i]
        for w in later[v]:
            if w not in covered:
                covered.add(w)
                pieces.append((v, w))
                yield from rec(i + 1)
                pieces.pop()
                covered.discard(w)

    yield from rec(0)


def _later(region):
    cells, adjacent = region.lattice.cells, region.lattice.adjacent
    return {v: sorted(cells[j] for j in ids if cells[j] > v) for v, ids in zip(cells, adjacent)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(box_regions())
def test_the_iterative_enumerator_keeps_the_recursive_order(region):
    listed = [decode(region, mask) for mask in enumerate_tilings(region)]
    assert listed == list(_recursive_matchings(_later(region)))


def test_the_iterative_enumerator_keeps_the_recursive_order_on_hexagons():
    for sides in [(1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 3)]:
        region = build_hexagon(*sides)
        listed = [decode(region, mask) for mask in enumerate_tilings(region)]
        assert listed == list(_recursive_matchings(_later(region))), sides


def index_of(region, mask):
    """The inverse of ``tiling_at``: the index of a tiling mask, from the same completion counts."""
    counts = engine._completions(region)
    state = index = 0
    for i, here in enumerate(engine._id_moves(region)):
        if state & 1:
            state >>= 1
            continue
        for bit, k in here:
            if state & bit:
                continue
            nxt = (state | bit) >> 1
            if mask >> k & 1:
                state = nxt
                break
            index += counts[i + 1].get(nxt, 0)
        else:
            raise ValueError(f"mask {mask} leaves cell id {i} bare")
    return index


def _unranking_regions():
    yield from (build_aztec_diamond(n) for n in range(1, 5))
    yield from (build_double_rectangle(*params) for params in small_double_rectangles(36))
    yield from (build_hexagon(a, a, a) for a in (2, 3))


def test_tiling_at_equals_the_enumerator_at_every_index():
    for region in _unranking_regions():
        listed = list(enumerate_tilings(region))
        assert [tiling_at(region, i) for i in range(len(listed))] == listed, region.spec_string()
        assert [index_of(region, mask) for mask in listed] == list(range(len(listed)))


@pytest.mark.parametrize("spec", ["ad:9", "dr:4,5,5,5,6", "dr:1,6,1,3,8"])
def test_unranking_inverts_past_the_listing_budget(spec):
    region = parse_spec(spec)
    total = count_tilings(region)
    rng = random.Random(20240)
    indices = [100_000, total - 1] + [rng.randrange(100_000, total) for _ in range(20)]
    for index in indices:
        mask = tiling_at(region, index)
        require_cover(region, mask, AssertionError)
        assert index_of(region, mask) == index


def test_tiling_at_rejects_an_index_out_of_range():
    region = parse_spec("dr:2,3,1,2,3")
    for index in (-1, 640):
        with pytest.raises(IndexError, match=f"tiling index {index} out of range"):
            tiling_at(region, index)


def test_an_index_out_of_range_runs_no_pass(monkeypatch):
    def no_pass(region):
        raise AssertionError("ran a pass for an index out of range")

    monkeypatch.setattr(engine._completions, "__wrapped__", no_pass)
    region = parse_spec("dr:2,3,1,2,3")
    for index in (-1, 640, 10**30):
        with pytest.raises(IndexError, match=f"tiling index {index} out of range"):
            tiling_at(region, index)


def test_index_budget_admits_ad9_and_dr45556_and_rejects_ad10():
    for spec in ("ad:9", "dr:4,5,5,5,6", "hex:3,3,3"):
        require_index_budget(parse_spec(spec))
    for spec in ("ad:10", "dr:5,8,3,6,9"):
        with pytest.raises(CapacityError, match="tiling index cost .* over the budget"):
            require_index_budget(parse_spec(spec))


def test_a_dropped_move_trips_the_determinant_guard(monkeypatch):
    original = engine._id_moves.__wrapped__

    def dropped(region):
        moves = list(original(region))
        moves[0] = moves[0][1:]  # id 0 loses its first piece
        return tuple(moves)

    monkeypatch.setattr(engine._id_moves, "__wrapped__", dropped)
    guard = "completion counts give 48 tilings, the determinant 160"
    with pytest.raises(InvariantError, match=guard):
        tiling_at(parse_spec("dr:1,3,0,2,4"), 0)


def test_frontier_sum_with_zero_weights_is_the_enumerators_vertical_histogram():
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    for region in regions:
        north = sum(region.lattice.grid.north)
        pieces = len(region.lattice.pairs)
        histogram = {}
        for mask in enumerate_tilings(region):
            key = ((mask & north).bit_count(), 0)
            histogram[key] = histogram.get(key, 0) + 1
        vertical = [north >> k & 1 for k in range(pieces)]
        assert frontier_sum(region, vertical, [0] * pieces) == histogram, region.spec_string()
