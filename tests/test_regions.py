"""Region builders, coloring, markers, spec parsing, and regions as values."""

import gc
import weakref
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztecbridge import regions
from aztecbridge.regions import (
    Cell,
    ConstraintError,
    InvariantError,
    KindError,
    MAX_SPEC_CELLS,
    Region,
    TriRegion,
    boundary_markers,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
)
from aztecbridge.verify import small_double_rectangles


def test_diamond_cell_counts():
    for n in range(1, 7):
        region = build_aztec_diamond(n)
        assert len(region.cells) == 2 * n * (n + 1)


def test_rectangle_cell_count_and_imbalance():
    for m in range(1, 4):
        for n in range(m, 5):
            region = build_aztec_rectangle(m, n)
            assert len(region.cells) == 2 * m * n + m + n
            whites = sum(1 for c in region.cells if (c.x + c.y) % 2 == region.white_parity)
            blacks = len(region.cells) - whites
            assert abs(whites - blacks) == n - m


def _parts(m1, n1, k, m2, n2):
    """The upper and lower rectangles of dr:m1,n1,k,m2,n2, translated as the region is."""
    lower = regions._ar_cells(m2, n2)
    dx, dy = k - m2 + regions._GLUE_DX, k + m2 + regions._GLUE_DY
    upper = {Cell(c.x + dx, c.y + dy) for c in regions._ar_cells(m1, n1)}
    minx = min(c.x for c in lower | upper)
    miny = min(c.y for c in lower | upper)
    return tuple(frozenset(Cell(c.x - minx, c.y - miny) for c in part) for part in (upper, lower))


def test_double_rectangle_balance_and_parts():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    whites = sum(1 for c in region.cells if (c.x + c.y) % 2 == region.white_parity)
    assert 2 * whites == len(region.cells)
    upper, lower = _parts(*region.params)
    assert upper | lower == region.cells
    assert not (upper & lower)
    # the southwest-most upper cell is white
    sw = min(upper, key=lambda c: (c.x + c.y, c.x))
    assert (sw.x + sw.y) % 2 == region.white_parity


def test_double_rectangle_bigger_instance_builds():
    region = build_double_rectangle(4, 7, 2, 3, 6)
    assert len(region.cells) == (2 * 4 * 7 + 4 + 7) + (2 * 3 * 6 + 3 + 6)


@pytest.mark.parametrize(
    "params",
    [
        (2, 1, 0, 2, 1),  # m1 > n1
        (1, 2, 3, 1, 2),  # k too large
        (1, 2, 0, 1, 3),  # mismatched overhangs
        (0, 1, 0, 0, 1),  # nonpositive side
        (1, 2, -1, 1, 2),  # negative k
    ],
)
def test_double_rectangle_rejects_bad_params(params):
    with pytest.raises(ConstraintError):
        build_double_rectangle(*params)


def test_boundary_marker_counts():
    markers = boundary_markers(build_double_rectangle(4, 8, 2, 3, 7))
    assert len(markers.u) == 11 and len(markers.v) == 11
    markers = boundary_markers(build_double_rectangle(3, 6, 2, 4, 7))
    assert len(markers.u) == 10
    with pytest.raises(KindError):
        boundary_markers(build_aztec_diamond(2))


def _diagonal_fringe(cells, diag, minimal):
    target = min(diag(c) for c in cells) if minimal else max(diag(c) for c in cells)
    return sorted((c for c in cells if diag(c) == target), key=lambda c: c.y)


def _fringe_markers(params):
    """The markers read off the two rectangles' diagonal sides, bottom to top.

    u: the west edges of the lower southwest fringe (least x + y) and of the
    upper northwest fringe (greatest y - x); v: the east edges of the lower
    southeast fringe (least y - x) and of the upper northeast fringe
    (greatest x + y).
    """
    upper, lower = _parts(*params)
    low_sw = _diagonal_fringe(lower, lambda c: c.x + c.y, minimal=True)
    up_nw = _diagonal_fringe(upper, lambda c: c.y - c.x, minimal=False)
    low_se = _diagonal_fringe(lower, lambda c: c.y - c.x, minimal=True)
    up_ne = _diagonal_fringe(upper, lambda c: c.x + c.y, minimal=False)
    u = [(c.x, 2 * c.y + 1) for c in low_sw + up_nw]
    v = [(c.x + 1, 2 * c.y + 1) for c in low_se + up_ne]
    return u, v


def test_the_lattice_markers_equal_the_fringes_of_the_two_rectangles():
    tuples = small_double_rectangles(150)
    assert len(tuples) == 907
    for params in tuples:
        markers = boundary_markers(build_double_rectangle(*params))
        assert (markers.u, markers.v) == _fringe_markers(params), params


def test_markers_sit_on_odd_half_heights():
    markers = boundary_markers(build_double_rectangle(2, 3, 1, 2, 3))
    for x, y2 in markers.u + markers.v:
        assert y2 % 2 == 1


def test_hexagon_triangle_count():
    for a, b, c in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
        region = build_hexagon(a, b, c)
        assert len(region.tris) == 2 * (a * b + b * c + c * a)


def test_checkerboard_is_proper():
    region = build_aztec_diamond(3)
    for c in region.cells:
        for d in (Cell(c.x + 1, c.y), Cell(c.x, c.y + 1)):
            if d in region.cells:
                assert (c.x + c.y - d.x - d.y) % 2 == 1


def test_parse_spec_round_trip():
    for text in ["ad:3", "ar:2x4", "dr:1,2,0,1,2"]:
        assert parse_spec(text).spec_string() == text
    assert parse_spec("hex:1,2,3").spec_string() == "hex:1,2,3"
    for bad in ["", "xx:1", "ad:x", "dr:1,2", "ar:3"]:
        with pytest.raises(ConstraintError):
            parse_spec(bad)


def test_the_spec_budget_counts_cells_from_the_parameters():
    for text in ["ad:1", "ad:5", "ar:1x1", "ar:2x5", "dr:1,2,0,1,2", "dr:3,6,2,3,6", "hex:1,2,3", "hex:4,3,3"]:
        region = parse_spec(text)
        size = len(region.cells) if isinstance(region, Region) else len(region.tris)
        tag, _, rest = text.partition(":")
        nums = tuple(int(p) for p in rest.replace("x", ",").split(","))
        assert regions._spec_cells(tag, nums) == size, text
    assert regions._spec_cells("ad", (70,)) <= MAX_SPEC_CELLS < regions._spec_cells("ad", (71,))


def test_a_spec_over_the_budget_is_rejected_before_any_cell_is_built(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a builder ran")

    for name in ("build_aztec_diamond", "build_aztec_rectangle", "build_double_rectangle", "build_hexagon"):
        monkeypatch.setattr(regions, name, never)
    for text in ["ad:100000", "ar:1x5000", "dr:100000,100000,0,1,1", "hex:1,1,2500"]:
        with pytest.raises(ConstraintError, match=f"the budget of {MAX_SPEC_CELLS}"):
            parse_spec(text)


@settings(max_examples=60, deadline=1000)
@given(
    tag=st.sampled_from(["ad", "ar", "dr", "hex"]),
    big=st.integers(min_value=10**4, max_value=10**300),
    small=st.integers(min_value=1, max_value=3),
)
def test_a_huge_spec_is_rejected_quickly(tag, big, small):
    text = {
        "ad": f"ad:{big}",
        "ar": f"ar:{small}x{big}",
        "dr": f"dr:{big},{big},0,{small},{small}",
        "hex": f"hex:{small},{small},{big}",
    }[tag]
    with pytest.raises(ConstraintError, match="than the budget"):
        parse_spec(text)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=24),
        st.from_regex(r"\A(ad|ar|dr|hex|xx)?:?[-+ 0-9x,_]{0,24}\Z"),
    )
)
def test_a_malformed_or_huge_spec_raises_constraint_error(text):
    try:
        region = parse_spec(text)
    except ConstraintError:
        return
    size = len(region.cells) if isinstance(region, Region) else len(region.tris)
    assert size <= MAX_SPEC_CELLS


def test_overlapping_double_rectangle_parts_raise_invariant_error(monkeypatch):
    # this offset puts the upper rectangle onto the lower one
    monkeypatch.setattr(regions, "_GLUE_DX", 1)
    monkeypatch.setattr(regions, "_GLUE_DY", -1)
    with pytest.raises(InvariantError, match="dr:1,2,0,1,2 overlap"):
        build_double_rectangle(1, 2, 0, 1, 2)


#: One spec of each kind, and neighbours that differ from one in a parameter.
VALUE_SPECS = [
    "ad:2", "ad:3", "ar:2x2", "ar:2x3", "dr:1,2,0,1,2", "dr:1,2,1,1,2", "hex:1,1,1", "hex:1,2,1"
]


def _fields(region):
    return [getattr(region, name) for name in region.__match_args__]


@pytest.mark.parametrize("spec", VALUE_SPECS)
def test_two_builds_of_one_spec_are_equal_and_hash_alike(spec):
    one, two = parse_spec(spec), parse_spec(spec)
    assert one is not two
    assert one == two and not one != two and hash(one) == hash(two)
    by_name = dict(zip(one.__match_args__, _fields(one)))
    assert type(one)(*_fields(one)) == one == type(one)(**by_name)
    one.lattice  # a table kept on one region is no field
    assert one == two and hash(one) == hash(two)


def test_regions_of_different_specs_or_kinds_are_unequal():
    built = [parse_spec(spec) for spec in VALUE_SPECS]
    for i, one in enumerate(built):
        for two in built[i + 1 :]:
            assert one != two and not one == two, (one.spec_string(), two.spec_string())
    # each field alone tells two regions apart
    diamond, hexagon = parse_spec("ad:2"), parse_spec("hex:1,1,1")
    kind, params, cells, parity = _fields(diamond)
    assert diamond != Region("plain", params, cells, parity)
    assert diamond != Region(kind, (3,), cells, parity)
    assert diamond != Region(kind, params, parse_spec("ad:3").cells, parity)
    assert diamond != Region(kind, params, cells, 1 - parity)
    kind, params, tris = _fields(hexagon)
    assert hexagon != TriRegion("plain", params, tris)
    assert hexagon != TriRegion(kind, (1, 1, 2), tris)
    assert hexagon != TriRegion(kind, params, parse_spec("hex:1,1,2").tris)
    # equal fields in another class, or as a tuple, are no region
    assert hexagon != Region(kind, params, frozenset(), 0)
    assert diamond != tuple(_fields(diamond)) and hexagon != tuple(_fields(hexagon))


@pytest.mark.parametrize("spec", ["ad:1", "ar:1x2", "dr:1,2,0,1,2", "hex:1,1,1"])
def test_the_repr_is_that_of_the_frozen_dataclass(spec):
    region = parse_spec(spec)
    frozen = make_dataclass(type(region).__name__, region.__match_args__, frozen=True)
    assert repr(region) == repr(frozen(*_fields(region)))


def test_the_fields_are_the_constructor_arguments_in_order():
    assert Region.__match_args__ == ("kind", "params", "cells", "white_parity")
    assert TriRegion.__match_args__ == ("kind", "params", "tris")
    match parse_spec("ar:2x3"):
        case Region(kind, params):
            assert (kind, params) == ("aztec_rectangle", (2, 3))


@pytest.mark.parametrize("spec", ["ad:2", "hex:1,1,1"])
def test_a_region_is_read_only(spec):
    region = parse_spec(spec)
    lattice = region.lattice
    for name in (*region.__match_args__, "lattice", "anything"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(region, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(region, name)
    assert region == parse_spec(spec) and region.lattice is lattice


@pytest.mark.parametrize("spec", ["ad:2", "hex:1,1,1"])
def test_a_region_takes_a_weak_reference(spec):
    region = parse_spec(spec)
    region.lattice  # a table kept on the region holds no reference to it
    ref = weakref.ref(region)
    assert ref() is region
    del region
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("kind", ["aztec_diamond", "double_aztec_rectangle", "plain"])
def test_an_imbalanced_region_of_any_kind_but_a_lone_rectangle_is_rejected(kind):
    lone = build_aztec_rectangle(2, 3)  # one white cell more than black
    assert lone.imbalance() == 1
    fields = {"params": lone.params, "cells": lone.cells, "white_parity": lone.white_parity}
    with pytest.raises(ConstraintError, match="color imbalance: 9 white vs 8 black"):
        Region(kind=kind, **fields)
    assert Region(kind="aztec_rectangle", **fields) == lone
