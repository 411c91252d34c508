"""Region builders, coloring, markers, and spec parsing."""

import pytest

from aztecbridge.regions import (
    BLACK,
    WHITE,
    Cell,
    ConstraintError,
    KindError,
    boundary_markers,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
    build_hexagon,
    parse_spec,
)


def test_diamond_cell_counts():
    for n in range(1, 7):
        region = build_aztec_diamond(n)
        assert len(region.cells) == 2 * n * (n + 1)


def test_rectangle_cell_count_and_imbalance():
    for m in range(1, 4):
        for n in range(m, 5):
            region = build_aztec_rectangle(m, n)
            assert len(region.cells) == 2 * m * n + m + n
            whites = sum(1 for c in region.cells if region.color(c) == WHITE)
            blacks = len(region.cells) - whites
            assert abs(whites - blacks) == n - m


def test_double_rectangle_balance_and_parts():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    whites = sum(1 for c in region.cells if region.color(c) == WHITE)
    assert 2 * whites == len(region.cells)
    assert region.upper | region.lower == region.cells
    assert not (region.upper & region.lower)
    # the southwest-most upper cell is white
    sw = min(region.upper, key=lambda c: (c.x + c.y, c.x))
    assert region.color(sw) == WHITE


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
                assert {region.color(c), region.color(d)} == {WHITE, BLACK}


def test_parse_spec_round_trip():
    for text in ["ad:3", "ar:2x4", "dr:1,2,0,1,2"]:
        assert parse_spec(text).spec_string() == text
    assert parse_spec("hex:1,2,3").spec_string() == "hex:1,2,3"
    for bad in ["", "xx:1", "ad:x", "dr:1,2", "ar:3"]:
        with pytest.raises(ConstraintError):
            parse_spec(bad)
