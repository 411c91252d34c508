"""Plane partitions, complements, and the lozenge bijection."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aztecbridge.engine import CapacityError, enumerate_tilings
from aztecbridge.formulas import macmahon_count, macmahon_q
from aztecbridge.planepart import (
    MAX_BRUTE_VOLUME,
    _dec_rows,
    _lozenge_bits,
    _surface,
    _top,
    pp_to_lozenges,
    q_genfun_brute,
    volume,
)
from aztecbridge.polyring import LaurentPoly2
from aztecbridge.regions import build_hexagon

boxes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


def enumerate_pp(a, b, c):
    """Oracle: every plane partition in an a x b x c box (a side of 0 gives one empty pp)."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a == 0 or b == 0 or c == 0:
        yield tuple(() for _ in range(a)) if a else ()
        return

    def rows(prev, remaining):
        if remaining == 0:
            yield []
            return
        for row in _dec_rows(prev, b):
            for rest in rows(row, remaining - 1):
                yield [row] + rest

    top = tuple([c] * b)
    for body in rows(top, a):
        yield tuple(body)


def complement(pp, a, b, c):
    """The complementary stack in the box, rotated back into a plane partition."""
    return tuple(tuple(c - pp[a - 1 - i][b - 1 - j] for j in range(b)) for i in range(a))


def test_trivial_boxes():
    assert list(enumerate_pp(1, 1, 1)) == [((1,),), ((0,),)]
    assert len(list(enumerate_pp(0, 2, 2))) == 1
    assert len(list(enumerate_pp(2, 2, 2))) == 20


def test_rows_and_columns_decrease():
    for pp in enumerate_pp(2, 3, 2):
        for row in pp:
            assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))
        for j in range(3):
            assert all(pp[i][j] >= pp[i + 1][j] for i in range(1))


@given(boxes)
def test_complement_is_an_involution(box):
    a, b, c = box
    for pp in itertools.islice(enumerate_pp(a, b, c), 40):
        cc = complement(pp, a, b, c)
        assert complement(cc, a, b, c) == pp
        assert volume(pp) + volume(cc) == a * b * c


def test_complement_volume_sum_is_symmetric():
    # summing q^volume over complements gives the same polynomial
    for a, b, c in [(2, 2, 2), (1, 2, 3)]:
        direct = sorted(volume(pp) for pp in enumerate_pp(a, b, c))
        comp = sorted(volume(complement(pp, a, b, c)) for pp in enumerate_pp(a, b, c))
        assert direct == comp


def test_palindromic_genfun():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        poly = macmahon_q(a, b, c)
        coeffs = {eq // 2: coef for (_, eq), coef in poly.items()}
        top = a * b * c
        assert all(coeffs.get(v, 0) == coeffs.get(top - v, 0) for v in range(top + 1))


def test_brute_genfun_matches_formula():
    for a, b, c in [(1, 1, 1), (1, 1, 2), (2, 2, 2), (3, 2, 1)]:
        assert q_genfun_brute(a, b, c) == macmahon_q(a, b, c)


def test_the_row_walk_equals_the_volumes_of_the_enumerated_partitions():
    boxes = [
        (a, b, c)
        for a in range(1, 37)
        for b in range(1, 37)
        for c in range(1, 37)
        if a * b * c <= MAX_BRUTE_VOLUME
    ]
    boxes += [box for box in itertools.product(range(4), repeat=3) if 0 in box]
    assert len(boxes) == 363 + 37
    for a, b, c in boxes:
        terms = {}
        for pp in enumerate_pp(a, b, c):
            key = (0, 2 * volume(pp))
            terms[key] = terms.get(key, 0) + 1
        assert q_genfun_brute(a, b, c) == LaurentPoly2(terms), (a, b, c)


def test_a_negative_side_is_rejected_before_the_budget():
    # a box of volume (-7) * (-7) * 1 = 49 is over the brute-force bound
    for sides in ((-7, -7, 1), (-1, 2, 3)):
        with pytest.raises(ValueError, match="box sides must be nonnegative"):
            q_genfun_brute(*sides)
    with pytest.raises(CapacityError, match="box volume 49"):
        q_genfun_brute(7, 7, 1)


def lozenges_to_pp(mask: int, a: int, b: int, c: int) -> tuple:
    """Oracle: the inverse of pp_to_lozenges; raises ValueError if no stack matches."""
    bits = _lozenge_bits(a, b, c)
    rows: list[tuple[int, ...]] = []
    for i in range(a):
        row: list[int] = []
        for j in range(b):
            # (i, j, h) and (i + s, j + s, h + s) project alike, so the search
            # starts at the monotonicity bound from the recovered neighbours
            cap = min(c, row[j - 1] if j else c, rows[i - 1][j] if i else c)
            h = next((h for h in range(cap, -1, -1) if mask & bits[_top(i, j, h, a)]), None)
            if h is None:
                raise ValueError(f"no top face found for column {(i, j)}")
            row.append(h)
        rows.append(tuple(row))
    pp = tuple(rows)
    if sum(bits[lozenge] for lozenge in _surface(pp, a, b, c)) != mask:
        raise ValueError("tiling is not the surface of any plane partition")
    return pp


def test_bijection_round_trip():
    # A top face is a lozenge whose two triangles share (x, y); the one of
    # column (i, j) at height h has y = a + h - i - 1, so on every partition
    # of a box the volume minus the top faces' y is -b * a(a - 1) / 2.
    total = 0
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        region = build_hexagon(a, b, c)
        lat = region.lattice
        tops = [k for k, (i, j) in enumerate(lat.pairs) if lat.cells[i][:2] == lat.cells[j][:2]]
        tilings = set()
        for pp in enumerate_pp(a, b, c):
            t = pp_to_lozenges(pp, a, b, c)
            assert type(t) is int and lozenges_to_pp(t, a, b, c) == pp
            ys = sum(lat.cells[lat.pairs[k][0]].y for k in tops if t >> k & 1)
            assert volume(pp) - ys == -b * a * (a - 1) // 2, (a, b, c, pp)
            tilings.add(t)
        assert len(tilings) == macmahon_count(a, b, c)
        assert tilings == set(enumerate_tilings(region)), (a, b, c)
        total += len(tilings)
    assert total == 1836


def test_zero_partition_is_the_floor():
    zero = ((0, 0), (0, 0))
    t = pp_to_lozenges(zero, 2, 2, 2)
    assert lozenges_to_pp(t, 2, 2, 2) == zero


def test_foreign_tiling_is_rejected():
    with pytest.raises(ValueError):
        t = pp_to_lozenges(((1,),), 1, 1, 1)
        lozenges_to_pp(t, 1, 1, 2)
    # every mask one bit off a tiling, and one with a bit past the last piece
    a, b, c = 2, 2, 2
    pieces = len(build_hexagon(a, b, c).lattice.pairs)
    for pp in enumerate_pp(a, b, c):
        mask = pp_to_lozenges(pp, a, b, c)
        for k in range(pieces):
            with pytest.raises(ValueError):
                lozenges_to_pp(mask ^ 1 << k, a, b, c)
        with pytest.raises(ValueError, match="not the surface"):
            lozenges_to_pp(mask | 1 << pieces, a, b, c)


@pytest.mark.parametrize(
    "pp, box, fault",
    [
        (((0, 1),), (1, 2, 1), "row 0 rises from 0 to 1 at column 1"),  # gave a 6-lozenge mask
        (((2,),), (1, 1, 1), r"entry \(0, 0\) is 2, outside 0..1"),  # raised a bare KeyError
        (((1, 1),), (1, 1, 1), r"shape is not 1 x 1"),  # raised a bare KeyError
        (((1,), (2,)), (2, 1, 2), "column 0 rises from 1 to 2 at row 1"),
        (((1,),), (2, 1, 1), r"shape is not 2 x 1"),
        (((-1,),), (1, 1, 1), r"entry \(0, 0\) is -1, outside 0..1"),
    ],
)
def test_a_stack_that_is_no_plane_partition_in_the_box_is_rejected(pp, box, fault):
    with pytest.raises(ValueError, match=fault):
        pp_to_lozenges(pp, *box)
