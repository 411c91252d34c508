"""Plane partitions in a box and their lozenge-tiling interpretation.

A plane partition is stored as a tuple of row tuples (a rows, b columns,
entries <= c, rows and columns weakly decreasing).  Its 3-D reading is a
stack of unit cubes in the corner of an a x b x c box; the stepped surface of
the stack, projected isometrically, is a lozenge tiling of the hexagon with
sides a, b, c: ``pp_to_lozenges`` gives it as a mask over the hexagon's
``Lattice.pairs``, as every tiling is given (the tests read one back).
"""

from __future__ import annotations

from collections.abc import Iterator

from .polyring import LaurentPoly2
from .regions import CapacityError, Tri, build_hexagon

PlanePartition = tuple  # tuple of row tuples

#: Brute-force generating-function bound on the box volume.
MAX_BRUTE_VOLUME = 36


def require_brute_budget(a: int, b: int, c: int) -> None:
    """Raise CapacityError if the a x b x c box is over ``MAX_BRUTE_VOLUME``."""
    if a * b * c > MAX_BRUTE_VOLUME:
        raise CapacityError(f"box volume {a * b * c} exceeds brute-force bound {MAX_BRUTE_VOLUME}")


def _dec_rows(bound: tuple, width: int) -> Iterator[tuple]:
    """Weakly decreasing rows of the given width, entrywise <= bound."""

    def rec(i: int, cap: int) -> Iterator[tuple]:
        if i == width:
            yield ()
            return
        for v in range(min(cap, bound[i]), -1, -1):
            for rest in rec(i + 1, v):
                yield (v,) + rest

    yield from rec(0, bound[0])


def volume(pp: PlanePartition) -> int:
    return sum(sum(row) for row in pp)


def q_genfun_brute(a: int, b: int, c: int) -> LaurentPoly2:
    """Sum of q^volume over the box, by a walk over every plane partition in it.

    The walk goes row by row with a running volume: the rows that may
    follow a row are the weakly decreasing rows entrywise at most it, listed
    with their sums once per row reached.  Each plane partition is one leaf
    of the walk, which adds 1 to the count of its volume; no partition is
    built.  The tests list the same partitions, as tuples, as its oracle.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    require_brute_budget(a, b, c)
    if a == 0 or b == 0 or c == 0:
        return LaurentPoly2({(0, 0): 1})
    counts = [0] * (a * b * c + 1)
    below: dict[tuple, list[tuple[tuple, int]]] = {}

    def walk(row: tuple, left: int, vol: int) -> None:
        under = below.get(row)
        if under is None:
            under = below[row] = [(r, sum(r)) for r in _dec_rows(row, b)]
        if left == 1:
            for _, s in under:  # the leaves: one per plane partition
                counts[vol + s] += 1
        else:
            for r, s in under:
                walk(r, left - 1, vol + s)

    walk((c,) * b, a, 0)
    return LaurentPoly2({(0, 2 * v): n for v, n in enumerate(counts) if n})


# -- the bijection with lozenge tilings -------------------------------------
#
# Box point (x, y, z) projects to lattice point (y - z, a + z - x) of
# build_hexagon(a, b, c): the three axes go to unit vectors at mutual
# 120-degree angles, and the empty box's floor and walls cover the hexagon.
# A unit face of the surface is then a lozenge, an up-triangle and the
# down-triangle across one of its three sides, and each face type has one
# closed form.


def _top(i: int, j: int, h: int, a: int) -> tuple[Tri, Tri]:
    """The top face of column (i, j) at height h: D(X, Y) and U(X, Y) at X = j - h, Y = a + h - i - 1."""
    x, y = j - h, a + h - i - 1
    return Tri(x, y, False), Tri(x, y, True)


def _surface(pp: PlanePartition, a: int, b: int, c: int) -> Iterator[tuple[Tri, Tri]]:
    """The lozenges, (down, up), of the stepped surface of the stack pp on build_hexagon(a, b, c).

    Past the box's back and side the height is c, past its front 0.  The
    wall faces at box point (i, j, z), which projects to (X, Y) =
    (j - z, a + z - i), are D(X - 1, Y) and U(X, Y) across x = i, and
    D(X - 1, Y - 1) and U(X - 1, Y) across y = j.
    """
    for i, row in enumerate(pp):
        for j, h in enumerate(row):
            yield _top(i, j, h, a)
        for j, (high, low) in enumerate(zip((c, *row), (*row, 0))):  # across y = j
            for z in range(low, high):
                yield Tri(j - z - 1, a + z - i - 1, False), Tri(j - z - 1, a + z - i, True)
    for i, (back, front) in enumerate(zip(((c,) * b, *pp), (*pp, (0,) * b))):  # across x = i
        for j, (high, low) in enumerate(zip(back, front)):
            for z in range(low, high):
                yield Tri(j - z - 1, a + z - i, False), Tri(j - z, a + z - i, True)


def _lozenge_bits(a: int, b: int, c: int) -> dict:
    """The mask bit of each lozenge of build_hexagon(a, b, c), keyed by its (down, up) triangles."""
    lat = build_hexagon(a, b, c).lattice
    return {(lat.cells[i], lat.cells[j]): 1 << k for k, (i, j) in enumerate(lat.pairs)}


def pp_to_lozenges(pp: PlanePartition, a: int, b: int, c: int) -> int:
    """The tiling of build_hexagon(a, b, c), a mask over its ``Lattice.pairs``, of the plane partition pp.

    Before any lozenge is found, pp is checked to be a plane partition in
    the box: the shape (a rows of b entries), then entry by entry, row by
    row, the range 0..c and no rise from the entry to the left or from the
    one above.  The first fault raises ValueError.
    """
    if len(pp) != a or any(len(row) != b for row in pp):
        raise ValueError(f"the partition's shape is not {a} x {b}, the base of the box {(a, b, c)}")
    for i, row in enumerate(pp):
        for j, h in enumerate(row):
            if not 0 <= h <= c:
                raise ValueError(f"entry {(i, j)} is {h}, outside 0..{c}")
            if j and h > row[j - 1]:
                raise ValueError(f"row {i} rises from {row[j - 1]} to {h} at column {j}")
            if i and h > pp[i - 1][j]:
                raise ValueError(f"column {j} rises from {pp[i - 1][j]} to {h} at row {i}")
    bits = _lozenge_bits(a, b, c)
    return sum(bits[lozenge] for lozenge in _surface(pp, a, b, c))

