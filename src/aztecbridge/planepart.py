"""Plane partitions in a box and their lozenge-tiling interpretation.

A plane partition is stored as a tuple of row tuples (a rows, b columns,
entries <= c, rows and columns weakly decreasing).  Its 3-D reading is a
stack of unit cubes in the corner of an a x b x c box; the stepped surface of
the stack, projected isometrically, is a lozenge tiling of the hexagon with
sides a, b, c.
"""

from __future__ import annotations

from typing import Iterator

from .engine import CapacityError, piece
from .polyring import LaurentPoly2
from .regions import InvariantError, Tri, build_hexagon

PlanePartition = tuple  # tuple of row tuples
Tiling = tuple  # sorted tuple of lozenges, each a sorted pair of triangles

#: Brute-force generating-function bound on the box volume.
MAX_BRUTE_VOLUME = 36


def require_brute_budget(a: int, b: int, c: int) -> None:
    """Raise CapacityError if the a x b x c box is over ``MAX_BRUTE_VOLUME``."""
    if a * b * c > MAX_BRUTE_VOLUME:
        raise CapacityError(f"box volume {a * b * c} exceeds brute-force bound {MAX_BRUTE_VOLUME}")


def enumerate_pp(a: int, b: int, c: int) -> Iterator[PlanePartition]:
    """All plane partitions fitting in an a x b x c box (a side of 0 gives one empty pp)."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")
    if a == 0 or b == 0 or c == 0:
        yield tuple(() for _ in range(a)) if a else ()
        return

    def rows(prev: tuple, remaining: int) -> Iterator[list[tuple]]:
        if remaining == 0:
            yield []
            return
        for row in _dec_rows(prev, b):
            for rest in rows(row, remaining - 1):
                yield [row] + rest

    top = tuple([c] * b)
    for body in rows(top, a):
        yield tuple(body)


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


def complement(pp: PlanePartition, a: int, b: int, c: int) -> PlanePartition:
    """The complementary stack in the box, rotated back into a plane partition."""
    return tuple(
        tuple(c - pp[a - 1 - i][b - 1 - j] for j in range(b)) for i in range(a)
    )


def q_genfun_brute(a: int, b: int, c: int) -> LaurentPoly2:
    """Sum of q^volume over the box, by a walk over every plane partition in it.

    The walk goes row by row with a running volume: the rows that may
    follow a row are the weakly decreasing rows entrywise at most it, listed
    with their sums once per row reached.  Each plane partition is one leaf
    of the walk, which adds 1 to the count of its volume; no partition is
    built.  ``enumerate_pp`` lists the same partitions, as tuples.
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

# Isometric projection of the three axes onto the skewed triangular lattice;
# the three images are unit vectors at mutual 120-degree angles and sum to 0.
_U = (0, -1)  # x-axis of the box
_V = (1, 0)  # y-axis
_W = (-1, 1)  # z-axis


def _proj(x: int, y: int, z: int) -> tuple[int, int]:
    return (
        x * _U[0] + y * _V[0] + z * _W[0],
        x * _U[1] + y * _V[1] + z * _W[1],
    )


def _face_lozenge(base: tuple[int, int, int], e1, e2) -> tuple[Tri, Tri]:
    """The lozenge covered by the projected unit face base + span(e1, e2)."""
    pts = {
        _proj(*base),
        _proj(base[0] + e1[0], base[1] + e1[1], base[2] + e1[2]),
        _proj(base[0] + e2[0], base[1] + e2[1], base[2] + e2[2]),
        _proj(base[0] + e1[0] + e2[0], base[1] + e1[1] + e2[1], base[2] + e1[2] + e2[2]),
    }
    anchors = {(x - dx, y - dy) for x, y in pts for dx in (0, 1) for dy in (0, 1)}
    tris = []
    for x, y in sorted(anchors):
        if {(x, y), (x + 1, y), (x, y + 1)} <= pts:
            tris.append(Tri(x, y, True))
        if {(x + 1, y), (x, y + 1), (x + 1, y + 1)} <= pts:
            tris.append(Tri(x, y, False))
    if len(tris) != 2:
        raise InvariantError(f"face does not project to a lozenge: {sorted(pts)}")
    return piece(*tris)


_EX, _EY, _EZ = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _surface_lozenges(pp: PlanePartition, a: int, b: int, c: int) -> list:
    """Lozenges of the stepped surface of the stack, in raw projected coordinates."""
    h = [list(row) for row in pp]
    pieces = []
    for i in range(a):
        for j in range(b):
            pieces.append(_face_lozenge((i, j, h[i][j]), _EX, _EY))  # top face
    for j in range(b):  # faces perpendicular to the x-axis, plus the back wall
        prev = c
        for i in range(a + 1):
            cur = h[i][j] if i < a else 0
            for z in range(cur, prev):
                pieces.append(_face_lozenge((i, j, z), _EY, _EZ))
            prev = cur
    for i in range(a):  # faces perpendicular to the y-axis, plus the side wall
        prev = c
        for j in range(b + 1):
            cur = h[i][j] if j < b else 0
            for z in range(cur, prev):
                pieces.append(_face_lozenge((i, j, z), _EX, _EZ))
            prev = cur
    return pieces


def _hex_offset(a: int, b: int, c: int) -> tuple[int, int]:
    """Translation taking raw projected surface coordinates onto build_hexagon(a, b, c)."""
    region = build_hexagon(a, b, c)
    zero = tuple(tuple(0 for _ in range(b)) for _ in range(a))
    raw = set()
    for t1, t2 in _surface_lozenges(zero, a, b, c):
        raw.add(t1)
        raw.add(t2)
    dx = min(t.x for t in region.tris) - min(t.x for t in raw)
    dy = min(t.y for t in region.tris) - min(t.y for t in raw)
    moved = {Tri(t.x + dx, t.y + dy, t.up) for t in raw}
    if moved != region.tris:
        raise InvariantError("projected surface must tile the hexagon exactly")
    return dx, dy


def pp_to_lozenges(pp: PlanePartition, a: int, b: int, c: int) -> Tiling:
    """The lozenge tiling of build_hexagon(a, b, c) encoding the stack pp."""
    dx, dy = _hex_offset(a, b, c)
    out = []
    for t1, t2 in _surface_lozenges(pp, a, b, c):
        out.append(piece(Tri(t1.x + dx, t1.y + dy, t1.up), Tri(t2.x + dx, t2.y + dy, t2.up)))
    return tuple(sorted(out))


def lozenges_to_pp(tiling: Tiling, a: int, b: int, c: int) -> PlanePartition:
    """Inverse of pp_to_lozenges; raises ValueError if no stack matches."""
    dx, dy = _hex_offset(a, b, c)
    have = set(tiling)
    rows: list[list[int]] = []
    for i in range(a):
        row: list[int] = []
        for j in range(b):
            # The projection identifies (i, j, h) with (i+s, j+s, h+s), so cap
            # the search by the monotonicity bound from recovered neighbors.
            cap = min(
                c,
                row[j - 1] if j > 0 else c,
                rows[i - 1][j] if i > 0 else c,
            )
            for h in range(cap, -1, -1):
                t1, t2 = _face_lozenge((i, j, h), _EX, _EY)
                loz = piece(
                    Tri(t1.x + dx, t1.y + dy, t1.up), Tri(t2.x + dx, t2.y + dy, t2.up)
                )
                if loz in have:
                    row.append(h)
                    break
            else:
                raise ValueError(f"no top face found for column {(i, j)}")
        rows.append(row)
    pp = tuple(tuple(r) for r in rows)
    if pp_to_lozenges(pp, a, b, c) != tuple(sorted(tiling)):
        raise ValueError("tiling is not the surface of any plane partition")
    return pp
