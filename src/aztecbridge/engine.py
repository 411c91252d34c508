"""Tiling enumeration and exact counting.

One enumerator serves both lattices: it lists the perfect matchings of the
dual graph (dominoes on cells, lozenges on triangles) by branching on the
lexicographically first uncovered vertex, which makes the emitted order
canonical and reproducible.

Counting is Kasteleyn's determinant (Kasteleyn 1961; Kenyon, "Lectures on
dimers", 2009).  The matrix has a row per white cell (up-triangle) and a
column per black cell (down-triangle), both in sorted order, and the signed
edge weight where the two are adjacent.  When the signs around every
bounded face of length 2k multiply to (-1)^(k+1), every perfect matching
enters the determinant with the same sign, so |det| counts the tilings in
polynomial time.  Dominoes: +1 on a horizontal edge and (-1)^x on the
vertical edge from (x, y) to (x, y + 1), so every unit square has sign
product -1.  Lozenges: every face is a hexagon, so every sign is +1.  The
rule needs the faces to be those unit faces only, so a region with a hole
is rejected up front.  The determinant is exact: fraction-free Bareiss
elimination over int, with rational rows cleared of denominators first.

The q-weighted column sweep, with its column fill on integer cell masks,
lives with ``stats.tq_sum``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator

from .regions import Cell, InvariantError, Region, Tri, TriRegion, tri_neighbors

Domino = tuple[Cell, Cell]
Tiling = tuple  # sorted tuple of pieces


class CapacityError(RuntimeError):
    """Region exceeds a documented size bound of the requested engine."""


def is_vertical(d: Domino) -> bool:
    return d[0].x == d[1].x


def piece(a, b):
    return (a, b) if a <= b else (b, a)


def _matchings(later: dict) -> Iterator[Tiling]:
    """Every perfect matching, as a sorted tuple of (vertex, partner) pieces.

    ``later`` maps each vertex, in sorted order, to its sorted neighbours
    that come after it.  The first uncovered vertex has every earlier vertex
    covered, so only those later neighbours can be its partner.
    """
    order = list(later)
    covered: set = set()
    pieces: list = []

    def rec(i: int) -> Iterator[Tiling]:
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


def enumerate_tilings(region: Region) -> Iterator[Tiling]:
    """Yield every domino tiling exactly once, in canonical order."""
    cells = region.cells
    yield from _matchings(
        {
            c: [d for d in (Cell(c.x, c.y + 1), Cell(c.x + 1, c.y)) if d in cells]
            for c in region.sorted_cells
        }
    )


def count_tilings(region: Region) -> int:
    """Number of domino tilings: |det| of the region's Kasteleyn matrix."""
    return abs(region.kasteleyn_det)


def _unit_domino_det(region: Region) -> int:
    """The unweighted determinant, once the region is known to be hole-free.

    ``Region.kasteleyn_det`` keeps it, so the hole check and this
    determinant run at most once per region.
    """
    cells = region.cells
    blocks = sum(
        1
        for x, y in cells
        if Cell(x + 1, y) in cells and Cell(x, y + 1) in cells and Cell(x + 1, y + 1) in cells
    )
    _require_hole_free(region.neighbours, blocks)
    return _domino_det(region, lambda c, d: 1)


def _domino_det(region: Region, weight: Callable):
    """det of the Kasteleyn matrix with entries sign * weight(white, black).

    Every tiling enters with the same sign, that of ``Region.kasteleyn_det``,
    so this is that sign times the sum over tilings of the product of domino
    weights.  The signs are only valid on a hole-free region: read
    ``Region.kasteleyn_det`` first, which rejects a region with a hole.
    """
    white = region.white_parity
    ordered = region.sorted_cells
    whites = [c for c in ordered if (c.x + c.y) % 2 == white]
    blacks = [c for c in ordered if (c.x + c.y) % 2 != white]

    def entry(w: Cell, b: Cell):
        sign = -1 if w.x == b.x and w.x % 2 else 1
        return sign * weight(w, b)

    return _kasteleyn_det(whites, blacks, region.neighbours, entry)


def _require_hole_free(adj: dict, unit_faces: int) -> None:
    """Raise InvariantError unless every bounded face of the graph is a unit face.

    A planar graph with V vertices, E edges and C components has
    E - V + C bounded faces.  ``unit_faces`` counts the squares (hexagons)
    around the lattice points with all their cells (triangles) present;
    any other bounded face surrounds a hole.
    """
    seen: set = set()
    components = 0
    for v in adj:
        if v in seen:
            continue
        components += 1
        seen.add(v)
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    edges = sum(len(nbs) for nbs in adj.values()) // 2
    faces = edges - len(adj) + components
    if faces != unit_faces:
        raise InvariantError(
            f"region has {faces - unit_faces} hole(s); the Kasteleyn signs need a hole-free region"
        )


def _kasteleyn_det(whites: list, blacks: list, adj: dict, entry: Callable):
    """det of the matrix with rows whites, columns blacks and sparse entries.

    Row w holds entry(w, b) for each neighbour b of w.  With colour classes
    of different sizes there is no perfect matching, and the value is 0.
    """
    if len(whites) != len(blacks):
        return 0
    col = {b: j for j, b in enumerate(blacks)}
    return _det([{col[b]: entry(w, b) for b in adj[w]} for w in whites])


def _det(rows: list[dict]):
    """Exact determinant of a square matrix given as sparse rows {column: entry}.

    Rational entries are cleared first: each row is multiplied by the least
    common multiple of its denominators, and the integer determinant is
    divided by the product of those multipliers.  The integer part is
    Bareiss elimination: step i replaces each later row's entry by
    (p_i * m_jk - m_ji * m_ik) / p_(i-1) with p_i the current pivot; the
    result is a minor of the original matrix, so the division is exact.  A
    row with no entry in the pivot column is only rescaled by p_i / p_(i-1);
    that rescaling is deferred until the row is next used (``scale`` holds
    the pivot it is current against), so a step costs work only in the rows
    it touches.  The last pivot is the determinant.
    """
    denominator = 1
    if not all(type(v) is int for row in rows for v in row.values()):
        cleared = []
        for row in rows:
            mult = math.lcm(*(v.denominator for v in row.values()))
            cleared.append({k: v.numerator * (mult // v.denominator) for k, v in row.items()})
            denominator *= mult
        return Fraction(_det(cleared), denominator)
    rows = [dict(row) for row in rows]
    n = len(rows)
    scale = [1] * n
    prev = sign = 1

    def current(j: int) -> dict:
        row = rows[j]
        if scale[j] != prev:
            row = {k: v * prev // scale[j] for k, v in row.items()}
        return row

    for i in range(n):
        live = [j for j in range(i, n) if rows[j].get(i)]
        if not live:
            return 0
        if live[0] != i:  # row i has no entry in column i: swap the first live row in
            p = live[0]
            rows[i], rows[p] = rows[p], rows[i]
            scale[i], scale[p] = scale[p], scale[i]
            sign = -sign
        pivot_row = current(i)
        pivot = pivot_row.pop(i)
        for j in live[1:]:
            row = current(j)
            lead = row.pop(i)
            new = {k: pivot * v for k, v in row.items()}
            for k, v in pivot_row.items():
                new[k] = new.get(k, 0) - lead * v
            rows[j] = {k: v // prev for k, v in new.items() if v}
            scale[j] = pivot
        prev = pivot
    return sign * prev


def enumerate_lozenge_tilings(region: TriRegion) -> Iterator[Tiling]:
    """Yield every lozenge tiling exactly once, in canonical order."""
    tris = region.tris
    yield from _matchings(
        {t: sorted(nb for nb in tri_neighbors(t, tris) if nb > t) for t in region.sorted_tris}
    )


def count_lozenge_tilings(region: TriRegion) -> int:
    """Number of lozenge tilings: |det| of the up-by-down triangle adjacency."""
    tris = region.tris
    adj = {t: tri_neighbors(t, tris) for t in tris}
    # the six triangles around lattice point (x, y), named from U(x, y)
    hexagons = sum(
        1
        for x, y, up in tris
        if up
        and Tri(x - 1, y, True) in tris
        and Tri(x, y - 1, True) in tris
        and Tri(x - 1, y, False) in tris
        and Tri(x, y - 1, False) in tris
        and Tri(x - 1, y - 1, False) in tris
    )
    _require_hole_free(adj, hexagons)
    ordered = region.sorted_tris
    ups = [t for t in ordered if t.up]
    downs = [t for t in ordered if not t.up]
    return abs(_kasteleyn_det(ups, downs, adj, lambda u, d: 1))
