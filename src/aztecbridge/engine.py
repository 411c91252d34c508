"""Tiling enumeration and exact counting.

One counter and one enumerator serve both lattices: a ``Region`` and a
``TriRegion`` each derive the same matching-problem invariants (neighbours,
unit faces, colour classes), and both engines read only those.

The enumerator lists the perfect matchings of the dual graph (dominoes on
cells, lozenges on triangles) by branching on the lexicographically first
uncovered vertex, which makes the emitted order canonical and reproducible.
It is iterative: the covered vertices are the bits of one int, and an
explicit stack keeps one frame per placed piece.

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
elimination over int.  A caller with rational weights clears each row of
its denominators first (``matchgraph.region_matching_sum``).

The q-weighted column sweep, with its column fill on integer cell masks,
lives with ``stats.tq_sum``.
"""

from __future__ import annotations

from typing import Iterator

from .regions import Cell, InvariantError, Region, TriRegion, derived

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
    covered, so only those later neighbours can be its partner.  Vertex i
    is bit i of the ``covered`` mask, so the first uncovered vertex is the
    lowest clear bit.  The search is iterative: ``stack`` holds one frame
    (vertex, next choice) per placed piece, and since each piece's first
    vertex is larger than the one below it, ``pieces`` is always sorted.
    """
    order = list(later)
    bit = {v: 1 << i for i, v in enumerate(order)}
    choices = [[(bit[v] | bit[w], (v, w)) for w in later[v]] for v in order]
    full = (1 << len(order)) - 1
    if not full:
        yield ()
        return
    covered = 0
    pieces: list = []
    stack: list[tuple[int, int]] = []
    v = choice = 0
    while True:
        options = choices[v]
        while choice < len(options) and covered & options[choice][0]:
            choice += 1
        if choice < len(options):
            pair, placed = options[choice]
            covered |= pair
            pieces.append(placed)
            stack.append((v, choice + 1))
            if covered != full:
                v, choice = (~covered & (covered + 1)).bit_length() - 1, 0
                continue
            yield tuple(pieces)
        elif not stack:
            return
        # take back the newest piece and try its vertex's next choice
        v, choice = stack.pop()
        covered ^= choices[v][choice - 1][0]
        pieces.pop()


def enumerate_tilings(region: Region | TriRegion) -> Iterator[Tiling]:
    """Yield every tiling exactly once, in canonical order."""
    nbs = region.neighbours
    yield from _matchings({v: sorted(w for w in nbs[v] if w > v) for v in sorted(nbs)})


def count_tilings(region: Region | TriRegion) -> int:
    """Number of tilings: |det| of the region's Kasteleyn matrix."""
    return abs(_unit_det(region))


@derived
def _unit_det(region: Region | TriRegion) -> int:
    """The unweighted Kasteleyn determinant, once the region is known to be hole-free.

    It is derived once per region, and with it the hole check, which raises
    InvariantError on a region with a hole.  Every tiling enters with the
    same sign, so this is that sign times the tiling count.  With colour
    classes of different sizes there is no perfect matching, and it is 0.
    """
    nbs = region.neighbours
    _require_hole_free(nbs, region.unit_faces)
    whites, blacks = region.colour_classes
    if len(whites) != len(blacks):
        return 0
    col = {b: j for j, b in enumerate(blacks)}
    sign = (lambda w, b: 1) if isinstance(region, TriRegion) else _domino_sign
    return _det([{col[b]: sign(w, b) for b in nbs[w]} for w in whites])


def _domino_sign(w: Cell, b: Cell) -> int:
    """The Kasteleyn sign of the domino on white cell w and black cell b.

    The signs are only valid on a hole-free region: read
    ``_unit_det`` first, which rejects a region with a hole.
    """
    return -1 if w.x == b.x and w.x % 2 else 1


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


def _det(rows: list[dict]) -> int:
    """Exact determinant of a square integer matrix given as sparse rows {column: entry}.

    Every entry must be an int; rational rows are the caller's to clear.
    This is Bareiss elimination: step i replaces each later row's entry by
    (p_i * m_jk - m_ji * m_ik) / p_(i-1) with p_i the current pivot; the
    result is a minor of the original matrix, so the division is exact.  A
    row with no entry in the pivot column is only rescaled by p_i / p_(i-1);
    that rescaling is deferred until the row is next used (``scale`` holds
    the pivot it is current against), so a step costs work only in the rows
    it touches.  The last pivot is the determinant.
    """
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
