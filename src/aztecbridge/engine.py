"""Tiling enumeration and exact counting.

One counter and one enumerator serve both lattices: a ``Region`` and a
``TriRegion`` each number their cells (triangles) in sorted order and derive
the same matching tables on those ids (``regions.Lattice``: neighbour ids,
Kasteleyn signs, unit faces, colour classes), and both engines read only
those.

The enumerator lists the perfect matchings of the dual graph (dominoes on
cells, lozenges on triangles) by branching on the lexicographically first
uncovered vertex, which makes the emitted order canonical and reproducible.
Each matching is an int mask over the sorted id pairs ``Lattice.pairs``.
It is iterative: vertex i is bit i of one int of covered vertices, and an
explicit stack keeps one frame per placed piece.

Counting is Kasteleyn's determinant (Kasteleyn 1961; Kenyon, "Lectures on
dimers", 2009).  The matrix has a row per white cell (up-triangle) and a
column per black cell (down-triangle), both in id order, and the signed
edge weight where the two are adjacent.  When the signs around every
bounded face of length 2k multiply to (-1)^(k+1), every perfect matching
enters the determinant with the same sign, so |det| counts the tilings in
polynomial time.  Dominoes: +1 on a horizontal edge and (-1)^x on the
vertical edge from (x, y) to (x, y + 1), so every unit square has sign
product -1.  Lozenges: every face is a hexagon, so every sign is +1.  Each
region derives its signs with its ids (``Lattice.signs``).  The rule needs
the faces to be those unit faces only, so a region with a hole is rejected
up front.  A count builds the matrix of signs and keeps only its
determinant (``_unit_det``).  Only a weighted sum keeps a skeleton of the
matrix on the region, each entry's column, sign and piece
(``_kasteleyn_rows``), and fills in the signs times the weights of the
pieces, each row cleared of its denominators
(``matchgraph.region_matching_sum``).  The determinant is exact:
fraction-free Bareiss elimination over int.

The q-weighted frontier sweep, which places one cell at a time with
per-piece rank weights, lives with ``stats.tq_sum``.
"""

from __future__ import annotations

from typing import Iterator

from .regions import Cell, InvariantError, Region, TriRegion, derived

Domino = tuple[Cell, Cell]


class CapacityError(RuntimeError):
    """Region exceeds a documented size bound of the requested engine."""


def is_vertical(d: Domino) -> bool:
    return d[0].x == d[1].x


def _matchings(choices: list) -> Iterator[int]:
    """Every perfect matching, as the mask of its pieces' bits.

    ``choices[i]`` lists, for vertex i, a pair (bit i | bit j, piece bit) per
    neighbour j > i, in increasing j.  The first uncovered vertex has every
    earlier vertex covered, so only those later neighbours can be its
    partner.  Vertex i is bit i of the ``covered`` mask, so the first
    uncovered vertex is the lowest clear bit.  The search is iterative:
    ``stack`` holds one frame (vertex, next choice, covered, tiling) per
    placed piece, the masks as they were before it, so taking the piece back
    restores them.
    """
    full = (1 << len(choices)) - 1
    if not full:
        yield 0
        return
    covered = tiling = 0
    stack: list[tuple[int, int, int, int]] = []
    v = choice = 0
    while True:
        options = choices[v]
        while choice < len(options) and covered & options[choice][0]:
            choice += 1
        if choice < len(options):
            pair, bit = options[choice]
            stack.append((v, choice + 1, covered, tiling))
            covered |= pair
            tiling |= bit
            if covered != full:
                v, choice = (~covered & (covered + 1)).bit_length() - 1, 0
                continue
            yield tiling
        elif not stack:
            return
        # take back the newest piece and try its vertex's next choice
        v, choice, covered, tiling = stack.pop()


def enumerate_tilings(region: Region | TriRegion) -> Iterator[int]:
    """Yield every tiling exactly once, in canonical order, as a mask over ``Lattice.pairs``."""
    lat = region.lattice
    choices: list[list] = [[] for _ in lat.cells]
    for k, (i, j) in enumerate(lat.pairs):  # sorted, so each vertex has its j increasing
        choices[i].append((1 << i | 1 << j, 1 << k))
    yield from _matchings(choices)


def count_tilings(region: Region | TriRegion) -> int:
    """Number of tilings: |det| of the region's Kasteleyn matrix."""
    return abs(_unit_det(region))


@derived
def _unit_det(region: Region | TriRegion) -> int:
    """The unweighted Kasteleyn determinant, derived once per region.

    Every tiling enters with the same sign, so this is that sign times the
    tiling count.  With colour classes of different sizes there is no
    perfect matching, and it is 0.  A region with a hole raises
    InvariantError.  The matrix of signs is built here and dropped: a
    count keeps no skeleton on the region (``_kasteleyn_rows``).
    """
    lat = region.lattice
    _require_hole_free(lat.adjacent, len(lat.faces))
    if len(lat.white) != len(lat.black):
        return 0
    col = {b: j for j, b in enumerate(lat.black)}
    adjacent, signs = lat.adjacent, lat.signs
    return _det([{col[b]: s for b, s in zip(adjacent[w], signs[w])} for w in lat.white])


@derived
def _kasteleyn_rows(region: Region | TriRegion) -> tuple:
    """The Kasteleyn matrix's skeleton: per white id, (column, sign, piece) per black neighbour.

    The column is the black id's place in ``Lattice.black`` and the piece
    is the index in ``Lattice.pairs`` of the domino (lozenge) on the two
    ids.  It is derived once per region, for the weighted sums only; the
    signs are Kasteleyn's on a hole-free region, which ``_unit_det``
    checks first.
    """
    lat = region.lattice
    col = {b: j for j, b in enumerate(lat.black)}
    piece = {pair: k for k, pair in enumerate(lat.pairs)}
    adjacent, signs = lat.adjacent, lat.signs
    # list comprehensions frozen into tuples: faster than tuple() over generators
    return tuple([
        tuple([(col[b], s, piece[(w, b) if w < b else (b, w)]) for b, s in zip(adjacent[w], signs[w])])
        for w in lat.white
    ])


def _require_hole_free(adjacent: tuple, unit_faces: int) -> None:
    """Raise InvariantError unless every bounded face of the graph is a unit face.

    ``adjacent`` lists the neighbour ids of each vertex id.  A planar graph
    with V vertices, E edges and C components has E - V + C bounded faces.
    ``unit_faces`` counts the squares (hexagons) around the lattice points
    with all their cells (triangles) present; any other bounded face
    surrounds a hole.
    """
    seen = [False] * len(adjacent)
    components = 0
    for v in range(len(adjacent)):
        if seen[v]:
            continue
        components += 1
        seen[v] = True
        stack = [v]
        while stack:
            for w in adjacent[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    edges = sum(map(len, adjacent)) // 2
    faces = edges - len(adjacent) + components
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
