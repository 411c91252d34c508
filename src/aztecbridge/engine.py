"""Tiling enumeration, exact counting, and the two weighted sums over tilings.

One counter and one enumerator serve both lattices: a ``Region`` and a
``TriRegion`` each number their cells (triangles) in sorted order and derive
the same matching tables on those ids (``regions.Lattice``: neighbour ids,
Kasteleyn signs, unit faces, colours), and both engines read only those.

The enumerator lists the perfect matchings of the dual graph (dominoes on
cells, lozenges on triangles) by branching on the lexicographically first
uncovered vertex, which makes the emitted order canonical and reproducible.
Each matching is an int mask over the sorted id pairs ``Lattice.pairs``.
It is iterative: vertex i is bit i of one int of covered vertices, and an
explicit stack keeps one frame per placed piece.  The enumerator serves the
tests as an oracle.  A tiling index needs no listing: ``tiling_at`` unranks
it in the same order from completion counts (``_completions``).

The frontier.  ``_completions`` and the sweep ``_sweep`` place one cell per
step.  Before a step the state is the mask of the later cells that earlier
pieces cover, shifted so that the step's cell is bit 0: a covered cell
shifts, and a free one takes a piece to each later free cell.  Every pass
reads its moves from one table (``_moves``).  The id order's
(``_id_moves``) is the enumerator's branching order too; the sweep runs on
the narrowest of four cell orders (``_cell_orders``).  ``state_bound``
bounds the states at a step for both budgets.  The sweep's public entry,
``frontier_sum``, packs its states and picks its order; no caller does.

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
determinant (``_unit_det``); only the weighted sum ``kasteleyn_sum`` keeps
the matrix's skeleton on the region (``_kasteleyn_rows``).  The determinant
is exact: fraction-free Bareiss elimination over int (``_det``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, lcm

from .regions import CapacityError, Cell, InvariantError, Region, TriRegion, derived

Domino = tuple[Cell, Cell]


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


def _moves(region: Region | TriRegion, place: Sequence[int]) -> tuple:
    """Per step of the order with id i at step place[i], (1 << gap, k) per piece k starting there.

    gap is the steps to the piece's other cell; a step's moves keep ``Lattice.pairs`` order.
    """
    moves: list[list] = [[] for _ in place]
    for k, (i, j) in enumerate(region.lattice.pairs):
        p, q = place[i], place[j]
        moves[p if p < q else q].append((1 << abs(p - q), k))
    return tuple(map(tuple, moves))


@derived
def _id_moves(region: Region | TriRegion) -> tuple:
    """``_moves`` in id order, derived once per region: the enumerator's branching order."""
    return _moves(region, range(len(region.lattice.cells)))


def enumerate_tilings(region: Region | TriRegion) -> Iterator[int]:
    """Yield every tiling exactly once, in canonical order, as a mask over ``Lattice.pairs``."""
    choices = [
        [((bit | 1) << i, 1 << k) for bit, k in here] for i, here in enumerate(_id_moves(region))
    ]
    yield from _matchings(choices)


def state_bound(width: int) -> int:
    """C(w, w // 2): a bound on the frontier's states at a step of an order of width w.

    A state's bits lie among the w cells ahead, with a fixed surplus of black
    over white (a piece covers one of each): at most C(w, w // 2) share a step.
    """
    return comb(width, width // 2)


#: Most work ``tiling_at`` may take on, ``state_bound(w)`` times the cells,
#: w the largest j - i over ``Lattice.pairs``: a bound on the states its
#: passes keep, a set or a dict per step.  One index, the whole command in a
#: fresh process, 2-vCPU host: ad:9 (cost 8.8e6) 0.35 s and 64 MB peak RSS,
#: dr:4,5,5,5,6 (1.1e7) 0.26 s and 48 MB; ad:10 (4.1e7) took 1.2 s and
#: 226 MB, and is rejected.
MAX_INDEX_COST = 2 * 10**7


def require_index_budget(region: Region | TriRegion) -> None:
    """Raise CapacityError if ``tiling_at`` costs over ``MAX_INDEX_COST``; takes no determinant."""
    lat = region.lattice
    width = max((j - i for i, j in lat.pairs), default=0)
    cost = state_bound(width) * len(lat.cells)
    if cost > MAX_INDEX_COST:
        budget = f"over the budget of {MAX_INDEX_COST:.0e}"
        raise CapacityError(f"{region.spec_string()}: tiling index cost {cost:.2e} is {budget}")


@derived
def _completions(region: Region | TriRegion) -> list[dict[int, int]]:
    """Per step of the id order, the ways to finish the tiling from each state that can.

    Derived once per region: a forward pass over ``_id_moves`` collects the
    states each step reaches, and a backward pass counts each one's
    completions.  Entry 0 holds the tiling count, which must equal the
    Kasteleyn count, or InvariantError is raised.
    """
    moves = _id_moves(region)
    layers = [{0}]
    for here in moves:
        nxt = set()
        add = nxt.add
        for state in layers[-1]:
            if state & 1:
                add(state >> 1)
            else:
                for bit, _ in here:
                    if not state & bit:
                        add((state | bit) >> 1)
        layers.append(nxt)
    layers.pop()  # the last step's: no id is left to cover, so only state 0 finishes
    counts = [{0: 1}]
    for here in reversed(moves):
        get = counts[-1].get
        now = {}
        for state in layers.pop():
            if state & 1:
                c = get(state >> 1, 0)
            else:
                c = 0
                for bit, _ in here:
                    if not state & bit:
                        c += get((state | bit) >> 1, 0)
            if c:
                now[state] = c
        counts.append(now)
    counts.reverse()
    total, expected = counts[0].get(0, 0), abs(_unit_det(region))
    if total != expected:
        raise InvariantError(f"completion counts give {total} tilings, the determinant {expected}")
    return counts


def tiling_at(region: Region | TriRegion, index: int) -> int:
    """The mask of the tiling at ``index`` in ``enumerate_tilings``'s order, listing none before it.

    Walk the ids with the completion counts of ``_completions``: a free id
    takes the first of its moves whose completions exceed what is left of
    the index, less those of each move it skips.  Over ``MAX_INDEX_COST``
    it raises CapacityError before any determinant, and for an index
    outside [0, count) IndexError before any pass.
    """
    require_index_budget(region)
    if not 0 <= index < count_tilings(region):
        raise IndexError(f"tiling index {index} out of range")
    state = mask = 0
    for here, after in zip(_id_moves(region), _completions(region)[1:]):
        if state & 1:
            state >>= 1
            continue
        for bit, k in here:
            if state & bit:
                continue
            c = after.get((state | bit) >> 1, 0)
            if index < c:
                state = (state | bit) >> 1
                mask |= 1 << k
                break
            index -= c
    return mask


#: Cell orders for the sweep: cells sorted by (a x + b y, c x + d y) for each
#: ((a, b), (c, d)), that is by columns, by rows and along both diagonals.
_ORDERS = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 0)), ((1, -1), (1, 0)))


@derived
def _cell_orders(region: Region) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(width, place) per order of ``_ORDERS``, cell id i at step place[i], narrowest first.

    No piece spans more steps than the width; orders of equal width keep
    the order of ``_ORDERS``.  Derived once per region.
    """
    lat = region.lattice
    out = []
    for (a, b), (c, d) in _ORDERS:
        keys = [(a * x + b * y, c * x + d * y) for x, y in lat.cells]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        place = tuple(sorted(range(len(keys)), key=order.__getitem__))  # the inverse of order
        out.append((max((abs(place[i] - place[j]) for i, j in lat.pairs), default=0), place))
    return tuple(sorted(out, key=lambda order: order[0]))


#: Most work the sweep may take on, ``state_bound(w)`` * N**3 for N cells at
#: width w: the state bound times N for each of the vertical counts, the
#: largest rank and the slot width of a state's packed ints.  Fresh
#: process, 2-vCPU host: ad:10 (cost 4.9e9) 0.4 s and 41 MB, ad:11 (1.7e10)
#: 1.2 s and 100 MB, ad:12 (5.2e10) 4.1 s and 300 MB.  Double rectangles of
#: <= 200 cells: <= 1.4e10.
MAX_SWEEP_COST = 2 * 10**10


def require_frontier_budget(region: Region) -> None:
    """Raise CapacityError if the sweep costs more than ``MAX_SWEEP_COST``; takes no determinant."""
    cost = state_bound(_cell_orders(region)[0][0]) * len(region.cells) ** 3
    if cost > MAX_SWEEP_COST:
        budget = f"over the budget of {MAX_SWEEP_COST:.0e}"
        raise CapacityError(f"{region.spec_string()}: sweep cost {cost:.2e} is {budget}")


def _sweep(moves: tuple, vertical: Sequence[int], shifts: Sequence[int]) -> dict[int, int]:
    """Per vertical count, the sum over tilings of 1 << (the sum of their pieces' shifts).

    A pass over ``moves`` (``_moves``) in which piece k adds vertical[k] to
    the vertical count and shifts[k] >= 0 to the shift.  A state fixes its
    partial tilings' futures, so one that cannot finish merges with none
    that can: the result sums over tilings only.
    """
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for here in moves:
        nxt: dict[int, dict[int, int]] = {}
        for state, terms in states.items():
            if state & 1:  # covered: one successor, which may take the map itself
                sink = nxt.setdefault(state >> 1, terms)
                if sink is not terms:
                    for vt, packed in terms.items():
                        sink[vt] = sink.get(vt, 0) + packed
                continue
            for bit, k in here:
                if state & bit:
                    continue
                key = (state | bit) >> 1
                up, shift = vertical[k], shifts[k]
                sink = nxt.get(key)
                if sink is None:
                    nxt[key] = {vt + up: packed << shift for vt, packed in terms.items()}
                else:
                    for vt, packed in terms.items():
                        sink[vt + up] = sink.get(vt + up, 0) + (packed << shift)
        states = nxt
    return states.get(0, {})


def frontier_sum(region: Region, vertical: Sequence[int], weights: Sequence[int]) -> dict:
    """{(vertical count, total weight): tilings}, by ``_sweep`` on the narrowest cell order.

    Piece k adds vertical[k] and weights[k] >= 0.  A packed int holds the
    tilings of weight r in bits [r W, (r + 1) W), W the bit length of the
    determinant count, which they must sum to (a slot that overflowed
    would carry and lower the sum), or InvariantError is raised.  Over
    ``MAX_SWEEP_COST`` it raises CapacityError before the determinant.
    """
    require_frontier_budget(region)
    count = count_tilings(region)
    bits = count.bit_length()
    slot = (1 << bits) - 1
    shifts = [c * bits for c in weights]
    terms = {}
    for vt, packed in _sweep(_moves(region, _cell_orders(region)[0][1]), vertical, shifts).items():
        for r in range(-(-packed.bit_length() // bits)):
            if c := packed >> r * bits & slot:
                terms[(vt, r)] = c
    if sum(terms.values()) != count:
        raise InvariantError(f"q coefficients sum to {sum(terms.values())}, not {count}")
    return terms


def count_tilings(region: Region | TriRegion) -> int:
    """Number of tilings: |det| of the region's Kasteleyn matrix."""
    return abs(_unit_det(region))


@derived
def _unit_det(region: Region | TriRegion) -> int:
    """The unweighted Kasteleyn determinant, derived once per region.

    Every tiling enters with the same sign, so this is that sign times the
    tiling count, or 0 with colour classes of different sizes.  A region
    with a hole raises InvariantError.  The matrix is not kept.
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
    ids.  It is derived once per region, for ``kasteleyn_sum`` only.
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


def kasteleyn_sum(region: Region | TriRegion, weights: Sequence[tuple[int, int]]) -> Fraction:
    """Sum over tilings of the product of their pieces' weights, as one determinant.

    weights[k] is piece k's (numerator, positive denominator).  Each entry
    of the skeleton gets its sign times its piece's weight, and each row is
    cleared by the lcm of its own denominators.  det(K_w) is the sum times
    a sign every tiling shares, which ``_unit_det`` gives, so negative
    weights come out right.  A region with no tiling sums to 0; a hole
    raises InvariantError.
    """
    count = _unit_det(region)
    if not count:
        return Fraction(0)
    nums = [n for n, _ in weights]
    dens = [d for _, d in weights]
    rows, multiplier = [], 1
    for row in _kasteleyn_rows(region):
        mult = lcm(*(dens[p] for _, _, p in row))
        rows.append({j: s * nums[p] * (mult // dens[p]) for j, s, p in row})
        multiplier *= mult
    det = _det(rows)
    return Fraction(det if count > 0 else -det, multiplier)


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
