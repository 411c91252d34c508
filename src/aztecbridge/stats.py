"""Tiling statistics: minimal tiling, flip distance, the q-weighted sweep.

The minimal tiling is built through the height function of the region: among
all height functions with the fixed boundary values, the pointwise extreme
one corresponds to a unique tiling, and the extreme that makes an Aztec
diamond come out all-horizontal is the minimal tiling (for the glued double
rectangle it reproduces the vertical-core decomposition and minimizes path
area; tests check both).  Rank is the flip distance from the minimal tiling,
where a flip rotates a 2x2 block of two parallel dominoes.  This module
computes it two ways: by breadth-first search over flips, and as a linear
function of the horizontal dominoes through the height deficit
(``linear_ranks``); the third way, by path area on a double rectangle, is
``paths.area_ranks``.  All three run on a tiling's int mask over
``Lattice.pairs``, the one tiling format, and ``minimal_tiling`` returns
one.  The two mask ranks take a batch of masks in one call and give the
ranks lazily, so a caller checks each mask in one pass: the flip BFS lists
masks and decodes none.  The deficit, gauged to a weight of at least 0 per
piece (``rank_weights``), drives ``tq_sum``: a frontier sweep of the (t, q)
sum that places one cell at a time.

The height functions run on the region's cell numbering (``Region.lattice``):
a lattice point is numbered by its position on the region's padded grid, so
the grid edges and the minimal heights are lists indexed by vertex, and a
grid edge carries the mask bit of the domino that crosses it.  The grid
edges, the minimal heights, the column masks, the line weights, the deficit
planes, the rank weights and the cell orders are derived once per region
(``regions.derived``) by the functions of this module that compute them,
and so are the two public tables: ``minimal_tiling`` and ``rank_table`` are
derived functions themselves, each the one place its table is computed and
kept.  The exponential computations have budgets, checked before they
start: ``MAX_LISTED_TILINGS`` bounds the tilings the flip BFS may list,
through the determinant count, and ``MAX_SWEEP_COST`` bounds the sweep's
states times its cells cubed.  A tiling index lists nothing: it is
``engine.tiling_at``, under ``engine.MAX_INDEX_COST``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .engine import CapacityError, _unit_det, count_tilings, state_bound
from .polyring import LaurentPoly2
from .regions import ConstraintError, InvariantError, KindError, Region, derived, require_cover


# -- height functions -------------------------------------------------------


@derived
def _grid_edges(region: Region) -> list[list]:
    """Height steps along the unit edges of the region's cells, by start vertex.

    A vertex is numbered by its position on the region's grid (``Grid``),
    and entry a lists the moves (b, step, bit) from vertex a; it is empty
    where there is no vertex.  Crossing a -> b raises the height by step:
    +1 when the cell on the left of a -> b is white in the checkerboard
    (extended past the region), -1 when it is black.  bit is the mask bit
    of the domino of the two region cells the edge separates, or 0 on the
    region boundary.

    A pinched region raises ConstraintError: one with a vertex whose four
    edges are all on the boundary, so that the 2x2 window of cells around it
    holds exactly one diagonal pair.  Its boundary passes through that
    vertex twice, so it is no single closed walk and does not force the
    boundary heights.
    """
    lat = region.lattice
    grid = lat.grid
    at, w = grid.at, grid.stride
    edges: list[list] = [[] for _ in at]
    for i, (x, y) in enumerate(lat.cells):
        p = grid.pos[i]
        step = 1 if (x + y) % 2 == region.white_parity else -1
        # counterclockwise around the cell, so it is on the left of each edge;
        # an edge it shares with the cell below or left of it is that cell's
        sides = [(p + w, p + w + 1, grid.east[i]), (p + w + 1, p + 1, grid.north[i])]
        if at[p - 1] < 0:
            sides.append((p, p + w, 0))
        if at[p - w] < 0:
            sides.append((p + 1, p, 0))
        for a, b, bit in sides:
            edges[a].append((b, step, bit))
            edges[b].append((a, -step, bit))
    pinches = [
        a for a, moves in enumerate(edges) if len(moves) == 4 and not any(bit for *_, bit in moves)
    ]
    if pinches:
        raise ConstraintError(
            f"{region.spec_string()} is pinched at vertex {grid.point(pinches[0])}: two of its "
            "cells meet only at that corner, so its tilings have no height function"
        )
    return edges


@derived
def _extreme_heights(region: Region) -> tuple:
    """The pointwise largest height function, by vertex, with the leftmost-lowest vertex at 0.

    Entry a is the height of vertex a of ``_grid_edges``, or None where
    there is no vertex.  Boundary heights are forced; interior heights are
    relaxed downward against the caps h(b) <= h(a) + 1 across a +1 edge and
    h(b) <= h(a) + 3 across a -1 edge (the allowed differences are {+1, -3}
    and {-1, +3}), which is a shortest-path problem from the boundary.  With
    this region coloring the largest height function is that of the minimal
    tiling (``minimal_tiling``).
    """
    excess = region.imbalance()
    if excess:
        raise ConstraintError(
            f"{region.spec_string()} has {excess:+d} white cells over black, so it has no tilings"
        )
    edges = _grid_edges(region)
    # boundary edges carry no domino, so their difference is forced exactly;
    # the leftmost-lowest vertex is on the boundary
    start = next(a for a, moves in enumerate(edges) if moves)
    val = [4 * (len(edges) + 4)] * len(edges)
    forced = [False] * len(edges)
    val[start], forced[start] = 0, True
    stack = [start]
    while stack:
        a = stack.pop()
        for b, step, bit in edges[a]:
            if bit:
                continue
            if not forced[b]:
                val[b], forced[b] = val[a] + step, True
                stack.append(b)
            elif val[b] != val[a] + step:
                raise InvariantError("boundary heights are inconsistent")
    # Dial's bucket queue over height values, seeded with the boundary: every
    # cap raises the height, so the lowest bucket's vertices are settled and
    # each vertex relaxes its neighbours once.  The cap across a step of +1
    # or -1 is 2 - step higher.
    buckets: dict[int, list] = {}
    for a, fixed in enumerate(forced):
        if fixed:
            buckets.setdefault(val[a], []).append(a)
    level = min(buckets)
    while buckets:
        for a in buckets.pop(level, ()):
            if val[a] != level:
                continue  # lowered after it was queued here
            for b, step, _ in edges[a]:
                cap = level + 2 - step
                if val[b] > cap and not forced[b]:
                    val[b] = cap
                    buckets.setdefault(cap, []).append(b)
        level += 1
    return tuple(h if moves else None for h, moves in zip(val, edges))


@derived
def minimal_tiling(region: Region) -> int:
    """The mask of the rank-zero tiling (all-horizontal for an Aztec diamond), derived once.

    It is the tiling of the pointwise largest height function
    (``_extreme_heights``): a domino crosses an edge exactly where the
    heights differ by 3.  With this region coloring it is the all-horizontal
    tiling on a diamond and the unique path-area minimizer on a double
    rectangle (see tests), so it is the minimal tiling.  Its dominoes must
    cover the region once each, or InvariantError is raised.
    """
    if not isinstance(region, Region):
        raise KindError(f"no minimal tiling defined for kind {region.kind!r}")
    heights = _extreme_heights(region)
    mask = 0
    for a, moves in enumerate(_grid_edges(region)):
        for b, _, bit in moves:
            if bit and abs(heights[b] - heights[a]) == 3:
                mask |= bit
    require_cover(region, mask, InvariantError)
    return mask


# -- flips and rank ---------------------------------------------------------


#: Most tilings of one region that the flip BFS may list.  Time and memory
#: grow with the number listed: the 89,600 tilings of dr:2,4,1,3,5, the most
#: of any double rectangle of at most 60 cells, take about 0.16 s to rank by
#: flips (0.5 s with the rest of the ``verify rank`` case) on a 2-vCPU host,
#: with a peak RSS of 28 MB, and dr:3,5,1,3,5 has 2,007,040.  The
#: determinant count is checked against it before anything is listed.  A
#: tiling index is not bounded by it (``engine.tiling_at``).
MAX_LISTED_TILINGS = 100_000


def require_listing_budget(region: Region, listed: int) -> None:
    """Raise CapacityError if listing ``listed`` tilings of the region is over budget."""
    if listed > MAX_LISTED_TILINGS:
        raise CapacityError(
            f"{region.spec_string()}: listing {listed} tilings is over the budget "
            f"of {MAX_LISTED_TILINGS}"
        )


def _raising_flips(region: Region) -> list[tuple[int, int]]:
    """Per 2x2 block, (the pair a flip that raises the rank starts from, all four bits).

    Each block of the region, a unit face of its lattice, is a pair of
    masks: its two horizontal and its two vertical dominoes.  A flip moves
    the height of the block's centre vertex by 4 and no other, so it changes
    the rank by exactly 1: it raises the rank when it turns a vertical pair
    horizontal on a block whose lower left cell is white, and a horizontal
    pair vertical on one whose lower left cell is black.  The blocks are in
    the order of their lower left cell.
    """
    lat = region.lattice
    grid = lat.grid
    white = region.white_parity
    blocks = []
    for i in lat.faces:  # the cell above i is i + 1, and e is the one right of i
        e = grid.at[grid.pos[i] + grid.stride]
        h = grid.east[i] | grid.east[i + 1]
        v = grid.north[i] | grid.north[e]
        x, y = lat.cells[i]
        blocks.append((v if (x + y) % 2 == white else h, h | v))
    return blocks


@derived
def rank_table(region: Region) -> Mapping[int, int]:
    """Flip distance from the minimal tiling, for every reachable tiling's mask.

    The keys are tiling masks over ``Lattice.pairs``.  The table is derived
    once per region and read-only, by breadth-first search over flips from
    the minimal tiling.  A block flips when the tiling holds one of its two
    pairs, that is when the pair has no bit in the tiling's complement, and
    the flip toggles all four bits.  The search tries only the flips that
    raise the rank (``_raising_flips``), one pair per block, and that is
    still the flip distance: every flip changes the rank by exactly 1, and
    every tiling but the minimal one has a flip that lowers it (Thurston
    1990; the tilings form Propp's distributive lattice under flips),
    so a tiling of rank r + 1 is one raising flip from a tiling of rank r.
    A lowering flip could only reach a tiling already in the table, so the
    table and its order are those of the search over flips in both
    directions, with the blocks tried in the order of their lower left
    cell, as the tuple flips of the tests (tests/test_stats.py) find them.
    No mask is decoded.  A region with more than ``MAX_LISTED_TILINGS``
    tilings raises CapacityError before the search.
    """
    require_listing_budget(region, count_tilings(region))
    blocks = _raising_flips(region)
    full = (1 << len(region.lattice.pairs)) - 1
    start = minimal_tiling(region)
    dist = {start: 0}
    frontier = [start]
    rank = 0
    while frontier:
        rank += 1
        nxt = []
        for m in frontier:
            free = full ^ m  # not ~m: & with a negative int is slower
            for pair, both in blocks:
                if not pair & free:
                    m2 = m ^ both
                    if m2 not in dist:
                        dist[m2] = rank
                        nxt.append(m2)
        frontier = nxt
    return MappingProxyType(dist)


def linear_ranks(region: Region, masks: Iterable[int]) -> Iterator[int]:
    """Rank of each tiling mask as a linear function of its horizontal dominoes.

    The ranks come lazily, in the order of ``masks``, so a caller can check
    each mask in the same pass as its other statistics.  The total height
    deficit below the minimal tiling is the sum of the line constants C_x
    plus w_x[y] for each horizontal domino crossing line x at row y (see
    ``_line_weights``); rank is that total divided by 4.  It is read by bit
    planes of the weights (``_deficit_planes``), about five popcounts a
    mask rather than one per distinct weight.
    """
    return _deficit_ranks(masks, *_deficit_planes(region))


def _deficit_ranks(masks: Iterable[int], const: int, weighted: tuple) -> Iterator[int]:
    """The rank of each mask from the height deficit C + sum of w * |mask & M_w|."""
    for mask in masks:
        total = const
        for w, dominoes in weighted:
            total += w * (mask & dominoes).bit_count()
        if total < 0 or total % 4:
            raise InvariantError(f"height deficit {total} is not a non-negative multiple of 4")
        yield total // 4


@derived
def _column_masks(region: Region) -> list[int]:
    """Bit y of entry x is set when cell (x, y) is in the region; derived once per region."""
    masks = [0] * (max(c.x for c in region.cells) + 1)
    for x, y in region.cells:
        masks[x] |= 1 << y
    return masks


@derived
def _line_weights(region: Region) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(C_x, w_x) for every vertical grid line x, left boundary to right.

    Line x runs between columns x - 1 and x.  Its edges form runs, and each
    run starts at a boundary vertex, whose height is the same in every
    tiling.  Going up an edge raises the height by ``step`` (+1 with a white
    cell on its left, else -1), or lowers it by 3 * step when a horizontal
    domino crosses the edge: 4 * step less than the walk with no crossing.
    So the height deficit below the minimal tiling, summed over the line's
    vertices, is C_x plus w_x[y] for each crossing at row y, with
    w_x[y] = 4 * step times the number of vertices above y in its run and
    C_x the deficit of the walk with no crossing.
    """
    h0 = _extreme_heights(region)  # only its differences are read
    grid = region.lattice.grid
    x0, y0 = grid.origin
    masks = [0] + _column_masks(region) + [0]
    rows = max(c.y for c in region.cells) + 1
    lines = []
    for x in range(len(masks) - 1):
        edges = masks[x] | masks[x + 1]  # line x borders columns x - 1 and x
        vertex = (x - x0) * grid.stride - y0  # of point (x, y) is vertex + y
        const, w = 0, [0] * rows
        bottom = 0
        while edges >> bottom:  # one run of edges per pass
            while not edges >> bottom & 1:
                bottom += 1
            top = bottom
            while edges >> top & 1:
                top += 1
            h = h0[vertex + bottom]
            for y in range(bottom, top):
                step = 1 if (x - 1 + y) % 2 == region.white_parity else -1
                h += step
                const += h0[vertex + y + 1] - h
                w[y] = 4 * step * (top - y)
            bottom = top
        lines.append((const, tuple(w)))
    return tuple(lines)


def _deficit_masks(region: Region) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The height deficit of a tiling mask as C + sum of w * |mask & M_w|.

    C is the sum of the line constants C_x of ``_line_weights``.  A
    horizontal domino crosses line x at row y, where x is the column of its
    right cell, and weighs w_x[y]; a vertical domino crosses no line and
    weighs 0.  M_w is the mask of the dominoes of weight w, one per
    distinct nonzero weight, in increasing order of w.
    """
    lines = _line_weights(region)
    lat = region.lattice
    masks: dict[int, int] = {}
    for (x, y), bit in zip(lat.cells, lat.grid.east):
        w = lines[x + 1][1][y] if bit else 0
        if w:
            masks[w] = masks.get(w, 0) | bit
    return sum(const for const, _ in lines), tuple(sorted(masks.items()))


@derived
def _deficit_planes(region: Region) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The height deficit of ``_deficit_masks`` as C + sum of w * |mask & P| over bit planes.

    Every weight is a multiple of 4.  With lo the least of 0 and every
    w / 4, each w / 4 - lo is written in binary: P_b is the mask of the dominoes whose
    w / 4 - lo has bit b set, and A the mask of every weighted domino.  So
    the deficit is C + 4 * (lo * |mask & A| + sum of 2^b * |mask & P_b|),
    given here as pairs (4 * lo, A) and (4 * 2^b, P_b), a handful where the
    distinct weights are a dozen.  Derived once per region.
    """
    const, weighted = _deficit_masks(region)
    lo = min(0, weighted[0][0] // 4) if weighted else 0
    planes: dict[int, int] = {}
    for w, dominoes in weighted:
        k = w // 4 - lo
        while k:
            low = k & -k
            planes[4 * low] = planes.get(4 * low, 0) | dominoes
            k ^= low
    if lo:
        planes[4 * lo] = sum(dominoes for _, dominoes in weighted)
    return const, tuple(sorted(planes.items()))


@derived
def rank_weights(region: Region) -> tuple[int, ...]:
    """Per piece of ``Lattice.pairs``, a weight c_k >= 0, 0 on the minimal tiling t0.

    The rank is C / 4 plus a_k = w / 4 per piece (``_deficit_masks``), and
    a_k + d(white) - d(black) changes every tiling by one constant.  d is
    the dual of the minimum-weight matching (Kuhn 1955): Bellman-Ford on
    t0's residual graph (arcs black -> white of cost -a_k on t0's pieces,
    white -> black of cost a_k on the rest), then each black cell takes its
    t0 partner's d plus their a_k.  So c_k = 0 on t0, and c_k >= 0 on the
    rest; as t0 has rank 0, a tiling's rank is the sum of its c_k.  A
    negative cycle, a negative c_k or a nonzero c_k on t0 is InvariantError.
    """
    lat = region.lattice
    weighted = _deficit_masks(region)[1]
    a = [next((w // 4 for w, m in weighted if m >> k & 1), 0) for k in range(len(lat.pairs))]
    t0 = minimal_tiling(region)
    white = set(lat.white)
    pieces = [(i, j) if i in white else (j, i) for i, j in lat.pairs]  # (white, black)
    arcs = [(b, w, -a[k]) if t0 >> k & 1 else (w, b, a[k]) for k, (w, b) in enumerate(pieces)]
    d = [0] * len(lat.cells)
    for _ in range(len(d) + 1):
        changed = False
        for u, v, cost in arcs:
            if d[u] + cost < d[v]:
                d[v], changed = d[u] + cost, True
        if not changed:
            break
    else:
        raise InvariantError(f"{region.spec_string()}: t0's residual graph has a negative cycle")
    for k, (w, b) in enumerate(pieces):
        if t0 >> k & 1:
            d[b] = d[w] + a[k]
    weights = tuple(a[k] + d[w] - d[b] for k, (w, b) in enumerate(pieces))
    if min(weights, default=0) < 0 or any(c for k, c in enumerate(weights) if t0 >> k & 1):
        raise InvariantError(f"{region.spec_string()}: a rank weight is negative or off t0")
    return weights


# -- bivariate generating function --------------------------------------------

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


#: Most work the sweep may take on, ``engine.state_bound(w)`` * N**3 for N
#: cells at width w: the state bound times N for each of the vertical
#: counts, the largest rank and the slot width of a state's packed ints.
#: Fresh process, 2-vCPU host: ad:10 (cost 4.9e9) 0.4 s and 41 MB, ad:11
#: (1.7e10) 1.2 s and 100 MB, ad:12 (5.2e10) 4.1 s and 300 MB.  Double
#: rectangles of <= 200 cells: <= 1.4e10.
MAX_SWEEP_COST = 2 * 10**10


def require_frontier_budget(region: Region) -> None:
    """Raise CapacityError if the sweep costs more than ``MAX_SWEEP_COST``; takes no determinant."""
    cost = state_bound(_cell_orders(region)[0][0]) * len(region.cells) ** 3
    if cost > MAX_SWEEP_COST:
        budget = f"over the budget of {MAX_SWEEP_COST:.0e}"
        raise CapacityError(f"{region.spec_string()}: sweep cost {cost:.2e} is {budget}")


def _sweep(region: Region, place: tuple[int, ...], bits: int) -> dict[int, int]:
    """Per vertical count, the tilings' q-count packed in slots of ``bits`` bits.

    Before step p the state is the mask of the later cells that earlier
    pieces cover, shifted so that the cell of step p is bit 0.  A free cell
    takes each piece to a later free cell q: set bit q - p, add 1 to the
    vertical count if it is vertical, and shift the packed count left by its
    rank weight times ``bits`` (never negative).  A state fixes its partial
    tilings' futures, so one that cannot finish merges with none that can,
    and a slot of the result, which counts tilings, cannot overflow.
    """
    lat = region.lattice
    moves: list[list[tuple[int, int, int]]] = [[] for _ in place]
    for (i, j), c in zip(lat.pairs, rank_weights(region)):
        lo, hi = sorted((place[i], place[j]))
        moves[lo].append((1 << hi - lo, lat.cells[i][0] == lat.cells[j][0], c * bits))
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
            for bit, vertical, shift in here:
                if state & bit:
                    continue
                key = (state | bit) >> 1
                sink = nxt.get(key)
                if sink is None:
                    nxt[key] = {vt + vertical: packed << shift for vt, packed in terms.items()}
                else:
                    for vt, packed in terms.items():
                        sink[vt + vertical] = sink.get(vt + vertical, 0) + (packed << shift)
        states = nxt
    return states.get(0, {})


def tq_sum(region: Region) -> LaurentPoly2:
    """Sum of t^(vertical/2) q^rank over all tilings, by a frontier sweep (``_sweep``).

    The rank is the sum of the pieces' ``rank_weights``; the cells are swept
    in the narrowest order of ``_ORDERS``, and the count of rank r sits in
    bits [r W, (r + 1) W), W the determinant count's bit length.  Guards:
    the coefficients sum to that count (an overflowing slot would carry and
    lower the sum), and q^0 is the minimal tiling alone.  A region over
    ``MAX_SWEEP_COST`` raises CapacityError before the determinant.
    """
    require_frontier_budget(region)
    count = abs(_unit_det(region))
    bits = count.bit_length()
    slot = (1 << bits) - 1
    terms = {}
    for vt, packed in _sweep(region, _cell_orders(region)[0][1], bits).items():
        for r in range(-(-packed.bit_length() // bits)):
            if c := packed >> r * bits & slot:
                terms[(vt, 2 * r)] = c
    if sum(terms.values()) != count:
        raise InvariantError(f"q coefficients sum to {sum(terms.values())}, not {count}")
    ground = sorted((key, c) for key, c in terms.items() if key[1] == 0)
    vertical = (minimal_tiling(region) & sum(region.lattice.grid.north)).bit_count()
    if ground != [((vertical, 0), 1)]:
        raise InvariantError(f"q^0 part {ground} is not the minimal tiling alone")
    return LaurentPoly2._of(terms)
