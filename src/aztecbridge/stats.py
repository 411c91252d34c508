"""Tiling statistics: minimal tiling, flip distance, the (t, q) sum.

The minimal tiling is built through the height function of the region: among
all height functions with the fixed boundary values, the pointwise extreme
one corresponds to a unique tiling, and the extreme that makes an Aztec
diamond come out all-horizontal is the minimal tiling (for the glued double
rectangle it reproduces the vertical-core decomposition and minimizes path
area; tests check both).  Rank is the flip distance from the minimal tiling,
where a flip rotates a 2x2 block of two parallel dominoes.  This module
computes it two ways: by breadth-first search over flips, and as the sum
of its pieces' rank weights (``linear_ranks``), a weight of at least 0 per
piece and 0 on the minimal tiling (``rank_weights``); the third way, by
path area on a double rectangle, is ``paths.area_ranks``.  All three run
on a tiling's int mask over ``Lattice.pairs``, the one tiling format, and
``minimal_tiling`` returns one.  The two mask ranks take a batch of masks
in one call and give the ranks lazily, so a caller checks each mask in one
pass: the flip BFS lists masks and decodes none.  The same weights drive
``tq_sum``, the (t, q) sum by ``engine.frontier_sum``.  Every function
here reads a cell's checkerboard colour from ``Lattice.colour``.

The height functions run on the region's cell numbering (``Region.lattice``):
a lattice point is numbered by its position on the region's padded grid, so
the grid edges and the minimal heights are lists indexed by vertex, and a
grid edge carries the mask bit of the domino that crosses it.  The grid
edges, the minimal heights, the rank weights and their bit planes are
derived once per region (``regions.derived``) by the functions of this
module that compute them, and so are the two public tables:
``minimal_tiling`` and ``rank_table`` are derived functions themselves,
each the one place its table is computed and kept.  The exponential
computations have budgets, checked before they start:
``MAX_LISTED_TILINGS`` bounds the tilings the flip BFS may list, through
the determinant count.  The sweep and a tiling index list none; their
budgets are ``engine``'s.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType

from .engine import CapacityError, count_tilings, frontier_sum, require_frontier_budget
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
    for i, (p, black) in enumerate(zip(grid.pos, lat.colour)):
        step = -1 if black else 1
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
    blocks = []
    for i in lat.faces:  # the cell above i is i + 1, and e is the one right of i
        e = grid.at[grid.pos[i] + grid.stride]
        h = grid.east[i] | grid.east[i + 1]
        v = grid.north[i] | grid.north[e]
        blocks.append((h if lat.colour[i] else v, h | v))
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
    """Rank of each tiling mask as the sum of its pieces' ``rank_weights``.

    The ranks come lazily, in the order of ``masks``, so a caller can check
    each mask in the same pass as its other statistics.  The weights are
    read by bit planes (``_rank_planes``): a rank is the sum of 2^b times
    the mask's pieces in plane b.
    """
    planes = _rank_planes(region)
    for mask in masks:
        rank = 0
        for weight, plane in planes:
            rank += weight * (mask & plane).bit_count()
        yield rank


@derived
def _rank_planes(region: Region) -> tuple[tuple[int, int], ...]:
    """(2^b, the mask of the pieces whose rank weight has bit b set), by increasing b."""
    planes: dict[int, int] = {}
    for k, c in enumerate(rank_weights(region)):
        while c:
            low = c & -c
            planes[low] = planes.get(low, 0) | 1 << k
            c ^= low
    return tuple(sorted(planes.items()))


def _crossing_weights(region: Region) -> list[int]:
    """Per piece of ``Lattice.pairs``, a_k: each piece of a tiling takes 4 a_k off its heights' sum.

    A horizontal domino crosses the vertical grid line between its cells
    at its row y, and weighs step times the number of the line's vertices
    above y in the run of the line's edges through row y; step is +1 when
    its left cell is white and -1 when black.  A vertical domino weighs 0.
    Why: each run starts at a boundary vertex, whose height is the same in
    every tiling, and going up an edge raises the height by step, or lowers
    it by 3 step where a domino crosses the edge, 4 step less.  So a
    crossing lowers each vertex above it in its run by 4 step, and every
    vertex is on one vertical line.
    """
    lat = region.lattice
    grid = lat.grid
    at, w = grid.at, grid.stride
    a = [0] * len(lat.pairs)
    for black, p, bit in zip(lat.colour, grid.pos, grid.east):
        if bit:
            above = 1  # the edges of the run end at the first row with no cell on either side
            while at[p + above] >= 0 or at[p + w + above] >= 0:
                above += 1
            a[bit.bit_length() - 1] = -above if black else above
    return a


@derived
def rank_weights(region: Region) -> tuple[int, ...]:
    """Per piece of ``Lattice.pairs``, a weight c_k >= 0, 0 on the minimal tiling t0.

    t0's heights are the largest (``_extreme_heights``), and every raising
    flip lowers one vertex by 4 (``_raising_flips``), so a tiling's rank is
    its height deficit below t0 over 4: the sum of its ``_crossing_weights``
    a_k less t0's.
    And a_k + d(white) - d(black) changes every tiling by one constant.  d
    is the dual of the minimum-weight matching (Kuhn 1955): Bellman-Ford on
    t0's residual graph (arcs black -> white of cost -a_k on t0's pieces,
    white -> black of cost a_k on the rest), then each black cell takes its
    t0 partner's d plus their a_k.  So c_k = 0 on t0, and c_k >= 0 on the
    rest; as t0 has rank 0, a tiling's rank is the sum of its c_k.  A
    negative cycle, a negative c_k or a nonzero c_k on t0 is InvariantError.
    """
    lat = region.lattice
    a = _crossing_weights(region)
    t0 = minimal_tiling(region)
    colour = lat.colour
    pieces = [(j, i) if colour[i] else (i, j) for i, j in lat.pairs]  # (white, black)
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

def tq_sum(region: Region) -> LaurentPoly2:
    """Sum of t^(vertical/2) q^rank over all tilings, by ``engine.frontier_sum``.

    The rank is the sum of the pieces' ``rank_weights``.  Guard: q^0 is the
    minimal tiling alone.  A region over ``engine.MAX_SWEEP_COST`` raises
    CapacityError before its rank weights or any determinant.
    """
    require_frontier_budget(region)
    weights = rank_weights(region)
    north = sum(region.lattice.grid.north)  # the mask of the vertical pieces
    vertical = [north >> k & 1 for k in range(len(weights))]
    terms = {(vt, 2 * r): c for (vt, r), c in frontier_sum(region, vertical, weights).items()}
    ground = sorted((key, c) for key, c in terms.items() if key[1] == 0)
    t0_vertical = (minimal_tiling(region) & north).bit_count()
    if ground != [((t0_vertical, 0), 1)]:
        raise InvariantError(f"q^0 part {ground} is not the minimal tiling alone")
    return LaurentPoly2._of(terms)
