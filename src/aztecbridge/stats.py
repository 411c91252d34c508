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
(``linear_ranks``), which also weights the q-sweep of ``tq_sum``; the third
way, by path area on a double rectangle, is ``paths.area_ranks``.  All three
run on a tiling's int mask over ``Lattice.pairs``, the one tiling format,
and ``minimal_tiling`` returns one.  The two mask ranks take a batch of
masks in one call and give the ranks lazily, so a caller checks each mask
in one pass: the flip BFS lists masks and decodes none.  The sweep keeps a
profile mask on a line only when it is live: a domino that crosses the line
covers the same row on both sides of it, so the masks that can still end in
the empty profile are those that the same sweep, run over the columns from
the right, reaches.

The height functions run on the region's cell numbering (``Region.lattice``):
a lattice point is numbered by its position on the region's padded grid, so
the grid edges and the minimal heights are lists indexed by vertex, and a
grid edge carries the mask bit of the domino that crosses it.  The grid
edges, the minimal heights, the column masks, the line weights and the
deficit planes are derived once per region (``regions.derived``) by the
functions of this module that compute them, and so are the two public
tables: ``minimal_tiling`` and ``rank_table`` are derived functions
themselves, each the one place its table is computed and kept.
The exponential computations have budgets, checked before they start:
``MAX_LISTED_TILINGS`` bounds the tilings the flip BFS or an enumeration may
list, through the determinant count, and ``MAX_SWEEP_COLUMN`` bounds the
sweep's columns.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .engine import CapacityError, _unit_det, count_tilings
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


#: Most tilings of one region that may be listed, by the flip BFS or by
#: enumeration.  Time and memory grow with the number listed: the 89,600
#: tilings of dr:2,4,1,3,5, the most of any double rectangle of at most 60
#: cells, take about 0.16 s to rank by flips (0.5 s with the rest of the
#: ``verify rank`` case) and 0.3 s to enumerate on a 2-vCPU host, with a peak
#: RSS of 28 MB for the flip BFS, and dr:3,5,1,3,5 has 2,007,040.  The
#: determinant count is checked against it before anything is listed.
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


# -- bivariate generating function --------------------------------------------

#: Tallest column, in cells, that the q-weighted sweep accepts.  The number of
#: live profile masks on a line, and with it the sweep's time and memory,
#: grows with the column height: ad:9, with columns of 18 cells, takes about
#: 3 s and 160 MB on a 2-vCPU host, and each further diamond order costs
#: several times more of both.  Every double rectangle of at most 104 cells
#: has columns of at most 17 cells.
MAX_SWEEP_COLUMN = 18


@derived
def _column_masks(region: Region) -> list[int]:
    """Bit y of entry x is set when cell (x, y) is in the region; derived once per region."""
    masks = [0] * (max(c.x for c in region.cells) + 1)
    for x, y in region.cells:
        masks[x] |= 1 << y
    return masks


def require_sweep_budget(region: Region) -> None:
    """Raise CapacityError if a column is taller than ``MAX_SWEEP_COLUMN``."""
    tallest = max(mask.bit_count() for mask in _column_masks(region))
    if tallest > MAX_SWEEP_COLUMN:
        raise CapacityError(
            f"{region.spec_string()} has a column of {tallest} cells; "
            f"the q-weighted sweep is bounded at {MAX_SWEEP_COLUMN}"
        )


def _fill_column(free: int, there: int, memo: dict[int, list[int]]) -> list[int]:
    """Outgoing masks of every way to cover the cells of the mask ``free``.

    ``free`` holds the column's cells that no incoming domino covers, and
    ``there`` the cells of the next column.  The lowest free cell takes a
    vertical domino with the cell above it or a horizontal one into the
    next column.  The rest depends only on the cells still free, so the
    answers are kept in ``memo``, one per column, and shared between the
    incoming masks.  Every free cell not in the outgoing mask is half of a
    vertical domino, so the outgoing mask fixes the vertical count.
    """
    if not free:
        return [0]
    outs = memo.get(free)
    if outs is None:
        low = free & -free
        outs = []
        if free & low << 1:
            outs += _fill_column(free ^ low ^ low << 1, there, memo)
        if there & low:
            outs += [out | low for out in _fill_column(free ^ low, there, memo)]
        memo[free] = outs
    return outs


def _reach(masks: list[int]) -> list[set[int]]:
    """Per line, the profile masks the empty profile reaches, sweeping ``masks`` in order.

    Entry x holds the rows in which a domino of some partial tiling of the
    first x columns crosses into column x, so entry 0 is the empty profile.
    A domino that crosses a line covers the same row on both sides of it, so
    the sweep over the reversed columns reaches, on each line, exactly the
    masks that can still end in the empty profile on the right: liveness is
    ``_reach(masks[::-1])[::-1]``.  Each column has its own ``_fill_column``
    memo, and no move is kept.
    """
    reach = [{0}]
    for here, there in zip(masks, masks[1:] + [0]):
        memo: dict[int, list[int]] = {}
        reach.append(
            {out for incoming in reach[-1] for out in _fill_column(here & ~incoming, there, memo)}
        )
    return reach


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


def _deficit(line: tuple[int, tuple[int, ...]], mask: int) -> int:
    """Height deficit summed over a line whose crossings are the mask's bits."""
    deficit, w = line
    while mask:
        low = mask & -mask
        deficit += w[low.bit_length() - 1]
        mask ^= low
    if deficit < 0 or deficit % 4:
        raise InvariantError(f"height deficit {deficit} is not a non-negative multiple of 4")
    return deficit


def tq_sum(region: Region) -> LaurentPoly2:
    """Sum of t^(vertical/2) q^rank over all tilings, by a q-weighted column sweep.

    Rank is the height deficit below the minimal tiling summed over all
    vertices, divided by 4 (Thurston 1990; Elkies-Kuperberg-Larsen-Propp
    1992): the minimal tiling has the pointwise largest height function and
    every flip moves one vertex by 4.  The deficit on the vertical line x is
    linear in the profile mask entering column x, with weights derived once
    per region (``_line_weights``), so a column-profile sweep carries,
    per mask, a map from the vertical dominoes so far to a q-packed count:
    the number of partial tilings of rank r sits in bits [r * W, (r + 1) * W)
    with W the bit length of the tiling count.  A line's deficit is then one
    shift, and a move one add per vertical count.  No tiling is listed and
    no flip is made.

    The packing is safe because every state is both reachable and live.
    The sweep reaches each of its masks from the left, and it drops every
    outgoing mask that the same sweep, run over the columns from the right
    (``_reach``), does not reach: such a partial tiling cannot end in the
    empty profile, and it may rise above the minimal tiling's heights,
    which the deficit check rejects.  Distinct live partial tilings extend
    to distinct tilings, so no slot ever exceeds the tiling count.  A slot
    that did overflow would carry into the next and lower the coefficient
    sum, which is checked against the determinant count, as is the q^0 part
    (the minimal tiling alone).  A region with a column taller than
    ``MAX_SWEEP_COLUMN`` raises CapacityError before any column is filled.
    """
    require_sweep_budget(region)
    t0 = minimal_tiling(region)
    count = abs(_unit_det(region))
    width = count.bit_length()
    lines = _line_weights(region)
    masks = _column_masks(region)
    live = _reach(masks[::-1])[::-1]
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for line, here, there, ahead in zip(lines, masks, masks[1:] + [0], live[1:]):
        memo: dict[int, list[int]] = {}
        nxt: dict[int, dict[int, int]] = {}
        for incoming, terms in states.items():
            shift = _deficit(line, incoming) // 4 * width
            shifted = [(vt, packed << shift) for vt, packed in terms.items()]
            free = here & ~incoming
            for outgoing in _fill_column(free, there, memo):
                if outgoing not in ahead:
                    continue
                nv = (free.bit_count() - outgoing.bit_count()) // 2
                sink = nxt.setdefault(outgoing, {})
                for vt, packed in shifted:
                    sink[vt + nv] = sink.get(vt + nv, 0) + packed
        states = nxt
    shift = _deficit(lines[-1], 0) // 4 * width
    slot = (1 << width) - 1
    terms = {}
    for vt, packed in states.get(0, {}).items():
        packed <<= shift
        r = 0
        while packed:
            if packed & slot:
                terms[(vt, 2 * r)] = packed & slot
            packed >>= width
            r += 1
    if sum(terms.values()) != count:
        raise InvariantError(
            f"q coefficients sum to {sum(terms.values())}, not the {count} tilings"
        )
    ground = sorted((key, c) for key, c in terms.items() if key[1] == 0)
    vertical = (t0 & sum(region.lattice.grid.north)).bit_count()
    if ground != [((vertical, 0), 1)]:
        raise InvariantError(f"q^0 part {ground} is not the minimal tiling alone")
    return LaurentPoly2._of(terms)
