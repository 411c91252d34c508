"""Tiling statistics: vertical half-count, minimal tiling, flip distance.

The minimal tiling is built through the height function of the region: among
all height functions with the fixed boundary values, the pointwise extreme
one corresponds to a unique tiling, and the extreme that makes an Aztec
diamond come out all-horizontal is the minimal tiling (for the glued double
rectangle it reproduces the vertical-core decomposition and minimizes path
area; tests check both).  Rank is the flip distance from the minimal tiling,
where a flip rotates a 2x2 block of two parallel dominoes.  It is computed
three ways: by breadth-first search over flips, by path area on a double
rectangle, and as a linear function of the horizontal dominoes through the
height deficit, which also weights the q-sweep of ``tq_sum``.

The grid edges, the minimal tiling, the rank table and the line weights are
derived once per region and kept on the ``Region`` instance; this module
computes them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from typing import Mapping

from .engine import CapacityError, Tiling, is_vertical, piece
from .polyring import LaurentPoly2
from .regions import Cell, ConstraintError, InvariantError, KindError, Region


class UnreachableError(RuntimeError):
    """A tiling is not connected to the minimal tiling by elementary moves."""


def vertical_halfcount(tiling: Tiling) -> Fraction:
    """Half the number of vertical dominoes."""
    return Fraction(sum(1 for d in tiling if is_vertical(d)), 2)


# -- height functions -------------------------------------------------------


def _grid_edges(region: Region) -> dict:
    """Height steps along the unit edges of the region's cells, by start vertex.

    Maps each vertex a to its moves (b, step, domino).  Crossing a -> b
    raises the height by step: +1 when the cell on the left of a -> b is
    white in the checkerboard (extended past the region), -1 when it is
    black.  domino is the pair of region cells the edge separates, or None
    on the region boundary.
    """
    cells = region.cells
    edges: dict = {}
    for c in cells:
        x, y = c
        step = 1 if (x + y) % 2 == region.white_parity else -1
        # counterclockwise around c, so c is on the left of each edge
        corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
        across = (Cell(x, y - 1), Cell(x + 1, y), Cell(x, y + 1), Cell(x - 1, y))
        for i, other in enumerate(across):
            if other in cells and other < c:
                continue  # added from the other side
            a, b = corners[i], corners[(i + 1) % 4]
            domino = piece(c, other) if other in cells else None
            edges.setdefault(a, []).append((b, step, domino))
            edges.setdefault(b, []).append((a, -step, domino))
    return edges


def height_function(region: Region, tiling: Tiling) -> dict:
    """Vertex heights of a tiling, normalized to minimum height 0.

    Crossing an edge with a white cell on the left raises the height by 1,
    unless a domino of the tiling crosses the edge, in which case it drops
    by 3 (and symmetrically for black).
    """
    dominoes = set(tiling)
    edges = region.grid_edges
    start = min(edges)
    h = {start: 0}
    stack = [start]
    while stack:
        a = stack.pop()
        for b, step, domino in edges[a]:
            hb = h[a] - 3 * step if domino in dominoes else h[a] + step
            if b in h:
                if h[b] != hb:
                    raise InvariantError("inconsistent height function")
            else:
                h[b] = hb
                stack.append(b)
    m = min(h.values())
    return {v: hv - m for v, hv in h.items()}


def _extreme_tiling(region: Region) -> Tiling:
    """The tiling whose height function is pointwise largest.

    Boundary heights are forced; interior heights are relaxed downward
    against the caps h(b) <= h(a) + 1 across a +1 edge and h(b) <= h(a) + 3
    across a -1 edge (the allowed differences are {+1, -3} and {-1, +3}),
    which is a shortest-path problem from the boundary.  With this region
    coloring the largest height function gives the all-horizontal tiling on
    a diamond and the unique path-area minimizer on a double rectangle (see
    tests), so it is the minimal tiling.
    """
    excess = region.imbalance()
    if excess:
        raise ConstraintError(
            f"{region.spec_string()} has {excess:+d} white cells over black, so it has no tilings"
        )
    edges = region.grid_edges
    # boundary edges carry no domino, so their difference is forced exactly;
    # the leftmost-lowest vertex is on the boundary
    start = min(edges)
    boundary = {start: 0}
    stack = [start]
    while stack:
        a = stack.pop()
        for b, step, domino in edges[a]:
            if domino is not None:
                continue
            if b not in boundary:
                boundary[b] = boundary[a] + step
                stack.append(b)
            elif boundary[b] != boundary[a] + step:
                raise InvariantError("boundary heights are inconsistent")
    val = dict.fromkeys(edges, 4 * (len(edges) + 4))
    val.update(boundary)
    stack = list(boundary)
    while stack:
        a = stack.pop()
        for b, step, _ in edges[a]:
            cap = val[a] + (1 if step > 0 else 3)
            if val[b] > cap and b not in boundary:
                val[b] = cap
                stack.append(b)
    # read the dominoes off the height differences
    pieces = set()
    for a, moves in edges.items():
        for b, _, domino in moves:
            if domino is not None and abs(val[b] - val[a]) == 3:
                pieces.add(domino)
    tiling = tuple(sorted(pieces))
    covered = [c for d in tiling for c in d]
    if len(covered) != len(region.cells) or set(covered) != region.cells:
        raise InvariantError("extreme height function did not yield a perfect tiling")
    return tiling


def minimal_tiling(region: Region) -> Tiling:
    """The rank-zero tiling (all-horizontal for an Aztec diamond), derived once per region."""
    if region.kind not in ("aztec_diamond", "double_aztec_rectangle", "aztec_rectangle"):
        raise KindError(f"no minimal tiling defined for kind {region.kind!r}")
    return region.minimal_tiling


# -- flips and rank ---------------------------------------------------------


def flips(tiling: Tiling) -> list[Tiling]:
    """Tilings one elementary move away (rotating a 2x2 block)."""
    have = set(tiling)
    out = []
    for i, (c1, c2) in enumerate(tiling):
        # The parallel mate sits to the right of a vertical, above a
        # horizontal; it sorts after (c1, c2), and (c1, a), (c2, b) are sorted.
        dx, dy = (1, 0) if c1.x == c2.x else (0, 1)
        a, b = Cell(c1.x + dx, c1.y + dy), Cell(c2.x + dx, c2.y + dy)
        if (a, b) in have:
            flipped = list(tiling)
            del flipped[bisect_left(tiling, (a, b))]  # the mate, then (c1, c2)
            del flipped[i]
            insort(flipped, (c1, a))
            insort(flipped, (c2, b))
            out.append(tuple(flipped))
    return out


def rank_table(region: Region) -> Mapping[Tiling, int]:
    """Flip distance from the minimal tiling, for every reachable tiling.

    The table is derived once per region, kept on it and read-only.
    """
    return region.rank_table


def _flip_distances(region: Region) -> dict[Tiling, int]:
    """Breadth-first search over flips from the minimal tiling."""
    t0 = minimal_tiling(region)
    dist = {t0: 0}
    frontier = [t0]
    while frontier:
        nxt = []
        for t in frontier:
            for t2 in flips(t):
                if t2 not in dist:
                    dist[t2] = dist[t] + 1
                    nxt.append(t2)
        frontier = nxt
    return dist


def rank_bfs(region: Region, tiling: Tiling) -> int:
    table = rank_table(region)
    t = tuple(sorted(tiling))
    if t not in table:
        raise UnreachableError("tiling is not reachable from the minimal tiling")
    return table[t]


def rank_via_area(region: Region, tiling: Tiling) -> int:
    """Rank as the underneath-area excess of the path family over minimal."""
    from .paths import tiling_to_paths, underneath_area

    if region.kind != "double_aztec_rectangle":
        raise KindError("area rank is defined for double Aztec rectangles only")
    diff = underneath_area(tiling_to_paths(region, tiling)) - region.minimal_area
    if diff.denominator != 1:
        raise InvariantError("area excess must be a whole number of cells")
    return int(diff)


def rank_linear(region: Region, tiling: Tiling) -> int:
    """Rank as a linear function of the tiling's horizontal dominoes.

    The total height deficit below the minimal tiling is the sum of the
    line constants C_x plus w_x[y] for each horizontal domino crossing line
    x at row y (see ``_line_weights``); rank is that total divided by 4.
    """
    lines = region.line_weights
    total = sum(const for const, _ in lines)
    for (ax, ay), (bx, by) in tiling:
        if ay == by:  # horizontal: it crosses the line at its right cell
            total += lines[max(ax, bx)][1][ay]
    if total < 0 or total % 4:
        raise InvariantError(f"height deficit {total} is not a non-negative multiple of 4")
    return total // 4


# -- bivariate generating function --------------------------------------------

#: Tallest column, in cells, that the q-weighted sweep accepts.  The number of
#: live profile masks on a line, and with it the sweep's time and memory,
#: grows with the column height: ad:9, with columns of 18 cells, takes about
#: 3 s and 210 MB on a 2-vCPU host, and each further diamond order costs
#: several times more of both.  Every double rectangle that
#: ``small_double_rectangles`` makes has columns of at most 14 cells.
MAX_SWEEP_COLUMN = 18


def _column_masks(region: Region) -> list[int]:
    """Bit y of entry x is set when cell (x, y) is in the region."""
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


def _live_moves(region: Region) -> list[dict[int, list[tuple[int, int]]]]:
    """Per column, each live incoming mask's moves (outgoing mask, verticals).

    A mask is kept when the empty profile reaches it from the left
    (forward reach) and it can still end in the empty profile on the right
    (backward liveness); a move is kept when its outgoing mask is live.  A
    dead partial tiling may rise above the minimal tiling's heights, which
    the deficit check rejects, and the q-packing of ``tq_sum`` needs every
    partial count bounded by the tiling count, which only live ones are.
    """
    masks = _column_masks(region)
    moves_at: list[dict[int, list[tuple[int, int]]]] = []
    reach = {0}
    for here, there in zip(masks, masks[1:] + [0]):
        memo: dict[int, list[int]] = {}
        table = {}
        for incoming in reach:
            free = here & ~incoming
            table[incoming] = [
                (out, (free.bit_count() - out.bit_count()) // 2)
                for out in _fill_column(free, there, memo)
            ]
        moves_at.append(table)
        reach = {outgoing for moves in table.values() for outgoing, _ in moves}
    live = {0}
    for table in reversed(moves_at):
        for incoming, moves in list(table.items()):
            kept = [move for move in moves if move[0] in live]
            if kept:
                table[incoming] = kept
            else:
                del table[incoming]
        live = set(table)
    return moves_at


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
    h0 = height_function(region, region.minimal_tiling)
    masks = [0] + _column_masks(region) + [0]
    rows = max(c.y for c in region.cells) + 1
    lines = []
    for x in range(len(masks) - 1):
        edges = masks[x] | masks[x + 1]  # line x borders columns x - 1 and x
        const, w = 0, [0] * rows
        bottom = 0
        while edges >> bottom:  # one run of edges per pass
            while not edges >> bottom & 1:
                bottom += 1
            top = bottom
            while edges >> top & 1:
                top += 1
            h = h0[(x, bottom)]
            for y in range(bottom, top):
                step = 1 if (x - 1 + y) % 2 == region.white_parity else -1
                h += step
                const += h0[(x, y + 1)] - h
                w[y] = 4 * step * (top - y)
            bottom = top
        lines.append((const, tuple(w)))
    return tuple(lines)


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
    per region (``Region.line_weights``), so a column-profile sweep carries,
    per mask, a map from the vertical dominoes so far to a q-packed count:
    the number of partial tilings of rank r sits in bits [r * W, (r + 1) * W)
    with W the bit length of the tiling count.  A line's deficit is then one
    shift, and a move one add per vertical count.  No tiling is listed and
    no flip is made.

    The packing is safe because every state is both reachable and live
    (``_live_moves``): distinct live partial tilings extend to distinct
    tilings, so no slot ever exceeds the tiling count.  A slot that did
    overflow would carry into the next and lower the coefficient sum, which
    is checked against the determinant count, as is the q^0 part (the
    minimal tiling alone).  A region with a column taller than
    ``MAX_SWEEP_COLUMN`` raises CapacityError before any column is filled.
    """
    require_sweep_budget(region)
    t0 = minimal_tiling(region)
    count = abs(region.kasteleyn_det)
    width = count.bit_length()
    lines = region.line_weights
    states: dict[int, dict[int, int]] = {0: {0: 1}}
    for line, table in zip(lines, _live_moves(region)):
        nxt: dict[int, dict[int, int]] = {}
        for incoming, terms in states.items():
            shift = _deficit(line, incoming) // 4 * width
            shifted = [(vt, packed << shift) for vt, packed in terms.items()]
            for outgoing, nv in table[incoming]:
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
    poly = LaurentPoly2(terms)
    ground = [(key, c) for key, c in poly.items() if key[1] == 0]
    if ground != [((sum(1 for d in t0 if is_vertical(d)), 0), 1)]:
        raise InvariantError(f"q^0 part {ground} is not the minimal tiling alone")
    return poly
