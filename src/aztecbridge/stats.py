"""Tiling statistics: vertical half-count, minimal tiling, flip distance.

The minimal tiling is built through the height function of the region: among
all height functions with the fixed boundary values, the pointwise extreme
one corresponds to a unique tiling, and the extreme that makes an Aztec
diamond come out all-horizontal is the minimal tiling (for the glued double
rectangle it reproduces the vertical-core decomposition and minimizes path
area; tests check both).  Rank is the flip distance from the minimal tiling,
where a flip rotates a 2x2 block of two parallel dominoes.

The grid edges, the minimal tiling and the rank table are derived once per
region and kept on the ``Region`` instance; this module computes them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from typing import Mapping

# The column-fill recursion of the q-weighted sweep lives with the engine.
from .engine import Tiling, _columns, _fill_column, is_vertical, piece
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


# -- bivariate generating function --------------------------------------------


def tq_sum(region: Region) -> LaurentPoly2:
    """Sum of t^(vertical/2) q^rank over all tilings, by a q-weighted column sweep.

    Rank is the height deficit below the minimal tiling summed over all
    vertices, divided by 4 (Thurston 1990; Elkies-Kuperberg-Larsen-Propp
    1992): the minimal tiling has the pointwise largest height function and
    every flip moves one vertex by 4.  The heights on the vertical line x
    are fixed by the profile mask entering column x, so a column-profile
    sweep carries, per mask, a map from doubled exponents
    (vertical dominoes so far, 2 * rank so far) to tiling counts.  No tiling
    is listed and no flip is made.
    """
    t0 = minimal_tiling(region)
    h0 = height_function(region, t0)
    cells = region.cells
    columns = _columns(region)
    rows = max(c.y for c in cells) + 1
    white = region.white_parity

    def line_q2(x: int, mask: int) -> int:
        """Doubled q exponent, deficit / 2, of line x under a profile mask.

        Every state is visited once, so the deficit is not cached.
        """
        deficit = 0
        h = None
        for y in range(rows):
            if Cell(x - 1, y) not in cells and Cell(x, y) not in cells:
                h = None  # no edge: the next edge starts a new run
                continue
            if h is None:
                h = h0[(x, y)]  # run bottom: a boundary vertex, same in every tiling
            step = 1 if (x - 1 + y) % 2 == white else -1
            h += -3 * step if mask >> y & 1 else step
            deficit += h0[(x, y + 1)] - h
        if deficit < 0 or deficit % 4:
            raise InvariantError(
                f"height deficit {deficit} on line x={x} is not a non-negative multiple of 4"
            )
        return deficit // 2

    # Moves of every reachable profile, then only those that can still end
    # in the empty profile: a dead partial tiling may rise above the minimal
    # tiling's heights, a live one never does.
    vstep = 1 << rows
    moves_at: list[dict[int, dict[int, int]]] = []
    reach = {0}
    for x, col in columns:
        table: dict[int, dict[int, int]] = {}
        for incoming in reach:
            table[incoming] = {}
            _fill_column(x, col, cells, incoming, 0, 0, table[incoming], vstep)
        moves_at.append(table)
        reach = {key % vstep for moves in table.values() for key in moves}
    live = {0}
    for table in reversed(moves_at):
        for incoming, moves in list(table.items()):
            kept = {key: mult for key, mult in moves.items() if key % vstep in live}
            if kept:
                table[incoming] = kept
            else:
                del table[incoming]
        live = set(table)

    states: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}
    for (x, _), table in zip(columns, moves_at):
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for incoming, terms in states.items():
            dq = line_q2(x, incoming)
            for key, mult in table[incoming].items():
                nv, outgoing = divmod(key, vstep)
                sink = nxt.setdefault(outgoing, {})
                for (et, eq), c in terms.items():
                    k = (et + nv, eq + dq)
                    sink[k] = sink.get(k, 0) + c * mult
        states = nxt
    dq = line_q2(len(columns), 0)
    poly = LaurentPoly2({(et, eq + dq): c for (et, eq), c in states.get(0, {}).items()})
    ground = [(key, c) for key, c in poly.items() if key[1] == 0]
    if ground != [((sum(1 for d in t0 if is_vertical(d)), 0), 1)]:
        raise InvariantError(f"q^0 part {ground} is not the minimal tiling alone")
    return poly
