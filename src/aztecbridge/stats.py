"""Tiling statistics: vertical half-count, minimal tiling, flip distance.

The minimal tiling is built through the height function of the region: among
all height functions with the fixed boundary values, the pointwise extreme
one corresponds to a unique tiling, and the extreme that makes an Aztec
diamond come out all-horizontal is the minimal tiling (for the glued double
rectangle it reproduces the vertical-core decomposition and minimizes path
area; tests check both).  Rank is the flip distance from the minimal tiling,
where a flip rotates a 2x2 block of two parallel dominoes.
"""

from __future__ import annotations

from fractions import Fraction

# The q-weighted sweep shares the column-fill recursion of count_tilings.
from .engine import Domino, Tiling, _columns, _fill_column, is_vertical, piece
from .polyring import LaurentPoly2
from .regions import BLACK, WHITE, Cell, ConstraintError, KindError, Region

_RANK_CACHE: dict = {}


class UnreachableError(RuntimeError):
    """A tiling is not connected to the minimal tiling by elementary moves."""


class InvariantError(RuntimeError):
    """An identity that guards a computed result does not hold."""


def vertical_halfcount(tiling: Tiling) -> Fraction:
    """Half the number of vertical dominoes."""
    return Fraction(sum(1 for d in tiling if is_vertical(d)), 2)


# -- height functions -------------------------------------------------------


def _edge_left_cell(a, b) -> Cell:
    """The cell on the left of the directed lattice edge a -> b."""
    (ax, ay), (bx, by) = a, b
    if (bx - ax, by - ay) == (1, 0):
        return Cell(ax, ay)
    if (bx - ax, by - ay) == (-1, 0):
        return Cell(bx, by - 1)
    if (bx - ax, by - ay) == (0, 1):
        return Cell(ax - 1, ay)
    if (bx - ax, by - ay) == (0, -1):
        return Cell(ax, by)
    raise ValueError("not a unit edge")


def _grid_edges(region: Region):
    """Directed unit edges with their left-cell membership and color."""
    cells = region.cells
    vertices = set()
    for c in cells:
        vertices.update(
            [(c.x, c.y), (c.x + 1, c.y), (c.x, c.y + 1), (c.x + 1, c.y + 1)]
        )
    edges = []
    for a in vertices:
        for b in ((a[0] + 1, a[1]), (a[0] - 1, a[1]), (a[0], a[1] + 1), (a[0], a[1] - 1)):
            if b not in vertices:
                continue
            left = _edge_left_cell(a, b)
            right = _edge_left_cell(b, a)
            if left in cells or right in cells:
                edges.append((a, b, left if left in cells else None, right in cells))
    return vertices, edges


def height_function(region: Region, tiling: Tiling) -> dict:
    """Vertex heights of a tiling, normalized to minimum height 0.

    Crossing an edge with a white cell on the left raises the height by 1,
    unless a domino of the tiling crosses the edge, in which case it drops
    by 3 (and symmetrically for black).
    """
    covered_edge = set()
    for c1, c2 in tiling:
        # the unit edge shared by the two cells of the domino
        if c1.x == c2.x:  # vertical: shared horizontal edge at y = max(y)
            y = max(c1.y, c2.y)
            covered_edge.add(frozenset({(c1.x, y), (c1.x + 1, y)}))
        else:  # horizontal: shared vertical edge at x = max(x)
            x = max(c1.x, c2.x)
            covered_edge.add(frozenset({(x, c1.y), (x, c1.y + 1)}))
    vertices, edges = _grid_edges(region)
    start = min(vertices)
    h = {start: 0}
    stack = [start]
    color = region.color
    adj: dict = {}
    for a, b, left, _ in edges:
        if left is None:
            continue
        step = 1 if color[left] == WHITE else -1
        if frozenset({a, b}) in covered_edge:
            step = -3 * step
        adj.setdefault(a, []).append((b, step))
        adj.setdefault(b, []).append((a, -step))
    while stack:
        a = stack.pop()
        for b, step in adj.get(a, []):
            hb = h[a] + step
            if b in h:
                if h[b] != hb:
                    raise InvariantError("inconsistent height function")
            else:
                h[b] = hb
                stack.append(b)
    m = min(h.values())
    return {v: hv - m for v, hv in h.items()}


def _extreme_tiling(region: Region, maximal: bool) -> Tiling:
    """The tiling whose height function is pointwise extreme.

    Boundary heights are forced; interior heights are relaxed against the
    constraint h(b) <= h(a) + 1 across white-left edges and + 3 across
    black-left edges (reversed for the maximal extreme), which is a
    shortest-path problem solved by plain relaxation.
    """
    vertices, edges = _grid_edges(region)
    color = region.color
    # caps: h(b) - h(a) <= 1 across a white-left edge, <= 3 across black-left
    # (the allowed differences are {+1, -3} and {-1, +3} respectively);
    # boundary edges carry no domino, so their difference is forced exactly.
    forced = []
    caps: list[tuple] = []
    for a, b, left, right_in in edges:
        if left is None:
            continue
        if not right_in:
            forced.append((a, b, 1 if color[left] == WHITE else -1))
        caps.append((a, b, 1 if color[left] == WHITE else 3))
    # propagate boundary equalities from an arbitrary anchor
    h: dict = {forced[0][0]: 0}
    changed = True
    while changed:
        changed = False
        for a, b, s in forced:
            if a in h and b not in h:
                h[b] = h[a] + s
                changed = True
            elif b in h and a not in h:
                h[a] = h[b] - s
                changed = True
            elif a in h and b in h and h[b] - h[a] != s:
                raise InvariantError("boundary heights are inconsistent")
    boundary = dict(h)
    # Bellman-Ford relaxation; the largest solution of the difference
    # constraints relaxes downward from +inf, the smallest upward from -inf.
    big = 4 * (len(vertices) + 4)
    val = {v: boundary.get(v, -big if maximal is False else big) for v in vertices}
    # note: minimal extreme starts low and is pushed up by reversed caps,
    # maximal starts high and is pulled down by forward caps
    changed = True
    while changed:
        changed = False
        for a, b, cap in caps:
            if maximal:
                if b not in boundary and val[b] > val[a] + cap:
                    val[b] = val[a] + cap
                    changed = True
            else:
                if a not in boundary and val[a] < val[b] - cap:
                    val[a] = val[b] - cap
                    changed = True
    # read the dominoes off the height differences
    cells = region.cells
    pieces = set()
    for a, b, left, right_in in edges:
        if left is None or not right_in:
            continue
        if abs(val[b] - val[a]) == 3:
            other = _edge_left_cell(b, a)
            pieces.add(piece(left, other))
    tiling = tuple(sorted(pieces))
    covered = [c for d in tiling for c in d]
    if len(covered) != len(cells) or set(covered) != set(cells):
        raise InvariantError("extreme height function did not yield a perfect tiling")
    return tiling


def minimal_tiling(region: Region) -> Tiling:
    """The rank-zero tiling (all-horizontal for an Aztec diamond)."""
    if region.kind not in ("aztec_diamond", "double_aztec_rectangle", "aztec_rectangle"):
        raise KindError(f"no minimal tiling defined for kind {region.kind!r}")
    excess = region.imbalance()
    if excess:
        raise ConstraintError(
            f"{region.spec_string()} has {excess:+d} white cells over black, so it has no tilings"
        )
    # The calibrated choice of extreme: with this region coloring the maximal
    # height function gives the all-horizontal tiling on a diamond and the
    # unique path-area minimizer on a double rectangle (see tests).
    return _extreme_tiling(region, maximal=True)


# -- flips and rank ---------------------------------------------------------


def flips(tiling: Tiling) -> list[Tiling]:
    """Tilings one elementary move away (rotating a 2x2 block)."""
    have = set(tiling)
    out = []
    for d in tiling:
        c1, c2 = d
        if is_vertical(d):
            mate = piece(Cell(c1.x + 1, c1.y), Cell(c2.x + 1, c2.y))
            if mate in have:
                repl = [
                    piece(c1, Cell(c1.x + 1, c1.y)),
                    piece(c2, Cell(c2.x + 1, c2.y)),
                ]
                out.append(_replace(tiling, {d, mate}, repl))
        else:
            mate = piece(Cell(c1.x, c1.y + 1), Cell(c2.x, c2.y + 1))
            if mate in have:
                repl = [
                    piece(c1, Cell(c1.x, c1.y + 1)),
                    piece(c2, Cell(c2.x, c2.y + 1)),
                ]
                out.append(_replace(tiling, {d, mate}, repl))
    return out


def _replace(tiling: Tiling, drop: set, add: list) -> Tiling:
    return tuple(sorted([d for d in tiling if d not in drop] + add))


def rank_table(region: Region) -> dict[Tiling, int]:
    """Flip distance from the minimal tiling, for every reachable tiling."""
    key = (region.kind, region.params)
    if key in _RANK_CACHE:
        return _RANK_CACHE[key]
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
    _RANK_CACHE[key] = dist
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
    base = underneath_area(tiling_to_paths(region, minimal_tiling(region)))
    diff = underneath_area(tiling_to_paths(region, tiling)) - base
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
    are fixed by the profile mask entering column x, so the profile DP of
    ``count_tilings`` carries, per mask, a map from doubled exponents
    (vertical dominoes so far, 2 * rank so far) to tiling counts.  No tiling
    is listed and no flip is made.
    """
    t0 = minimal_tiling(region)
    h0 = height_function(region, t0)
    cells = region.cells
    columns = _columns(region)
    rows = max(c.y for c in cells) + 1
    some = min(cells)
    white = (some.x + some.y + (region.color[some] != WHITE)) % 2  # x + y parity of white

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
            _fill_column(x, col, cells, incoming, 0, 0, 1, table[incoming], vstep)
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
