"""Weighted graphs, matching sums, and local replacement rewrites.

Vertices are arbitrary hashable labels; weights are exact rationals.  All
rewrite operations return new graphs and (where applicable) the scalar
factor by which the matching generating function changes, so the identity
M(old) = factor * M(new) can be checked exactly.

The weighted matching sum of a region's dual graph is a Kasteleyn
determinant (``region_matching_sum``); the exponential ``matching_genfun``
serves general graphs, such as the non-planar hosts of the rewrite checks.
Both work on integers: the determinant clears each row by the lcm of its
own denominators, the matcher scales every edge by one lcm, and each
builds one Fraction at the end.

Which weight a domino gets splits in two.  Its weight class (orientation,
diagonal parity and level) depends on the region alone: it is derived once
per region (``_weight_classes``), with the dual graph's edge keys and the
Kasteleyn rows.  A scheme is a small table from class to weight, built once
per call by ``_level_table`` from integer q-powers.  The rectangle rewrites
take prebuilt Aztec rectangles, so a caller that glues the same shape many
times builds it, and derives its classes and its half-graph shape
(``_half_classes``), once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .engine import CapacityError, _det, _domino_sign, _unit_det
from .regions import Cell, Region, derived

#: Brute-force matching bound.
MAX_MATCH_VERTICES = 40


class WeightScheme(NamedTuple):
    """Domino weights: the four classes get a, b, c*q^(level-1), d*q^level."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    q: Fraction


def _add_edge(emap: dict, u, v, w: Fraction) -> None:
    """Put the edge u-v of weight w into emap, checked as every new edge is.

    The caller has checked that u and v are vertices of the graph.
    """
    if u == v:
        raise ValueError(f"bad edge ({u!r}, {v!r})")
    if w == 0:
        raise ValueError("zero edge weight")
    key = frozenset((u, v))
    if key in emap:
        raise ValueError(f"duplicate edge {u!r}-{v!r}")
    emap[key] = w


class WeightedGraph:
    """Immutable simple undirected graph with rational edge weights."""

    __slots__ = ("vertices", "edges", "marked", "_neighbors")

    def __init__(self, vertices: Iterable, edges: Iterable, marked: Iterable = ()):
        self.vertices = tuple(vertices)
        vs = set(self.vertices)
        emap: dict[frozenset, Fraction] = {}
        for u, v, w in edges:
            if not isinstance(w, Fraction):  # Fraction(Fraction) is a slow copy
                w = Fraction(w)
            if u not in vs or v not in vs:
                raise ValueError(f"bad edge ({u!r}, {v!r})")
            _add_edge(emap, u, v, w)
        self.edges = emap
        self.marked = tuple(marked)
        for m in self.marked:
            if m not in vs:
                raise ValueError(f"marked vertex {m!r} missing")
        self._neighbors: dict | None = None

    @classmethod
    def _derived(cls, vertices: tuple, edges: dict, marked: tuple) -> WeightedGraph:
        """A graph on an edge map that is valid already; nothing is checked again.

        For the rewrites of a valid graph: they copy or filter its edge map,
        put each edge they add through ``_add_edge``, and check their own
        marked vertices.
        """
        graph = object.__new__(cls)
        graph.vertices = vertices
        graph.edges = edges
        graph.marked = marked
        graph._neighbors = None
        return graph

    def weight(self, u, v) -> Fraction:
        return self.edges[frozenset((u, v))]

    def neighbors(self, v) -> list:
        """The vertices joined to v, in edge order.

        Every vertex's list is built in one pass over the edges on the first
        call and kept on the graph; most graphs are never asked.
        """
        if self._neighbors is None:
            nbrs: dict = {u: [] for u in self.vertices}
            for a, b in self.edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            self._neighbors = nbrs
        return list(self._neighbors[v])


def matching_genfun(graph: WeightedGraph) -> Fraction:
    """Sum over perfect matchings of the product of edge weights.

    Every perfect matching has n/2 edges, so the weights are scaled once by
    the least common multiple L of their denominators, the search runs on
    integers over a bitmask of alive vertices, and the sum is divided by
    L^(n/2) at the end.  The search matches the lowest alive vertex, whose
    partner must come after it, and keeps the sum of each alive mask it
    reaches in a dict local to the call.  On a region's dual graph, whose
    vertices are the cells in sorted order, an alive mask is a column
    profile, so the search is a column-profile dynamic programme.
    """
    n = len(graph.vertices)
    if n > MAX_MATCH_VERTICES:
        raise CapacityError(
            f"{n} vertices exceed the brute-force bound {MAX_MATCH_VERTICES}"
        )
    if n % 2:
        return Fraction(0)
    ratios = [w.as_integer_ratio() for w in graph.edges.values()]
    scale = math.lcm(*(den for _, den in ratios))
    index = {v: i for i, v in enumerate(graph.vertices)}
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (a, b), (num, den) in zip(graph.edges, ratios):
        u, v = index[a], index[b]
        if u > v:
            u, v = v, u
        later[u].append((1 << v, num * (scale // den)))
    memo = {0: 1}

    def rec(alive: int) -> int:
        low = alive & -alive
        rest = alive ^ low
        total = 0
        for bit, w in later[low.bit_length() - 1]:
            if rest & bit:
                sub = memo.get(rest ^ bit)
                if sub is None:
                    sub = rec(rest ^ bit)
                total += w * sub
        memo[alive] = total
        return total

    return Fraction(rec((1 << n) - 1) if n else 1, scale ** (n // 2))


# -- the domino weight scheme ----------------------------------------------

# The four domino classes are told apart by the diagonal parity of a
# distinguished cell (bottom cell for vertical dominoes, left cell for
# horizontal ones), measured relative to the region's bottommost diagonal
# min(y - x).  Verticals whose bottom cell shares that parity with the
# anchor are graded (weight d * q^level); horizontals are graded on the
# opposite parity class (weight c * q^(level - 1)).  The remaining classes
# carry the constant weights a and b.  The anchor parity is a per-family
# calibration, read off the region's kind by ``_weight_classes``: glued double
# rectangles use 0 (pinned by the weighted product formula), standalone
# rectangles use 1 (pinned by the rectangle-reduction factor identity); see
# tests/test_matchgraph.py.

_ONE = Fraction(1)

#: The scheme under which every domino weighs 1.
_UNIT_SCHEME = WeightScheme(*(_ONE,) * 5)


class WeightClasses(NamedTuple):
    """Each domino of a region by weight class; see ``_weight_classes``."""

    levels: int
    vertices: tuple  # the cells, sorted
    edges: tuple  # (edge key, class) per domino, east then north in cell order
    marked: tuple  # the bottommost diagonal, southwest to northeast
    rows: tuple  # per white cell, ((black column, signed class), ...)


@derived
def _weight_classes(region: Region) -> WeightClasses:
    """The weight class of every domino, derived once per region.

    A domino's class is (2 * vertical + parity) * levels + level: parity is
    the diagonal parity of its bottom (vertical) or left (horizontal) cell
    relative to the anchor, ``Region.dmin`` plus the anchor parity of the
    region's kind, and level is that cell's row counted from the bottom.
    ``_level_table`` gives the weight of each class under a scheme.  In the
    Kasteleyn rows, a class plus 4 * levels stands for an entry of sign -1.
    """
    cells = region.sorted_cells
    cellset = region.cells
    dmin, ymin = region.dmin, region.ymin
    anchor = dmin + (region.kind == "aztec_rectangle")
    levels = max(c.y for c in cellset) - ymin + 1

    def cls(low: Cell, vertical: bool) -> int:
        return (2 * vertical + (low.y - low.x - anchor) % 2) * levels + low.y - ymin

    edges = tuple(
        (frozenset((c, d)), cls(c, vertical))
        for c in cells
        for d, vertical in ((Cell(c.x + 1, c.y), False), (Cell(c.x, c.y + 1), True))
        if d in cellset
    )
    whites, blacks = region.colour_classes
    col = {b: j for j, b in enumerate(blacks)}
    negative = 4 * levels
    rows = tuple(
        tuple(
            (col[b], cls(min(w, b), w.x == b.x) + (negative if _domino_sign(w, b) < 0 else 0))
            for b in region.neighbours[w]
        )
        for w in whites
    )
    marked = sorted((c for c in cells if c.y - c.x == dmin), key=lambda c: c.x + c.y)
    return WeightClasses(levels, tuple(cells), edges, tuple(marked), rows)


class HalfClasses(NamedTuple):
    """The shape of a trimmed rectangle's half graph; see ``_half_classes``."""

    vertices: tuple  # the kept cells in sorted order, then the pendants
    edges: tuple  # (edge key, class) per kept domino, in dual-graph order
    pendant_edges: tuple  # edge key per pendant edge, southwest to northeast
    marked: tuple  # the pendants, southwest to northeast


@derived
def _half_classes(region: Region) -> HalfClasses:
    """What ``half_ar_graph`` keeps of a region's dual graph, derived once per region.

    The bottommost diagonal is dropped with its dominoes, and a pendant
    vertex hangs from each cell of the newly exposed diagonal.  This depends
    on the shape alone, so a scheme only looks up the weights of the kept
    classes.
    """
    classes = _weight_classes(region)
    drop = set(classes.marked)
    keep = tuple(v for v in classes.vertices if v not in drop)
    dmin = min(v.y - v.x for v in keep)
    exposed = sorted((v for v in keep if v.y - v.x == dmin), key=lambda v: v.x + v.y)
    pendants = tuple(("pend", i) for i in range(len(exposed)))
    return HalfClasses(
        keep + pendants,
        tuple((key, k) for key, k in classes.edges if key.isdisjoint(drop)),
        tuple(frozenset(pair) for pair in zip(exposed, pendants)),
        pendants,
    )


def _rational(v) -> Fraction:
    """v as a Fraction, without copying one that already is."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _level_table(scheme: WeightScheme, levels: int) -> list[Fraction]:
    """The weight of each class of ``_weight_classes`` under the scheme.

    Per level L: b for a horizontal domino of the anchor's parity, c * q^(L-1)
    for one of the other parity, d * q^L for a vertical domino of the
    anchor's parity, and a for one of the other parity.  q must be nonzero,
    since a graded horizontal domino on the bottom row carries q^-1.  The
    graded weights are carried as integer numerators and denominators, level
    by level, and each becomes one Fraction.
    """
    a, b, c, d, q = map(_rational, scheme)
    if not q:
        raise ZeroDivisionError(
            "q must be nonzero: a graded horizontal domino on the bottom row carries q^-1"
        )
    qn, qd = q.numerator, q.denominator
    hn, hd = c.numerator * qd, c.denominator * qn  # c * q^-1
    vn, vd = d.numerator, d.denominator  # d * q^0
    graded_h, graded_v = [], []
    for _ in range(levels):
        graded_h.append(Fraction(hn, hd))
        graded_v.append(Fraction(vn, vd))
        hn, hd, vn, vd = hn * qn, hd * qd, vn * qn, vd * qd
    return [b] * levels + graded_h + graded_v + [a] * levels


def _weighted_edges(classes: WeightClasses, table: list[Fraction], keyed: tuple) -> dict:
    """The edge map {key: table[class]} of the (key, class) pairs keyed.

    keyed is ``classes.edges`` or a part of it; a zero weight on any edge
    of the whole region raises, as building its dual graph would.
    """
    if not all(table) and not all(table[k] for _, k in classes.edges):
        raise ValueError("zero edge weight")
    return {key: table[k] for key, k in keyed}


def dual_graph(region: Region, scheme: WeightScheme | None = None) -> WeightedGraph:
    """One vertex per cell, one edge per adjacent pair, weighted per scheme.

    The cells along the bottommost diagonal (minimal y - x) are marked, in
    southwest-to-northeast order; they are the attachment points for
    connected sums.  Edges come cell by cell in sorted order, the east
    neighbour before the north one.
    """
    classes = _weight_classes(region)
    table = _level_table(scheme or _UNIT_SCHEME, classes.levels)
    edges = _weighted_edges(classes, table, classes.edges)
    return WeightedGraph._derived(classes.vertices, edges, classes.marked)


def region_matching_sum(region: Region, scheme: WeightScheme) -> Fraction:
    """Sum over tilings of the product of domino weights, as a determinant.

    This equals ``matching_genfun(dual_graph(region, scheme))`` in polynomial
    time.  det(K_w) is the weighted sum times a sign shared by every tiling,
    and the region's unweighted determinant, the tiling count times that
    sign, gives the sign, so negative weights come out right.  A region with
    no tiling sums to 0.  Each weight class is an integer numerator and
    denominator; each row is multiplied by the lcm of its own denominators,
    and the integer determinant over the product of those multipliers is
    the one Fraction built.
    """
    count = _unit_det(region)  # also rejects a region with a hole
    if not count:
        return Fraction(0)
    classes = _weight_classes(region)
    table = _level_table(scheme, classes.levels)
    nums = [w.numerator for w in table]
    nums += [-v for v in nums]
    dens = [w.denominator for w in table] * 2
    # per row, not one lcm for the table: a row then carries only the
    # q-powers of the levels it touches
    rows = []
    multiplier = 1
    for row in classes.rows:
        mult = math.lcm(*(dens[k] for _, k in row))
        rows.append({j: nums[k] * (mult // dens[k]) for j, k in row})
        multiplier *= mult
    det = _det(rows)
    return Fraction(det if count > 0 else -det, multiplier)


# -- replacement rules ------------------------------------------------------
#
# Each rule copies or filters the edge map of a valid graph and checks only
# the edges it adds, so it raises the same errors as building the result
# through ``WeightedGraph`` would, and keeps the same edge order.


def vertex_split(graph: WeightedGraph, v, part: Iterable) -> WeightedGraph:
    """Split v into v', v'' joined through a new middle vertex.

    part is the set of neighbors reattached to v'; the rest go to v''.  The
    two new unit edges leave the matching generating function unchanged.
    """
    part = set(part)
    nbs = set(graph.neighbors(v))
    if not part <= nbs:
        raise ValueError("partition contains non-neighbors of v")
    vp, vpp, mid = (v, "split'"), (v, "split''"), (v, "split-mid")
    vertices = tuple(u for u in graph.vertices if u != v) + (vp, mid, vpp)
    edges: dict[frozenset, Fraction] = {}
    for key, w in graph.edges.items():
        if v in key:
            (u,) = key - {v}
            _add_edge(edges, u, vp if u in part else vpp, w)
        elif key in edges:  # only if the graph already has a vertex named like v' or v''
            _add_edge(edges, *key, w)
        else:
            edges[key] = w
    _add_edge(edges, vp, mid, _ONE)
    _add_edge(edges, mid, vpp, _ONE)
    marked = tuple(vp if m == v else m for m in graph.marked)
    return WeightedGraph._derived(vertices, edges, marked)


def star_scale(graph: WeightedGraph, v, factor: Fraction) -> WeightedGraph:
    """Scale every edge at v; M scales by the same factor (must be positive)."""
    factor = _rational(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    edges = {key: w * factor if v in key else w for key, w in graph.edges.items()}
    return WeightedGraph._derived(graph.vertices, edges, graph.marked)


def spider_reduce(graph: WeightedGraph, inner: tuple) -> tuple[WeightedGraph, Fraction]:
    """Replace an inner 4-cycle with unit spokes by a 4-cycle on its tips.

    inner = (i1, i2, i3, i4) in cyclic order; each i_j has exactly one
    neighbor outside the cycle, reached by a unit spoke.  With cycle weights
    x = w(i1,i2), y = w(i2,i3), z = w(i3,i4), t = w(i4,i1) and D = xz + yt,
    the tips A,B,C,D (outside neighbors of i1..i4) get the cycle
    A-B = z/D, B-C = t/D, C-D = x/D, D-A = y/D, and M(old) = D * M(new).
    """
    i1, i2, i3, i4 = inner
    x = graph.weight(i1, i2)
    y = graph.weight(i2, i3)
    z = graph.weight(i3, i4)
    t = graph.weight(i4, i1)
    delta = x * z + y * t
    if delta == 0:
        raise ZeroDivisionError("singular cell: xz + yt = 0")
    tips = []
    for i in inner:
        outside = [u for u in graph.neighbors(i) if u not in inner]
        if len(outside) != 1:
            raise ValueError(f"inner vertex {i!r} must have exactly one tip")
        if graph.weight(i, outside[0]) != 1:
            raise ValueError("spokes must carry unit weight")
        tips.append(outside[0])
    a_, b_, c_, d_ = tips
    drop = set(inner)
    vertices = tuple(u for u in graph.vertices if u not in drop)
    edges = {key: w for key, w in graph.edges.items() if key.isdisjoint(drop)}
    _add_edge(edges, a_, b_, z / delta)
    _add_edge(edges, b_, c_, t / delta)
    _add_edge(edges, c_, d_, x / delta)
    _add_edge(edges, d_, a_, y / delta)
    for m in graph.marked:
        if m in drop:
            raise ValueError(f"marked vertex {m!r} missing")
    return WeightedGraph._derived(vertices, edges, graph.marked), delta


def connected_sum(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Identify the marked vertices of g with those of h, pairwise in order."""
    if len(g.marked) != len(h.marked):
        raise ValueError(
            f"marker count mismatch: {len(g.marked)} vs {len(h.marked)}"
        )
    relabel = dict(zip(h.marked, g.marked))
    glued = len(relabel)
    relabel.update((u, ("h", u)) for u in h.vertices if u not in relabel)
    vertices = g.vertices + tuple(relabel.values())[glued:]
    edges = dict(g.edges)
    for (u, v), w in h.edges.items():
        _add_edge(edges, relabel[u], relabel[v], w)
    return WeightedGraph._derived(vertices, edges, ())


def half_ar_graph(trimmed: Region, scheme: WeightScheme) -> WeightedGraph:
    """The trimmed rectangle graph appearing on the small side of ar_reduce.

    Built from trimmed, the (m, n-1) rectangle, re-weighted with
    (a/q, b, c, d): the levels of the smaller rectangle are measured from its
    own bottom row, and that renormalization already supplies the one-step
    upward shift, so only the a-weight changes.  The bottommost diagonal of
    vertices is removed and a unit pendant edge hung from each vertex of the
    newly exposed diagonal; the pendants are the marked vertices, southwest
    to northeast.  That shape is derived once per region
    (``_half_classes``), so a scheme costs one table lookup per edge.
    """
    a, b, c, d, q = scheme
    classes, half = _weight_classes(trimmed), _half_classes(trimmed)
    table = _level_table(WeightScheme(a / q, b, c, d, q), classes.levels)
    edges = _weighted_edges(classes, table, half.edges)
    for key in half.pendant_edges:
        edges[key] = _ONE
    return WeightedGraph._derived(half.vertices, edges, half.marked)


def ar_reduce(
    host: WeightedGraph, rect: Region, trimmed: Region, scheme: WeightScheme
) -> tuple[WeightedGraph, Fraction]:
    """Swap a glued m x n rectangle for its trimmed form, returning the factor.

    rect is the m x n Aztec rectangle and trimmed the m x (n-1) one; a
    trimmed of any other shape raises ValueError.

    M(host # dual_graph(rect, scheme)) = (ad + bc)^m * q^(m(n-1) + m(m-1)/2)
                                       * M(host # half_ar_graph(trimmed, scheme)).
    The returned graph is the right-hand side's connected sum.
    """
    if rect.kind != "aztec_rectangle":
        raise ValueError(f"rect must be an Aztec rectangle, got {rect.spec_string()}")
    m, n = rect.params
    if trimmed.kind != "aztec_rectangle" or trimmed.params != (m, n - 1):
        raise ValueError(
            f"trimmed must be the {m} x {n - 1} Aztec rectangle, got {trimmed.spec_string()}"
        )
    a, b, c, d, q = map(_rational, scheme)
    if len(host.marked) != n:
        raise ValueError(f"host must mark n={n} vertices, has {len(host.marked)}")
    if a * d + b * c == 0:
        raise ZeroDivisionError("ad + bc vanishes")
    factor = (a * d + b * c) ** m * q ** (m * (n - 1) + m * (m - 1) // 2)
    return connected_sum(host, half_ar_graph(trimmed, scheme)), factor
