"""Weighted graphs, matching sums, and local replacement rewrites.

Vertices are arbitrary hashable labels; weights are exact rationals.  All
rewrite operations return new graphs and (where applicable) the scalar
factor by which the matching generating function changes, so the identity
M(old) = factor * M(new) can be checked exactly.

The weighted matching sum of a region's dual graph is a Kasteleyn
determinant (``region_matching_sum``); the brute-force ``matching_genfun``
serves general graphs, such as the non-planar hosts of the rewrite checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .engine import CapacityError, _domino_det
from .regions import Cell, Region

#: Brute-force matching bound.
MAX_MATCH_VERTICES = 40


class WeightScheme(NamedTuple):
    """Domino weights: the four classes get a, b, c*q^(level-1), d*q^level."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    q: Fraction


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
            if u == v or u not in vs or v not in vs:
                raise ValueError(f"bad edge ({u!r}, {v!r})")
            if w == 0:
                raise ValueError("zero edge weight")
            key = frozenset((u, v))
            if key in emap:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            emap[key] = w
        self.edges = emap
        self.marked = tuple(marked)
        for m in self.marked:
            if m not in vs:
                raise ValueError(f"marked vertex {m!r} missing")
        self._neighbors: dict | None = None

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

    def edge_list(self) -> list[tuple]:
        index = {v: i for i, v in enumerate(self.vertices)}
        out = []
        for key, w in self.edges.items():
            u, v = sorted(key, key=index.get)
            out.append((u, v, w))
        out.sort(key=lambda e: (index[e[0]], index[e[1]]))
        return out

    def to_json_obj(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": len(self.vertices),
            "edges": [[index[u], index[v], str(w)] for u, v, w in self.edge_list()],
            "marked": [index[m] for m in self.marked],
        }


def matching_genfun(graph: WeightedGraph) -> Fraction:
    """Sum over perfect matchings of the product of edge weights.

    Every perfect matching has n/2 edges, so the weights are scaled once by
    the least common multiple L of their denominators, the search runs on
    integers over a bitmask of alive vertices, and the sum is divided by
    L^(n/2) at the end.
    """
    n = len(graph.vertices)
    if n > MAX_MATCH_VERTICES:
        raise CapacityError(
            f"{n} vertices exceed the brute-force bound {MAX_MATCH_VERTICES}"
        )
    if n % 2:
        return Fraction(0)
    scale = math.lcm(*(w.denominator for w in graph.edges.values()))
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nbmask = [0] * n
    for (a, b), w in graph.edges.items():
        u, v = index[a], index[b]
        iw = w.numerator * (scale // w.denominator)
        adj[u].append((1 << v, iw))
        adj[v].append((1 << u, iw))
        nbmask[u] |= 1 << v
        nbmask[v] |= 1 << u

    def rec(alive: int) -> int:
        if not alive:
            return 1
        # branch on a vertex of minimum remaining degree (forced edges first)
        best, best_deg = -1, n
        rest = alive
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            deg = (nbmask[v] & alive).bit_count()
            if deg < best_deg:
                if not deg:
                    return 0
                best, best_deg = v, deg
                if deg == 1:
                    break
        alive ^= 1 << best
        total = 0
        for bit, w in adj[best]:
            if alive & bit:
                total += w * rec(alive ^ bit)
        return total

    return Fraction(rec((1 << n) - 1), scale ** (n // 2))


# -- the domino weight scheme ----------------------------------------------

# The four domino classes are told apart by the diagonal parity of a
# distinguished cell (bottom cell for vertical dominoes, left cell for
# horizontal ones), measured relative to the region's bottommost diagonal
# min(y - x).  Verticals whose bottom cell shares that parity with the
# anchor are graded (weight d * q^level); horizontals are graded on the
# opposite parity class (weight c * q^(level - 1)).  The remaining classes
# carry the constant weights a and b.  The anchor parity is a per-family
# calibration: glued double rectangles use 0 (pinned by the weighted product
# formula), standalone rectangles use 1 (pinned by the rectangle-reduction
# factor identity); see tests/test_matchgraph.py.
DOUBLE_ANCHOR_PARITY = 0
RECT_ANCHOR_PARITY = 1


def _level_powers(region: Region, q: Fraction) -> dict[int, Fraction]:
    """q^e for every exponent a domino of the region can carry, -1 upward.

    Built once per weighted graph or determinant and passed to
    ``domino_weight``; q must be nonzero, since a graded horizontal domino
    on the bottom row carries q^-1.
    """
    rows = max(c.y for c in region.cells) - region.ymin + 1
    return {e: q ** e for e in range(-1, rows)}


def domino_weight(
    region: Region,
    c1: Cell,
    c2: Cell,
    scheme: WeightScheme,
    powers: dict[int, Fraction],
    anchor_parity: int = DOUBLE_ANCHOR_PARITY,
) -> Fraction:
    """Weight of the domino {c1, c2} under the level-graded scheme.

    Levels count rows from the bottom of the region: a graded vertical
    domino at level L weighs d * q^L with L the bottom cell's row, a graded
    horizontal one weighs c * q^(L-1) with L its row.  ``powers`` is
    ``_level_powers(region, scheme.q)``.
    """
    dmin, ymin = region.dmin, region.ymin
    if c1.x == c2.x:  # vertical
        bot = c1 if c1.y < c2.y else c2
        if (bot.y - bot.x - dmin) % 2 == anchor_parity % 2:
            return scheme.d * powers[bot.y - ymin]
        return Fraction(scheme.a)
    left = c1 if c1.x < c2.x else c2
    if (left.y - left.x - dmin) % 2 != anchor_parity % 2:
        return scheme.c * powers[left.y - ymin - 1]
    return Fraction(scheme.b)


def dual_graph(
    region: Region,
    scheme: WeightScheme | None = None,
    anchor_parity: int = DOUBLE_ANCHOR_PARITY,
) -> WeightedGraph:
    """One vertex per cell, one edge per adjacent pair, weighted per scheme.

    The cells along the bottommost diagonal (minimal y - x) are marked, in
    southwest-to-northeast order; they are the attachment points for
    connected sums.
    """
    cells = region.sorted_cells
    cellset = region.cells
    powers = None if scheme is None else _level_powers(region, scheme.q)
    edges = []
    for c in cells:
        for d in (Cell(c.x + 1, c.y), Cell(c.x, c.y + 1)):
            if d in cellset:
                w = (
                    Fraction(1)
                    if scheme is None
                    else domino_weight(region, c, d, scheme, powers, anchor_parity)
                )
                edges.append((c, d, w))
    marked = sorted((c for c in cells if c.y - c.x == region.dmin), key=lambda c: c.x + c.y)
    return WeightedGraph(cells, edges, marked)


def region_matching_sum(region: Region, scheme: WeightScheme) -> Fraction:
    """Sum over tilings of the product of domino weights, as a determinant.

    This equals ``matching_genfun(dual_graph(region, scheme))`` in polynomial
    time.  det(K_w) is the weighted sum times a sign shared by every tiling,
    and the region's unweighted determinant, the tiling count times that
    sign, gives the sign, so negative weights come out right.
    """
    sign = 1 if region.kasteleyn_det > 0 else -1  # also rejects a region with a hole
    powers = _level_powers(region, scheme.q)
    return sign * Fraction(
        _domino_det(region, lambda c, d: domino_weight(region, c, d, scheme, powers))
    )


# -- replacement rules ------------------------------------------------------


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
    vertices = [u for u in graph.vertices if u != v] + [vp, mid, vpp]
    edges = []
    for (key), w in graph.edges.items():
        if v in key:
            (u,) = key - {v}
            edges.append((u, vp if u in part else vpp, w))
        else:
            a, b = tuple(key)
            edges.append((a, b, w))
    edges += [(vp, mid, Fraction(1)), (mid, vpp, Fraction(1))]
    marked = tuple(vp if m == v else m for m in graph.marked)
    return WeightedGraph(vertices, edges, marked)


def star_scale(graph: WeightedGraph, v, factor: Fraction) -> WeightedGraph:
    """Scale every edge at v; M scales by the same factor (must be positive)."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    edges = []
    for key, w in graph.edges.items():
        if v in key:
            w = w * factor
        a, b = tuple(key)
        edges.append((a, b, w))
    return WeightedGraph(graph.vertices, edges, graph.marked)


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
    vertices = [u for u in graph.vertices if u not in inner]
    edges = [
        (u, v, w)
        for key, w in graph.edges.items()
        if not (key & set(inner))
        for u, v in [tuple(key)]
    ]
    edges += [
        (a_, b_, z / delta),
        (b_, c_, t / delta),
        (c_, d_, x / delta),
        (d_, a_, y / delta),
    ]
    return WeightedGraph(vertices, edges, graph.marked), delta


def connected_sum(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Identify the marked vertices of g with those of h, pairwise in order."""
    if len(g.marked) != len(h.marked):
        raise ValueError(
            f"marker count mismatch: {len(g.marked)} vs {len(h.marked)}"
        )
    glue = dict(zip(h.marked, g.marked))
    relabel = lambda u: glue.get(u, ("h", u))
    vertices = list(g.vertices) + [
        relabel(u) for u in h.vertices if u not in glue
    ]
    edges = [(u, v, w) for key, w in g.edges.items() for u, v in [tuple(key)]]
    edges += [
        (relabel(u), relabel(v), w)
        for key, w in h.edges.items()
        for u, v in [tuple(key)]
    ]
    return WeightedGraph(vertices, edges, ())


def ar_graph(m: int, n: int, scheme: WeightScheme) -> WeightedGraph:
    """Weighted dual graph of the m x n Aztec rectangle, bottom diagonal marked."""
    from .regions import build_aztec_rectangle

    return dual_graph(build_aztec_rectangle(m, n), scheme, RECT_ANCHOR_PARITY)


def half_ar_graph(m: int, n: int, scheme: WeightScheme) -> WeightedGraph:
    """The trimmed rectangle graph appearing on the small side of ar_reduce.

    Built from the (m, n-1) rectangle re-weighted with (a/q, b, c, d): the
    levels of the smaller rectangle are measured from its own bottom row, and
    that renormalization already supplies the one-step upward shift, so only
    the a-weight changes.  The bottommost diagonal of vertices is removed and
    a unit pendant edge hung from each vertex of the newly exposed diagonal;
    the pendants are the marked vertices, southwest to northeast.
    """
    a, b, c, d, q = scheme
    inner = ar_graph(m, n - 1, WeightScheme(a / q, b, c, d, q))
    drop = set(inner.marked)
    keep = [v for v in inner.vertices if v not in drop]
    dmin = min(v.y - v.x for v in keep)
    exposed = sorted((v for v in keep if v.y - v.x == dmin), key=lambda v: v.x + v.y)
    pendants = [("pend", i) for i in range(len(exposed))]
    edges = [
        (u, v, w)
        for key, w in inner.edges.items()
        if not (key & drop)
        for u, v in [tuple(key)]
    ]
    edges += [(v, p, Fraction(1)) for v, p in zip(exposed, pendants)]
    return WeightedGraph(keep + pendants, edges, pendants)


def ar_reduce(
    host: WeightedGraph, m: int, n: int, scheme: WeightScheme
) -> tuple[WeightedGraph, Fraction]:
    """Swap a glued m x n rectangle for its trimmed form, returning the factor.

    M(host # ar_graph(m, n)) = (ad + bc)^m * q^(m(n-1) + m(m-1)/2)
                             * M(host # half_ar_graph(m, n)).
    The returned graph is the right-hand side's connected sum.
    """
    a, b, c, d, q = (Fraction(v) for v in scheme)
    if len(host.marked) != n:
        raise ValueError(f"host must mark n={n} vertices, has {len(host.marked)}")
    if a * d + b * c == 0:
        raise ZeroDivisionError("ad + bc vanishes")
    factor = (a * d + b * c) ** m * q ** (m * (n - 1) + m * (m - 1) // 2)
    return connected_sum(host, half_ar_graph(m, n, scheme)), factor
