"""Weighted graphs, matching sums, and local replacement rewrites.

Vertices are arbitrary hashable labels, but edges are keyed by vertex
index: a graph's ``edges`` map each pair (i, j), i < j, of positions in
``vertices`` to an integer numerator, in edge order, over the graph's one
positive common denominator ``den``.  Every rewrite builds a new graph in
that form directly, in integers, and returns (where applicable) the scalar
factor by which the matching generating function changes, so the identity
M(old) = factor * M(new) can be checked exactly.

The weighted matching sum of a region's dual graph is a Kasteleyn
determinant (``region_matching_sum``, which hands each domino's weight to
``engine.kasteleyn_sum``); the exponential ``matching_genfun`` serves
general graphs, such as the non-planar hosts of the rewrite checks.  It
multiplies integer numerators and divides by den^(n/2) at the end.

Which weight a domino gets splits in two.  Its weight class (orientation,
diagonal parity and level) depends on the region alone: it is derived once
per region for each domino of ``Lattice.pairs`` (``_weight_classes``), and
the dual graph's edges and the determinant's weights look it up by the
domino's index.  A scheme is a small table from class to an integer
numerator and denominator, built once per call by ``_level_table`` from
integer q-powers.  The rectangle rewrites take prebuilt Aztec rectangles,
so a caller that glues the same shape many times builds it, and derives
its classes and its half-graph shape (``_half_classes``), once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .engine import kasteleyn_sum
from .regions import CapacityError, Region, _Tuple, _tuple_new, derived

#: Brute-force matching bound.
MAX_MATCH_VERTICES = 40


class WeightScheme(_Tuple):
    """Domino weights as Fractions: the four classes get a, b, c*q^(level-1), d*q^level."""

    __slots__ = ()

    def __new__(cls, a, b, c, d, q):
        return _tuple_new(cls, (a, b, c, d, q))


def _add_edge(edges: dict, vertices: tuple, i: int, j: int, num: int) -> None:
    """Put the edge i-j of numerator num into edges, checked as every new edge is.

    i and j are positions in vertices; num is nonzero.
    """
    if i == j:
        raise ValueError(f"bad edge ({vertices[i]!r}, {vertices[j]!r})")
    key = (i, j) if i < j else (j, i)
    if key in edges:
        raise ValueError(f"duplicate edge {vertices[i]!r}-{vertices[j]!r}")
    edges[key] = num


def _first_repeat(items: tuple):
    """The first item that items lists a second time; items has one."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


class WeightedGraph:
    """Immutable simple undirected graph with rational edge weights.

    ``edges`` maps (i, j), i < j positions in ``vertices``, to an integer
    numerator, in edge order; the weight of that edge is the numerator over
    the positive common denominator ``den``.  Vertices and marked vertices
    are distinct labels.
    """

    __slots__ = ("vertices", "edges", "den", "marked", "_index", "_neighbors")

    def __init__(self, vertices: Iterable, edges: Iterable, marked: Iterable = ()):
        self.vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) < len(self.vertices):
            raise ValueError(f"repeated vertex {_first_repeat(self.vertices)!r}")
        ratios: dict[tuple[int, int], tuple[int, int]] = {}
        for u, v, w in edges:
            if not isinstance(w, (int, Fraction)):
                w = Fraction(w)
            i, j = index.get(u), index.get(v)
            if i is None or j is None or i == j:
                raise ValueError(f"bad edge ({u!r}, {v!r})")
            ratio = w.as_integer_ratio()
            if not ratio[0]:
                raise ValueError("zero edge weight")
            key = (i, j) if i < j else (j, i)
            if key in ratios:
                raise ValueError(f"duplicate edge {u!r}-{v!r}")
            ratios[key] = ratio
        den = math.lcm(*(d for _, d in ratios.values()))
        self.edges = {key: num * (den // d) for key, (num, d) in ratios.items()}
        self.den = den
        self.marked = tuple(marked)
        for m in self.marked:
            if m not in index:
                raise ValueError(f"marked vertex {m!r} missing")
        if len(set(self.marked)) < len(self.marked):
            raise ValueError(f"marked vertex {_first_repeat(self.marked)!r} repeated")
        self._index = index
        self._neighbors: list | None = None

    @classmethod
    def _derived(cls, vertices: tuple, edges: dict, den: int, marked: tuple) -> WeightedGraph:
        """A graph on an edge map that is valid already; nothing is checked again.

        For the rewrites of a valid graph: they map its edge map onto the
        new positions, put each edge they add that could meet an edge
        already there through ``_add_edge``, and check the vertex labels and
        marked vertices they add.
        """
        graph = object.__new__(cls)
        graph.vertices = vertices
        graph.edges = edges
        graph.den = den
        graph.marked = marked
        graph._index = None
        graph._neighbors = None
        return graph

    def _position(self) -> dict:
        """Each vertex label's position, built on the first call and kept."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    def _adjacent(self, i: int) -> list[int]:
        """The positions joined to position i, in edge order.

        Every position's list is built in one pass over the edges on the
        first call and kept on the graph; most graphs are never asked.
        """
        if self._neighbors is None:
            nbrs: list[list[int]] = [[] for _ in self.vertices]
            for a, b in self.edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            self._neighbors = nbrs
        return self._neighbors[i]

    def weight(self, u, v) -> Fraction:
        index = self._position()
        i, j = index[u], index[v]
        return Fraction(self.edges[(i, j) if i < j else (j, i)], self.den)

    def neighbors(self, v) -> list:
        """The vertices joined to v, in edge order."""
        vertices = self.vertices
        return [vertices[j] for j in self._adjacent(self._position()[v])]


def matching_genfun(graph: WeightedGraph) -> Fraction:
    """Sum over perfect matchings of the product of edge weights.

    Every perfect matching has n/2 edges, so the search multiplies integer
    numerators over a bitmask of alive vertices, and the sum is divided by
    den^(n/2) at the end.  It matches the lowest alive vertex, whose
    partner must come after it, and pushes each alive mask's sum forward
    one matched pair at a time: layer k holds the masks with k pairs
    matched, so each mask is expanded once, after every way of reaching it
    has been added in.  On a region's dual graph, whose vertices are the
    cells in sorted order, an alive mask is a column profile, so the search
    is a column-profile dynamic programme.
    """
    n = len(graph.vertices)
    if n > MAX_MATCH_VERTICES:
        raise CapacityError(
            f"{n} vertices exceed the brute-force bound {MAX_MATCH_VERTICES}"
        )
    if n % 2:
        return Fraction(0)
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), num in graph.edges.items():
        later[i].append((1 << j, num))
    layer = {(1 << n) - 1: 1}
    for _ in range(n // 2):
        pushed: dict[int, int] = {}
        for alive, total in layer.items():
            low = alive & -alive
            rest = alive ^ low
            for bit, num in later[low.bit_length() - 1]:
                if rest & bit:
                    key = rest ^ bit
                    pushed[key] = pushed.get(key, 0) + total * num
        layer = pushed
    return Fraction(layer.get(0, 0), graph.den ** (n // 2))


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

#: The scheme under which every domino weighs 1.
_UNIT_SCHEME = WeightScheme(*(Fraction(1),) * 5)


class WeightClasses(_Tuple):
    """Each domino of a region by weight class; see ``_weight_classes``.

    ``of`` holds the class of each domino, by its index in Lattice.pairs, and
    ``marked`` the bottommost diagonal, southwest to northeast.
    """

    __slots__ = ()

    def __new__(cls, levels, of, marked):
        return _tuple_new(cls, (levels, of, marked))


@derived
def _weight_classes(region: Region) -> WeightClasses:
    """The weight class of every domino, derived once per region.

    A domino's class is (2 * vertical + parity) * levels + level: parity is
    the diagonal parity of its bottom (vertical) or left (horizontal) cell,
    the first of its pair, relative to the anchor, the bottommost diagonal
    min(y - x) plus the anchor parity of the region's kind, and level is
    that cell's row counted from the bottom.  ``_level_table`` gives the
    weight of each class under a scheme.
    """
    cells = region.lattice.cells
    dmin, ymin = min(c.y - c.x for c in cells), min(c.y for c in cells)
    anchor = dmin + (region.kind == "aztec_rectangle")
    levels = max(c.y for c in cells) - ymin + 1
    of = []
    for i, j in region.lattice.pairs:
        low = cells[i]
        vertical = low.x == cells[j].x
        of.append((2 * vertical + (low.y - low.x - anchor) % 2) * levels + low.y - ymin)
    marked = sorted((c for c in cells if c.y - c.x == dmin), key=lambda c: c.x + c.y)
    return WeightClasses(levels, tuple(of), tuple(marked))


class HalfClasses(_Tuple):
    """The shape of a trimmed rectangle's half graph; see ``_half_classes``.  The fields:

    - ``vertices``: the kept cells in sorted order, then the pendants;
    - ``edges``: ((i, j), class) per kept domino by position in vertices, in
      Lattice.pairs order;
    - ``pendant_edges``: (i, j) per pendant edge, southwest to northeast;
    - ``marked``: the pendants, southwest to northeast.
    """

    __slots__ = ()

    def __new__(cls, vertices, edges, pendant_edges, marked):
        return _tuple_new(cls, (vertices, edges, pendant_edges, marked))


@derived
def _half_classes(region: Region) -> HalfClasses:
    """What ``half_ar_graph`` keeps of a region's dual graph, derived once per region.

    The bottommost diagonal is dropped with its dominoes, and a pendant
    vertex hangs from each cell of the newly exposed diagonal.  This depends
    on the shape alone, so a scheme only looks up the weights of the kept
    classes.
    """
    classes, cells = _weight_classes(region), region.lattice.cells
    drop = set(classes.marked)
    keep = tuple(v for v in cells if v not in drop)
    at = {v: i for i, v in enumerate(keep)}
    # dropping vertices keeps the others in order, so every kept key stays ordered
    moved = [at.get(v) for v in cells]
    dmin = min(v.y - v.x for v in keep)
    exposed = sorted((v for v in keep if v.y - v.x == dmin), key=lambda v: v.x + v.y)
    pendants = tuple(("pend", i) for i in range(len(exposed)))
    return HalfClasses(
        keep + pendants,
        tuple(
            ((moved[i], moved[j]), k)
            for (i, j), k in zip(region.lattice.pairs, classes.of)
            if moved[i] is not None and moved[j] is not None
        ),
        tuple((at[v], len(keep) + p) for p, v in enumerate(exposed)),
        pendants,
    )


def _ratio(v) -> tuple[int, int]:
    """The rational v as an integer (numerator, positive denominator) pair in lowest terms."""
    return (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()


def _require_q(qn: int) -> None:
    """Raise unless q, of numerator qn, is nonzero."""
    if not qn:
        raise ZeroDivisionError(
            "q must be nonzero: a graded horizontal domino on the bottom row carries q^-1"
        )


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _level_table(scheme: WeightScheme, levels: int) -> list[tuple[int, int]]:
    """The weight of each class of ``_weight_classes`` under the scheme.

    Per level L: b for a horizontal domino of the anchor's parity, c * q^(L-1)
    for one of the other parity, d * q^L for a vertical domino of the
    anchor's parity, and a for one of the other parity.  q must be nonzero,
    since a graded horizontal domino on the bottom row carries q^-1.  Each
    weight is a reduced integer (numerator, positive denominator), and the
    graded ones are carried in integers level by level.
    """
    a, b, (cn, cd), (vn, vd), (qn, qd) = map(_ratio, scheme)  # d * q^0 is d
    _require_q(qn)
    hn, hd = _reduced(cn * qd, cd * qn)  # c * q^-1
    graded_h, graded_v = [], []
    for _ in range(levels):
        graded_h.append(_reduced(hn, hd))
        graded_v.append(_reduced(vn, vd))
        hn, hd, vn, vd = hn * qn, hd * qd, vn * qn, vd * qd
    return [b] * levels + graded_h + graded_v + [a] * levels


def _weighted_edges(classes: WeightClasses, table: list, keyed: Iterable) -> tuple[dict, int]:
    """The edge map {key: numerator of table[class]} of the (key, class) pairs keyed, and its denominator.

    Every numerator is over the lcm of the table's denominators.  keyed
    pairs each domino of the region, or of a part of it, with its class; a
    zero weight on any domino of the whole region raises, as building its
    dual graph would.
    """
    den = math.lcm(*(d for _, d in table))
    nums = [n * (den // d) for n, d in table]
    if not all(nums) and not all(nums[k] for k in classes.of):
        raise ValueError("zero edge weight")
    return {key: nums[k] for key, k in keyed}, den


def dual_graph(region: Region, scheme: WeightScheme | None = None) -> WeightedGraph:
    """One vertex per cell, one edge per adjacent pair, weighted per scheme.

    The cells along the bottommost diagonal (minimal y - x) are marked, in
    southwest-to-northeast order; they are the attachment points for
    connected sums.  The vertices are ``Lattice.cells`` and the edges the
    dominoes of ``Lattice.pairs``, in that order.
    """
    lat, classes = region.lattice, _weight_classes(region)
    table = _level_table(scheme or _UNIT_SCHEME, classes.levels)
    edges, den = _weighted_edges(classes, table, zip(lat.pairs, classes.of))
    return WeightedGraph._derived(lat.cells, edges, den, classes.marked)


def region_matching_sum(region: Region, scheme: WeightScheme) -> Fraction:
    """Sum over tilings of the product of domino weights, as a determinant.

    This equals ``matching_genfun(dual_graph(region, scheme))`` in polynomial
    time: each domino weighs its class's entry of the scheme's table, and
    ``engine.kasteleyn_sum`` takes the determinant.
    """
    classes = _weight_classes(region)
    table = _level_table(scheme, classes.levels)
    return kasteleyn_sum(region, [table[k] for k in classes.of])


# -- replacement rules ------------------------------------------------------
#
# Each rule maps the edge map of a valid graph onto the positions of its
# result and checks only the edges and labels it adds, so it raises the same
# errors as building the result through ``WeightedGraph`` would, and keeps
# the same edge order.


def _require_new(graph: WeightedGraph, labels: Iterable) -> None:
    """Raise as the checked constructor would if a label is a vertex of graph already."""
    index = graph._position()
    for label in labels:
        if label in index:
            raise ValueError(f"repeated vertex {label!r}")


def vertex_split(graph: WeightedGraph, v, part: Iterable) -> WeightedGraph:
    """Split v into v', v'' joined through a new middle vertex.

    part is the set of neighbors reattached to v'; the rest go to v''.  The
    two new unit edges leave the matching generating function unchanged.
    """
    part = set(part)
    if not part <= set(graph.neighbors(v)):
        raise ValueError("partition contains non-neighbors of v")
    vp, vpp, mid = (v, "split'"), (v, "split''"), (v, "split-mid")
    _require_new(graph, (vp, mid, vpp))
    index = graph._position()
    at = index[v]
    to_vp = {index[u] for u in part}
    # the vertices after v move down one place; v', mid, v'' come last
    n = len(graph.vertices)
    at_vp, at_mid, at_vpp = n - 1, n, n + 1
    edges = {}
    for (i, j), num in graph.edges.items():
        if i == at or j == at:
            u = j if i == at else i
            edges[u - (u > at), at_vp if u in to_vp else at_vpp] = num
        else:
            edges[i - (i > at), j - (j > at)] = num
    edges[at_vp, at_mid] = edges[at_mid, at_vpp] = graph.den
    vertices = graph.vertices[:at] + graph.vertices[at + 1 :] + (vp, mid, vpp)
    marked = tuple(vp if m == v else m for m in graph.marked)
    return WeightedGraph._derived(vertices, edges, graph.den, marked)


def star_scale(graph: WeightedGraph, v, factor: Fraction) -> WeightedGraph:
    """Scale every edge at v; M scales by the same factor (must be positive).

    By p/q: the edges at v are multiplied by p, every other edge by q, and
    the denominator by q.
    """
    p, q = _ratio(factor)
    if p <= 0:
        raise ValueError("scale factor must be positive")
    at = graph._position()[v]
    edges = {key: num * (p if at in key else q) for key, num in graph.edges.items()}
    return WeightedGraph._derived(graph.vertices, edges, graph.den * q, graph.marked)


def spider_reduce(graph: WeightedGraph, inner: tuple) -> tuple[WeightedGraph, Fraction]:
    """Replace an inner 4-cycle with unit spokes by a 4-cycle on its tips.

    inner = (i1, i2, i3, i4) in cyclic order; each i_j has exactly one
    neighbor outside the cycle, reached by a unit spoke.  With cycle weights
    x = w(i1,i2), y = w(i2,i3), z = w(i3,i4), t = w(i4,i1) and D = xz + yt,
    the tips A,B,C,D (outside neighbors of i1..i4) get the cycle
    A-B = z/D, B-C = t/D, C-D = x/D, D-A = y/D, and M(old) = D * M(new).

    With numerators X, Y, Z, T over d, D = (XZ + YT)/d^2 and A-B = Z d/(XZ + YT),
    so the result's denominator is d |XZ + YT|: every kept numerator is
    multiplied by |XZ + YT|, and A-B gets Z d^2 times the sign of XZ + YT.
    """
    index = graph._position()
    at = [index[i] for i in inner]
    edges = graph.edges

    def num(i: int, j: int) -> int:
        return edges[(i, j) if i < j else (j, i)]

    x, y, z, t = (num(at[k], at[(k + 1) % 4]) for k in range(4))
    big = x * z + y * t
    if big == 0:
        raise ZeroDivisionError("singular cell: xz + yt = 0")
    d = graph.den
    drop = set(at)
    tips = []
    for i, label in zip(at, inner):
        outside = [u for u in graph._adjacent(i) if u not in drop]
        if len(outside) != 1:
            raise ValueError(f"inner vertex {label!r} must have exactly one tip")
        if num(i, outside[0]) != d:
            raise ValueError("spokes must carry unit weight")
        tips.append(outside[0])
    for m in graph.marked:
        if index[m] in drop:
            raise ValueError(f"marked vertex {m!r} missing")
    moved = [None] * len(graph.vertices)
    kept = [i for i in range(len(graph.vertices)) if i not in drop]
    for new, old in enumerate(kept):
        moved[old] = new
    vertices = tuple(graph.vertices[i] for i in kept)
    scale = abs(big)
    reduced = {
        (moved[i], moved[j]): w * scale
        for (i, j), w in edges.items()
        if moved[i] is not None and moved[j] is not None
    }
    unit = d * d if big > 0 else -d * d
    a_, b_, c_, d_ = (moved[u] for u in tips)
    _add_edge(reduced, vertices, a_, b_, z * unit)
    _add_edge(reduced, vertices, b_, c_, t * unit)
    _add_edge(reduced, vertices, c_, d_, x * unit)
    _add_edge(reduced, vertices, d_, a_, y * unit)
    return WeightedGraph._derived(vertices, reduced, d * scale, graph.marked), Fraction(big, d * d)


def connected_sum(g: WeightedGraph, h: WeightedGraph) -> WeightedGraph:
    """Identify the marked vertices of g with those of h, pairwise in order.

    Both edge maps are rescaled to the lcm of the two denominators.
    """
    if len(g.marked) != len(h.marked):
        raise ValueError(
            f"marker count mismatch: {len(g.marked)} vs {len(h.marked)}"
        )
    g_at, h_at = g._position(), h._position()
    moved = [None] * len(h.vertices)
    for u, v in zip(h.marked, g.marked):
        moved[h_at[u]] = g_at[v]
    added = []
    for i, u in enumerate(h.vertices):
        if moved[i] is None:
            moved[i] = len(g.vertices) + len(added)
            added.append(("h", u))
    _require_new(g, added)
    vertices = g.vertices + tuple(added)
    den = math.lcm(g.den, h.den)
    g_scale, h_scale = den // g.den, den // h.den
    edges = {key: num * g_scale for key, num in g.edges.items()}
    for (i, j), num in h.edges.items():
        _add_edge(edges, vertices, moved[i], moved[j], num * h_scale)
    return WeightedGraph._derived(vertices, edges, den, ())


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
    (an, ad), *_, (qn, qd) = map(_ratio, scheme)
    _require_q(qn)
    classes, half = _weight_classes(trimmed), _half_classes(trimmed)
    table = _level_table(WeightScheme(Fraction(an * qd, ad * qn), *scheme[1:]), classes.levels)
    edges, den = _weighted_edges(classes, table, half.edges)
    for key in half.pendant_edges:
        edges[key] = den
    return WeightedGraph._derived(half.vertices, edges, den, half.marked)


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
    (an, ad), (bn, bd), (cn, cd), (dn, dd), (qn, qd) = map(_ratio, scheme)
    if len(host.marked) != n:
        raise ValueError(f"host must mark n={n} vertices, has {len(host.marked)}")
    _require_q(qn)
    # ad + bc = sn / sd, and the factor is one Fraction of integer powers
    sn, sd = an * dn * bd * cd + bn * cn * ad * dd, ad * dd * bd * cd
    if not sn:
        raise ZeroDivisionError("ad + bc vanishes")
    e = m * (n - 1) + m * (m - 1) // 2
    factor = Fraction(sn**m * qn**e, sd**m * qd**e)
    return connected_sum(host, half_ar_graph(trimmed, scheme)), factor
