"""Matching sums, the domino weight scheme, and the rewrite lemmas."""

import math
import random
from fractions import Fraction

import pytest
from test_lattice import cell_neighbours

from aztecbridge import engine, matchgraph
from aztecbridge.engine import CapacityError, _det, count_tilings
from aztecbridge.matchgraph import (
    WeightScheme,
    WeightedGraph,
    ar_reduce,
    connected_sum,
    dual_graph,
    half_ar_graph,
    matching_genfun,
    region_matching_sum,
    spider_reduce,
    star_scale,
    vertex_split,
)
from aztecbridge.regions import (
    Cell,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
)
from aztecbridge.verify import small_double_rectangles

rng = random.Random(5)


def rq() -> Fraction:
    while True:
        v = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        if v:
            return v


def labelled(graph: WeightedGraph) -> list:
    """The graph's edges as (u, v, weight) by vertex label, in edge order."""
    vs = graph.vertices
    return [(vs[i], vs[j], Fraction(num, graph.den)) for (i, j), num in graph.edges.items()]


def weights(graph: WeightedGraph) -> dict:
    """The graph's edges as {(u, v): weight} by vertex label."""
    return {(u, v): w for u, v, w in labelled(graph)}


def random_host(marked: int, partners: int) -> WeightedGraph:
    ms = [("m", i) for i in range(marked)]
    ps = [("p", j) for j in range(partners)]
    edges = [
        (u, v, rq()) for u in ms for v in ps if rng.random() < 0.85
    ]
    return WeightedGraph(ms + ps, edges, ms)


def test_order_one_diamond_graph_is_a_four_cycle():
    g = dual_graph(build_aztec_diamond(1))
    assert len(g.vertices) == 4 and len(g.edges) == 4
    assert all(len(g.neighbors(v)) == 2 for v in g.vertices)
    assert matching_genfun(g) == 2


def test_unweighted_matching_sum_counts_tilings():
    for region in [
        build_aztec_diamond(2),
        build_double_rectangle(1, 2, 0, 1, 2),
        build_double_rectangle(1, 2, 1, 1, 2),
    ]:
        assert matching_genfun(dual_graph(region)) == count_tilings(region)


def test_weight_scheme_uses_all_four_classes():
    region = build_double_rectangle(1, 2, 0, 1, 2)
    scheme = WeightScheme(*(Fraction(v) for v in (2, 3, 5, 7, 11)))
    g = dual_graph(region, scheme)
    weights = {w for *_, w in labelled(g)}
    assert Fraction(2) in weights and Fraction(3) in weights  # plain classes
    assert any(w % 5 == 0 for w in weights)  # graded horizontal
    assert any(w % 7 == 0 for w in weights)  # graded vertical


def test_domino_weight_levels():
    region = build_aztec_rectangle(2, 3)
    scheme = WeightScheme(Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(3))
    g = dual_graph(region, scheme)
    # graded verticals at level L carry q^L; the top graded level must exceed 1
    powers = {w for *_, w in labelled(g) if w != 1}
    assert powers and all(w.denominator <= 3 for w in powers)


def test_marked_fringe_ordering():
    g = dual_graph(build_aztec_rectangle(2, 4))
    diag = {v.y - v.x for v in g.marked}
    assert len(diag) == 1
    xs = [v.x + v.y for v in g.marked]
    assert xs == sorted(xs)
    assert len(g.marked) == 4


def test_capacity_bound():
    with pytest.raises(CapacityError):
        matching_genfun(dual_graph(build_aztec_diamond(5)))


def test_vertex_split_preserves_matching_sum():
    for _ in range(20):
        side = rng.randint(2, 4)
        g = random_host(side, side)
        v = g.vertices[0]
        part = [u for u in g.neighbors(v) if rng.random() < 0.5]
        assert matching_genfun(vertex_split(g, v, part)) == matching_genfun(g)


def test_star_scale_scales_matching_sum():
    for _ in range(20):
        side = rng.randint(2, 4)
        g = random_host(side, side)
        factor = abs(rq())
        assert matching_genfun(star_scale(g, g.vertices[0], factor)) == factor * matching_genfun(g)


def _spider_wheel(cycle=None):
    inner = [("i", j) for j in range(4)]
    tips = [("t", j) for j in range(4)]
    outer = [("o", j) for j in range(4)]
    if cycle is None:
        cycle = [abs(rq()) for _ in range(4)]
    edges = [(inner[j], inner[(j + 1) % 4], cycle[j]) for j in range(4)]
    edges += [(inner[j], tips[j], Fraction(1)) for j in range(4)]
    edges += [(tips[j], outer[j], rq()) for j in range(4)]
    edges += [(outer[0], outer[1], rq()), (outer[2], outer[3], rq())]
    return WeightedGraph(inner + tips + outer, edges), tuple(inner)


def test_spider_reduce_factors_out_delta():
    for _ in range(20):
        g, inner = _spider_wheel()
        reduced, delta = spider_reduce(g, inner)
        assert matching_genfun(g) == delta * matching_genfun(reduced)
        assert len(reduced.vertices) == len(g.vertices) - 4


def test_spider_reduce_factors_out_a_negative_delta():
    # five pairs are left to match in the reduced graph, so a sign lost from
    # every one of its edges shows in M as well as one lost from the new cycle
    pendants = [("e", 0), ("e", 1)]
    negatives = 0
    for _ in range(40):
        cycle = [rq() for _ in range(4)]
        if cycle[0] * cycle[2] + cycle[1] * cycle[3] == 0:
            continue
        g, inner = _spider_wheel(cycle)
        g = WeightedGraph(g.vertices + tuple(pendants), labelled(g) + [(*pendants, rq())])
        reduced, delta = spider_reduce(g, inner)
        negatives += delta < 0
        assert reduced.den > 0
        assert matching_genfun(g) == delta * matching_genfun(reduced) != 0
    assert negatives >= 10


def test_half_graph_shape():
    scheme = WeightScheme(*(Fraction(v) for v in (1, 1, 1, 1, 2)))
    h = half_ar_graph(build_aztec_rectangle(2, 2), scheme)
    assert len(h.marked) == 3  # one pendant per exposed diagonal vertex
    assert all(len(h.neighbors(p)) == 1 for p in h.marked)


def test_rectangle_reduction_identity():
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 3)
        scheme = WeightScheme(*(abs(rq()) for _ in range(5)))
        host = random_host(n, n - m)
        rect, trim = build_aztec_rectangle(m, n), build_aztec_rectangle(m, n - 1)
        whole = connected_sum(host, dual_graph(rect, scheme))
        trimmed, factor = ar_reduce(host, rect, trim, scheme)
        assert factor == (scheme.a * scheme.d + scheme.b * scheme.c) ** m * scheme.q ** (
            m * (n - 1) + m * (m - 1) // 2
        )
        assert matching_genfun(whole) == factor * matching_genfun(trimmed)


def test_connected_sum_marker_mismatch():
    with pytest.raises(ValueError):
        connected_sum(random_host(2, 2), random_host(3, 3))


def first_vertex_genfun(graph: WeightedGraph) -> Fraction:
    """Reference matching sum: match the first alive vertex every way, in Fractions."""
    weights = {frozenset((u, v)): w for u, v, w in labelled(graph)}

    def rec(alive: tuple) -> Fraction:
        if not alive:
            return Fraction(1)
        v, rest = alive[0], alive[1:]
        total = Fraction(0)
        for i, u in enumerate(rest):
            w = weights.get(frozenset({v, u}))
            if w is not None:
                total += w * rec(rest[:i] + rest[i + 1 :])
        return total

    return rec(graph.vertices)


def test_matching_sum_on_hand_built_graphs():
    k4 = WeightedGraph(
        range(4),
        [
            (0, 1, Fraction(1, 2)),
            (1, 2, Fraction(-2, 3)),
            (2, 3, Fraction(5, 7)),
            (3, 0, Fraction(3)),
            (0, 2, Fraction(1, 5)),
            (1, 3, Fraction(-1, 4)),
        ],
    )
    cancelling = WeightedGraph(
        "abcd",
        [("a", "b", Fraction(1, 2)), ("b", "c", Fraction(2, 3)), ("c", "d", Fraction(4, 3)), ("d", "a", -1)],
    )
    triangle = WeightedGraph("abc", [("a", "b", Fraction(1, 2)), ("b", "c", 3), ("c", "a", Fraction(1, 3))])
    isolated = WeightedGraph(range(4), [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 3)), (2, 0, 5)])
    for graph, expected in [
        (k4, Fraction(-237, 140)),
        (cancelling, 0),
        (triangle, 0),
        (isolated, 0),
        (WeightedGraph((), ()), 1),
        (WeightedGraph("ab", [("a", "b", Fraction(-3, 11))]), Fraction(-3, 11)),
    ]:
        assert matching_genfun(graph) == expected == first_vertex_genfun(graph)


def test_matching_sum_equals_a_first_vertex_expansion_on_random_graphs():
    gen = random.Random(11)
    for trial in range(150):
        n = gen.randint(0, 12)
        density = gen.choice((0.3, 0.6, 0.9))
        edges = [
            (u, v, Fraction(gen.choice((-1, 1)) * gen.randint(1, 9), gen.choice((1, 2, 3, 5, 7, 11, 13))))
            for u in range(n)
            for v in range(u + 1, n)
            if gen.random() < density
        ]
        graph = WeightedGraph([("v", i) for i in range(n)], [(("v", u), ("v", v), w) for u, v, w in edges])
        assert matching_genfun(graph) == first_vertex_genfun(graph), trial


def test_graph_neighbour_lists_and_validation():
    a, b, c = "a", "b", "c"
    g = WeightedGraph([a, b, c], [(a, b, 1), (c, a, Fraction(2, 3))], [c])
    assert [g.neighbors(v) for v in (a, b, c)] == [[b, c], [a], [a]]
    assert g.weight(a, c) == g.weight(c, a) == Fraction(2, 3)
    g.neighbors(a).append(b)  # a copy: the graph stays as built
    assert g.neighbors(a) == [b, c]
    for edges, marked, message in [
        ([(a, a, 1)], (), "bad edge"),
        ([(a, "z", 1)], (), "bad edge"),
        ([(a, b, 0)], (), "zero edge weight"),
        ([(a, b, 1), (b, a, 2)], (), "duplicate edge"),
        ([(a, b, 1)], ("z",), "marked vertex 'z' missing"),
        # a connected sum would glue two of the other graph's marks onto a
        ([(a, b, 1)], (a, c, a), "marked vertex 'a' repeated"),
    ]:
        with pytest.raises(ValueError, match=message):
            WeightedGraph([a, b, c], edges, marked)
    with pytest.raises(ValueError, match="repeated vertex 'a'"):
        WeightedGraph([a, b, a], [(a, b, 1)])


def test_the_matcher_equals_the_determinant_on_every_double_rectangle_within_its_bound():
    scheme = WeightScheme(*(Fraction(*v) for v in ((3, 2), (-2, 5), (5, 3), (7, 4), (-3, 7))))
    tuples = small_double_rectangles(40)
    assert len(tuples) == 49
    for tup in tuples:
        region = build_double_rectangle(*tup)
        assert matching_genfun(dual_graph(region, scheme)) == region_matching_sum(region, scheme), tup


def test_a_rewrite_raises_on_an_edge_it_adds_twice():
    g, inner = _spider_wheel()
    tips = [("t", j) for j in range(4)]
    edges = labelled(g)
    tips_adjacent = WeightedGraph(g.vertices, edges + [(tips[0], tips[1], Fraction(2))])
    with pytest.raises(ValueError, match="duplicate edge"):
        spider_reduce(tips_adjacent, inner)
    # glued vertices adjacent on both sides give the edge twice
    left = WeightedGraph("ab", [("a", "b", 1)], "ab")
    right = WeightedGraph("xy", [("x", "y", 2)], "xy")
    with pytest.raises(ValueError, match="duplicate edge 'a'-'b'|duplicate edge 'b'-'a'"):
        connected_sum(left, right)


def test_a_rewrite_raises_what_the_checked_constructor_raises():
    g, inner = _spider_wheel()
    marked_inner = WeightedGraph(g.vertices, labelled(g), [inner[0]])
    with pytest.raises(ValueError, match=r"marked vertex \('i', 0\) missing"):
        spider_reduce(marked_inner, inner)
    # a vertex already named like the split copy v' of v: the result would list it twice
    copy = ("v", "split'")
    for clash, part in [
        (WeightedGraph(["v", copy, "w"], [("v", copy, 1), ("v", "w", 1)]), [copy]),
        (WeightedGraph(["v", "a", copy], [("v", "a", 1), ("a", copy, 2)]), ["a"]),
    ]:
        with pytest.raises(ValueError, match=r"repeated vertex \('v', \"split'\"\)"):
            vertex_split(clash, "v", part)
        result_vertices = [u for u in clash.vertices if u != "v"] + [copy, ("v", "split-mid"), ("v", "split''")]
        with pytest.raises(ValueError, match=r"repeated vertex \('v', \"split'\"\)"):
            WeightedGraph(result_vertices, ())
    # an unmarked vertex of h is renamed ("h", u), which g may have already
    g = WeightedGraph(["a", ("h", "y")], [("a", ("h", "y"), 1)], ["a"])
    h = WeightedGraph("xy", [("x", "y", 2)], "x")
    with pytest.raises(ValueError, match=r"repeated vertex \('h', 'y'\)"):
        connected_sum(g, h)


def test_rewritten_graphs_are_valid_and_keep_the_edge_order():
    def rebuilt(graph):
        return WeightedGraph(graph.vertices, labelled(graph), graph.marked)

    for _ in range(10):
        side = rng.randint(2, 4)
        host = random_host(side, side)
        v = host.vertices[0]
        scheme = WeightScheme(*(abs(rq()) for _ in range(5)))
        wheel, inner = _spider_wheel()
        graphs = [
            vertex_split(host, v, host.neighbors(v)[:1]),
            star_scale(host, v, abs(rq())),
            spider_reduce(wheel, inner)[0],
            connected_sum(random_host(3, 2), dual_graph(build_aztec_rectangle(1, 3), scheme)),
            half_ar_graph(build_aztec_rectangle(2, 2), scheme),
            dual_graph(build_double_rectangle(1, 2, 1, 1, 2), scheme),
        ]
        for graph in graphs:
            assert type(graph.den) is int and graph.den > 0
            assert all(type(num) is int for num in graph.edges.values())
            assert all(0 <= i < j < len(graph.vertices) for i, j in graph.edges)
            again = rebuilt(graph)
            assert list(again.edges) == list(graph.edges)
            assert labelled(again) == labelled(graph)
            assert again.marked == graph.marked
    # vertex_split puts each edge of v where v's edge was
    g = WeightedGraph("abc", [("a", "b", 1), ("b", "c", 2), ("c", "a", 3)])
    split = vertex_split(g, "a", ["b"])
    assert [w for *_, w in labelled(split)] == [1, 2, 3, 1, 1]
    assert split.weight("b", ("a", "split'")) == 1 and split.weight("c", ("a", "split''")) == 3


def test_dual_graph_edges_are_the_lattice_pairs_in_order():
    region = build_aztec_diamond(2)
    g = dual_graph(region)
    assert g.vertices == region.lattice.cells
    at = {c: i for i, c in enumerate(g.vertices)}
    expected = [
        (at[c], at[d])
        for c in sorted(region.cells)
        for d in (Cell(c.x, c.y + 1), Cell(c.x + 1, c.y))
        if d in region.cells
    ]
    assert list(g.edges) == list(region.lattice.pairs) == expected
    assert {w for *_, w in labelled(g)} == {1}
    with pytest.raises(ValueError, match="zero edge weight"):
        dual_graph(region, WeightScheme(*(Fraction(v) for v in (0, 1, 1, 1, 1))))


def test_a_trimmed_rectangle_of_another_shape_is_rejected():
    scheme = WeightScheme(*(Fraction(v) for v in (2, 3, 5, 7, 11)))
    host = random_host(3, 1)
    rect = build_aztec_rectangle(2, 3)
    for trimmed in (rect, build_aztec_rectangle(1, 2), build_aztec_rectangle(2, 1), build_aztec_diamond(2)):
        with pytest.raises(ValueError, match="trimmed must be the 2 x 2 Aztec rectangle"):
            ar_reduce(host, rect, trimmed, scheme)
    with pytest.raises(ValueError, match="rect must be an Aztec rectangle"):
        ar_reduce(host, build_aztec_diamond(3), build_aztec_rectangle(3, 2), scheme)


# -- the per-edge construction that the region's weight classes replaced -----


def _old_domino_weights(region, scheme, anchor_parity):
    a, b, c, d, q = map(Fraction, scheme)
    ymin = min(cell.y for cell in region.cells)
    levels = range(max(cell.y for cell in region.cells) - ymin + 1)
    table = (
        ([b] * len(levels), [c * q ** (L - 1) for L in levels]),
        ([d * q**L for L in levels], [a] * len(levels)),
    )
    shift = min(cell.y - cell.x for cell in region.cells) + anchor_parity

    def weight(c1, c2):
        low, high = (c1, c2) if c1 < c2 else (c2, c1)
        return table[low.x == high.x][(low.y - low.x - shift) % 2][low.y - ymin]

    return weight


def _old_dual_graph(region, scheme, anchor_parity):
    weight = _old_domino_weights(region, scheme, anchor_parity)
    cells = sorted(region.cells)
    edges = {
        frozenset((c, d)): weight(c, d)
        for c in cells
        for d in (Cell(c.x + 1, c.y), Cell(c.x, c.y + 1))
        if d in region.cells
    }
    dmin = min(c.y - c.x for c in cells)
    marked = sorted((c for c in cells if c.y - c.x == dmin), key=lambda c: c.x + c.y)
    return WeightedGraph(cells, [(*key, w) for key, w in edges.items()], marked)


def _old_matching_sum(region, scheme):
    weight = _old_domino_weights(region, scheme, 0)
    ordered = sorted(region.cells)
    whites = [c for c in ordered if (c.x + c.y) % 2 == region.white_parity]
    blacks = [c for c in ordered if (c.x + c.y) % 2 != region.white_parity]

    def entry(w, b):
        return -weight(w, b) if w.x == b.x and w.x % 2 else weight(w, b)

    col = {b: j for j, b in enumerate(blacks)}
    nbs = cell_neighbours(region.cells)
    rows = [{col[b]: entry(w, b) for b in nbs[w]} for w in whites]
    # _det takes integer rows: clear each row by the lcm of its denominators
    mults = [math.lcm(*(v.denominator for v in row.values())) for row in rows]
    det = Fraction(
        _det([{j: int(v * mult) for j, v in row.items()} for row, mult in zip(rows, mults)]),
        math.prod(mults),
    )
    return det if engine._unit_det(region) > 0 else -det


def test_dual_graph_and_matching_sum_equal_the_per_edge_construction():
    gen = random.Random(15)
    diamonds = [build_aztec_diamond(n) for n in range(1, 5)]
    rectangles = [build_aztec_rectangle(m, n) for m in range(1, 4) for n in range(1, 5)]
    doubles = [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    assert len(doubles) == 49
    # the anchor parity of each kind, as calibrated by the product formulas
    cases = [(r, 0) for r in diamonds + doubles]
    cases += [(r, 1) for r in rectangles]
    negatives = 0
    for _ in range(20):
        scheme = WeightScheme(
            *(Fraction(gen.choice((-1, 1)) * gen.randint(1, 7), gen.randint(1, 5)) for _ in range(5))
        )
        negatives += sum(v < 0 for v in scheme)
        for region, parity in cases:
            new, old = dual_graph(region, scheme), _old_dual_graph(region, scheme, parity)
            assert new.vertices == old.vertices, region.spec_string()
            # the edge maps as dicts: the dual graph lists its edges in Lattice.pairs order
            assert new.edges.keys() == old.edges.keys(), region.spec_string()
            assert weights(new) == weights(old), region.spec_string()
            assert new.marked == old.marked, region.spec_string()
        for region in diamonds + doubles:
            assert region_matching_sum(region, scheme) == _old_matching_sum(region, scheme), (
                region.spec_string()
            )
    assert negatives > 20


def test_weight_classes_are_derived_once_per_region_and_read_only(monkeypatch):
    calls = []
    real = matchgraph._weight_classes.__wrapped__
    monkeypatch.setattr(matchgraph._weight_classes, "__wrapped__", lambda r: calls.append(r) or real(r))
    region = build_double_rectangle(2, 3, 1, 2, 3)
    rect = build_aztec_rectangle(2, 3)
    gen = random.Random(3)
    for _ in range(3):
        scheme = WeightScheme(*(Fraction(gen.randint(1, 9), gen.randint(1, 4)) for _ in range(5)))
        graph = dual_graph(region, scheme)
        graph.edges.clear()  # each graph has its own edge map
        assert len(dual_graph(region, scheme).edges) == len(region.dominoes)
        region_matching_sum(region, scheme)
        dual_graph(rect, scheme)
    assert calls == [region, rect]
    classes = matchgraph._weight_classes(region)
    assert classes is matchgraph._weight_classes(region)
    with pytest.raises(AttributeError):
        classes.levels = 0
    assert len(classes.of) == len(region.lattice.pairs)
    for table in (classes.of, classes.marked):
        with pytest.raises(TypeError):
            table[0] = None


def test_q_zero_fails_by_name():
    scheme = WeightScheme(*(Fraction(v) for v in (2, 3, 5, 7, 0)))
    region = build_double_rectangle(1, 2, 0, 1, 2)
    rect, trim = build_aztec_rectangle(1, 2), build_aztec_rectangle(1, 1)
    for call in (
        lambda: dual_graph(region, scheme),
        lambda: region_matching_sum(region, scheme),
        lambda: dual_graph(rect, scheme),
        lambda: half_ar_graph(trim, scheme),
        lambda: ar_reduce(random_host(2, 1), rect, trim, scheme),
    ):
        with pytest.raises(ZeroDivisionError, match="q must be nonzero"):
            call()


def _fraction_table(scheme, levels):
    """The weight of each class, as products of Fractions."""
    a, b, c, d, q = scheme
    graded_h = [c * q ** (L - 1) for L in range(levels)]
    graded_v = [d * q**L for L in range(levels)]
    return [b] * levels + graded_h + graded_v + [a] * levels


def test_the_level_table_equals_a_fraction_product_table():
    gen = random.Random(23)
    for levels in range(1, 9):
        for _ in range(20):
            scheme = WeightScheme(
                *(Fraction(gen.choice((-1, 1)) * gen.randint(1, 9), gen.randint(1, 9)) for _ in range(5))
            )
            table = matchgraph._level_table(scheme, levels)
            assert [Fraction(num, den) for num, den in table] == _fraction_table(scheme, levels)
            assert all(type(num) is type(den) is int and den > 0 for num, den in table)
            assert all(math.gcd(num, den) == 1 for num, den in table)


def _old_half_ar_graph(trimmed, scheme):
    """The half graph cut out of the trimmed rectangle's dual graph per call."""
    a, b, c, d, q = scheme
    inner = dual_graph(trimmed, WeightScheme(a / q, b, c, d, q))
    drop = set(inner.marked)
    keep = tuple(v for v in inner.vertices if v not in drop)
    dmin = min(v.y - v.x for v in keep)
    exposed = sorted((v for v in keep if v.y - v.x == dmin), key=lambda v: v.x + v.y)
    pendants = tuple(("pend", i) for i in range(len(exposed)))
    edges = [(u, v, w) for u, v, w in labelled(inner) if u not in drop and v not in drop]
    edges += [(v, p, 1) for v, p in zip(exposed, pendants)]
    return WeightedGraph(keep + pendants, edges, pendants)


def test_the_half_graph_shape_is_derived_once_per_rectangle(monkeypatch):
    calls = []
    real = matchgraph._half_classes.__wrapped__
    monkeypatch.setattr(matchgraph._half_classes, "__wrapped__", lambda r: calls.append(r) or real(r))
    rects = [build_aztec_rectangle(m, n) for m in range(1, 4) for n in range(m, 5)]
    gen = random.Random(29)
    for _ in range(4):
        scheme = WeightScheme(
            *(Fraction(gen.choice((-1, 1)) * gen.randint(1, 7), gen.randint(1, 5)) for _ in range(5))
        )
        for rect in rects:
            new, old = half_ar_graph(rect, scheme), _old_half_ar_graph(rect, scheme)
            assert new.vertices == old.vertices and new.marked == old.marked
            assert list(new.edges) == list(old.edges), rect.spec_string()
            assert labelled(new) == labelled(old), rect.spec_string()
    assert calls == rects
