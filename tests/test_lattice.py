"""The id tables of a region's lattice against the Cell-by-Cell constructions they replaced.

The grid edges, heights and minimal tiling are checked the same way in test_stats.py.
"""

from aztecbridge import engine
from aztecbridge.engine import _det
from aztecbridge.regions import (
    Cell,
    Tri,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_double_rectangle,
    build_hexagon,
)
from aztecbridge.verify import small_double_rectangles


def cell_neighbours(cells):
    """Each cell's edge-adjacent cells, W, E, S, N, by membership tests."""
    return {
        c: tuple(
            d
            for d in (
                Cell(c.x - 1, c.y),
                Cell(c.x + 1, c.y),
                Cell(c.x, c.y - 1),
                Cell(c.x, c.y + 1),
            )
            if d in cells
        )
        for c in cells
    }


def _cell_det(region):
    """The Kasteleyn determinant from Cell-keyed rows: -1 on a vertical edge in an odd column."""
    ordered = sorted(region.cells)
    whites = [c for c in ordered if (c.x + c.y) % 2 == region.white_parity]
    blacks = [c for c in ordered if (c.x + c.y) % 2 != region.white_parity]
    if len(whites) != len(blacks):
        return 0
    col = {b: j for j, b in enumerate(blacks)}
    nbs = cell_neighbours(region.cells)
    return _det([{col[b]: -1 if w.x == b.x and w.x % 2 else 1 for b in nbs[w]} for w in whites])


def _lattice_neighbours(lat):
    """Each cell's (triangle's) adjacent ones, read off the id tables."""
    return {c: tuple(lat.cells[j] for j in ids) for c, ids in zip(lat.cells, lat.adjacent)}


def _pieces(lat):
    """The pairs of cells (triangles) that ``Lattice.pairs`` numbers."""
    return tuple((lat.cells[i], lat.cells[j]) for i, j in lat.pairs)


def _colour_classes(lat):
    return tuple(lat.cells[i] for i in lat.white), tuple(lat.cells[i] for i in lat.black)


def _square_regions():
    regions = [build_double_rectangle(*tup) for tup in small_double_rectangles(104)]
    regions += [build_aztec_diamond(n) for n in range(1, 13)]
    return regions + [build_aztec_rectangle(m, n) for m in range(1, 5) for n in range(1, 6)]


def test_the_square_lattice_tables_equal_the_cell_constructions():
    regions = _square_regions()
    assert len(regions) == 424 + 12 + 20
    for region in regions:
        cells, name = region.cells, region.spec_string()
        lat = region.lattice
        grid = lat.grid
        nbs = cell_neighbours(cells)
        assert _lattice_neighbours(lat) == nbs, name
        assert lat.cells == tuple(sorted(cells)), name
        dominoes = tuple(sorted((c, d) for c, ds in nbs.items() for d in ds if c < d))
        assert region.dominoes == dominoes, name
        assert _pieces(lat) == dominoes, name
        assert list(lat.pairs) == sorted(lat.pairs) and all(i < j for i, j in lat.pairs), name
        bits = [(d, 1 << i) for i, d in enumerate(dominoes)]
        assert sum(grid.north) == sum(bit for (c, d), bit in bits if c.x == d.x), name
        assert sum(grid.east) == sum(bit for (c, d), bit in bits if c.y == d.y), name
        faces = sum(
            1
            for x, y in cells
            if Cell(x + 1, y) in cells and Cell(x, y + 1) in cells and Cell(x + 1, y + 1) in cells
        )
        assert len(lat.faces) == faces, name
        ordered = sorted(cells)
        white = region.white_parity
        assert _colour_classes(lat) == (
            tuple(c for c in ordered if (c.x + c.y) % 2 == white),
            tuple(c for c in ordered if (c.x + c.y) % 2 != white),
        ), name
        assert engine._unit_det(region) == _cell_det(region), name


def _tri_neighbours(tris):
    def around(t):
        step, other = (-1, False) if t.up else (1, True)
        return Tri(t.x, t.y, other), Tri(t.x + step, t.y, other), Tri(t.x, t.y + step, other)

    return {t: tuple(u for u in around(t) if u in tris) for t in tris}


def test_the_triangular_lattice_tables_equal_the_tri_constructions():
    sides = [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
    for a, b, c in sides:
        region = build_hexagon(a, b, c)
        tris = region.tris
        nbs = _tri_neighbours(tris)
        assert _lattice_neighbours(region.lattice) == nbs, (a, b, c)
        lozenges = tuple(sorted((t, u) for t, us in nbs.items() for u in us if t < u))
        pairs = region.lattice.pairs
        assert _pieces(region.lattice) == lozenges, (a, b, c)
        assert list(pairs) == sorted(pairs) and all(i < j for i, j in pairs), (a, b, c)
        faces = sum(
            1
            for x, y, up in tris
            if up
            and Tri(x - 1, y, True) in tris
            and Tri(x, y - 1, True) in tris
            and Tri(x - 1, y, False) in tris
            and Tri(x, y - 1, False) in tris
            and Tri(x - 1, y - 1, False) in tris
        )
        assert len(region.lattice.faces) == faces, (a, b, c)
        ordered = sorted(tris)
        ups = tuple(t for t in ordered if t.up)
        downs = tuple(t for t in ordered if not t.up)
        assert _colour_classes(region.lattice) == (ups, downs), (a, b, c)
        col = {t: j for j, t in enumerate(downs)}
        rows = [{col[d]: 1 for d in nbs[u]} for u in ups]
        assert engine._unit_det(region) == _det(rows), (a, b, c)


def test_the_colour_of_each_id_agrees_with_the_colour_classes_and_the_parity_rule():
    regions = [build_aztec_diamond(n) for n in range(1, 6)]
    regions += [build_aztec_rectangle(m, n) for m in range(1, 5) for n in range(1, 5)]
    regions += [build_double_rectangle(*tup) for tup in small_double_rectangles(40)]
    boxes = [(a, b, c) for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)]
    regions += [build_hexagon(*box) for box in boxes]
    for region in regions:
        lat = region.lattice
        assert len(lat.colour) == len(lat.cells), region.spec_string()
        assert [i for i, c in enumerate(lat.colour) if c == 0] == list(lat.white)
        assert [i for i, c in enumerate(lat.colour) if c == 1] == list(lat.black)
        if region.kind == "hexagon":
            rule = [0 if t.up else 1 for t in lat.cells]
        else:  # white, colour 0, where x + y has the region's white parity
            rule = [(x + y - region.white_parity) % 2 for x, y in lat.cells]
        assert list(lat.colour) == rule, region.spec_string()
