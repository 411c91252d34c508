"""Square-lattice and triangular-lattice regions.

Square-lattice regions are sets of unit cells (x, y), y = 0 at the bottom row
after canonical normalization.  An Aztec rectangle of order m x n is the set
of lattice cells whose centers lie in a 45-degree-rotated rectangle; in the
diagonal coordinates s = x + y + 1, d = y - x it is simply

    0 <= s <= 2n,   0 <= d <= 2m,

which has 2mn + m + n cells and a checkerboard imbalance of n - m.  A double
Aztec rectangle stacks AR(m1, n1) on top of AR(m2, n2) with a horizontal
offset controlled by k; the color imbalances cancel exactly when
n1 - m1 = n2 - m2.

Triangular-lattice hexagons use skewed axial coordinates: lattice point
(x, y) sits at x + y/2, y*sqrt(3)/2 in the plane.  An up-triangle U(x, y) has
corners (x, y), (x+1, y), (x, y+1); a down-triangle D(x, y) has corners
(x+1, y), (x, y+1), (x+1, y+1).

Each region numbers its cells (triangles) once, in sorted order, and derives
its matching tables on those ids in one pass over a padded grid
(``Region.lattice``, ``TriRegion.lattice``): neighbour ids, Kasteleyn signs,
unit faces, colours (``Lattice.colour``, so no other module reads
``Region.white_parity``) and the pieces (dominoes, lozenges) as sorted id
pairs, and for a square-lattice region the grid positions and the mask bit
of each cell's dominoes.  A tiling is an int mask: bit k stands for piece k
of ``Lattice.pairs``.  The counter, the enumerator, the height functions,
the flip search, the path tables and the boundary markers read the ids;
``Region.dominoes`` decodes a mask's bits into cell pairs.
"""

from __future__ import annotations

from _collections import _tuplegetter
from functools import cached_property, wraps


class ConstraintError(ValueError):
    """A region parameter tuple violates a construction precondition."""


class KindError(TypeError):
    """Operation applied to a region of the wrong kind."""


class InvariantError(RuntimeError):
    """An identity that guards a computed result does not hold."""


class CapacityError(RuntimeError):
    """Region exceeds a documented size bound of the requested engine."""


_tuple_new = tuple.__new__


class _Tuple(tuple):
    """A record: a tuple with a read-only field per item, shown as ``Cell(x=3, y=3)``.

    It gives a record what ``collections.namedtuple`` would, without the
    ``__new__`` that namedtuple writes and ``eval``s per class, 60-90 us each
    when its module is imported.  A subclass defines ``__slots__ = ()`` and
    its own ``__new__(cls, x, y)`` returning ``_tuple_new(cls, (x, y))``;
    the parameters after ``cls`` name the fields, in order.  Each field is
    read by namedtuple's own ``_tuplegetter`` descriptor, and ``_fields``,
    ``__match_args__``, ``__repr__`` and ``__getnewargs__`` (which copy and
    pickle call) are namedtuple's.  A record compares, hashes and slices as
    a plain tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return tuple(self)


class Cell(_Tuple):
    __slots__ = ()

    def __new__(cls, x, y):
        return _tuple_new(cls, (x, y))


class Tri(_Tuple):
    __slots__ = ()

    def __new__(cls, x, y, up):
        return _tuple_new(cls, (x, y, up))


class BoundaryMarkers(_Tuple):
    """Path sources u and sinks v, bottom to top: vertical edge midpoints (x, 2y + 1)."""

    __slots__ = ()

    def __new__(cls, u, v):
        return _tuple_new(cls, (u, v))


class Grid(_Tuple):
    """The padded grid of a square-lattice region, and the mask bits of its dominoes.

    Cell (x, y) sits at position (x - x0) * stride + y - y0, with (x0, y0)
    one column left of the leftmost cell and one row below the lowest, and
    a stride of one more than the number of rows: each column is followed
    by an empty row, so the W, E, S and N neighbours of the cell at p are at
    p - stride, p + stride, p - 1 and p + 1 and none wraps onto another
    column.  Lattice point (x, y), the lower left corner of cell (x, y), has
    the same position, so the corners of the cell at p are p, p + stride,
    p + stride + 1 and p + 1.  Positions grow in sorted cell order, so the
    cell above id i, if there is one, is id i + 1.  The fields:

    - ``stride`` and ``origin`` (x0, y0);
    - ``at``: position -> id of the cell there, or -1;
    - ``pos``: id -> position;
    - ``north`` and ``east``: id -> bit of the domino on the cell and the
      cell above it (right of it), or 0.
    """

    __slots__ = ()

    def __new__(cls, stride, origin, at, pos, north, east):
        return _tuple_new(cls, (stride, origin, at, pos, north, east))

    def point(self, p: int) -> tuple[int, int]:
        """The lattice point (x, y) at position p."""
        x, y = divmod(p - 1, self.stride)  # a point's row offset runs from 1 to stride
        return x + self.origin[0], y + 1 + self.origin[1]


class Lattice(_Tuple):
    """A region's cells (triangles) numbered 0, 1, ... in sorted order, and tables on the ids.

    Both kinds of region derive one, and the counter and the enumerator read
    only these fields.  A Kasteleyn sign is that of the entry of the edge
    in the matrix with a row per white cell (up-triangle) and a column per
    black one: see ``engine``.  The fields:

    - ``cells``: id -> cell (triangle), sorted;
    - ``adjacent``: id -> ids of the edge-adjacent cells, W, E, S, N for a
      square lattice (for triangles see ``TriRegion.lattice``);
    - ``signs``: id -> the Kasteleyn sign of the edge to each id in
      ``adjacent``;
    - ``faces``: per unit face, the id of its lower left cell (of U(x, y)
      for a hexagon);
    - ``white`` and ``black``: the ids of the white cells (up-triangles) and
      of the black ones (down-triangles), increasing;
    - ``colour``: id -> 0 if white (an up-triangle), 1 if black (a down-triangle);
    - ``pairs``: (i, j), i < j, per piece (domino, lozenge), sorted: bit k of
      a tiling mask stands for ``pairs[k]``;
    - ``grid``: the ``Grid``, or None for a triangular region.
    """

    __slots__ = ()

    def __new__(cls, cells, adjacent, signs, faces, white, black, colour, pairs, grid):
        return _tuple_new(cls, (cells, adjacent, signs, faces, white, black, colour, pairs, grid))


def derived(compute):
    """Decorate ``compute(region)`` so that it runs at most once per region.

    The first call keeps the result on the region instance, keyed by the
    decorated function, and later calls return it; a call that raises keeps
    nothing.  Each module derives its own tables of a region this way, so
    the tables go with the region and no module keeps a cache.  A first
    call runs ``__wrapped__``, which a test may replace to count the runs.
    """

    @wraps(compute)
    def get(region):
        try:
            return region.__dict__["_derived"][get]
        except KeyError:
            kept = region.__dict__.setdefault("_derived", {})
            value = kept[get] = get.__wrapped__(region)
            return value

    return get


def _ar_cells(m: int, n: int) -> set[Cell]:
    """Raw Aztec-rectangle cells in diagonal coordinates (untranslated)."""
    cells = set()
    for d in range(0, 2 * m + 1):
        # s and d have opposite parity because s + d = 2y + 1.
        for s in range((d + 1) % 2, 2 * n + 1, 2):
            cells.add(Cell((s - 1 - d) // 2, (s - 1 + d) // 2))
    return cells


# Placement of the upper rectangle relative to the lower one, in raw
# coordinates: the upper AR(m1, n1) is translated by
# (k - m2 + GLUE_DX, k + m2 + GLUE_DY).  The pair below is the unique offset
# (among the lattice-consistent candidates) that reproduces the published
# tiling counts for the small double rectangles; see tests/test_regions.py.
_GLUE_DX = -1
_GLUE_DY = 0


class _Record:
    """Read-only fields set once in ``__init__``, compared, hashed and shown by value.

    It gives a region what ``@dataclass(frozen=True)`` would, without its
    cost at every start of the command line: the import of ``dataclasses``
    and ``copy``, and the source that ``dataclass`` writes and compiles per
    class, about 0.4 ms each in a fresh interpreter.  ``__match_args__``
    names the fields in order, as a dataclass's does.  Assigning or
    deleting any attribute raises AttributeError; ``cached_property`` and
    ``derived`` write to the instance ``__dict__`` directly, and a weak
    reference to an instance is allowed.
    """

    __match_args__: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class Region(_Record):
    """An immutable square-lattice region with checkerboard coloring.

    A region is its kind, parameters, cells and ``white_parity``: a cell
    (x, y) is white when x + y has that parity.  The invariants below are
    computed on first use and kept on the instance: ``lattice`` numbers the
    cells and derives every table on the ids in one pass, and ``dominoes``
    is read off it.  Every other table of a region, such as its Kasteleyn
    determinant, minimal tiling, boundary markers or path tables, is
    computed by a function of the module that uses it, decorated with
    ``derived``, and kept on the instance the same way.
    A tiling is an int mask over ``lattice.pairs``; ``dominoes`` decodes it.
    The fields are read-only and a region equals another of the same
    fields; see ``_Record``, which stands in for a frozen dataclass.
    """

    __match_args__ = ("kind", "params", "cells", "white_parity")
    kind: str
    params: tuple[int, ...]
    cells: frozenset[Cell]
    white_parity: int

    def __init__(
        self, kind: str, params: tuple[int, ...], cells: frozenset[Cell], white_parity: int
    ):
        vars(self).update(kind=kind, params=params, cells=cells, white_parity=white_parity)
        # A lone m x n Aztec rectangle is imbalanced by n - m; it has no
        # tilings of its own but still serves as a matching-graph building
        # block, so the balance guard applies to the other kinds only.
        if self.kind == "aztec_rectangle":
            return
        excess = self.imbalance()
        if excess:
            whites = (len(self.cells) + excess) // 2
            raise ConstraintError(
                f"color imbalance: {whites} white vs {len(self.cells) - whites} black"
            )

    def imbalance(self) -> int:
        """White cells minus black cells; a tileable region has 0."""
        whites = sum(1 for c in self.cells if (c.x + c.y) % 2 == self.white_parity)
        return 2 * whites - len(self.cells)

    def spec_string(self) -> str:
        """The spec that parses back to this region; a description for a kind with none."""
        if self.kind == "aztec_diamond":
            return f"ad:{self.params[0]}"
        if self.kind == "aztec_rectangle":
            return "ar:%dx%d" % self.params
        if self.kind == "double_aztec_rectangle":
            return "dr:%d,%d,%d,%d,%d" % self.params
        return f"a {self.kind} region of {len(self.cells)} cells"

    # -- derived invariants -------------------------------------------------

    @cached_property
    def lattice(self) -> Lattice:
        """The cells numbered in sorted order, and every lattice table on the ids, in one pass.

        The cells sit on a padded grid (see ``Grid``).  A cell's neighbours
        are listed W, E, S, N; the Kasteleyn sign of a horizontal edge is +1
        and that of the vertical edge from (x, y) to (x, y + 1) is (-1)^x,
        so the signs around every unit square multiply to -1.  The dominoes
        come in sorted order, which is that of their (i, j) id pairs, so the
        domino of a cell and the cell above it (id i + 1) comes before the
        one of the cell and its right neighbour.
        """
        cells = tuple(sorted(self.cells))
        x0, y0, stride = _padding(cells)
        pos = tuple((x - x0) * stride + y - y0 for x, y in cells)
        at = [-1] * ((cells[-1].x - x0 + 2) * stride + 1 if cells else 0)
        for i, p in enumerate(pos):
            at[p] = i
        adjacent, signs, faces, colour = [], [], [], []
        pairs, north, east = [], [0] * len(cells), [0] * len(cells)
        for i, (p, (x, y)) in enumerate(zip(pos, cells)):
            up, right = at[p + 1], at[p + stride]
            vsign = -1 if x % 2 else 1
            ids, sgn = [], []
            for j, sign in ((at[p - stride], 1), (right, 1), (at[p - 1], vsign), (up, vsign)):
                if j >= 0:
                    ids.append(j)
                    sgn.append(sign)
            adjacent.append(tuple(ids))
            signs.append(tuple(sgn))
            if up >= 0:
                north[i] = 1 << len(pairs)
                pairs.append((i, up))
            if right >= 0:
                east[i] = 1 << len(pairs)
                pairs.append((i, right))
                if up >= 0 and at[p + stride + 1] >= 0:
                    faces.append(i)
            colour.append((x + y + self.white_parity) % 2)
        grid = Grid(stride, (x0, y0), tuple(at), pos, tuple(north), tuple(east))
        white, black = (tuple(i for i, c in enumerate(colour) if c == k) for k in (0, 1))
        return Lattice(
            cells, tuple(adjacent), tuple(signs), tuple(faces), white, black, tuple(colour),
            tuple(pairs), grid,
        )

    @cached_property
    def dominoes(self) -> tuple:
        """The cells of each domino, sorted: bit k of a tiling mask stands for ``dominoes[k]``."""
        cells = self.lattice.cells
        return tuple((cells[i], cells[j]) for i, j in self.lattice.pairs)


class TriRegion(_Record):
    """A triangular-lattice region (hexagon).

    Its matching invariants mirror ``Region``'s, with triangles for cells,
    and are each derived once per instance from ``lattice``.  Like a
    ``Region`` it is a ``_Record``: read-only fields, equal by value.
    """

    __match_args__ = ("kind", "params", "tris")
    kind: str
    params: tuple[int, ...]
    tris: frozenset[Tri]

    def __init__(self, kind: str, params: tuple[int, ...], tris: frozenset[Tri]):
        vars(self).update(kind=kind, params=params, tris=tris)

    def spec_string(self) -> str:
        return "hex:%d,%d,%d" % self.params

    @cached_property
    def lattice(self) -> Lattice:
        """The triangles numbered in sorted order, and the matching tables on the ids, in one pass.

        Triangle (x, y, up) sits at position 2 * ((x - x0) * stride + y - y0) + up
        of a padded grid laid out as ``Grid``'s, with D(x, y) just before
        U(x, y).  The neighbours of U(x, y) are D(x, y), D(x - 1, y) and
        D(x, y - 1), at p - 1, p - 2 * stride - 1 and p - 3; those of D(x, y)
        are U(x, y), U(x + 1, y) and U(x, y + 1), at p + 1, p + 2 * stride + 1
        and p + 3.  Every face is a hexagon, so every Kasteleyn sign is +1.
        A unit face is the six triangles around a lattice point, named from
        U(x, y): U(x - 1, y), U(x, y - 1), D(x - 1, y), D(x, y - 1) and
        D(x - 1, y - 1) are the others.
        """
        tris = tuple(sorted(self.tris))
        x0, y0, stride = _padding(tris)
        pos = [2 * ((x - x0) * stride + y - y0) + up for x, y, up in tris]
        at = [-1] * (2 * (tris[-1].x - x0 + 2) * stride + 4 if tris else 0)
        for i, p in enumerate(pos):
            at[p] = i
        col = 2 * stride  # one column over
        adjacent, faces, colour = [], [], []
        for i, (p, t) in enumerate(zip(pos, tris)):
            if t.up:
                around = (at[p - 1], at[p - col - 1], at[p - 3])
                # U(x - 1, y), U(x, y - 1) and D(x - 1, y - 1), with two of around
                if min(at[p - col], at[p - 2], at[p - col - 3], *around[1:]) >= 0:
                    faces.append(i)
            else:
                around = (at[p + 1], at[p + col + 1], at[p + 3])
            adjacent.append(tuple(j for j in around if j >= 0))
            colour.append(0 if t.up else 1)
        signs = tuple((1,) * len(ids) for ids in adjacent)
        ups, downs = (tuple(i for i, c in enumerate(colour) if c == k) for k in (0, 1))
        # every neighbour of a down-triangle comes after it, of an up-triangle before it
        pairs = tuple((i, j) for i in downs for j in sorted(adjacent[i]))
        colour = tuple(colour)
        return Lattice(tris, tuple(adjacent), signs, tuple(faces), ups, downs, colour, pairs, None)


def require_cover(region, mask: int, error: type[Exception] = ConstraintError) -> None:
    """Raise ``error`` unless the pieces of a tiling mask cover every cell of the region once.

    The message names the first fault: a bit past the last piece of
    ``Lattice.pairs``, then a cell covered twice, then a cell left bare.
    """
    lat = region.lattice
    if mask >> len(lat.pairs):
        spec = region.spec_string()
        raise error(f"the tiling has a bit past the {len(lat.pairs)} pieces of {spec}")
    covered = 0
    for k, (i, j) in enumerate(lat.pairs):
        if mask >> k & 1:
            both = 1 << i | 1 << j
            twice = covered & both
            if twice:
                raise error(f"{lat.cells[twice.bit_length() - 1]} is covered twice in the tiling")
            covered |= both
    bare = ~covered & ((1 << len(lat.cells)) - 1)
    if bare:
        cell = lat.cells[(bare & -bare).bit_length() - 1]
        raise error(f"the tiling leaves {cell} of {region.spec_string()} bare")


def _padding(items: tuple) -> tuple[int, int, int]:
    """(x0, y0, stride) of the padded grid of sorted cells (triangles): see ``Grid``."""
    if not items:
        return 0, 0, 1
    y0 = min(c.y for c in items) - 1
    return items[0].x - 1, y0, max(c.y for c in items) - y0 + 1


def _normalize(cells: set[Cell]) -> tuple[frozenset[Cell], int]:
    """Translate so the minimum x and minimum y are both 0.

    Returns the translated cells and the parity flip the translation
    applied to x + y.
    """
    minx = min(c.x for c in cells)
    miny = min(c.y for c in cells)
    return frozenset(Cell(c.x - minx, c.y - miny) for c in cells), (minx + miny) % 2


def build_aztec_diamond(n: int) -> Region:
    if n < 1:
        raise ConstraintError(f"aztec diamond needs n >= 1, got n={n}")
    return build_aztec_rectangle(n, n, kind="aztec_diamond", params=(n,))


def build_aztec_rectangle(m: int, n: int, kind: str = "aztec_rectangle", params=None) -> Region:
    if m < 1 or n < 1:
        raise ConstraintError(f"aztec rectangle needs m,n >= 1, got m={m} n={n}")
    cells, flip = _normalize(_ar_cells(m, n))
    # Raw white convention: x + y even.  Standalone regions just inherit it.
    return Region(kind=kind, params=params or (m, n), cells=cells, white_parity=flip)


def build_double_rectangle(m1: int, n1: int, k: int, m2: int, n2: int) -> Region:
    _check_dr_params(m1, n1, k, m2, n2)
    lower = _ar_cells(m2, n2)
    dx, dy = k - m2 + _GLUE_DX, k + m2 + _GLUE_DY
    upper = {Cell(c.x + dx, c.y + dy) for c in _ar_cells(m1, n1)}
    if lower & upper:
        raise InvariantError(
            f"the two parts of dr:{m1},{n1},{k},{m2},{n2} overlap in {len(lower & upper)} cells"
        )
    cells, flip = _normalize(lower | upper)
    # The cells along the southwest side of the upper rectangle are white.
    sw = min(upper, key=lambda c: (c.x + c.y, c.x))
    return Region(
        kind="double_aztec_rectangle",
        params=(m1, n1, k, m2, n2),
        cells=cells,
        white_parity=(sw.x + sw.y + flip) % 2,
    )


def _check_dr_params(m1, n1, k, m2, n2):
    for name, v in (("m1", m1), ("n1", n1), ("m2", m2), ("n2", n2)):
        if v < 1:
            raise ConstraintError(f"double rectangle needs {name} >= 1, got {name}={v}")
    if k < 0:
        raise ConstraintError(f"double rectangle needs k >= 0, got k={k}")
    if m1 > n1:
        raise ConstraintError(f"violated m1 <= n1: m1={m1}, n1={n1}")
    if m2 > n2:
        raise ConstraintError(f"violated m2 <= n2: m2={m2}, n2={n2}")
    if k > min(m2, n2 - 1):
        raise ConstraintError(f"violated k <= min(m2, n2-1): k={k}, m2={m2}, n2={n2}")
    if n1 - m1 != n2 - m2:
        raise ConstraintError(f"violated n1-m1 = n2-m2: {n1 - m1} != {n2 - m2}")


def build_hexagon(a: int, b: int, c: int) -> TriRegion:
    """Hexagon with side lengths a, b, c, a, b, c clockwise from the northwest side."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 1:
            raise ConstraintError(f"hexagon needs {name} >= 1, got {name}={v}")
    # Half-plane model in skewed coordinates with S=b, SE=a, NE=c, N=b, NW=a, SW=c:
    #   0 <= y <= c + a,  -c <= x <= b,  0 <= x + y <= a + b.
    tris: set[Tri] = set()

    def inside(px, py):
        return 0 <= py <= c + a and -c <= px <= b and 0 <= px + py <= a + b

    for y in range(0, c + a + 1):
        # every x with a triangle on row y, so the loop is linear in the triangles
        for x in range(max(-c, -y) - 1, min(b, a + b - y) + 1):
            if inside(x, y) and inside(x + 1, y) and inside(x, y + 1):
                tris.add(Tri(x, y, True))
            if inside(x + 1, y) and inside(x, y + 1) and inside(x + 1, y + 1):
                tris.add(Tri(x, y, False))
    ups = sum(1 for t in tris if t.up)
    if 2 * ups != len(tris):
        raise InvariantError(f"{ups} up-triangles among {len(tris)}: the counts must match")
    return TriRegion(kind="hexagon", params=(a, b, c), tris=frozenset(tris))


@derived
def boundary_markers(region: Region) -> BoundaryMarkers:
    """The sources u and sinks v of the paths of a double Aztec rectangle, read off its lattice.

    Every decorated domino (see ``paths``) runs from the west edge of a
    black cell to the east edge of a white cell, so u is the west edge of
    each black cell with no west neighbour and v the east edge of each white
    cell with no east neighbour, one per row, bottom to top: u runs up the
    southwest then northwest sides, v up the southeast then northeast sides.
    """
    if region.kind != "double_aztec_rectangle":
        raise KindError("boundary markers are defined for double Aztec rectangles only")
    lat = region.lattice
    at, pos, w = lat.grid.at, lat.grid.pos, lat.grid.stride
    west = sorted((lat.cells[i] for i in lat.black if at[pos[i] - w] < 0), key=lambda c: c.y)
    east = sorted((lat.cells[i] for i in lat.white if at[pos[i] + w] < 0), key=lambda c: c.y)
    u = [(c.x, 2 * c.y + 1) for c in west]
    v = [(c.x + 1, 2 * c.y + 1) for c in east]
    m1, n1, k, m2, n2 = region.params
    if len(u) != m2 + n1 or len(v) != n2 + m1:
        raise InvariantError(f"{len(u)} and {len(v)} markers, expected {m2 + n1} and {n2 + m1}")
    return BoundaryMarkers(u=u, v=v)


#: Most cells a parsed spec may have (triangles, for a hexagon).  It admits
#: ad:70 (9,940 cells) and stops a spec such as ad:100000 before its
#: 2 * 10^10 cells are built.
MAX_SPEC_CELLS = 10_000


def _spec_cells(tag: str, nums: tuple[int, ...]) -> int:
    """The cell (triangle) count of a parsed spec, from its numbers alone.

    A number below zero counts as zero, so a spec the builder rejects for
    its parameters is not reported as over the budget.
    """
    nums = tuple(max(v, 0) for v in nums)
    if tag == "hex":
        a, b, c = nums
        return 2 * (a * b + b * c + c * a)
    rectangles = {"ad": [nums * 2], "ar": [nums], "dr": [nums[:2], nums[3:]]}[tag]
    return sum(2 * m * n + m + n for m, n in rectangles)


def parse_spec(text: str):
    """Parse a compact region spec: ad:4, ar:3x5, dr:m1,n1,k,m2,n2, hex:a,b,c.

    A spec of more than ``MAX_SPEC_CELLS`` cells raises ConstraintError
    before any cell is built.
    """
    # built per call, so a builder patched on the module is the one called
    builders = {
        "ad": (build_aztec_diamond, ",", 1),
        "ar": (build_aztec_rectangle, "x", 2),
        "dr": (build_double_rectangle, ",", 5),
        "hex": (build_hexagon, ",", 3),
    }
    tag, colon, rest = text.partition(":")
    if not colon:
        raise ConstraintError(f"malformed region spec {text!r}")
    if tag not in builders:
        raise ConstraintError(f"unknown region kind {tag!r}")
    build, sep, arity = builders[tag]
    try:
        nums = tuple(int(p) for p in rest.split(sep))
    except ValueError:
        raise ConstraintError(f"malformed region spec {text!r}") from None
    if len(nums) != arity:
        raise ConstraintError(f"malformed region spec {text!r}")
    if _spec_cells(tag, nums) > MAX_SPEC_CELLS:  # the count may have too many digits to print
        raise ConstraintError(f"{text!r} has more cells than the budget of {MAX_SPEC_CELLS}")
    return build(*nums)
