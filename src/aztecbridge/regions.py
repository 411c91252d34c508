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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple


class ConstraintError(ValueError):
    """A region parameter tuple violates a construction precondition."""


class KindError(TypeError):
    """Operation applied to a region of the wrong kind."""


class InvariantError(RuntimeError):
    """An identity that guards a computed result does not hold."""


class Cell(NamedTuple):
    x: int
    y: int


class Tri(NamedTuple):
    x: int
    y: int
    up: bool


WHITE = "white"
BLACK = "black"


class BoundaryMarkers(NamedTuple):
    """Schroeder-path endpoints: points (x, y2) with y2 = 2*y_actual."""

    u: list[tuple[int, int]]
    v: list[tuple[int, int]]


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


def glue_offset(m1: int, n1: int, k: int, m2: int, n2: int) -> tuple[int, int]:
    return (k - m2 + _GLUE_DX, k + m2 + _GLUE_DY)


@dataclass(frozen=True)
class Region:
    """An immutable square-lattice region with checkerboard coloring.

    A cell (x, y) is white when x + y has the parity ``white_parity``.  The
    derived invariants below (grid edges, boundary markers, minimal tiling,
    its path area, rank table) are each computed on first use and kept on
    the instance, so no module keeps a cache of its own.
    """

    kind: str
    params: tuple[int, ...]
    cells: frozenset[Cell]
    white_parity: int
    upper: frozenset[Cell] | None = None
    lower: frozenset[Cell] | None = None

    def __post_init__(self):
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

    def color(self, c: Cell) -> str:
        return WHITE if (c.x + c.y) % 2 == self.white_parity else BLACK

    def imbalance(self) -> int:
        """White cells minus black cells; a tileable region has 0."""
        whites = sum(1 for c in self.cells if (c.x + c.y) % 2 == self.white_parity)
        return 2 * whites - len(self.cells)

    @property
    def sorted_cells(self) -> list[Cell]:
        return sorted(self.cells)

    def spec_string(self) -> str:
        if self.kind == "aztec_diamond":
            return f"ad:{self.params[0]}"
        if self.kind == "aztec_rectangle":
            return "ar:%dx%d" % self.params
        return "dr:%d,%d,%d,%d,%d" % self.params

    # -- derived invariants -------------------------------------------------

    @cached_property
    def dmin(self) -> int:
        """The bottommost diagonal, min(y - x) over the cells."""
        return min(c.y - c.x for c in self.cells)

    @cached_property
    def ymin(self) -> int:
        """The bottom row."""
        return min(c.y for c in self.cells)

    @cached_property
    def grid_edges(self) -> dict:
        """Height steps along the cell edges; see ``stats.height_function``."""
        from .stats import _grid_edges

        return _grid_edges(self)

    @cached_property
    def neighbours(self) -> MappingProxyType:
        """Read-only map from each cell to its edge-adjacent cells (W, E, S, N)."""
        cells = self.cells
        return MappingProxyType(
            {
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
        )

    @cached_property
    def kasteleyn_det(self) -> int:
        """The unweighted Kasteleyn determinant; see ``engine._domino_det``.

        Its absolute value is the tiling count, and its sign is the sign with
        which every tiling enters a weighted determinant of the region.  A
        region with a hole raises InvariantError.
        """
        from .engine import _unit_domino_det

        return _unit_domino_det(self)

    @cached_property
    def line_weights(self) -> tuple:
        """Per vertical grid line, the height-deficit weights; see ``stats._line_weights``."""
        from .stats import _line_weights

        return _line_weights(self)

    @cached_property
    def markers(self) -> BoundaryMarkers:
        """Boundary markers of a double Aztec rectangle; see ``boundary_markers``."""
        if self.kind != "double_aztec_rectangle":
            raise KindError("boundary markers are defined for double Aztec rectangles only")
        if self.upper is None or self.lower is None:
            raise KindError("a double Aztec rectangle needs its upper and lower parts")
        # u: left edges of the lower SW fringe (minimal x+y diagonal) and of the
        # upper NW fringe (maximal y-x diagonal); v: right edges of the lower SE
        # fringe (minimal y-x) and upper NE fringe (maximal x+y).  Each fringe is
        # ordered bottom-to-top.
        low_sw = _diagonal_fringe(self.lower, lambda c: c.x + c.y, minimal=True)
        up_nw = _diagonal_fringe(self.upper, lambda c: c.y - c.x, minimal=False)
        low_se = _diagonal_fringe(self.lower, lambda c: c.y - c.x, minimal=True)
        up_ne = _diagonal_fringe(self.upper, lambda c: c.x + c.y, minimal=False)
        u = [(c.x, 2 * c.y + 1) for c in low_sw + up_nw]
        v = [(c.x + 1, 2 * c.y + 1) for c in low_se + up_ne]
        m1, n1, k, m2, n2 = self.params
        if len(u) != m2 + n1 or len(v) != n2 + m1:
            raise InvariantError(f"{len(u)} and {len(v)} markers, expected {m2 + n1} and {n2 + m1}")
        return BoundaryMarkers(u=u, v=v)

    @cached_property
    def v_index(self) -> MappingProxyType:
        """Read-only position of each v marker in ``markers.v``."""
        return MappingProxyType({p: i for i, p in enumerate(self.markers.v)})

    @cached_property
    def minimal_tiling(self) -> tuple:
        """The rank-zero tiling; see ``stats.minimal_tiling``."""
        from .stats import _extreme_tiling

        return _extreme_tiling(self)

    @cached_property
    def minimal_area(self):
        """Underneath area of the minimal tiling's path family."""
        from .paths import tiling_to_paths, underneath_area

        return underneath_area(tiling_to_paths(self, self.minimal_tiling))

    @cached_property
    def rank_table(self) -> MappingProxyType:
        """Read-only flip distances from the minimal tiling; see ``stats.rank_table``."""
        from .stats import _flip_distances

        return MappingProxyType(_flip_distances(self))


@dataclass(frozen=True)
class TriRegion:
    """A triangular-lattice region (hexagon)."""

    kind: str
    params: tuple[int, ...]
    tris: frozenset[Tri]

    @property
    def sorted_tris(self) -> list[Tri]:
        return sorted(self.tris)

    def spec_string(self) -> str:
        return "hex:%d,%d,%d" % self.params


def _normalize(cells: set[Cell], *parts: set[Cell]):
    """Translate so the minimum x and minimum y are both 0.

    Returns the translated cell set, the translated extra parts, and the
    parity flip the translation applied to x + y.
    """
    minx = min(c.x for c in cells)
    miny = min(c.y for c in cells)
    moved = {Cell(c.x - minx, c.y - miny) for c in cells}
    moved_parts = [{Cell(c.x - minx, c.y - miny) for c in p} for p in parts]
    return moved, moved_parts, (minx + miny) % 2


def build_aztec_diamond(n: int) -> Region:
    if n < 1:
        raise ConstraintError(f"aztec diamond needs n >= 1, got n={n}")
    return build_aztec_rectangle(n, n, kind="aztec_diamond", params=(n,))


def build_aztec_rectangle(m: int, n: int, kind: str = "aztec_rectangle", params=None) -> Region:
    if m < 1 or n < 1:
        raise ConstraintError(f"aztec rectangle needs m,n >= 1, got m={m} n={n}")
    raw = _ar_cells(m, n)
    cells, _, flip = _normalize(raw)
    # Raw white convention: x + y even.  Standalone regions just inherit it.
    return Region(kind=kind, params=params or (m, n), cells=frozenset(cells), white_parity=flip)


def build_double_rectangle(m1: int, n1: int, k: int, m2: int, n2: int) -> Region:
    _check_dr_params(m1, n1, k, m2, n2)
    lower = _ar_cells(m2, n2)
    dx, dy = glue_offset(m1, n1, k, m2, n2)
    upper = {Cell(c.x + dx, c.y + dy) for c in _ar_cells(m1, n1)}
    if lower & upper:
        raise AssertionError("double rectangle parts must be disjoint")
    cells, (upper_n, lower_n), flip = _normalize(lower | upper, upper, lower)
    # The cells along the southwest side of the upper rectangle are white.
    sw_cell = min(upper_n, key=lambda c: (c.x + c.y, c.x))
    return Region(
        kind="double_aztec_rectangle",
        params=(m1, n1, k, m2, n2),
        cells=frozenset(cells),
        white_parity=(sw_cell.x + sw_cell.y) % 2,
        upper=frozenset(upper_n),
        lower=frozenset(lower_n),
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

    for x in range(-c - 1, b + 1):
        for y in range(0, c + a + 1):
            if inside(x, y) and inside(x + 1, y) and inside(x, y + 1):
                tris.add(Tri(x, y, True))
            if inside(x + 1, y) and inside(x, y + 1) and inside(x + 1, y + 1):
                tris.add(Tri(x, y, False))
    ups = sum(1 for t in tris if t.up)
    if 2 * ups != len(tris):
        raise InvariantError(f"{ups} up-triangles among {len(tris)}: the counts must match")
    return TriRegion(kind="hexagon", params=(a, b, c), tris=frozenset(tris))


def tri_neighbors(t: Tri, tris: frozenset[Tri]) -> list[Tri]:
    """Edge-adjacent triangles of t inside the region."""
    if t.up:
        cand = [Tri(t.x, t.y, False), Tri(t.x - 1, t.y, False), Tri(t.x, t.y - 1, False)]
    else:
        cand = [Tri(t.x, t.y, True), Tri(t.x + 1, t.y, True), Tri(t.x, t.y + 1, True)]
    return [c for c in cand if c in tris]


def boundary_markers(region: Region) -> BoundaryMarkers:
    """Centers of vertical boundary steps of a double Aztec rectangle.

    u lists the lower southwest then upper northwest markers bottom-to-top;
    v lists the lower southeast then upper northeast markers bottom-to-top.
    Points are (x, 2y+1): vertical edge midpoints in half-unit y coordinates.
    Derived once per region and kept on it.
    """
    return region.markers


def _diagonal_fringe(cells: frozenset[Cell], diag, minimal: bool) -> list[Cell]:
    target = min(diag(c) for c in cells) if minimal else max(diag(c) for c in cells)
    return sorted((c for c in cells if diag(c) == target), key=lambda c: c.y)


def parse_spec(text: str):
    """Parse a compact region spec: ad:4, ar:3x5, dr:m1,n1,k,m2,n2, hex:a,b,c."""
    try:
        tag, rest = text.split(":", 1)
    except ValueError:
        raise ConstraintError(f"malformed region spec {text!r}") from None
    try:
        if tag == "ad":
            return build_aztec_diamond(int(rest))
        if tag == "ar":
            m, n = (int(p) for p in rest.split("x"))
            return build_aztec_rectangle(m, n)
        if tag == "dr":
            m1, n1, k, m2, n2 = (int(p) for p in rest.split(","))
            return build_double_rectangle(m1, n1, k, m2, n2)
        if tag == "hex":
            a, b, c = (int(p) for p in rest.split(","))
            return build_hexagon(a, b, c)
    except ConstraintError:
        raise
    except ValueError:
        raise ConstraintError(f"malformed region spec {text!r}") from None
    raise ConstraintError(f"unknown region kind {tag!r}")
