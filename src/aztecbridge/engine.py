"""Tiling enumeration and exact counting.

Enumeration branches on the lexicographically first uncovered cell, which
makes the emitted order canonical and reproducible.  Counting uses a
broken-profile dynamic program sweeping columns left to right with a bitmask
over the rows of the current column; counts are exact Python integers.
"""

from __future__ import annotations

from typing import Iterator

from .regions import Cell, Region, Tri, TriRegion, tri_neighbors

Domino = tuple[Cell, Cell]
Lozenge = tuple[Tri, Tri]
Tiling = tuple  # sorted tuple of pieces

#: Maximum number of rows supported by the counting profile mask.
MAX_PROFILE_ROWS = 64


class CapacityError(RuntimeError):
    """Region exceeds a documented size bound of the requested engine."""


def is_vertical(d: Domino) -> bool:
    return d[0].x == d[1].x


def piece(a, b):
    return (a, b) if a <= b else (b, a)


def enumerate_tilings(region: Region) -> Iterator[Tiling]:
    """Yield every domino tiling exactly once, in canonical order."""
    order = region.sorted_cells
    cells = region.cells
    covered: set[Cell] = set()
    pieces: list[Domino] = []

    def rec(start: int) -> Iterator[Tiling]:
        i = start
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            yield tuple(sorted(pieces))
            return
        c = order[i]
        for d in (Cell(c.x, c.y + 1), Cell(c.x + 1, c.y)):
            if d in cells and d not in covered:
                covered.add(c)
                covered.add(d)
                pieces.append(piece(c, d))
                yield from rec(i + 1)
                pieces.pop()
                covered.discard(c)
                covered.discard(d)

    yield from rec(0)


def count_tilings(region: Region) -> int:
    """Number of domino tilings, via the column-sweep profile DP."""
    cells = region.cells
    if not cells:
        return 1
    max_y = max(c.y for c in cells)
    if max_y + 1 > MAX_PROFILE_ROWS:
        raise CapacityError(
            f"region has {max_y + 1} rows; the profile mask supports at most {MAX_PROFILE_ROWS}"
        )
    # states: mask of rows in the *next* column already covered by a
    # horizontal domino sticking out of the current column.
    states: dict[int, int] = {0: 1}
    for x, col in _columns(region):
        next_states: dict[int, int] = {}
        for incoming, ways in states.items():
            _fill_column(x, col, cells, incoming, 0, 0, ways, next_states, 0)
        states = next_states
        if not states:
            return 0
    return states.get(0, 0)


def _columns(region: Region) -> list[tuple[int, list[int]]]:
    """(x, rows of the region in column x) for every column, left to right."""
    rows: dict[int, list[int]] = {}
    for c in region.sorted_cells:
        rows.setdefault(c.x, []).append(c.y)
    return [(x, rows.get(x, [])) for x in range(max(rows, default=-1) + 1)]


def _fill_column(x, col, cells, incoming, idx, outgoing, ways, sink, vstep):
    """Cover column cells from col[idx] on; accumulate completions in sink.

    A completed column adds ``ways`` to ``sink[key]``.  The key is the
    outgoing mask plus ``vstep`` per vertical domino placed, so ``vstep = 0``
    aggregates by mask alone, and ``vstep = 1 << rows`` (above every mask
    bit) keys each move by its mask and its vertical-domino count together.
    """
    # iterative fast-forward over already-covered cells
    while idx < len(col) and incoming >> col[idx] & 1:
        idx += 1
    if idx == len(col):
        sink[outgoing] = sink.get(outgoing, 0) + ways
        return
    y = col[idx]
    # vertical domino with the cell above
    above = Cell(x, y + 1)
    if above in cells and not incoming >> (y + 1) & 1:
        _fill_column(
            x, col, cells, incoming | 1 << y | 1 << (y + 1), idx + 1, outgoing + vstep, ways, sink, vstep
        )
    # horizontal domino into the next column
    if Cell(x + 1, y) in cells:
        _fill_column(x, col, cells, incoming | 1 << y, idx + 1, outgoing | 1 << y, ways, sink, vstep)


def enumerate_lozenge_tilings(region: TriRegion) -> Iterator[Tiling]:
    """Yield every lozenge tiling exactly once, in canonical order."""
    order = region.sorted_tris
    tris = region.tris
    covered: set[Tri] = set()
    pieces: list[Lozenge] = []

    def rec(start: int) -> Iterator[Tiling]:
        i = start
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            yield tuple(sorted(pieces))
            return
        t = order[i]
        for nb in sorted(tri_neighbors(t, tris)):
            if nb not in covered:
                covered.add(t)
                covered.add(nb)
                pieces.append(piece(t, nb))
                yield from rec(i + 1)
                pieces.pop()
                covered.discard(t)
                covered.discard(nb)

    yield from rec(0)


def count_lozenge_tilings(region: TriRegion) -> int:
    return sum(1 for _ in enumerate_lozenge_tilings(region))
