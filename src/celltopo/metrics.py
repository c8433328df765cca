"""Graph distance and i-cell distance over a discrete space.

The i-cell distance between vertices x and y is the minimum number of
i-cells in a sequence whose first cell contains x, whose last contains y,
and where consecutive cells share an (i-1)-cell.  Level 1 is ordinary
edge (graph) distance.  Within a single cell any two vertices count as
distance 1 at that cell's level.

One single-source walk (``_distances``) answers every level: the shared
level walk (``complexes._levels``) from the i-cells at x, stepping from
each i-cell to its faces' cofaces; a vertex's distance is the index of
the first level to hold an i-cell at it.  At level 1 the steps join edges
at a vertex, and graph distance is the 1-cell distance.  Every query is
a pure read.
"""

from __future__ import annotations

import math

from .complexes import CheckReport, DiscreteSpace, _levels
from .errors import InputError, PreconditionError

UNREACHABLE = math.inf


def graph_distance(space: DiscreteSpace, x: int, y: int):
    """Shortest edge-path length; 0 for x == y; inf when disconnected."""
    return k_cell_distance(space, x, y, 1)


def k_cell_distance(space: DiscreteSpace, x: int, y: int, i: int):
    """Minimum length of an (i-1)-connected i-cell sequence from x to y."""
    space.require_vertex(x)
    space.require_vertex(y)
    if not (1 <= i <= space.top_dim):
        raise InputError("level %d outside 1..%d" % (i, space.top_dim))
    return next((d for w, d in _distances(space, x, i) if w == y),
                UNREACHABLE)


def _distances(space: DiscreteSpace, x: int, i: int):
    """The vertices the i-cells at x reach, each once with its i-cell
    distance from x, nearest first: x at 0, then each vertex at the index
    of the first ``_levels`` level from the i-cells at x that holds an
    i-cell at it.  A caller stops the walk by leaving its loop."""
    yield x, 0
    seen = {x}
    for d, level in enumerate(_levels(space, space.cells_containing(x, i)),
                              1):
        for cid in level:
            for w in cid[1]:
                if w not in seen:
                    seen.add(w)
                    yield w, d


def is_triangulated(space: DiscreteSpace) -> bool:
    """Every i-cell has exactly i+1 vertices (all cells are simplices)."""
    return all(len(c[1]) == c[0] + 1
               for c in space.cells if c[0] >= 2)


def verify_distance_equality(space: DiscreteSpace) -> CheckReport:
    """Exhaustively confirm graph distance equals every i-cell distance.

    Applies to triangulated spaces only; quadrilateral cells break the
    equality, so non-triangulated input is a precondition error.
    """
    if not is_triangulated(space):
        raise PreconditionError("space is not triangulated")
    report = CheckReport(True)
    levels = range(1, space.top_dim + 1)
    # one walk per source and level; the pairs x < y are compared in
    # lexicographic order
    for x in range(space.n_vertices):
        dist = [dict(_distances(space, x, i)) for i in levels]
        for y in range(x + 1, space.n_vertices):
            d1 = dist[0].get(y, UNREACHABLE)
            for i in levels[1:]:
                di = dist[i - 1].get(y, UNREACHABLE)
                if di != d1:
                    report.add("d(%d, %d) = %s but %d-cell distance is %s"
                               % (x, y, d1, i, di))
                    return report
    return report
