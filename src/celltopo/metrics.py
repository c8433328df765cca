"""Graph distance and i-cell distance over a discrete space.

The i-cell distance between vertices x and y is the minimum number of
i-cells in a sequence whose first cell contains x, whose last contains y,
and where consecutive cells share an (i-1)-cell.  Level 1 is ordinary
edge (graph) distance.  Within a single cell any two vertices count as
distance 1 at that cell's level.

Every level runs the shared level walk (``complexes._levels``) from the
i-cells at x, stepping from each i-cell to its faces' cofaces; the first
level to hold an i-cell at y is the distance.  At level 1 the steps join
edges at a vertex, and graph distance is the 1-cell distance.  Every
query is a pure read.
"""

from __future__ import annotations

import itertools
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
    if x == y:
        return 0
    sources = space.cells_containing(x, i)
    targets = set(space.cells_containing(y, i))
    if not sources or not targets:
        return UNREACHABLE
    # the first breadth-first level through shared faces that meets a
    # target is the distance
    for d, level in enumerate(_levels(space, sources), 1):
        if not targets.isdisjoint(level):
            return d
    return UNREACHABLE


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
    for x, y in itertools.combinations(range(space.n_vertices), 2):
        d1 = graph_distance(space, x, y)
        for i in range(2, space.top_dim + 1):
            di = k_cell_distance(space, x, y, i)
            if di != d1:
                report.add("d(%d, %d) = %s but %d-cell distance is %s"
                           % (x, y, d1, i, di))
                return report
    return report
