"""Graph distance and i-cell distance over a discrete space.

The i-cell distance between vertices x and y is the minimum number of
i-cells in a sequence whose first cell contains x, whose last contains y,
and where consecutive cells share an (i-1)-cell.  Level 1 is ordinary
edge (graph) distance.  Within a single cell any two vertices count as
distance 1 at that cell's level.

Every level walks the space's incidence index, built with the space, the
same way: from each i-cell to its boundary faces and on to their cofaces,
the i-cells that share a face with it.  At level 1 those are the edges
meeting an edge at a vertex, and graph distance is the 1-cell distance.
Every query is a pure read.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from .complexes import CheckReport, DiscreteSpace
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
    if targets.intersection(sources):
        return 1
    # breadth first through shared faces, so the first target reached is a
    # nearest one
    dist = {c: 1 for c in sources}
    queue = deque(sources)
    while queue:
        c = queue.popleft()
        for f in space.cells[c].boundary:
            for n in space.cofaces(f):
                if n not in dist:
                    if n in targets:
                        return dist[c] + 1
                    dist[n] = dist[c] + 1
                    queue.append(n)
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
