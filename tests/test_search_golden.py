"""Recorded outputs of the single-cell move searches.

``detour_sequence`` and ``flatten_path`` explore single-cell moves in a
fixed order, so the trace a search returns depends on that order.  Their
traces below were recorded from the reference implementation, which
tried every 2-cell of the space in each search state; a faster candidate
scan must return them unchanged.  On a surface ``search_contraction``
builds its trace: the smaller side of the cycle contracts toward its
smallest cell at the anchor, one removal per move, and the torus
meridian, which bounds no side, gives None.  Above dimension 2 it
searches; the traces and the Nones on the 3-sphere ``S(4, 3)``, on
the 5-sphere bounding the 6-simplex and on a graph were recorded from
the search before it cut curves too long to reach a goal cell, and the
cut must keep them.

A trace is recorded as its steps, each ``(closed, vertex walk)``, and its
moves, each the sorted cells of one move.  To re-record after an intended
change, run this file as a script from the repository root with ``src``
on ``PYTHONPATH``; it prints the table.
"""

import functools
import itertools
import pprint

import pytest

from celltopo import generators as gen
from celltopo.complexes import (CellChain, DiscreteSpace, partial_graph,
                                walk)
from celltopo.deformation import detour_sequence, search_contraction
from celltopo.separation import flatten_path


def _record(trace):
    if trace is None:
        return None
    return {"steps": [(s.closed, s.verts) for s in trace.steps],
            "moves": [sorted(m) for m in trace.moves]}


def _points(d: int, n: int) -> list:
    """The points of the lattice sphere bounding [0, n]^d, in vertex
    order."""
    return [p for p in itertools.product(range(n + 1), repeat=d)
            if 0 in p or n in p]


def _ring(space, points, on_ring):
    """The cycle through the points ``on_ring`` picks, walked from its
    smallest vertex toward its smaller neighbour."""
    ring = [i for i, p in enumerate(points) if on_ring(p)]
    return CellChain.path(space, walk(partial_graph(space, ring)),
                          closed=True)


def _facet_rings(n: int, d: int = 3):
    """The 8-cycle around the centre of the facets x = 0, x = n, y = 0 and
    y = n of the lattice sphere bounding [0, n]^d, in the plane of the
    facet's first two free axes."""
    space, _ = gen.lattice_sphere(d, n)
    points = _points(d, n)
    c = n // 2
    rings = {}
    for axis, value in ((0, 0), (0, n), (1, 0), (1, n)):
        free = [a for a in range(d) if a != axis]

        def on_ring(p, axis=axis, value=value, free=free):
            return p[axis] == value and \
                all(p[a] == c for a in free[2:]) and \
                max(abs(p[a] - c) for a in free[:2]) == 1

        rings["facet-%s%d" % ("xy"[axis], value)] = \
            _ring(space, points, on_ring)
    return space, rings


@functools.lru_cache(maxsize=None)
def _search_cases():
    octa = gen.octahedron()
    torus = gen.torus_grid(4, 4)
    cases = {"octahedron-equator":
             (octa, gen.equator(octa, "octahedron"), 1, 8),
             "torus-meridian": (torus, gen.torus_meridian(torus, 4), 0, 5)}
    space, rings = _facet_rings(4)
    for name, ring in rings.items():
        cases["S(3,4)-" + name] = (space, ring, ring.verts[0], 6)
    # above dimension 2: two facet rings of the 3-sphere S(4, 3), and the
    # ring around a 2 x 3 rectangle of squares, which needs six moves
    space, rings = _facet_rings(3, 4)
    for name in ("facet-x0", "facet-x3"):
        ring = rings[name]
        cases["S(4,3)-" + name] = (space, ring, ring.verts[0], 6)
    rect = _ring(space, _points(4, 3), lambda p: p[0] == 0 and p[3] == 1 and
                 p[1] <= 2 and (p[1] in (0, 2) or p[2] in (0, 3)))
    cases["S(4,3)-rect2x3"] = (space, rect, rect.verts[0], 4)
    # the 5-sphere bounding the 6-simplex: triangles, and every pair of
    # vertices is an edge, so any vertex sequence is a cycle
    s6 = gen.simplex_boundary(6)
    for length, budget in ((5, 3), (6, 4), (7, 4), (7, 5)):
        cycle = CellChain.path(s6, range(length), closed=True)
        cases["simplex6-%d-b%d" % (length, budget)] = (s6, cycle, 0, budget)
    # a graph: no 2-cell, so no move and no goal
    graph = DiscreteSpace(3, [(0, 1), (1, 2), (0, 2)], {})
    cases["graph-triangle"] = (graph, CellChain.path(graph, range(3),
                                                     closed=True), 0, 3)
    return cases


def _detour_cases():
    s3 = gen.simplex_boundary(3)
    cube = gen.cube_boundary(3)
    return {
        "simplex3": (s3, CellChain.path(s3, [0, 1, 2]),
                     CellChain.path(s3, [0, 2]), (2, (0, 1, 2))),
        "cube3": (cube, CellChain.path(cube, [0, 4, 6]),
                  CellChain.path(cube, [0, 2, 6]), (2, (0, 2, 4, 6))),
    }


def _flatten_record():
    cube4 = gen.cube_boundary(4)
    faces = [(2, (0, 2, 4, 6)), (2, (8, 10, 12, 14)), (2, (0, 2, 8, 10)),
             (2, (4, 6, 12, 14)), (2, (0, 4, 8, 12)), (2, (2, 6, 10, 14))]
    s = CellChain.of_cells(cube4, 2, faces, closed=True)
    p_i = CellChain.path(cube4, [9, 8, 0, 4, 12, 13, 15, 7])
    p_prev = CellChain.path(cube4, [9, 1, 5, 13, 15, 7])
    p_new, bridge = flatten_path(cube4, s, p_i, p_prev)
    return {"path": (p_new.closed, p_new.verts), "bridge": _record(bridge)}


def _records() -> dict:
    out = {}
    for name, (space, cycle, p, budget) in _search_cases().items():
        out["search " + name] = _record(
            search_contraction(space, cycle, p, budget))
    for name, args in _detour_cases().items():
        out["detour " + name] = _record(detour_sequence(*args))
    out["flatten cube4"] = _flatten_record()
    return out


EXPECTED = {"detour cube3": {"moves": [[(2, (0, 1, 4, 5))],
                                       [(2, (0, 1, 2, 3))],
                                       [(2, (1, 3, 5, 7))],
                                       [(2, (4, 5, 6, 7))],
                                       [(2, (2, 3, 6, 7))]],
                             "steps": [(False, (0, 4, 6)),
                                       (False, (0, 1, 5, 4, 6)),
                                       (False, (0, 2, 3, 1, 5, 4, 6)),
                                       (False, (0, 2, 3, 7, 5, 4, 6)),
                                       (False, (0, 2, 3, 7, 6)),
                                       (False, (0, 2, 6))]},
            "detour simplex3": {"moves": [[(2, (0, 1, 3))], [(2, (1, 2, 3))],
                                          [(2, (0, 2, 3))]],
                                "steps": [(False, (0, 1, 2)),
                                          (False, (0, 3, 1, 2)),
                                          (False, (0, 3, 2)),
                                          (False, (0, 2))]},
            "flatten cube4": {"bridge": {"moves": [[(2, (1, 5, 9, 13))],
                                                   [(2, (8, 9, 12, 13))]],
                                         "steps": [(False,
                                                    (9, 1, 5, 13, 15, 7)),
                                                   (False, (9, 13, 15, 7)),
                                                   (False,
                                                    (9, 8, 12, 13, 15, 7))]},
                              "path": (False, (9, 8, 12, 13, 15, 7))},
            "search S(3,4)-facet-x0": {"moves": [[(2, (12, 13, 17, 18))],
                                                 [(2, (7, 8, 12, 13))],
                                                 [(2, (11, 12, 16, 17))],
                                                 [(2, (6, 7, 11, 12))]],
                                       "steps": [(True,
                                                  (6, 7, 8, 13, 18, 17, 16,
                                                   11)),
                                                 (True,
                                                  (6, 7, 8, 13, 12, 17, 16,
                                                   11)),
                                                 (True,
                                                  (6, 7, 12, 17, 16, 11)),
                                                 (True, (6, 7, 12, 11)),
                                                 (False, (6,))]},
            "search S(3,4)-facet-x4": {"moves": [[(2, (85, 86, 90, 91))],
                                                 [(2, (80, 81, 85, 86))],
                                                 [(2, (84, 85, 89, 90))],
                                                 [(2, (79, 80, 84, 85))]],
                                       "steps": [(True,
                                                  (79, 80, 81, 86, 91, 90, 89,
                                                   84)),
                                                 (True,
                                                  (79, 80, 81, 86, 85, 90, 89,
                                                   84)),
                                                 (True,
                                                  (79, 80, 85, 90, 89, 84)),
                                                 (True, (79, 80, 85, 84)),
                                                 (False, (79,))]},
            "search S(3,4)-facet-y0": {"moves": [[(2, (43, 44, 59, 60))],
                                                 [(2, (27, 28, 43, 44))],
                                                 [(2, (42, 43, 58, 59))],
                                                 [(2, (26, 27, 42, 43))]],
                                       "steps": [(True,
                                                  (26, 27, 28, 44, 60, 59, 58,
                                                   42)),
                                                 (True,
                                                  (26, 27, 28, 44, 43, 59, 58,
                                                   42)),
                                                 (True,
                                                  (26, 27, 43, 59, 58, 42)),
                                                 (True, (26, 27, 43, 42)),
                                                 (False, (26,))]},
            "search S(3,4)-facet-y4": {"moves": [[(2, (54, 55, 70, 71))],
                                                 [(2, (38, 39, 54, 55))],
                                                 [(2, (53, 54, 69, 70))],
                                                 [(2, (37, 38, 53, 54))]],
                                       "steps": [(True,
                                                  (37, 38, 39, 55, 71, 70, 69,
                                                   53)),
                                                 (True,
                                                  (37, 38, 39, 55, 54, 70, 69,
                                                   53)),
                                                 (True,
                                                  (37, 38, 54, 70, 69, 53)),
                                                 (True, (37, 38, 54, 53)),
                                                 (False, (37,))]},
            "search S(4,3)-facet-x0": {"moves": [[(2, (5, 9, 21, 25))],
                                                 [(2, (21, 25, 37, 41))],
                                                 [(2, (17, 21, 33, 37))],
                                                 [(2, (1, 5, 17, 21))]],
                                       "steps": [(True,
                                                  (1, 5, 9, 25, 41, 37, 33,
                                                   17)),
                                                 (True,
                                                  (1, 5, 21, 25, 41, 37, 33,
                                                   17)),
                                                 (True,
                                                  (1, 5, 21, 37, 33, 17)),
                                                 (True, (1, 5, 21, 17)),
                                                 (False, (1,))]},
            "search S(4,3)-facet-x3": {"moves": [[(2, (181, 185, 197, 201))],
                                                 [(2, (197, 201, 213, 217))],
                                                 [(2, (193, 197, 209, 213))],
                                                 [(2, (177, 181, 193, 197))]],
                                       "steps": [(True,
                                                  (177, 181, 185, 201, 217,
                                                   213, 209, 193)),
                                                 (True,
                                                  (177, 181, 197, 201, 217,
                                                   213, 209, 193)),
                                                 (True,
                                                  (177, 181, 197, 213, 209,
                                                   193)),
                                                 (True, (177, 181, 197, 193)),
                                                 (False, (177,))]},
            "search S(4,3)-rect2x3": None,
            "search graph-triangle": None,
            "search octahedron-equator": {"moves": [[(2, (0, 3, 4))],
                                                    [(2, (0, 1, 4))],
                                                    [(2, (0, 2, 3))],
                                                    [(2, (0, 1, 2))]],
                                          "steps": [(True, (1, 2, 3, 4)),
                                                    (True, (0, 3, 2, 1, 4)),
                                                    (True, (0, 1, 2, 3)),
                                                    (True, (0, 1, 2)),
                                                    (False, (1,))]},
            "search simplex6-5-b3": {"moves": [[(2, (0, 1, 2))],
                                               [(2, (0, 2, 3))],
                                               [(2, (0, 3, 4))]],
                                     "steps": [(True, (0, 1, 2, 3, 4)),
                                               (True, (0, 2, 3, 4)),
                                               (True, (0, 3, 4)),
                                               (False, (0,))]},
            "search simplex6-6-b4": {"moves": [[(2, (0, 1, 2))],
                                               [(2, (0, 2, 3))],
                                               [(2, (0, 3, 4))],
                                               [(2, (0, 4, 5))]],
                                     "steps": [(True, (0, 1, 2, 3, 4, 5)),
                                               (True, (0, 2, 3, 4, 5)),
                                               (True, (0, 3, 4, 5)),
                                               (True, (0, 4, 5)),
                                               (False, (0,))]},
            "search simplex6-7-b4": None,
            "search simplex6-7-b5": {"moves": [[(2, (0, 1, 2))],
                                               [(2, (0, 2, 3))],
                                               [(2, (0, 3, 4))],
                                               [(2, (0, 4, 5))],
                                               [(2, (0, 5, 6))]],
                                     "steps": [(True, (0, 1, 2, 3, 4, 5, 6)),
                                               (True, (0, 2, 3, 4, 5, 6)),
                                               (True, (0, 3, 4, 5, 6)),
                                               (True, (0, 4, 5, 6)),
                                               (True, (0, 5, 6)),
                                               (False, (0,))]},
            "search torus-meridian": None}


@pytest.mark.parametrize("name", sorted(_search_cases()))
def test_search_contraction_traces(name):
    space, cycle, p, budget = _search_cases()[name]
    assert _record(search_contraction(space, cycle, p, budget)) == \
        EXPECTED["search " + name]


@pytest.mark.parametrize("name", sorted(_detour_cases()))
def test_detour_traces(name):
    assert _record(detour_sequence(*_detour_cases()[name])) == \
        EXPECTED["detour " + name]


def test_flatten_path_result_and_bridge():
    assert _flatten_record() == EXPECTED["flatten cube4"]


if __name__ == "__main__":
    lines = pprint.pformat(_records(), width=68,
                           compact=True).replace("'", '"').splitlines()
    print("EXPECTED = " + "\n           ".join(lines))
