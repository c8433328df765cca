import functools
import itertools

import networkx as nx
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from celltopo import generators as gen
from celltopo import metrics
from celltopo.complexes import DiscreteSpace
from celltopo.errors import InputError, PreconditionError
from celltopo.metrics import (UNREACHABLE, graph_distance, k_cell_distance,
                              verify_distance_equality)

from test_construction_oracle import glued_polygons
from test_flatness_oracle import PROPS


def brute_cell_distance(space, x, y, i, cap=6):
    """Oracle: enumerate i-cell sequences depth first."""
    if x == y:
        return 0
    cells = space.cells_of_dim(i)
    best = [None]

    def walk(seq):
        if best[0] is not None and len(seq) >= best[0]:
            return
        if y in seq[-1][1]:
            best[0] = len(seq)
            return
        if len(seq) >= cap:
            return
        last_faces = set(space.cells[seq[-1]].boundary)
        for c in cells:
            if c not in seq and last_faces & set(space.cells[c].boundary):
                walk(seq + [c])

    for c in cells:
        if x in c[1]:
            walk([c])
    return best[0] if best[0] is not None else UNREACHABLE


def test_graph_distance_basic(octa):
    assert graph_distance(octa, 1, 2) == 1
    assert graph_distance(octa, 0, 5) == 2
    assert graph_distance(octa, 3, 3) == 0
    with pytest.raises(InputError):
        graph_distance(octa, 0, 9)


def test_unreachable():
    two = DiscreteSpace(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                        {2: [(0, 1, 2), (3, 4, 5)]})
    assert graph_distance(two, 0, 3) == UNREACHABLE
    assert k_cell_distance(two, 0, 3, 2) == UNREACHABLE


def test_cell_distance_octahedron(octa):
    assert k_cell_distance(octa, 1, 2, 2) == 1
    assert k_cell_distance(octa, 0, 5, 2) == 2
    assert k_cell_distance(octa, 0, 5, 2) == brute_cell_distance(octa, 0, 5, 2)


def test_cell_distance_cube_pair(cube3):
    # the corner pair across two faces keeps face distance 2 even though
    # the graph distance is 3
    assert graph_distance(cube3, 4, 3) == 3
    assert k_cell_distance(cube3, 4, 3, 2) == 2


def test_cell_distance_matches_oracle(octa):
    for x, y in itertools.combinations(range(6), 2):
        assert k_cell_distance(octa, x, y, 2) == \
            brute_cell_distance(octa, x, y, 2)


def test_level_bounds(octa):
    with pytest.raises(InputError):
        k_cell_distance(octa, 0, 1, 3)


def test_distance_equality(simplex3, simplex4, octa):
    for space in (simplex3, simplex4, octa):
        assert verify_distance_equality(space)


def test_distance_equality_needs_triangulation(cube3):
    with pytest.raises(PreconditionError):
        verify_distance_equality(cube3)


def test_level_monotone(octa, simplex4, cube3, cube4):
    for space in (octa, simplex4, cube3, cube4):
        for x, y in itertools.combinations(range(space.n_vertices), 2):
            prev = graph_distance(space, x, y)
            for i in range(2, space.top_dim + 1):
                cur = k_cell_distance(space, x, y, i)
                assert prev >= cur
                prev = cur


def test_metric_axioms(octa, cube3):
    for space in (octa, cube3):
        for i in range(1, space.top_dim + 1):
            n = space.n_vertices
            d = {(x, y): k_cell_distance(space, x, y, i)
                 for x in range(n) for y in range(n)}
            for x in range(n):
                assert d[x, x] == 0
                for y in range(n):
                    assert d[x, y] == d[y, x]
                    for z in range(n):
                        assert d[x, z] <= d[x, y] + d[y, z]


# -- against networkx on the dual graph ------------------------------------------


LATTICES = {"S(3,3)": gen.lattice_sphere(3, 3)[0],
            "S(4,2)": gen.lattice_sphere(4, 2)[0],
            "S(5,1)": gen.lattice_sphere(5, 1)[0],
            "torus": gen.torus_grid(4, 4),
            "strip": gen.strip_grid(3, 3)}


@functools.lru_cache(maxsize=None)
def dual_graph(space, i):
    """The i-cells, joined when their boundaries share a face."""
    cells = space.cells_of_dim(i)
    dual = nx.Graph()
    dual.add_nodes_from(cells)
    dual.add_edges_from(
        (a, b) for a, b in itertools.combinations(cells, 2)
        if set(space.cells[a].boundary) & set(space.cells[b].boundary))
    return dual


def dual_distances(space, x, i) -> dict:
    """The i-cell distance from x to every other vertex it reaches: one
    more than the shortest dual path from a cell at x to a cell at y."""
    sources = space.cells_containing(x, i)
    if not sources:
        return {}
    lengths = nx.multi_source_dijkstra_path_length(dual_graph(space, i),
                                                   set(sources))
    out = {}
    for cell, d in lengths.items():
        for y in cell[1]:
            out[y] = min(out.get(y, UNREACHABLE), d + 1)
    out.pop(x, None)
    return out


def _check_against_dual(space, x):
    # level 1's dual graph joins edges through shared vertices
    for i in range(1, space.top_dim + 1):
        want = dual_distances(space, x, i)
        for y in range(space.n_vertices):
            if y != x:
                assert k_cell_distance(space, x, y, i) == \
                    want.get(y, UNREACHABLE), (x, y, i)
    graph = nx.Graph(cid[1] for cid in space.cells_of_dim(1))
    graph.add_nodes_from(range(space.n_vertices))
    lengths = nx.single_source_shortest_path_length(graph, x)
    for y in range(space.n_vertices):
        assert graph_distance(space, x, y) == \
            lengths.get(y, UNREACHABLE), (x, y)


@PROPS
@given(st.data())
def test_cell_distance_matches_dual_graph_on_lattices(data):
    space = LATTICES[data.draw(st.sampled_from(sorted(LATTICES)))]
    _check_against_dual(space, data.draw(
        st.integers(0, space.n_vertices - 1)))


@PROPS
@given(glued_polygons(), st.data())
def test_cell_distance_matches_dual_graph_on_drawn_spaces(case, data):
    n, edges, polygons = case
    try:
        space = DiscreteSpace(n, edges, {2: [tuple(p) for p in polygons]})
    except InputError:
        assume(False)
    _check_against_dual(space, data.draw(st.integers(0, n - 1)))


# -- the equality checker ------------------------------------------------------


def test_distance_equality_reports_the_first_failing_pair():
    bowtie = DiscreteSpace(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                               (2, 4)], {2: [(0, 1, 2), (2, 3, 4)]})
    report = verify_distance_equality(bowtie)
    assert report.problems == ["d(0, 3) = 2 but 2-cell distance is inf"]
    strip = gen.strip_grid(3, 3, triangulated=True)
    report = verify_distance_equality(strip)
    assert report.problems == ["d(0, 2) = 2 but 2-cell distance is 3"]


def test_distance_equality_walks_once_per_source_and_level(monkeypatch,
                                                           simplex4):
    walks = []
    real = metrics._levels

    def counted(*args, **kwargs):
        walks.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "_levels", counted)
    assert verify_distance_equality(simplex4)
    assert len(walks) == simplex4.n_vertices * simplex4.top_dim
