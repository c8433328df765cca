"""Property tests of the shared incidence helpers against independent
references: networkx components and distances, the recursive closure,
explicit face counts and the edge list of a walk."""

import ast
import itertools
import pathlib
import re

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import celltopo
from celltopo import generators as gen
from celltopo import io as dio
from celltopo.complexes import (DiscreteSpace, _face_connected, _levels,
                                _spans, closure, edge_key, face_components,
                                face_counts, is_closed, walk)
from celltopo.errors import InputError

from test_construction_oracle import mobius

SPACES = {
    "octahedron": gen.octahedron(),
    "simplex4": gen.simplex_boundary(4),
    "cube3": gen.cube_boundary(3),
    "cube4": gen.cube_boundary(4),
    "torus": gen.torus_grid(4, 4),
    "seven": gen.seven_vertex_torus(),
}

PROPS = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cell_sets(draw):
    """A space, a set of its d-cells and a set of its (d-1)-cells."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    d = draw(st.integers(1, space.top_dim))
    cells = draw(st.sets(st.sampled_from(space.cells_of_dim(d))))
    blocked = draw(st.sets(st.sampled_from(space.cells_of_dim(d - 1))))
    return space, cells, frozenset(blocked)


@PROPS
@given(cell_sets())
def test_face_components_match_networkx(case):
    space, cells, blocked = case
    dual = nx.Graph()
    dual.add_nodes_from(cells)
    for a, b in itertools.combinations(cells, 2):
        shared = set(space.cells[a].boundary) & set(space.cells[b].boundary)
        if shared - blocked:
            dual.add_edge(a, b)
    comps = face_components(space, cells, blocked)
    assert {frozenset(c) for c in comps} == \
        {frozenset(c) for c in nx.connected_components(dual)}
    assert all(c == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    # the yes/no flood (which blocks nothing) agrees; the empty set is
    # not connected
    assert _face_connected(space, cells) == \
        (len(face_components(space, cells)) == 1)
    assert not _face_connected(space, ())


LEVEL_SPACES = {
    "S(3, 4)": gen.lattice_sphere(3, 4)[0],
    "S(4, 2)": gen.lattice_sphere(4, 2)[0],
    "torus": gen.torus_grid(4, 5),
    "strip": gen.strip_grid(3, 4),
    "mobius": mobius(),
}


@st.composite
def level_walks(draw):
    """A space, a dimension d, a few d-cells as sources, a set of d-cells
    as the region or None, and a set of blocked (d-1)-cells."""
    space = LEVEL_SPACES[draw(st.sampled_from(sorted(LEVEL_SPACES)))]
    d = draw(st.integers(1, space.top_dim))
    cells = space.cells_of_dim(d)
    sources = draw(st.lists(st.sampled_from(cells), max_size=3))
    region = draw(st.none() | st.sets(st.sampled_from(cells)))
    blocked = draw(st.sets(st.sampled_from(space.cells_of_dim(d - 1))))
    return space, d, sources, region, frozenset(blocked)


@PROPS
@given(level_walks())
def test_levels_match_networkx_distances(case):
    space, d, sources, region, blocked = case
    levels = list(_levels(space, sources, region, blocked))
    # the face-adjacency graph on the region and the sources, with the
    # blocked faces cut
    nodes = set(space.cells_of_dim(d) if region is None else region)
    nodes.update(sources)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for f in space.cells_of_dim(d - 1):
        if f not in blocked:
            graph.add_edges_from(itertools.combinations(
                [c for c in space.cofaces(f) if c in nodes], 2))
    want = nx.multi_source_dijkstra_path_length(graph, set(sources)) \
        if sources else {}
    got = {c: i for i, level in enumerate(levels) for c in level}
    assert sum(map(len, levels)) == len(got)
    assert got == want
    if sources:
        assert levels[0] == dict.fromkeys(sources)
    for i, level in enumerate(levels[1:], 1):
        before = list(levels[i - 1])
        for cell, (parent, face) in level.items():
            assert got[parent] == i - 1
            assert face not in blocked
            assert face in space.cells[cell].boundary
            assert face in space.cells[parent].boundary
            # the first cell of the level before, and its first face,
            # that reach the cell: the tree of a first-in first-out queue
            reach = [(p, f) for p in before for f in space.cells[p].boundary
                     if f not in blocked and cell in space.cofaces(f)]
            assert (parent, face) == reach[0]

        def found(cell):
            parent, face = level[cell]
            return (before.index(parent),
                    space.cells[parent].boundary.index(face),
                    space.cofaces(face).index(cell))

        assert list(level) == sorted(level, key=found)


SPAN_SPACES = {
    "S(3, 3)": gen.lattice_sphere(3, 3)[0],
    "S(4, 2)": gen.lattice_sphere(4, 2)[0],
    "torus": gen.torus_grid(4, 5),
}


@st.composite
def vertex_edge_sets(draw):
    """A space, a set of its vertices and a set of its edges, drawn near one
    vertex so that connected sets are common: the edges come from the
    closure of the cells at the vertex, the vertices from their ends, and
    now and then one vertex from anywhere."""
    space = SPAN_SPACES[draw(st.sampled_from(sorted(SPAN_SPACES)))]
    v = draw(st.integers(0, space.n_vertices - 1))
    near = sorted(e for _, e in closure(space, space.cells_containing(v), 1))
    edges = draw(st.sets(st.sampled_from(near), max_size=8))
    ends = sorted({u for e in edges for u in e}) or [v]
    verts = set(ends) if draw(st.booleans()) else \
        draw(st.sets(st.sampled_from(ends)))
    if draw(st.booleans()):
        verts.add(draw(st.integers(0, space.n_vertices - 1)))
    return space, frozenset(verts), sorted(edges)


@PROPS
@given(vertex_edge_sets())
def test_spans_matches_networkx(case):
    space, verts, edges = case
    # the graph of the edges on the vertices is one component with no
    # vertex beyond them
    graph = nx.Graph(edges)
    graph.add_nodes_from(verts)
    want = len(graph) > 0 and set(graph) == verts and nx.is_connected(graph)
    assert _spans(space, verts, edges) is want


def _recursive_closure(space, cid):
    out = {cid}
    for b in space.cells[cid].boundary:
        out |= _recursive_closure(space, b)
    return out


@PROPS
@given(cell_sets(), st.integers(0, 3))
def test_closure_matches_recursive_definition(case, dim):
    space, cells, _ = case
    want = set()
    for cid in cells:
        want |= _recursive_closure(space, cid)
    assert closure(space, cells) == want
    assert closure(space, cells, dim) == {c for c in want if c[0] == dim}


@PROPS
@given(cell_sets())
def test_is_closed_matches_explicit_count(case):
    space, cells, _ = case
    faces = {f for cid in cells for f in space.cells[cid].boundary}
    count = {f: sum(f in space.cells[cid].boundary for cid in cells)
             for f in faces}
    assert face_counts(space, cells) == count
    assert is_closed(space, cells) == \
        (bool(cells) and all(n == 2 for n in count.values()))


def test_is_closed_on_spheres_and_cell_boundaries():
    for space in SPACES.values():
        assert is_closed(space, space.cells_of_dim(space.top_dim))
        for cid in space.cells_of_dim(space.top_dim):
            if cid[0] >= 3:
                assert is_closed(space, space.cells[cid].boundary)
    assert not is_closed(SPACES["octahedron"], ())


@st.composite
def simple_walks(draw):
    """A self-avoiding vertex walk of one space's graph, and whether its
    last vertex is adjacent to its first."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    order = [draw(st.integers(0, space.n_vertices - 1))]
    for _ in range(draw(st.integers(1, space.n_vertices - 1))):
        options = [w for w in space.vertex_neighbors(order[-1])
                   if w not in order]
        if not options:
            break
        order.append(draw(st.sampled_from(options)))
    closable = len(order) >= 3 and \
        edge_key(order[0], order[-1]) in space.edges
    return space, order, closable


def _pairs(order, closed):
    pairs = list(zip(order, order[1:]))
    if closed:
        pairs.append((order[-1], order[0]))
    return {edge_key(u, v) for u, v in pairs}


@PROPS
@given(simple_walks())
def test_walk_orders_paths_and_cycles(case):
    space, order, closable = case
    edges = _pairs(order, False)
    got = walk(edges)
    assert len(got) == len(edges) + 1 and _pairs(got, False) == edges
    assert got[0] == min(order[0], order[-1])
    assert walk(edges, start=order[-1])[0] == order[-1]
    if len(order) > 2:
        assert walk(edges, start=order[1]) is None
    if closable:
        ring = _pairs(order, True)
        got = walk(ring)
        assert len(got) == len(ring) and _pairs(got, True) == ring
        assert got[0] == min(order) and got[1] < got[-1]


@PROPS
@given(simple_walks(), st.data())
def test_walk_rejects_branched_and_split_sets(case, data):
    space, order, closable = case
    edges = _pairs(order, closable)
    on = set(order)
    spurs = [edge_key(v, w) for v in order[1:-1]
             for w in space.vertex_neighbors(v) if w not in on]
    apart = [e for e in space.edges if not (set(e) & on)]
    if spurs:
        assert walk(edges | {data.draw(st.sampled_from(spurs))}) is None
    if apart:
        assert walk(edges | {data.draw(st.sampled_from(sorted(apart)))}) \
            is None
    assert walk(set()) is None


def test_walk_orders_cell_loops():
    for space in SPACES.values():
        for cid in space.cells_of_dim(2):
            ring = {b[1] for b in space.cells[cid].boundary}
            got = walk(ring)
            assert len(got) == len(ring) and _pairs(got, True) == ring


# -- construction regressions -------------------------------------------------


def _tetrahedron_faces(vs):
    return [tuple(t) for t in itertools.combinations(vs, 3)]


def test_open_three_cell_boundary_rejected():
    # three of the four triangles of a tetrahedron do not close up
    faces = _tetrahedron_faces(range(4))
    with pytest.raises(InputError, match="not a closed cycle"):
        DiscreteSpace(4, list(itertools.combinations(range(4), 2)),
                      {2: faces, 3: [(0, 1, 2, 3)]},
                      boundaries={(3, (0, 1, 2, 3)):
                                  tuple((2, f) for f in faces[:3])})


def test_split_three_cell_boundary_rejected():
    # two disjoint tetrahedron boundaries are closed but not connected
    faces = _tetrahedron_faces(range(4)) + _tetrahedron_faces(range(4, 8))
    edges = list(itertools.combinations(range(4), 2)) + \
        list(itertools.combinations(range(4, 8), 2))
    with pytest.raises(InputError, match="not a closed cycle"):
        DiscreteSpace(8, edges, {2: faces, 3: [tuple(range(8))]},
                      boundaries={(3, tuple(range(8))):
                                  tuple((2, f) for f in faces)})


def test_split_two_cell_boundary_rejected():
    # a 2-cell bounded by two disjoint triangles has no single loop
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    with pytest.raises(InputError, match="simple closed cycle"):
        DiscreteSpace(6, edges, {2: [tuple(range(6))]})



# -- the incidence index ------------------------------------------------------


# generated spaces, whose boundaries the constructor derives
DERIVED = dict(SPACES, **{
    "simplex5": gen.simplex_boundary(5),
    "torus35": gen.torus_grid(3, 5),
    "strip": gen.strip_grid(3, 4),
    "strip-tri": gen.strip_grid(3, 3, triangulated=True),
})

# the same spaces saved as DSC and loaded back, with explicit boundaries
LOADED = {name: dio.load_complex(dio.save_complex(space))[0]
          for name, space in DERIVED.items()}

INDEXED = dict(DERIVED, **{name + "-dsc": s for name, s in LOADED.items()})


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_index_matches_brute_force_scans(name):
    space = INDEXED[name]
    cells = sorted(space.cells)
    bnd = {c: set(space.cells[c].boundary) for c in cells}
    for d in range(-1, space.top_dim + 2):
        assert space.cells_of_dim(d) == [c for c in cells if c[0] == d]
    for v in range(space.n_vertices):
        assert space.cells_containing(v) == [c for c in cells if v in c[1]]
        for d in range(space.top_dim + 1):
            assert space.cells_containing(v, d) == \
                [c for c in cells if c[0] == d and v in c[1]]
        assert space.vertex_neighbors(v) == tuple(sorted(
            w for e in space.edges if v in e for w in e if w != v))
    for c in cells:
        assert space.cofaces(c) == [x for x in cells if c in bnd[x]]
        assert space.cell_neighbors(c) == tuple(
            x for x in cells if x[0] == c[0] and x != c and bnd[x] & bnd[c])


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_boundaries_survive_round_trip(name):
    space, loaded = DERIVED[name], LOADED[name]
    assert set(loaded.cells) == set(space.cells)
    for cid, cell in space.cells.items():
        assert loaded.cells[cid].boundary == cell.boundary
        assert loaded.cells[cid].loop == cell.loop


# -- cell numbers ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_numbers_follow_id_order(name):
    space = INDEXED[name]
    assert list(space._ids) == sorted(space.cells)
    assert space._num == {cid: i for i, cid in enumerate(space._ids)}
    for i, cid in enumerate(space._ids):
        assert [space._ids[b] for b in space._bnd[i]] == \
            list(space.cells[cid].boundary)
        assert [space._ids[c] for c in space._cof[i]] == space.cofaces(cid)


SHUFFLED = {
    "S(3, 3)": gen.lattice_sphere(3, 3)[0],
    "S(4, 2)": gen.lattice_sphere(4, 2)[0],
    "torus45": gen.torus_grid(4, 5),
}


@st.composite
def shuffled_rows(draw):
    """A space and the arguments that build it again, with its edge and
    cell rows, each cell's vertices and, when given, each boundary in a
    drawn order."""
    space = SHUFFLED[draw(st.sampled_from(sorted(SHUFFLED)))]
    edges = draw(st.permutations(sorted(space.edges)))
    cells, boundaries = {}, {}
    for d in range(2, space.top_dim + 1):
        rows = draw(st.permutations(space.cells_of_dim(d)))
        cells[d] = [tuple(draw(st.permutations(cid[1]))) for cid in rows]
        for cid in rows:
            boundaries[cid] = tuple(draw(st.permutations(
                space.cells[cid].boundary)))
    if not draw(st.booleans()):
        boundaries = None
    return space, (space.n_vertices, edges, cells, boundaries,
                   space.oriented)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shuffled_rows())
def test_index_does_not_depend_on_row_order(case):
    space, args = case
    built = DiscreteSpace(*args)
    assert built._ids == space._ids
    assert built._bnd == space._bnd
    assert built._cof == space._cof
    assert built.cells == space.cells
    for cid in space.cells:
        assert built.cofaces(cid) == space.cofaces(cid)
    for v in range(space.n_vertices):
        assert built.cells_containing(v) == space.cells_containing(v)


@pytest.mark.parametrize("order", [1, -1])
def test_first_bad_cell_in_input_order_is_reported(order):
    # both 2-cells are bad, and the first given is reported whether or not
    # it comes first in id order
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5)]
    errors = {(0, 1, 2): "(2, (0, 1, 2)): boundary edges do not form a "
                         "simple closed cycle",
              (3, 4, 5, 6): "(2, (3, 4, 5, 6)): chord (3, 5) makes the "
                            "boundary cycle non-minimal"}
    square = {(2, (3, 4, 5, 6)): ((1, (3, 4)), (1, (3, 6)), (1, (4, 5)),
                                  (1, (5, 6)))}
    rows = [(3, 4, 5, 6), (0, 1, 2)][::order]
    with pytest.raises(InputError) as info:
        DiscreteSpace(7, edges, {2: rows}, square)
    assert str(info.value) == errors[rows[0]]


@pytest.mark.parametrize("query,message", [
    (lambda s: s.cells_containing(999), "unknown vertex id 999"),
    (lambda s: s.cells_containing(-1, 2), "unknown vertex id -1"),
    (lambda s: s.vertex_neighbors(999), "unknown vertex id 999"),
    (lambda s: s.cofaces((2, (0, 1, 999))), "unknown cell (2, (0, 1, 999))"),
    (lambda s: s.cell_neighbors((2, (0, 1, 999))),
     "unknown cell (2, (0, 1, 999))"),
], ids=["cells_containing", "cells_containing-dim", "vertex_neighbors",
        "cofaces", "cell_neighbors"])
def test_unknown_ids_raise_input_error(query, message):
    space = SPACES["octahedron"]
    with pytest.raises(InputError, match=re.escape(message)):
        query(space)
    # a top cell has no cofaces
    assert space.cofaces(space.cells_of_dim(2)[0]) == []


NUMBERING = {"_ids", "_num", "_bnd", "_cof", "_numbers"}
PACKAGE = pathlib.Path(celltopo.__file__).parent


@pytest.mark.parametrize("path", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "complexes.py"))
def test_only_complexes_reads_the_cell_numbers(path):
    """The numbering is private to ``complexes``: every other module reads
    incidence through ids (``cofaces``, ``cells_containing``, the shared
    walks and ``_touching``)."""
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    named = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)} | \
        {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | \
        {alias.name for node in ast.walk(tree)
         if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not named & NUMBERING
