"""The flatness check against a reference of its rule, and its work bound.

The reference below is the rule written out the slow way: the i-cell
distance of every vertex pair on every level from ``k_cell_distance``,
the mediators of a length-2 path from a scan of all i-cell pairs, and a
fresh link per mediator per pair, tested for one connected piece with
``networkx``.  The checker must return the same verdict and the same
problems, in the same order, on drawn vertex sets, edge subsets and
simple walks.  Focal points are compared with a reference built from
``link`` the same way.
"""

import itertools
import sys

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from celltopo import complexes, metrics
from celltopo import generators as gen
from celltopo.complexes import (CellChain, _ball, _star, closure, edge_key,
                                link, partial_graph)
from celltopo.flatness import (find_focal_points, is_locally_flat,
                               subset_flatness)
from celltopo.metrics import k_cell_distance

SPACES = {
    "octahedron": gen.octahedron(),
    "simplex4": gen.simplex_boundary(4),
    "simplex5": gen.simplex_boundary(5),
    "cube3": gen.cube_boundary(3),
    "cube4": gen.cube_boundary(4),
    "torus": gen.torus_grid(4, 4),
    "seven": gen.seven_vertex_torus(),
    "strip": gen.strip_grid(3, 3),
    "strip-tri": gen.strip_grid(3, 3, triangulated=True),
    "lattice3": gen.lattice_sphere(3, 3)[0],
    "lattice42": gen.lattice_sphere(4, 2)[0],
}

PROPS = settings(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _mediators(space, p, q, i):
    """Vertices of a shared (i-1)-cell of two i-cells, one holding p and
    the other q; at level 1, the common neighbours of p and q."""
    if i == 1:
        return set(space.vertex_neighbors(p)) & set(space.vertex_neighbors(q))
    meds = set()
    for a, b in itertools.permutations(space.cells_of_dim(i), 2):
        if p in a[1] and q in b[1]:
            shared = set(space.cells[a].boundary) & \
                set(space.cells[b].boundary)
            meds.update(v for f in shared for v in f[1])
    return meds


def _is_focal(space, m, verts, edges, p, q):
    """link(m) meets the chain in one connected piece with an edge, holding
    p and q.  The edges are induced by ``verts``, so every edge end is a
    chain vertex and one piece means one networkx component."""
    lk = link(space, {m})
    piece = nx.Graph(e for e in lk.edges() if e in edges)
    piece.add_nodes_from(v for v in lk.vertices() if v in verts)
    return (piece.number_of_edges() > 0 and p in piece and q in piece
            and nx.is_connected(piece))


def reference_flatness(space, verts, edges, levels):
    problems = []
    for p, q in itertools.combinations(sorted(verts), 2):
        if edge_key(p, q) in edges:
            continue
        dists = {i: k_cell_distance(space, p, q, i) for i in levels}
        near = {i: d for i, d in dists.items() if d < 3}
        if not near:
            continue
        twos = sorted(i for i, d in near.items() if d == 2)
        if not twos:
            bad = min(near, key=lambda i: (near[i], i))
            problems.append("pair (%d, %d): %d-cell distance %s without "
                            "adjacency in the chain" % (p, q, bad, near[bad]))
            continue
        for i, m in ((i, m) for i in twos
                     for m in sorted(_mediators(space, p, q, i))):
            if m not in verts and not _is_focal(space, m, verts, edges, p, q):
                problems.append("pair (%d, %d): mediator %d at level %d is "
                                "not a focal point" % (p, q, m, i))
                break
    return problems


@st.composite
def vertex_sets(draw):
    """A space, a vertex set, a subset of the edges it induces and a
    non-empty set of levels."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    verts = draw(st.sets(st.integers(0, space.n_vertices - 1), max_size=12))
    induced = sorted(partial_graph(space, verts))
    edges = draw(st.sets(st.sampled_from(induced))) if induced else set()
    levels = draw(st.sets(st.integers(1, space.top_dim), min_size=1))
    return space, frozenset(verts), frozenset(edges), tuple(sorted(levels))


@st.composite
def simple_walks(draw):
    """A space and a curve along a drawn walk that never repeats a vertex,
    closed when its ends are adjacent and it has three vertices or more."""
    space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    path = [draw(st.integers(0, space.n_vertices - 1))]
    for _ in range(draw(st.integers(0, 10))):
        fresh = [w for w in space.vertex_neighbors(path[-1]) if w not in path]
        if not fresh:
            break
        path.append(draw(st.sampled_from(fresh)))
    closed = (len(path) >= 3 and path[0] in space.vertex_neighbors(path[-1])
              and draw(st.booleans()))
    return space, CellChain.path(space, path, closed=closed)


@PROPS
@given(vertex_sets())
def test_subset_flatness_matches_reference(case):
    space, verts, edges, levels = case
    report = subset_flatness(space, verts, edges, levels)
    want = reference_flatness(space, verts, edges, levels)
    assert report.problems == want
    assert report.ok is (not want)


@PROPS
@given(simple_walks())
def test_curve_flatness_matches_reference(case):
    space, curve = case
    steps = list(zip(curve.verts, curve.verts[1:]))
    if curve.closed:
        steps.append((curve.verts[-1], curve.verts[0]))
    edges = frozenset(edge_key(a, b) for a, b in steps)
    report = is_locally_flat(space, curve)
    want = reference_flatness(space, frozenset(curve.verts), edges,
                              range(1, space.top_dim + 1))
    assert report.problems == want
    assert report.ok is (not want)


@pytest.mark.parametrize("name,family", [
    ("octahedron", "octahedron"), ("simplex4", "simplex-boundary"),
    ("simplex5", "simplex-boundary"), ("cube3", "cube-boundary")])
def test_equator_flatness_matches_reference(name, family):
    space = SPACES[name]
    chain = gen.equator(space, family)
    edges = frozenset(e for _, e in closure(space, chain.cells, 1))
    report = is_locally_flat(space, chain)
    want = reference_flatness(space, chain.vertex_set(), edges,
                              range(1, space.top_dim + 1))
    assert report.problems == want


def _lattice_cube(corner, fixed):
    """The unit cube of ``lattice_sphere(4, 3)`` at ``corner``, spanning
    every axis but ``fixed``, where the corner lies on the boundary."""
    points = [p for p in itertools.product(range(4), repeat=4)
              if 0 in p or 3 in p]
    corners = {tuple(x + b for x, b in zip(corner, bits))
               for bits in itertools.product((0, 1), repeat=4)
               if bits[fixed] == 0}
    return (3, tuple(sorted(points.index(c) for c in corners)))


@pytest.mark.parametrize("corners,flat", [
    # the boundary of one cube: flat
    (((0, 0, 0, 0),), True),
    # two cubes facing each other across a third: edges of that cube join
    # chain vertices that the chain does not join
    (((0, 0, 0, 0), (2, 0, 0, 0)), False),
], ids=["one-cube", "two-cubes-one-apart"])
def test_cube_boundaries_match_reference(corners, flat):
    space = gen.lattice_sphere(4, 3)[0]
    cubes = [_lattice_cube(c, 1) for c in corners]
    assert cubes[0] == (3, (0, 1, 4, 5, 64, 65, 68, 69))
    squares = [f for cube in cubes for f in space.cells[cube].boundary]
    chain = CellChain.of_cells(space, 2, squares, closed=True)
    edges = frozenset(e for _, e in closure(space, chain.cells, 1))
    report = is_locally_flat(space, chain)
    want = reference_flatness(space, chain.vertex_set(), edges, (1, 2, 3))
    assert report.problems == want
    assert report.ok is flat


@PROPS
@given(st.data())
def test_ball_matches_distances(data):
    space = SPACES[data.draw(st.sampled_from(sorted(SPACES)))]
    p = data.draw(st.integers(0, space.n_vertices - 1))
    keep = data.draw(st.one_of(
        st.just(frozenset(range(space.n_vertices))),
        st.frozensets(st.integers(0, space.n_vertices - 1))))
    star = _star(space, p)
    above = [v for v in range(space.n_vertices) if v > p and v in keep]
    for i in range(1, space.top_dim + 1):
        dists = {v: k_cell_distance(space, p, v, i) for v in above}
        ball, meds = _ball(space, star, p, i, keep)
        assert ball == {v: d for v, d in dists.items() if d <= 2}
        assert meds == {q: _mediators(space, p, q, i)
                        for q, d in dists.items() if d == 2}
    graph = nx.Graph(cid[1] for cid in space.cells_of_dim(1))
    graph.add_nodes_from(range(space.n_vertices))
    lengths = nx.single_source_shortest_path_length(graph, p, cutoff=2)
    assert _ball(space, star, p, 1, keep)[0] == {
        v: d for v, d in lengths.items() if v in above}


@PROPS
@given(st.data())
def test_star_matches_cells_containing(data):
    space = SPACES[data.draw(st.sampled_from(sorted(SPACES)))]
    p = data.draw(st.integers(0, space.n_vertices - 1))
    star = _star(space, p)
    assert len(star) == space.top_dim + 1
    for d, cells in enumerate(star):
        assert sorted(space._ids[c] for c in cells) == \
            space.cells_containing(p, d)


def _count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call to ``module.name``, through every
    celltopo module that holds the function."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "celltopo" and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_flatness_work_bound(monkeypatch):
    # no pair distance is computed, no link is built, and no mediator's
    # link is read twice
    space, equator = gen.lattice_sphere(3, 4)
    distances = _count_calls(monkeypatch, metrics, "k_cell_distance")
    links = _count_calls(monkeypatch, complexes, "link")
    reads = _count_calls(monkeypatch, complexes, "_chain_in_link")
    assert is_locally_flat(space, equator)
    assert distances == []
    assert links == []
    mediators = [m for _, m, _, _, _ in reads]
    assert mediators
    assert len(mediators) == len(set(mediators))


@PROPS
@given(simple_walks())
def test_focal_points_match_link_reference(case):
    space, curve = case
    verts = curve.vertex_set()
    edges = curve.edge_set()
    want = []
    for a in range(space.n_vertices):
        if a in verts:
            continue
        lk = link(space, {a})
        ies = [e for e in lk.edges() if e in edges]
        piece = nx.Graph(ies)
        piece.add_nodes_from(v for v in lk.vertices() if v in verts)
        # one piece of two or more edges that branches nowhere: an arc, or
        # the whole curve when the link holds all of a closed one
        if (len(ies) >= 2 and nx.is_connected(piece)
                and max(d for _, d in piece.degree()) <= 2):
            want.append((a, complexes.walk(ies)))
    assert find_focal_points(space, curve) == want
