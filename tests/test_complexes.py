import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from celltopo import generators as gen
from celltopo.complexes import (CellChain, DiscreteSpace, check_regular,
                                edge_key, is_closed_manifold,
                                is_discrete_curve, is_minimal_cycle, link,
                                orientation_of_cycle, partial_graph, star)
from celltopo.errors import InputError, PreconditionError


def triangle_pair():
    # two triangles sharing the edge (0, 2), plus the chord complex used
    # in the minimal-cycle tests
    return DiscreteSpace(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                         {2: [(0, 1, 2), (0, 2, 3)]})


# -- construction guards -----------------------------------------------------


def test_duplicate_cells_rejected():
    with pytest.raises(InputError):
        DiscreteSpace(3, [(0, 1), (1, 2), (0, 2)],
                      {2: [(0, 1, 2), (2, 1, 0)]})


def test_chorded_boundary_rejected():
    # quad 0-1-2-3 with the chord (0, 2) present: its boundary cycle is
    # not minimal, so the cell may not be registered
    with pytest.raises(InputError):
        DiscreteSpace(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
                      {2: [(0, 1, 2, 3)]})


def test_well_attachment_enforced():
    # two quads meeting in two non-adjacent vertices
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 2), (2, 5), (5, 0)]
    with pytest.raises(InputError):
        DiscreteSpace(6, edges, {2: [(0, 1, 2, 3), (0, 4, 2, 5)]})
    # (0,1,2,3) meets (1,3,4,5) in {1, 3} and (0,2,6,7) in {0, 2}; the
    # error names the first of the two bad pairs in all-pairs order
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (3, 4), (3, 5), (1, 5),
             (0, 6), (2, 6), (2, 7), (0, 7)]
    first = re.escape("cells (2, (0, 1, 2, 3)) and (2, (0, 2, 6, 7)) are "
                      "not well-attached")
    with pytest.raises(InputError, match=first):
        DiscreteSpace(8, edges, {2: [(1, 3, 4, 5), (0, 1, 2, 3),
                                     (0, 2, 6, 7)]})


def test_generated_counts(octa, simplex3, simplex4, cube3, cube4):
    assert (simplex3.n_vertices, len(simplex3.edges),
            len(simplex3.cells_of_dim(2))) == (4, 6, 4)
    assert (simplex4.n_vertices, len(simplex4.edges),
            len(simplex4.cells_of_dim(2)),
            len(simplex4.cells_of_dim(3))) == (5, 10, 10, 5)
    assert (cube3.n_vertices, len(cube3.edges),
            len(cube3.cells_of_dim(2))) == (8, 12, 6)
    assert (cube4.n_vertices, len(cube4.edges), len(cube4.cells_of_dim(2)),
            len(cube4.cells_of_dim(3))) == (16, 32, 24, 8)
    assert (octa.n_vertices, len(octa.edges),
            len(octa.cells_of_dim(2))) == (6, 12, 8)


# -- partial graph ------------------------------------------------------------


def test_chain_keeps_its_edge_set(octa):
    # built on the first call and returned after; it takes no part in
    # equality, hashing or repr, and no caller passes it in
    a = CellChain.path(octa, (1, 2, 3, 4), closed=True)
    b = CellChain.path(octa, (1, 2, 3, 4), closed=True)
    edges = a.edge_set()
    assert edges == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert a.edge_set() is edges
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    with pytest.raises(TypeError):
        CellChain(1, a.cells, True, a.verts, edges)
    faces = CellChain.of_cells(octa, 2, octa.cells_of_dim(2)[:2])
    for _ in range(2):
        with pytest.raises(InputError):
            faces.edge_set()


def test_longest_loop_is_recorded(octa, simplex4, cube3, torus44):
    # the most vertices of a 2-cell loop, whatever the top dimension; a
    # square pyramid mixes both sizes, its square registered last, and a
    # bare graph has none
    pyramid = DiscreteSpace(5, [(1, 2), (2, 3), (3, 4), (1, 4), (0, 1),
                                (0, 2), (0, 3), (0, 4)],
                            {2: [(1, 2, 3, 4), (0, 1, 2), (0, 2, 3),
                                 (0, 3, 4), (0, 1, 4)]})
    for space in (octa, simplex4, cube3, torus44, pyramid,
                  gen.lattice_sphere(4, 2)[0]):
        assert space.longest_loop == max(len(cid[1]) for cid in
                                         space.cells_of_dim(2))
    assert pyramid.longest_loop == 4
    assert DiscreteSpace(3, [(0, 1), (1, 2)], {}).longest_loop == 0


def test_partial_graph_triangle():
    space = DiscreteSpace(3, [(0, 1), (1, 2), (0, 2)], {2: [(0, 1, 2)]})
    assert partial_graph(space, {0, 1}) == frozenset([(0, 1)])
    assert partial_graph(space, set()) == frozenset()
    with pytest.raises(InputError):
        partial_graph(space, {7})


def test_partial_graph_equator(octa):
    assert partial_graph(octa, {1, 2, 3, 4}) == frozenset(
        [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_partial_graph_monotone(octa):
    rng = random.Random(7)
    verts = list(range(octa.n_vertices))
    for _ in range(50):
        small = set(rng.sample(verts, rng.randint(0, 4)))
        big = small | set(rng.sample(verts, rng.randint(0, 4)))
        assert partial_graph(octa, small) <= partial_graph(octa, big)


# -- minimal cycles ------------------------------------------------------------


def brute_minimal_cycle(space, chain):
    """Oracle: a proper vertex subset of the cycle induces no cycle."""
    verts = list(chain.verts)
    for r in range(1, len(verts)):
        for sub in itertools.combinations(verts, r):
            edges = partial_graph(space, sub)
            # a graph has a cycle iff some component has #edges >= #verts
            adj = {}
            for u, v in edges:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            seen = set()
            for v0 in adj:
                if v0 in seen:
                    continue
                comp = {v0}
                stack = [v0]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                seen |= comp
                ne = sum(len(adj[v] & comp) for v in comp) // 2
                if ne >= len(comp):
                    return False
    return True


def test_minimal_cycle_triangle(simplex3):
    tri = CellChain.path(simplex3, [0, 1, 2], closed=True)
    assert is_minimal_cycle(simplex3, tri)
    assert brute_minimal_cycle(simplex3, tri)


def test_minimal_cycle_chord():
    space = triangle_pair()
    square = CellChain.path(space, [0, 1, 2, 3], closed=True)
    assert not is_minimal_cycle(space, square)
    assert not brute_minimal_cycle(space, square)


def test_minimal_cycle_equator(octa):
    eq = gen.equator(octa, "octahedron")
    assert is_minimal_cycle(octa, eq)
    assert brute_minimal_cycle(octa, eq)


def test_minimal_cycle_rejects_open(octa):
    with pytest.raises(InputError):
        is_minimal_cycle(octa, CellChain.path(octa, [1, 2, 3]))


def test_cell_boundaries_are_minimal(octa, simplex4, cube3):
    for space in (octa, simplex4, cube3):
        for cid in space.cells_of_dim(2):
            loop = space.cells[cid].loop
            assert is_minimal_cycle(space,
                                    CellChain.path(space, loop, closed=True))


# -- star and link -------------------------------------------------------------


def incidence_scan_star(space, xs):
    """Oracle: direct scan for touched cells, then boundary closure."""
    touched = {c for c in space.cells if set(c[1]) & set(xs)}
    grew = True
    while grew:
        grew = False
        for c in list(touched):
            for b in space.cells[c].boundary:
                if b not in touched:
                    touched.add(b)
                    grew = True
    return touched


def test_star_octahedron_pole(octa):
    st = star(octa, {0})
    cells = set(st.cells())
    assert cells == incidence_scan_star(octa, {0})
    assert len(st.by_dim[2]) == 4
    assert len(st.by_dim[1]) == 8
    assert len(st.by_dim[0]) == 5


def test_star_isolated_vertex():
    space = DiscreteSpace(4, [(0, 1), (1, 2), (0, 2)], {2: [(0, 1, 2)]})
    st = star(space, {3})
    assert list(st.cells()) == [(0, (3,))]


def test_star_everything(octa):
    st = star(octa, set(range(6)))
    assert set(st.cells()) == set(octa.cells)


def test_link_octahedron_pole(octa):
    lk = link(octa, {0})
    assert lk.vertices() == frozenset({1, 2, 3, 4})
    assert lk.edges() == frozenset([(1, 2), (2, 3), (3, 4), (1, 4)])


def test_link_path_graph():
    space = DiscreteSpace(3, [(0, 1), (1, 2)], {})
    lk = link(space, {1})
    assert set(lk.cells()) == {(0, (0,)), (0, (2,))}


def test_link_simplex4_vertex(simplex4):
    # the link of any vertex is the boundary sphere of a tetrahedron
    lk = link(simplex4, {4})
    assert len(lk.by_dim[2]) == 4
    assert len(lk.by_dim[1]) == 6
    assert len(lk.by_dim[0]) == 4
    count = {}
    for cid in lk.by_dim[2]:
        for b in simplex4.cells[cid].boundary:
            count[b] = count.get(b, 0) + 1
    assert all(v == 2 for v in count.values())


def test_link_inside_star(octa, simplex4):
    for space in (octa, simplex4):
        for v in range(space.n_vertices):
            st = set(star(space, {v}).cells())
            for cid in link(space, {v}).cells():
                assert cid in st
                assert v not in cid[1]


def test_closed_manifold_links_are_cycles(octa, cube3, torus44):
    from celltopo.complexes import edge_set_shape
    for space in (octa, cube3, torus44):
        for v in range(space.n_vertices):
            lk = link(space, {v})
            assert edge_set_shape(lk.edges()) == "cycle"


# -- regularity ----------------------------------------------------------------


def test_check_regular_pass(simplex3):
    assert check_regular(simplex3)


def test_check_regular_vertex_glued():
    space = DiscreteSpace(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                          {2: [(0, 1, 2), (0, 3, 4)]})
    report = check_regular(space)
    assert not report
    assert any("clause 1" in p for p in report.problems)


def _glued_at_vertex(k: int, tail: tuple):
    """Two boundaries of the k-simplex sharing only vertex 0, plus the
    dangling edge ``tail``."""
    n = k + 2
    tops = [c for vs in (range(n), [0, *range(n, 2 * n - 1)])
            for c in itertools.combinations(vs, k + 1)]
    cells = {k: tops}
    for d in range(k - 1, 1, -1):
        cells[d] = sorted({f for c in cells[d + 1]
                           for f in itertools.combinations(c, d + 1)})
    edges = sorted({e for c in tops for e in itertools.combinations(c, 2)}
                   | {tail})
    return DiscreteSpace(2 * n, edges, cells)


@pytest.mark.parametrize("k,tail,problems", [
    (2, (6, 7), ["clause 2: 1-cell (1, (6, 7)) lies in 0 2-cells",
                 "clause 1: 2-cells are not (k-1)-connected (4 of 8 "
                 "reachable)",
                 "clause 4: link of vertex 0 is disconnected",
                 "clause 4: link of vertex 7 has no 1-cells"]),
    (3, (1, 9), ["clause 1: 3-cells are not (k-1)-connected (5 of 10 "
                 "reachable)",
                 "clause 4: link of vertex 0 is disconnected",
                 "clause 4: link of vertex 9 has no 2-cells"]),
])
def test_check_regular_clause_4(k, tail, problems):
    # the glued vertex has a link in two pieces; the tail's far end lies in
    # no top cell, so its link has no cells at all
    assert check_regular(_glued_at_vertex(k, tail)).problems == problems


def test_check_regular_fat_edge():
    space = DiscreteSpace(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
                              (1, 3), (1, 4)],
                          {2: [(0, 1, 2), (0, 1, 3), (0, 1, 4)]})
    report = check_regular(space)
    assert any("clause 2" in p for p in report.problems)


REGULAR_BASES = {"S(3, 3)": gen.lattice_sphere(3, 3)[0],
                 "S(4, 2)": gen.lattice_sphere(4, 2)[0],
                 "simplex4": gen.simplex_boundary(4)}


def _thinned(base: str, glue, drop) -> DiscreteSpace:
    """``base`` without its ``drop``-indexed top cells; with ``glue =
    (x, y)``, first joined to a copy of itself whose vertex y is vertex x."""
    space = REGULAR_BASES[base]
    n, k = space.n_vertices, space.top_dim
    edges = sorted(space.edges)
    cells = {d: [c[1] for c in space.cells_of_dim(d)] for d in range(2, k + 1)}
    if glue is not None:
        x, y = glue
        to = [x if v == y else n + v - (v > y) for v in range(n)]
        edges += [(to[u], to[v]) for u, v in edges]
        for cs in cells.values():
            cs += [tuple(to[v] for v in c) for c in cs]
        n = 2 * n - 1
    cells[k] = [c for i, c in enumerate(cells[k]) if i not in drop]
    return DiscreteSpace(n, edges, cells)


@st.composite
def thinnings(draw):
    base = draw(st.sampled_from(sorted(REGULAR_BASES)))
    space = REGULAR_BASES[base]
    vertex = st.integers(0, space.n_vertices - 1)
    glue = draw(st.none() | st.tuples(vertex, vertex))
    tops = len(space.cells_of_dim(space.top_dim)) * (1 if glue is None else 2)
    return base, glue, draw(st.frozensets(st.integers(0, tops - 1)))


def _face_graph(space, cells) -> nx.Graph:
    """``cells`` joined when their stored boundaries share a face."""
    graph = nx.Graph()
    graph.add_nodes_from(cells)
    holders: dict = {}
    for c in cells:
        for f in space.cells[c].boundary:
            holders.setdefault(f, []).append(c)
    for cs in holders.values():
        graph.add_edges_from(itertools.combinations(cs, 2))
    return graph


def _reference_regular(space) -> list:
    """``check_regular``'s problem list from networkx components of the
    cells' stored boundaries, without the incidence index."""
    k = space.top_dim
    top = sorted(c for c in space.cells if c[0] == k)
    problems = []
    holders = {f: 0 for f in space.cells if f[0] == k - 1}
    for c in top:
        for f in space.cells[c].boundary:
            holders[f] += 1
    problems += ["clause 2: %d-cell %r lies in %d %d-cells" % (k - 1, f, n, k)
                 for f, n in sorted(holders.items()) if n not in (1, 2)]
    if not top:
        problems.append("clause 1: the space has no %d-cells" % k)
    else:
        reached = len(nx.node_connected_component(_face_graph(space, top),
                                                  top[0]))
        if reached != len(top):
            problems.append("clause 1: %d-cells are not (k-1)-connected "
                            "(%d of %d reachable)" % (k, reached, len(top)))
    if k == 1:
        return problems
    for v in range(space.n_vertices):
        lk = {f for c in top if v in c[1] for f in space.cells[c].boundary
              if v not in f[1]}
        if not lk:
            if any(v in e for e in space.edges):
                problems.append("clause 4: link of vertex %d has no %d-cells"
                                % (v, k - 1))
        elif not nx.is_connected(_face_graph(space, lk)):
            problems.append("clause 4: link of vertex %d is disconnected" % v)
    return problems


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(thinnings())
def test_check_regular_matches_networkx(case):
    space = _thinned(*case)
    report = check_regular(space)
    want = _reference_regular(space)
    assert report.problems == want
    assert report.ok == (not want)


@pytest.mark.parametrize("case,path", [
    # the copies meet in one vertex: half the top cells are reached, and
    # that vertex's link has two pieces
    (("S(4, 2)", (0, 5), ()), "(64 of 128 reachable)"),
    (("S(3, 3)", (26, 0), ()), "link of vertex 26 is disconnected"),
    # every tetrahedron at vertex 0 is gone, its edges stay
    (("simplex4", None, {0, 1, 2, 3}), "link of vertex 0 has no 2-cells"),
])
def test_check_regular_failure_paths_match_networkx(case, path):
    space = _thinned(*case)
    want = _reference_regular(space)
    assert any(path in p for p in want)
    assert check_regular(space).problems == want


def test_is_closed_manifold(octa, simplex4):
    assert is_closed_manifold(octa)
    assert is_closed_manifold(simplex4)


def test_open_manifold_not_closed(octa):
    faces = [c[1] for c in octa.cells_of_dim(2)][:-1]
    opened = DiscreteSpace(6, sorted(octa.edges), {2: faces})
    assert check_regular(opened)
    assert not is_closed_manifold(opened)


def test_is_closed_needs_regular():
    space = DiscreteSpace(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                          {2: [(0, 1, 2), (0, 3, 4)]})
    with pytest.raises(PreconditionError):
        is_closed_manifold(space)


# -- discrete curves -----------------------------------------------------------


def test_discrete_curve(octa):
    assert is_discrete_curve(octa, CellChain.path(octa, [1, 2, 3]))
    assert not is_discrete_curve(octa, CellChain.path(octa, [1, 0, 2]))
    assert is_discrete_curve(octa, gen.equator(octa, "octahedron"))


# -- orientation ---------------------------------------------------------------


def test_orientation_of_cycle(octa):
    ref = CellChain.path(octa, [1, 2, 3, 4], closed=True)
    assert orientation_of_cycle(octa, ref, (1, 2)) == "cw"
    assert orientation_of_cycle(octa, ref, (2, 1)) == "ccw"
    assert orientation_of_cycle(octa, ref, (2, 3, 4)) == "cw"
    with pytest.raises(InputError):
        orientation_of_cycle(octa, ref, (1, 3))


def test_orientation_reversal_flips(octa):
    ref = CellChain.path(octa, [1, 2, 3, 4], closed=True)
    ring = [1, 2, 3, 4]
    for i in range(4):
        for length in (1, 2, 3):
            arc = [ring[(i + j) % 4] for j in range(length + 1)]
            fwd = orientation_of_cycle(octa, ref, arc)
            bwd = orientation_of_cycle(octa, ref, list(reversed(arc)))
            assert fwd != bwd


def test_two_cell_orientations_consistent(octa, cube3, torus44):
    # adjacent 2-cells traverse a shared edge in opposite directions
    for space in (octa, cube3, torus44):
        assert space.oriented
        by_edge = {}
        for cid in space.cells_of_dim(2):
            loop = space.cells[cid].loop
            n = len(loop)
            for i in range(n):
                u, v = loop[i], loop[(i + 1) % n]
                by_edge.setdefault(edge_key(u, v), []).append((u, v))
        for e, dirs in by_edge.items():
            assert len(dirs) == 2
            assert dirs[0] == (dirs[1][1], dirs[1][0])
