"""The constructor's well-attachment check and 2-cell orientation against
references written the slow way, and which pairs the check searches.

Well-attachment: every pair of same-dimension cells, in ascending order,
is tested for a shared vertex set that induces a disconnected subgraph of
G (``networkx``); the first such pair names the error.  Orientation: the
breadth-first pass that compares the directions of two loops on a shared
edge by position, run from the loops that ``walk`` gives each boundary.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from celltopo import complexes
from celltopo import generators as gen
from celltopo.complexes import DiscreteSpace, edge_key, walk
from celltopo.errors import InputError

from test_flatness_oracle import PROPS, _count_calls


def reference_well_attachment(n, edges, cells_by_dim):
    """The error of the first pair of same-dimension cells whose shared
    vertices induce a disconnected subgraph, or None."""
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n))
    for d in sorted(cells_by_dim):
        cells = sorted({tuple(sorted(set(c))) for c in cells_by_dim[d]})
        for a, b in itertools.combinations(cells, 2):
            inter = set(a) & set(b)
            if len(inter) > 1 and not nx.is_connected(graph.subgraph(inter)):
                return ("cells %r and %r are not well-attached: their "
                        "intersection %r induces a disconnected subgraph"
                        % ((d, a), (d, b), tuple(sorted(inter))))
    return None


def reference_orientation(space):
    """``(oriented, loops)`` of the 2-cells by the breadth-first pass:
    from each smallest unvisited cell, flip a neighbour unless it walks
    the shared edge against the current cell as flipped.  A conflict
    leaves every loop as its boundary walks."""
    loops = {cid: walk(b[1] for b in space.cells[cid].boundary)
             for cid in space.cells_of_dim(2)}
    if any(len(space.cofaces(e)) > 2 for e in space.cells_of_dim(1)):
        return False, loops

    def direction(loop, e):
        u, v = e
        i = loop.index(u)
        return 1 if loop[(i + 1) % len(loop)] == v else -1

    flipped: dict = {}
    for root in sorted(loops):
        if root in flipped:
            continue
        flipped[root] = False
        queue = [root]
        while queue:
            cur = queue.pop(0)
            cur_loop = loops[cur][::-1] if flipped[cur] else loops[cur]
            for b in space.cells[cur].boundary:
                for other in space.cofaces(b):
                    if other == cur:
                        continue
                    need_flip = direction(loops[other], b[1]) != \
                        -direction(cur_loop, b[1])
                    if other not in flipped:
                        flipped[other] = need_flip
                        queue.append(other)
                    elif flipped[other] != need_flip:
                        return False, loops
    return True, {cid: loop[::-1] if flipped[cid] else loop
                  for cid, loop in loops.items()}


def mobius(m: int = 5) -> DiscreteSpace:
    """A strip of m squares with rungs (i, m + i), the last square glued
    to the first with a half twist."""
    quads = [(i, i + 1, m + i + 1, m + i) for i in range(m - 1)]
    quads.append((m - 1, m, 0, 2 * m - 1))
    edges = {edge_key(q[i], q[(i + 1) % 4]) for q in quads for i in range(4)}
    return DiscreteSpace(2 * m, sorted(edges), {2: quads})


def klein(m: int = 4, n: int = 5) -> DiscreteSpace:
    """An m x n grid of squares, its columns glued into rings and its last
    column glued to the first with the ring reversed: a closed surface
    with no orientation.  Every edge lies in two squares, so the conflict
    lies on an edge off the breadth-first tree."""
    def vid(i, j):
        if i == m:
            i, j = 0, -j
        return i * n + j % n

    quads = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
             for i in range(m) for j in range(n)]
    edges = {edge_key(q[i], q[(i + 1) % 4]) for q in quads for i in range(4)}
    return DiscreteSpace(m * n, sorted(edges), {2: quads})


BUILDERS = {
    "octahedron": gen.octahedron,
    **{"simplex%d" % n: (lambda n=n: gen.simplex_boundary(n))
       for n in range(2, 7)},
    **{"cube%d" % n: (lambda n=n: gen.cube_boundary(n)) for n in range(2, 6)},
    "torus": lambda: gen.torus_grid(4, 5),
    "seven": gen.seven_vertex_torus,
    "strip": lambda: gen.strip_grid(3, 4),
    "strip-tri": lambda: gen.strip_grid(3, 3, triangulated=True),
    "S(3, 4)": lambda: gen.lattice_sphere(3, 4)[0],
    "S(4, 2)": lambda: gen.lattice_sphere(4, 2)[0],
    "mobius": mobius,
    "klein": klein,
}
GENERATED = {name: build() for name, build in BUILDERS.items()}


def _registries(space):
    return {d: [cid[1] for cid in space.cells_of_dim(d)]
            for d in range(2, space.top_dim + 1)}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_spaces_match_references(name):
    space = GENERATED[name]
    assert reference_well_attachment(space.n_vertices, space.edges,
                                     _registries(space)) is None
    if space.top_dim == 2:
        oriented, loops = reference_orientation(space)
        assert space.oriented is oriented
        assert {cid: space.cells[cid].loop for cid in loops} == loops


def test_mobius_strip_is_not_oriented():
    space = mobius()
    assert not space.oriented
    assert reference_orientation(space)[0] is False


@st.composite
def glued_polygons(draw):
    """Polygons glued at up to three of a few hub vertices 0..h-1, every
    other vertex their own; half of them keep their hubs apart.  Polygons
    that another polygon's edge chords are dropped until none is, so every
    boundary is a minimal cycle and only the gluing can fail."""
    hubs = draw(st.integers(2, 4))
    n = hubs
    polygons = []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(3, 6))
        slots = range(0, size, 2) if draw(st.booleans()) else range(size)
        glued = draw(st.lists(st.integers(0, hubs - 1), min_size=1,
                              max_size=min(3, len(slots)), unique=True))
        polygon = list(range(n, n + size))
        n += size
        for i, hub in zip(draw(st.permutations(slots)), glued):
            polygon[i] = hub
        if set(polygon) not in map(set, polygons):
            polygons.append(polygon)
    while True:
        edges = {edge_key(p[i - 1], p[i]) for p in polygons
                 for i in range(len(p))}
        kept = [p for p in polygons
                if sum(edge_key(u, v) in edges
                       for u, v in itertools.combinations(p, 2)) == len(p)]
        if kept == polygons:
            return n, sorted(edges), polygons
        polygons = kept


@PROPS
@given(glued_polygons())
def test_glued_polygons_match_references(case):
    _check_against_references(*case)


GLUED = [
    # hexagons sharing three pairwise apart vertices: not well-attached
    [(0, 6, 1, 7, 2, 8), (0, 9, 1, 10, 2, 11)],
    # two bad pairs: the error names the smaller
    [(3, 6, 4, 7), (0, 8, 1, 9, 2, 10), (0, 11, 1, 12, 2, 13),
     (3, 14, 4, 15)],
    # pentagons sharing a path of three vertices
    [(0, 1, 2, 6, 7), (0, 1, 2, 8, 9)],
    # a path of two and a third vertex apart from it
    [(0, 1, 6, 2, 7, 8), (0, 1, 9, 2, 10, 11)],
    # quads sharing opposite corners, then a later pair sharing an edge
    [(0, 6, 1, 7), (0, 8, 1, 9), (2, 3, 10, 11), (2, 3, 4, 5)],
]


@pytest.mark.parametrize("polygons", GLUED)
def test_glued_examples_match_references(polygons):
    edges = sorted({edge_key(p[i - 1], p[i]) for p in polygons
                    for i in range(len(p))})
    n = 1 + max(max(p) for p in polygons)
    _check_against_references(n, edges, polygons)


def _check_against_references(n, edges, polygons):
    cells = {2: [tuple(p) for p in polygons]} if polygons else {}
    want = reference_well_attachment(n, edges, cells)
    try:
        space = DiscreteSpace(n, edges, cells)
    except InputError as err:
        assert str(err) == want
        return
    assert want is None
    if space.top_dim == 2:
        oriented, loops = reference_orientation(space)
        assert space.oriented is oriented
        assert {cid: space.cells[cid].loop for cid in loops} == loops


# the generated spaces, with lattice spheres too large for the references
SEARCH_FREE = {**BUILDERS,
               "S(4, 3)": lambda: gen.lattice_sphere(4, 3)[0],
               "S(5, 1)": lambda: gen.lattice_sphere(5, 1)[0]}


@pytest.mark.parametrize("name", sorted(SEARCH_FREE))
def test_generated_spaces_run_no_connectivity_search(monkeypatch, name):
    # a pair of cells sharing the vertex set of a cell (a vertex, an edge,
    # a face) is connected without a search, and no generated space has
    # another kind of pair
    calls = _count_calls(monkeypatch, complexes, "_spans")
    SEARCH_FREE[name]()
    assert calls == []


@pytest.mark.parametrize("polygons", GLUED)
def test_connectivity_search_only_for_non_cell_intersections(monkeypatch,
                                                             polygons):
    # exactly the pairs, in ascending order up to the first that fails,
    # whose shared vertices are not a vertex, an edge or a polygon
    edges = sorted({edge_key(p[i - 1], p[i]) for p in polygons
                    for i in range(len(p))})
    n = 1 + max(max(p) for p in polygons)
    faces = {frozenset(c) for c in [(v,) for v in range(n)] + edges
             + polygons}
    graph = nx.Graph(edges)
    want = []
    for a, b in itertools.combinations(sorted(map(sorted, polygons)), 2):
        inter = set(a) & set(b)
        if inter and frozenset(inter) not in faces:
            want.append(tuple(sorted(inter)))
            if not nx.is_connected(graph.subgraph(inter)):
                break
    calls = _count_calls(monkeypatch, complexes, "_spans")
    try:
        DiscreteSpace(n, edges, {2: polygons})
    except InputError:
        pass
    assert [tuple(verts) for _, verts, _ in calls] == want
    assert want
