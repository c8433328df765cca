"""Contraction of a cycle on a surface, against side sizes from networkx.

On a surface ``search_contraction`` builds its trace: it floods the two
sides of the cycle up to the step budget and contracts the smaller one.
The cells of any contraction by single-cell moves sum, mod 2, to one side,
so the answer is exact: with the budget at the smaller side's size the
trace has exactly that many moves and passes ``verify_contraction``, and
one below it the search returns None.  The side sizes here are the
components, in ``networkx``, of the graph of 2-cells joined across every
edge off the cycle.  The work of a search depends on its budget, not on
the size of the surface.
"""

import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from celltopo import complexes, deformation, separation
from celltopo import generators as gen
from celltopo.complexes import CellChain, face_counts, walk
from celltopo.deformation import search_contraction, verify_contraction

from test_flatness_oracle import PROPS
from test_search_golden import _facet_rings

LATTICES = {n: gen.lattice_sphere(3, n)[0] for n in (3, 4, 6)}


def side_sizes(space, cycle) -> list:
    """The sizes of the pieces the cycle cuts the surface into."""
    graph = nx.Graph()
    graph.add_nodes_from(space.cells_of_dim(2))
    for e in space.cells_of_dim(1):
        if e not in cycle.cells:
            graph.add_edges_from(itertools.combinations(space.cofaces(e), 2))
    return sorted(len(c) for c in nx.connected_components(graph))


def boundary_cycle(space, blob) -> CellChain:
    edges = [f[1] for f, k in face_counts(space, blob).items() if k == 1]
    return CellChain.path(space, walk(edges), closed=True)


@st.composite
def blob_cycles(draw):
    """A lattice 2-sphere and the boundary cycle of a face-connected blob
    of its 2-cells, grown one drawn neighbour at a time among those that
    keep the boundary one cycle."""
    space = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    blob = [draw(st.sampled_from(space.cells_of_dim(2)))]
    for _ in range(draw(st.integers(0, 30))):
        near = sorted({n for c in blob for n in space.cell_neighbors(c)}
                      - set(blob))
        options = []
        for n in near:
            edges = [f[1] for f, k in face_counts(space, blob + [n]).items()
                     if k == 1]
            verts = walk(edges)
            if verts is not None and len(verts) == len(edges):
                options.append(n)
        if not options:
            break
        blob.append(draw(st.sampled_from(options)))
    return space, boundary_cycle(space, blob)


@settings(PROPS, max_examples=60)
@given(blob_cycles(), st.data())
def test_search_contracts_the_smaller_side_exactly(case, data):
    space, cycle = case
    p = data.draw(st.sampled_from(cycle.verts))
    sizes = side_sizes(space, cycle)
    assert len(sizes) == 2
    smaller = sizes[0]
    trace = search_contraction(space, cycle, p, smaller)
    assert trace is not None
    assert verify_contraction(space, cycle, p, trace)
    assert len(trace.moves) == smaller
    assert all(len(m) == 1 for m in trace.moves)
    assert search_contraction(space, cycle, p, smaller - 1) is None


def test_torus_meridian_bounds_no_side():
    torus = gen.torus_grid(4, 4)
    meridian = gen.torus_meridian(torus, 4)
    assert side_sizes(torus, meridian) == [16]
    for budget in (5, 16, 40):
        assert search_contraction(torus, meridian, 0, budget) is None


def test_block_cycle_needs_its_sixteen_cells():
    # the 16-cycle around the 4 x 4 block of faces at z = 0 of S(3, 8),
    # from (2, 2, 0): its smaller side holds 16 cells, so a budget of 10
    # answers None at once and one of 16 gives a 16-move trace
    n = 8
    space = gen.lattice_sphere(3, n)[0]
    points = [p for p in itertools.product(range(n + 1), repeat=3)
              if 0 in p or n in p]
    index = {p: i for i, p in enumerate(points)}
    corners = ([(x, 2) for x in range(2, 6)] + [(6, y) for y in range(2, 6)]
               + [(x, 6) for x in range(6, 2, -1)]
               + [(2, y) for y in range(6, 2, -1)])
    ring = [index[(x, y, 0)] for x, y in corners]
    cycle = CellChain.path(space, ring, closed=True)
    assert side_sizes(space, cycle)[0] == 16
    assert search_contraction(space, cycle, ring[0], 10) is None
    trace = search_contraction(space, cycle, ring[0], 16)
    assert len(trace.steps) == 17
    assert verify_contraction(space, cycle, ring[0], trace)


def _search_work(monkeypatch, n: int) -> tuple:
    """The cofaces a search from the facet ring of S(3, n) asks for, and
    the cells its breadth-first walks reach."""
    space, rings = _facet_rings(n)
    ring = rings["facet-x0"]
    real_cofaces, real_levels = space.cofaces, complexes._levels
    calls, reached = [], []

    def counted(cid):
        calls.append(cid)
        return real_cofaces(cid)

    def walked(*args, **kwargs):
        for level in real_levels(*args, **kwargs):
            reached.extend(level)
            yield level

    monkeypatch.setattr(space, "cofaces", counted)
    for module in (deformation, separation):
        monkeypatch.setattr(module, "_levels", walked)
    assert search_contraction(space, ring, ring.verts[0], 6) is not None
    return len(calls), len(reached)


def test_search_work_does_not_grow_with_the_surface(monkeypatch):
    # the facet rings of S(3, 8) and S(3, 16) look alike within the
    # budget's reach, so a search asks for the same cofaces and its walks
    # reach the same number of cells on both
    small = _search_work(monkeypatch, 8)
    assert min(small) > 0
    assert _search_work(monkeypatch, 16) == small
