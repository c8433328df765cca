"""Properties of the cross-over test on curves grown by single-cell moves.

``crosses_over`` reads each stretch of edges the two curves share and asks
whether the second curve enters and leaves it on opposite sides of the
first.  On drawn curves of lattice spheres, the octahedron, a torus, the
tetrahedron and a grid strip, whose boundary vertices have a path for a
link, it must be symmetric, blind to the curves' directions and
starts, never true across one single-cell move, and on a 2-sphere two
closed curves must cross at an even number of stretches.  The oriented
link of every vertex of those spaces must equal that of a reference
built in two passes, and a pinch vertex's link is refused.  The space
keeps each vertex's rotation once built: stored rotations equal fresh
builds, repeated queries build none again, threads that share a space
fill it with the same rotations, and a refused link is built again on
every call and never stored.  Contraction
searches, whose every step is checked by ``verify_contraction``, must
return traces that pass it.
"""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltopo import deformation
from celltopo import generators as gen
from celltopo.complexes import (CellChain, DiscreteSpace, edge_key,
                                face_counts, walk)
from celltopo.deformation import (_OUTSIDE, _cell_moves, _crossings,
                                  _oriented_link_cycle, _rotation,
                                  are_side_gradually_varied,
                                  cell_boundary_chain, crosses_over,
                                  search_contraction, single_cell_move,
                                  verify_contraction)
from celltopo.errors import PreconditionError

from test_flatness_oracle import PROPS, _count_calls

SPHERES = {
    "S(3,3)": gen.lattice_sphere(3, 3)[0],
    "S(3,4)": gen.lattice_sphere(3, 4)[0],
    "octahedron": gen.octahedron(),
    "tetrahedron": gen.simplex_boundary(3),
}
SPACES = dict(SPHERES, torus=gen.torus_grid(4, 5),
              strip=gen.strip_grid(3, 3))


def _moves(space, chain):
    """The curves one single-cell move from ``chain``, by ascending cell."""
    return [nxt for _, nxt in _cell_moves(space, chain)]


@st.composite
def grown(draw, space, start, max_moves=6):
    """``start`` moved by up to ``max_moves`` drawn single-cell moves."""
    chain = start
    for _ in range(draw(st.integers(0, max_moves))):
        options = _moves(space, chain)
        if not options:
            break
        chain = draw(st.sampled_from(options))
    return chain


@st.composite
def seed_curve(draw, space, closed=None):
    """A cell's boundary, or an arc of it with at least one edge."""
    cell = draw(st.sampled_from(space.cells_of_dim(2)))
    if closed is None:
        closed = draw(st.booleans())
    if closed:
        return cell_boundary_chain(space, cell)
    loop = space.cells[cell].loop
    r = draw(st.integers(0, len(loop) - 1))
    k = draw(st.integers(1, len(loop) - 1))
    return CellChain.path(space, (loop[r:] + loop[:r])[:k + 1])


@st.composite
def curve_pairs(draw, spaces=SPACES, closed=None):
    """``(space, c, c')``: c grown from a seed curve and c' either grown
    on from c or grown from a seed of its own."""
    space = spaces[draw(st.sampled_from(sorted(spaces)))]
    c = draw(grown(space, draw(seed_curve(space, closed))))
    if draw(st.booleans()):
        cp = draw(grown(space, c))
    else:
        cp = draw(grown(space, draw(seed_curve(space, closed))))
    return space, c, cp


def _rotated(chain, r):
    if not chain.closed:
        return chain
    r %= len(chain.verts)
    return CellChain(1, chain.cells[r:] + chain.cells[:r], closed=True,
                     verts=chain.verts[r:] + chain.verts[:r])


@settings(PROPS, max_examples=300)
@given(curve_pairs())
def test_cross_over_is_symmetric(case):
    space, c, cp = case
    assert crosses_over(space, c, cp) == crosses_over(space, cp, c)


@settings(PROPS, max_examples=300)
@given(curve_pairs(), st.integers(0, 50), st.integers(0, 50))
def test_cross_over_ignores_direction_and_start(case, r, rp):
    space, c, cp = case
    want = crosses_over(space, c, cp)
    for x, y in ((c.reversed(), cp), (c, cp.reversed()),
                 (_rotated(c, r), cp), (c, _rotated(cp, rp)),
                 (_rotated(c.reversed(), r), _rotated(cp.reversed(), rp))):
        assert crosses_over(space, x, y) == want


@PROPS
@given(st.data())
def test_single_cell_move_never_crosses_over(data):
    space = SPACES[data.draw(st.sampled_from(sorted(SPACES)))]
    c = data.draw(grown(space, data.draw(seed_curve(space))))
    for nxt in _moves(space, c):
        assert not crosses_over(space, c, nxt)
        assert not crosses_over(space, nxt, c)


@PROPS
@given(curve_pairs(SPHERES, closed=True))
def test_closed_curves_on_a_sphere_cross_an_even_number_of_times(case):
    space, c, cp = case
    assert sum(1 for _ in _crossings(space, c, cp)) % 2 == 0
    assert sum(1 for _ in _crossings(space, cp, c)) % 2 == 0


def test_octahedron_move_does_not_cross_over(octa):
    # the cycle 0-1-2-3 moved over the face (0, 1, 4): the two curves share
    # the stretch 1-2-3-0 and leave it on one side
    c = CellChain.path(octa, [0, 1, 2, 3], closed=True)
    cp = single_cell_move(octa, c, (2, (0, 1, 4)))
    assert cp.verts == (0, 3, 2, 1, 4)
    assert not crosses_over(octa, c, cp)
    assert not crosses_over(octa, cp, c)


def test_tetrahedron_arcs_cross_both_ways():
    # both arcs run from 1 to 3 over the edge 0-2, one through 2 first and
    # one through 0 first, so they leave the edge on opposite sides
    tet = gen.simplex_boundary(3)
    c = CellChain.path(tet, [1, 2, 0, 3])
    cp = CellChain.path(tet, [1, 0, 2, 3])
    assert crosses_over(tet, c, cp)
    assert crosses_over(tet, cp, c)


def test_stretch_ending_on_the_strip_boundary_does_not_cross():
    # the stretch 4-8 of the strip's column j = 0 ends at boundary
    # vertices, whose links are paths: c' leaves it toward 5 and 9, on the
    # strip's side of the column both times
    strip = gen.strip_grid(3, 3)
    c = CellChain.path(strip, [0, 4, 8, 12])
    cp = CellChain.path(strip, [5, 4, 8, 9])
    assert not crosses_over(strip, c, cp)
    assert not crosses_over(strip, cp, c)
    assert are_side_gradually_varied(strip, c, cp)


def test_curve_edge_in_no_two_cell_is_a_precondition_error(octa):
    # vertex 6 hangs off vertex 0 by an edge that lies in no 2-cell, so 6
    # is not on the link cycle of 0
    space = DiscreteSpace(7, sorted(octa.edges) + [(0, 6)],
                          {2: [cid[1] for cid in octa.cells_of_dim(2)]})
    c = CellChain.path(space, [6, 0, 2])
    cp = CellChain.path(space, [1, 0, 3])
    for x, y in ((c, cp), (cp, c)):
        with pytest.raises(PreconditionError, match="link of vertex 0"):
            crosses_over(space, x, y)
    # vertex 6 joined to the equator 1-2-3-4 by edges alone: its link is empty
    space = DiscreteSpace(7, sorted(octa.edges) + [(v, 6) for v in range(1, 5)],
                          {2: [cid[1] for cid in octa.cells_of_dim(2)]})
    c = CellChain.path(space, [1, 6, 3])
    cp = CellChain.path(space, [2, 6, 4])
    for x, y in ((c, cp), (cp, c)):
        with pytest.raises(PreconditionError, match="link of vertex 6"):
            crosses_over(space, x, y)


# -- oriented link cycles -----------------------------------------------------


def reference_link_cycle(space, v):
    """The oriented link of v built in two passes: a walk from the first
    arc, and on meeting an arc end no arc starts from, the link path
    closed through ``_OUTSIDE`` and walked from that closing arc."""
    arcs = []
    for cid in space.cells_containing(v, 2):
        loop = space.cells[cid].loop
        i = loop.index(v)
        arcs.append(loop[i + 1:] + loop[:i])
    if not arcs:
        return ()
    starts = {arc[0]: arc for arc in arcs}
    cycle, arc = [], arcs[0]
    for _ in arcs:
        cycle.extend(arc[:-1])
        arc = starts.get(arc[-1])
        if arc is None:
            return reference_link_path(v, arcs, starts)
    if arc is not arcs[0] or len(cycle) != len(set(cycle)):
        raise PreconditionError("link of vertex %d is not a single cycle" % v)
    return tuple(cycle)


def reference_link_path(v, arcs, starts):
    ends = {arc[-1] for arc in arcs}
    heads = [arc[0] for arc in arcs if arc[0] not in ends]
    tails = [arc[-1] for arc in arcs if arc[-1] not in starts]
    if len(heads) != 1 or len(tails) != 1:
        raise PreconditionError("link of vertex %d is not a cycle or a path"
                                % v)
    closing = (tails[0], _OUTSIDE, heads[0])
    starts = {**starts, tails[0]: closing}
    cycle, arc = [], closing
    for _ in range(len(arcs) + 1):
        cycle.extend(arc[:-1])
        arc = starts[arc[-1]]
    if arc is not closing or len(cycle) != len(set(cycle)):
        raise PreconditionError("link of vertex %d is not a cycle or a path"
                                % v)
    return tuple(cycle)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_link_cycles_match_reference(name):
    space = SPACES[name]
    for v in range(space.n_vertices):
        assert _oriented_link_cycle(space, v) == reference_link_cycle(space, v)


def test_pinch_vertex_link_is_a_precondition_error():
    # two triangles that share only vertex 0: its link is two separate arcs
    pinch = DiscreteSpace(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                          {2: [(0, 1, 2), (0, 3, 4)]})
    with pytest.raises(PreconditionError, match="not a cycle or a path"):
        _oriented_link_cycle(pinch, 0)
    with pytest.raises(PreconditionError):
        reference_link_cycle(pinch, 0)


# -- the rotation store -------------------------------------------------------


ROTATION_SPACES = {
    "octahedron": gen.octahedron,
    "torus": lambda: gen.torus_grid(4, 4),
    "strip": lambda: gen.strip_grid(3, 3),
}


def _sharing_pairs(space):
    """Each 2-cell's boundary against its neighbours' boundaries and the
    curves one move from it: pairs that share stretches, some ending at a
    strip's boundary vertices."""
    pairs = []
    for cell in space.cells_of_dim(2):
        c = cell_boundary_chain(space, cell)
        pairs += [(c, cell_boundary_chain(space, n))
                  for n in space.cell_neighbors(cell)]
        pairs += [(c, nxt) for nxt in _moves(space, c)]
    return pairs


@pytest.mark.parametrize("name", sorted(ROTATION_SPACES))
def test_stored_rotations_match_fresh_link_cycles(name):
    space = ROTATION_SPACES[name]()
    assert space._rotations == {}
    for c, cp in _sharing_pairs(space):
        crosses_over(space, c, cp)
    assert space._rotations
    for v, rotation in space._rotations.items():
        assert rotation == _oriented_link_cycle(space, v)
    if name == "strip":
        assert any(_OUTSIDE in r for r in space._rotations.values())
    for v in range(space.n_vertices):
        assert _rotation(space, v) == _oriented_link_cycle(space, v)
        assert space._rotations[v] == _oriented_link_cycle(space, v)


@pytest.mark.parametrize("name", sorted(ROTATION_SPACES))
def test_repeated_cross_overs_build_each_rotation_once(monkeypatch, name):
    space = ROTATION_SPACES[name]()
    builds = _count_calls(monkeypatch, deformation, "_oriented_link_cycle")
    pairs = _sharing_pairs(space)
    first = [crosses_over(space, c, cp) for c, cp in pairs]
    built = [v for _, v in builds]
    assert built and len(built) == len(set(built))
    assert set(built) == set(space._rotations)
    assert [crosses_over(space, cp, c) for c, cp in pairs] == first
    assert [crosses_over(space, c, cp) for c, cp in pairs] == first
    assert [v for _, v in builds] == built


def test_threads_sharing_a_space_fill_its_store_consistently():
    # more threads than cores, switching often, race to fill one store and
    # the shared chains' edge sets; a lost or torn fill would show as a
    # wrong answer or a wrong stored rotation
    space = gen.torus_grid(4, 4)
    pairs = _sharing_pairs(space)
    fresh = gen.torus_grid(4, 4)
    want = [crosses_over(fresh, c, cp) for c, cp in pairs]
    pairs = [(CellChain.path(space, c.verts, closed=c.closed),
              CellChain.path(space, cp.verts, closed=cp.closed))
             for c, cp in pairs]
    results = {}

    def work(k):
        results[k] = [crosses_over(space, c, cp) for c, cp in pairs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[k] for k in range(6)] == [want] * 6
    assert set(space._rotations) == set(fresh._rotations)
    for v, rotation in space._rotations.items():
        assert rotation == _oriented_link_cycle(space, v)


def test_a_pinch_rotation_raises_on_every_call_and_is_not_stored(
        monkeypatch):
    # two triangles that share only vertex 0, crossed there by two paths
    pinch = DiscreteSpace(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)],
                          {2: [(0, 1, 2), (0, 3, 4)]})
    builds = _count_calls(monkeypatch, deformation, "_oriented_link_cycle")
    c = CellChain.path(pinch, (1, 0, 3))
    cp = CellChain.path(pinch, (2, 0, 4))
    for calls in range(1, 4):
        with pytest.raises(PreconditionError,
                           match="link of vertex 0 is not a cycle or a path"):
            crosses_over(pinch, c, cp)
        assert 0 not in pinch._rotations
        assert [v for _, v in builds].count(0) == calls


# -- contraction searches -----------------------------------------------------


def _link_ring(space, v):
    """The vertices around v on its 2-cells, as ``walk`` orders the cycle."""
    edges = set()
    for cid in space.cells_containing(v, 2):
        loop = space.cells[cid].loop
        edges |= {edge_key(loop[i - 1], loop[i]) for i in range(len(loop))
                  if v not in (loop[i - 1], loop[i])}
    return walk(edges)


def test_every_link_ring_search_passes_its_verifier():
    space = gen.lattice_sphere(3, 2)[0]
    runs = 0
    for v in range(space.n_vertices):
        ring = _link_ring(space, v)
        for r in range(len(ring)):
            rot = ring[r:] + ring[:r]
            cycle = CellChain.path(space, rot, closed=True)
            trace = search_contraction(space, cycle, rot[0], 6)
            assert trace is not None
            assert verify_contraction(space, cycle, rot[0], trace)
            runs += 1
    assert runs == 8 * 6 + 18 * 8


def test_ring_from_a_face_corner_contracts():
    # the 8-cycle around the centre of the z = 0 face of S(3, 8), walked
    # from the corner (3, 3, 0) first along +x
    n = 8
    points = [p for p in itertools.product(range(n + 1), repeat=3)
              if 0 in p or n in p]
    index = {p: i for i, p in enumerate(points)}
    space = gen.lattice_sphere(3, n)[0]
    corners = [(3, 3), (4, 3), (5, 3), (5, 4), (5, 5), (4, 5), (3, 5), (3, 4)]
    ring = [index[(x, y, 0)] for x, y in corners]
    anchor = ring[0]
    trace = search_contraction(space, CellChain.path(space, ring, closed=True),
                               anchor, 6)
    assert trace is not None
    assert trace.steps[0].verts == tuple(ring)
    assert trace.steps[-1].verts == (anchor,)
    dropped = set()
    for prev, step in zip(trace.steps, trace.steps[1:]):
        assert anchor in step.verts
        dropped |= prev.vertex_set() - step.vertex_set()
        assert not dropped & step.vertex_set()


def test_every_small_blob_of_a_strip_contracts():
    # the boundary cycles of every one- and two-cell blob of the strip,
    # from each vertex; cycles along the strip's rim share stretches that
    # end at boundary vertices
    strip = gen.strip_grid(3, 3)
    cells = strip.cells_of_dim(2)
    blobs = [[c] for c in cells] + [[a, b] for a, b in
                                    itertools.combinations(cells, 2)
                                    if b in strip.cell_neighbors(a)]
    assert len(blobs) == 9 + 12
    for blob in blobs:
        ring = walk([f[1] for f, k in face_counts(strip, blob).items()
                     if k == 1])
        cycle = CellChain.path(strip, ring, closed=True)
        for p in ring:
            trace = search_contraction(strip, cycle, p, len(blob))
            assert len(trace.moves) == len(blob)
            assert verify_contraction(strip, cycle, p, trace)
