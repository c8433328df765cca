"""Single-cell moves and their candidates, against slow references.

``single_cell_move`` splices the cell's other arc into the curve.  The
reference below is the move the slow way: the shared edges must walk to
one arc, the curve's edges XorSum the cell's and ``edges_to_curve``
orders the result; both must give the same curve, in the same vertex
order, for every 2-cell and drawn open and closed curves.

``deformation._cell_moves`` tries only the cofaces of the curve's edges.
The reference below calls ``single_cell_move`` on every cell of the pool;
both must give the same ``(cell, curve)`` list, in the same order, on
drawn open and closed curves.  The work bounds check that a contraction
search state tries no other cell and that no search walks an edge set.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from celltopo import deformation
from celltopo import generators as gen
from celltopo.complexes import CellChain, edge_key, walk
from celltopo.deformation import (_contract_dfs, bfs_moves,
                                  cell_boundary_chain, edges_to_curve,
                                  intersection_is_attaching_arc,
                                  search_contraction, single_cell_move)

from test_flatness_oracle import PROPS, SPACES, _count_calls, simple_walks
from test_search_golden import _facet_rings

LATTICE4 = gen.lattice_sphere(3, 4)


def reference_moves(space, curve, pool) -> list:
    out = []
    for cell in pool:
        nxt = single_cell_move(space, curve, cell)
        if nxt is not None:
            out.append((cell, nxt))
    return out


@st.composite
def moved_cycles(draw):
    """A space and a closed curve: the equator of the lattice sphere
    bounding [0, 4]^3, or a drawn 2-cell's boundary, moved by up to six
    drawn single-cell moves that keep it closed."""
    if draw(st.booleans()):
        space, curve = LATTICE4
    else:
        space = SPACES[draw(st.sampled_from(sorted(SPACES)))]
        curve = cell_boundary_chain(
            space, draw(st.sampled_from(space.cells_of_dim(2))))
    for _ in range(draw(st.integers(0, 6))):
        options = [nxt for _, nxt in
                   reference_moves(space, curve, space.cells_of_dim(2))
                   if nxt.closed]
        if not options:
            break
        curve = draw(st.sampled_from(options))
    return space, curve


curves = st.one_of(simple_walks(), moved_cycles())


def _curve_edges(curve) -> set:
    steps = list(zip(curve.verts, curve.verts[1:]))
    if curve.closed:
        steps.append((curve.verts[-1], curve.verts[0]))
    return {edge_key(u, v) for u, v in steps}


def walk_based_arc(space, curve, cell) -> bool:
    faces = {b[1] for b in space.cells[cell].boundary}
    shared = faces & _curve_edges(curve)
    if not shared or len(shared) == len(faces):
        return False
    arc = walk(shared)
    return arc is not None and len(arc) == len(shared) + 1 and \
        set(arc) == set(cell[1]) & set(curve.verts)


def walk_based_move(space, curve, cell):
    if not walk_based_arc(space, curve, cell):
        return None
    faces = {b[1] for b in space.cells[cell].boundary}
    return edges_to_curve(space, _curve_edges(curve) ^ faces, like=curve)


@st.composite
def stepped_curves(draw):
    """A drawn curve moved by up to four drawn single-cell moves of the
    walk-based reference, then read backwards or, when closed, from a
    drawn vertex."""
    space, curve = draw(curves)
    for _ in range(draw(st.integers(0, 4))):
        options = [nxt for nxt in (walk_based_move(space, curve, cell)
                                   for cell in space.cells_of_dim(2))
                   if nxt is not None]
        if not options:
            break
        curve = draw(st.sampled_from(options))
    verts = curve.verts
    if curve.closed:
        r = draw(st.integers(0, len(verts) - 1))
        verts = verts[r:] + verts[:r]
    if draw(st.booleans()):
        verts = verts[::-1]
    return space, CellChain.path(space, verts, closed=curve.closed)


def _assert_splice_matches(space, curve):
    for cell in space.cells_of_dim(2):
        assert intersection_is_attaching_arc(space, curve, cell) is \
            walk_based_arc(space, curve, cell)
        assert single_cell_move(space, curve, cell) == \
            walk_based_move(space, curve, cell)


@PROPS
@given(stepped_curves())
def test_splice_matches_the_walk_based_move(case):
    _assert_splice_matches(*case)


def _short_paths(space, length):
    paths = [(v,) for v in range(space.n_vertices)]
    for _ in range(length - 1):
        paths = [p + (w,) for p in paths
                 for w in space.vertex_neighbors(p[-1]) if w not in p]
    return paths


@pytest.mark.parametrize("name", ["octahedron", "cube3", "strip", "torus"])
def test_splice_matches_on_every_short_open_path(name):
    # every open path of two to four vertices, so every way an end can
    # lie on a cell: on the shared arc, off it, or on the cell elsewhere
    space = SPACES[name]
    end_moves = 0
    for length in (2, 3, 4):
        for verts in _short_paths(space, length):
            curve = CellChain.path(space, verts)
            _assert_splice_matches(space, curve)
            end_moves += sum(
                single_cell_move(space, curve, cell) is not None
                for cell in space.cells_of_dim(2)
                if {verts[0], verts[-1]} & set(cell[1]))
    assert end_moves


@PROPS
@given(curves)
def test_moves_match_a_scan_of_every_cell(case):
    space, curve = case
    assert list(deformation._cell_moves(space, curve)) == \
        reference_moves(space, curve, space.cells_of_dim(2))


@PROPS
@given(curves, st.data())
def test_moves_keep_the_pool_order(case, data):
    space, curve = case
    pool = data.draw(st.permutations(space.cells_of_dim(2)))
    pool = pool[:data.draw(st.integers(0, len(pool)))]
    assert list(deformation._cell_moves(space, curve, pool)) == \
        reference_moves(space, curve, pool)


def _touching(space, curve) -> list:
    return sorted({cid for e in curve.edge_set()
                   for cid in space.cofaces((1, e))})


def test_contraction_state_tries_only_cofaces(monkeypatch):
    # one state at depth 2: its children only test for the goal, so every
    # move tried is one of this curve's
    space, equator = LATTICE4
    calls = _count_calls(monkeypatch, deformation, "single_cell_move")
    _contract_dfs(space, equator, equator.verts[0], 2, lambda chain: None,
                  frozenset(), set())
    tried = [cell for _, chain, cell in calls]
    assert all(chain is equator for _, chain, _ in calls)
    assert tried == _touching(space, equator)
    assert len(tried) < len(space.cells_of_dim(2)) // 2


def test_contraction_search_tries_only_cofaces(monkeypatch):
    # the ring around the centre of the x = 0 facet bounds four cells, so
    # the search contracts that side by four moves
    space, rings = _facet_rings(4)
    ring = rings["facet-x0"]
    calls = _count_calls(monkeypatch, deformation, "single_cell_move")
    search_contraction(space, ring, ring.verts[0], 6)
    assert calls
    for _, chain, cell in calls:
        assert cell in _touching(space, chain)


def test_searches_walk_no_edge_set(monkeypatch):
    # the moves splice: neither a contraction search nor a breadth-first
    # search orders an edge set into a walk
    space, equator = LATTICE4
    walks = _count_calls(monkeypatch, deformation, "walk")
    moves = _count_calls(monkeypatch, deformation, "single_cell_move")
    assert search_contraction(space, equator, equator.verts[0], 3) is None
    bfs_moves(space, equator, space.cells_of_dim(2),
              lambda steps, moves: None, 2)
    assert len(moves) > 1000
    assert walks == []
