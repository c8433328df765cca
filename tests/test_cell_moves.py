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

Above dimension 2 the contraction search cuts a curve too long to shrink
to a goal cell in the moves it has left.  The reference below is the
search without that cut; both must return the same trace, or None, on
drawn cycles of the 3-sphere ``S(4, 3)`` and of the 5-sphere bounding
the 6-simplex.
"""

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from celltopo import deformation
from celltopo import generators as gen
from celltopo.complexes import CellChain, edge_key, walk
from celltopo.errors import InputError
from celltopo.deformation import (_cell_moves, _contract_dfs, bfs_moves,
                                  cell_boundary_chain, edges_to_curve,
                                  intersection_is_attaching_arc, point_chain,
                                  search_contraction, single_cell_move)

from test_flatness_oracle import PROPS, SPACES, _count_calls, simple_walks
from test_search_golden import _facet_rings

LATTICE4 = gen.lattice_sphere(3, 4)
SPHERES = {"S(4,3)": gen.lattice_sphere(4, 3)[0],
           "simplex6": gen.simplex_boundary(6)}


def reference_moves(space, curve, pool) -> list:
    out = []
    for cell in pool:
        nxt = single_cell_move(space, curve, cell)
        if nxt is not None:
            out.append((cell, nxt))
    return out


@st.composite
def moved_cycles(draw, spaces=None):
    """A space and a closed curve: the equator of the lattice sphere
    bounding [0, 4]^3, or a drawn 2-cell's boundary (in a space drawn from
    ``spaces`` when given, and then never the equator), moved by up to six
    drawn single-cell moves that keep it closed."""
    if spaces is None and draw(st.booleans()):
        space, curve = LATTICE4
    else:
        spaces = spaces or SPACES
        space = spaces[draw(st.sampled_from(sorted(spaces)))]
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
        moved = single_cell_move(space, curve, cell)
        assert moved == walk_based_move(space, curve, cell)
        if moved is not None:
            _assert_whole_curve(space, moved)


def _assert_whole_curve(space, r):
    """``r`` is the curve ``CellChain.path`` builds from its vertices,
    and the edge set it keeps is the one its cells give."""
    full = CellChain.path(space, r.verts, closed=r.closed)
    assert (r.dim, r.cells, r.closed, r.verts) == \
        (full.dim, full.cells, full.closed, full.verts)
    assert r.edge_set() == frozenset(cid[1] for cid in r.cells)
    assert r.edge_set() is r.edge_set()
    assert r.vertex_set() == frozenset(r.verts)


@PROPS
@given(stepped_curves())
def test_splice_matches_the_walk_based_move(case):
    _assert_splice_matches(*case)


def test_splice_checks_only_the_new_arc():
    # the square (0, 1, 5, 4) of a 4 x 4 torus moves the path 0-1-2 by
    # replacing its edge 0-1 with the walk 0-4-5-1
    space = gen.torus_grid(4, 4)
    curve = CellChain.path(space, (0, 1, 2))
    moved = CellChain._spliced(space, curve, 0, 1, (4, 5))
    assert moved == CellChain.path(space, (0, 4, 5, 1, 2))
    assert moved == single_cell_move(space, curve, (2, (0, 1, 4, 5)))
    # walks of edges through the curve vertex 2 or twice through 5, and
    # a step 0-5 that is not an edge
    for bridge in ((4, 5, 6, 2), (4, 5, 9, 5), (5,)):
        with pytest.raises(InputError):
            CellChain._spliced(space, curve, 0, 1, bridge)
    # on the closed row 0-1-2-3: the edge 3-0 replaced through the curve
    # vertex 2, and the edge 0-1 through 12, which is not next to 1
    ring = CellChain.path(space, (0, 1, 2, 3), closed=True)
    for p, bridge in ((3, (2,)), (0, (12,))):
        with pytest.raises(InputError):
            CellChain._spliced(space, ring, p, 1, bridge)


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


def _six_ring(space):
    """The boundary of the first two 2-cells of ``space`` that share an
    edge, a closed curve of six vertices."""
    first = space.cells_of_dim(2)[0]
    return next(nxt for _, nxt in
                _cell_moves(space, cell_boundary_chain(space, first))
                if nxt.closed)


def test_contraction_state_tries_only_cofaces(monkeypatch):
    # one state at depth 2 with a curve short enough for one move to reach
    # a square: its children only test for the goal, so every move tried
    # is one of this curve's
    space = LATTICE4[0]
    ring = _six_ring(space)
    assert len(ring.verts) == 6
    calls = _count_calls(monkeypatch, deformation, "single_cell_move")
    _contract_dfs(space, ring, ring.verts[0], 2, lambda chain: None, 4,
                  frozenset(), set())
    tried = [cell for _, chain, cell in calls]
    assert all(chain is ring for _, chain, _ in calls)
    assert tried == _touching(space, ring)
    assert len(tried) < len(space.cells_of_dim(2)) // 2


def test_contraction_state_too_long_tries_no_move(monkeypatch):
    # with depth - 1 moves left a curve of squares shrinks by at most
    # 2 (depth - 1) vertices: the 16-vertex equator cannot get down to a
    # square in five moves, so at depth 6 it tries no move even when every
    # other curve would be a goal, and at depth 7 it is expanded
    space, equator = LATTICE4
    p = equator.verts[0]

    def goal(chain):
        return None if chain is equator else "goal"

    calls = _count_calls(monkeypatch, deformation, "single_cell_move")
    assert _contract_dfs(space, equator, p, 6, goal, 4, frozenset(),
                         set()) is None
    assert calls == []
    steps, moves = _contract_dfs(space, equator, p, 7, goal, 4, frozenset(),
                                 set())
    assert len(steps) == 2 and moves[1] == frozenset(("goal",))
    assert calls


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
    space, rings = _facet_rings(3, 4)
    ring = rings["facet-x0"]
    walks = _count_calls(monkeypatch, deformation, "walk")
    moves = _count_calls(monkeypatch, deformation, "single_cell_move")
    assert search_contraction(space, ring, ring.verts[0], 6) is not None
    assert moves
    space, equator = LATTICE4
    bfs_moves(space, equator, space.cells_of_dim(2),
              lambda steps, moves: None, 2)
    assert len(moves) > 1000
    assert walks == []


def test_search_reads_the_recorded_longest_loop(monkeypatch):
    # the length cut's bound comes from the space, recorded when its
    # 2-cells registered: the search lists no 2-cells
    space, rings = _facet_rings(3, 4)
    ring = rings["facet-x0"]
    listed = []
    real = space.cells_of_dim
    monkeypatch.setattr(space, "cells_of_dim",
                        lambda d: listed.append(d) or real(d))
    assert search_contraction(space, ring, ring.verts[0], 6) is not None
    assert space.longest_loop == 4
    assert listed == []


# -- the contraction search without the length cut ----------------------------


def reference_search(space, cycle, p, step_budget):
    """``(steps, moves)`` after the cycle from the iterative-deepening
    search over single-cell moves that expands every state; None when
    every depth up to the budget fails."""
    def goal_cell(chain):
        for cid in space.cofaces((1, edge_key(*chain.verts[:2]))):
            if len(cid[1]) != len(chain.verts) or p not in cid[1]:
                continue
            if {b[1] for b in space.cells[cid].boundary} == chain.edge_set():
                return cid
        return None

    for depth in range(1, step_budget + 1):
        found = reference_dfs(space, cycle, p, depth, goal_cell,
                              frozenset(), set())
        if found is not None:
            return found
    return None


def _curve_key(chain):
    """A curve's vertex walk, least over its starts and directions."""
    vs = chain.verts
    if not chain.closed:
        return min(vs, tuple(reversed(vs)))
    best = None
    for seq in (vs, tuple(reversed(vs))):
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def reference_dfs(space, cur, p, depth, goal_cell, banned, visited):
    cell = goal_cell(cur)
    if cell is not None:
        return (point_chain(space, p),), (frozenset((cell,)),)
    if depth <= 1:
        return None
    key = (_curve_key(cur), banned, depth)
    if key in visited:
        return None
    visited.add(key)
    cur_vs = cur.vertex_set()
    for cid, nxt in _cell_moves(space, cur):
        if not nxt.closed:
            continue
        vs = nxt.vertex_set()
        if p not in vs or vs & banned:
            continue
        nbanned = banned | frozenset(cur_vs - vs)
        sub = reference_dfs(space, nxt, p, depth - 1, goal_cell, nbanned,
                            visited)
        if sub is not None:
            steps, moves = sub
            return (nxt,) + steps, (frozenset((cid,)),) + moves
    return None


@PROPS
@given(moved_cycles(SPHERES), st.data())
def test_contraction_search_matches_the_unpruned_search(case, data):
    space, cycle = case
    p = data.draw(st.sampled_from(cycle.verts))
    budget = data.draw(st.integers(1, 4))
    found = reference_search(space, cycle, p, budget)
    trace = search_contraction(space, cycle, p, budget)
    event("found" if found else "none")
    if found is None:
        assert trace is None
    else:
        assert (trace.steps[1:], trace.moves) == found
