"""The single-cell move candidates of a curve, against a scan of every cell.

``deformation._cell_moves`` tries only the cofaces of the curve's edges.
The reference below calls ``single_cell_move`` on every cell of the pool;
both must give the same ``(cell, curve)`` list, in the same order, on
drawn open and closed curves.  The work bound checks that a contraction
search state tries no other cell.
"""

from hypothesis import given
from hypothesis import strategies as st

from celltopo import deformation
from celltopo.deformation import (_all_edges, _contract_dfs,
                                  cell_boundary_chain, search_contraction,
                                  single_cell_move)

from test_flatness_oracle import (PROPS, SPACES, _count_calls,
                                  lattice_sphere, simple_walks)

LATTICE4 = lattice_sphere(4)


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
    return sorted({cid for e in _all_edges(curve)
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
    space, equator = LATTICE4
    calls = _count_calls(monkeypatch, deformation, "single_cell_move")
    search_contraction(space, equator, equator.verts[0], 3)
    assert calls
    for _, chain, cell in calls:
        assert cell in _touching(space, chain)
