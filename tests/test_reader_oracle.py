"""Two index readers against the list scans they replace.

``deformation._half_varied`` reads the 2-cells at a vertex and the
cofaces of an edge, and ``flatness._side_cells`` finds the top cells
holding a chain edge by iterated cofaces.  The references below are the
older scans: every 2-cell spanned by the two curves' vertices, checked
cell by cell, and the closure of every top cell at a chain vertex.  Both
must give the same answers on drawn curves.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from celltopo import generators as gen
from celltopo.complexes import CellChain, closure
from celltopo.deformation import (_half_varied, _nonend_verts,
                                  _spanned_cells, single_cell_move)
from celltopo.flatness import _side_cells

PROPS = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

VARIED_SPACES = {
    "torus": gen.torus_grid(4, 5),
    "strip-tri": gen.strip_grid(3, 3, triangulated=True),
    "seven": gen.seven_vertex_torus(),
    "S(4, 3)": gen.lattice_sphere(4, 3)[0],
}

SIDE_SPACES = {
    "S(3, %d)" % n: gen.lattice_sphere(3, n)[0] for n in (1, 2, 3, 5)}
SIDE_SPACES["S(4, 3)"] = VARIED_SPACES["S(4, 3)"]


def _nonend_edges(chain) -> tuple:
    edges = tuple(cid[1] for cid in chain.cells)
    return edges if chain.closed else edges[1:-1]


def reference_half_varied(space, c, cp, bridge_cells) -> bool:
    other_verts = cp.vertex_set()
    if len(c.verts) == 1:
        return True
    for v in _nonend_verts(c):
        if v in other_verts:
            continue
        if not any(v in cid[1] and other_verts & set(cid[1])
                   for cid in bridge_cells):
            return False
    if len(cp.verts) == 1:
        return True
    mine = c.edge_set()
    theirs = cp.edge_set()
    gains = theirs - mine
    for e in _nonend_edges(c):
        if e in theirs:
            continue
        ok = False
        for cid in bridge_cells:
            faces = {b[1] for b in space.cells[cid].boundary}
            if e in faces and gains & faces:
                ok = True
                break
        if not ok:
            return False
    return True


def reference_side_cells(space, chain) -> list:
    near = sorted({cid for v in chain.vertex_set()
                   for cid in space.cells_containing(v, space.top_dim)})
    if chain.dim != 1:
        return near
    interior = set(chain.verts if chain.closed else chain.verts[1:-1])
    edges = chain.edge_set()
    return [cid for cid in near
            if interior & set(cid[1])
            or any(set(e) <= set(cid[1]) and
                   (1, e) in closure(space, (cid,), 1) for e in edges)]


def _draw_walk(draw, space, start=None, closed=None):
    """A self-avoiding walk from ``start`` (drawn when None), of one vertex
    or more; closed when its ends are adjacent, it has three vertices or
    more and ``closed`` (drawn when None) allows it."""
    path = [draw(st.integers(0, space.n_vertices - 1))
            if start is None else start]
    for _ in range(draw(st.integers(0, 8))):
        fresh = [w for w in space.vertex_neighbors(path[-1]) if w not in path]
        if not fresh:
            break
        path.append(draw(st.sampled_from(fresh)))
    if closed is None:
        closed = draw(st.booleans())
    closed = closed and len(path) >= 3 and \
        path[0] in space.vertex_neighbors(path[-1])
    return CellChain.path(space, path, closed=closed)


@st.composite
def curve_pairs(draw):
    """A space and two curves: the second drawn on its own, or the first
    after up to three single-cell moves, so that both verdicts occur."""
    space = VARIED_SPACES[draw(st.sampled_from(sorted(VARIED_SPACES)))]
    c = _draw_walk(draw, space)
    if draw(st.booleans()):
        return space, c, _draw_walk(draw, space, closed=c.closed)
    cp = c
    for _ in range(draw(st.integers(0, 3))):
        moves = [m for m in (single_cell_move(space, cp, cid) for cid in
                             sorted({x for e in cp.cells
                                     for x in space.cofaces(e)}))
                 if m is not None]
        if not moves:
            break
        cp = draw(st.sampled_from(moves))
    return space, c, cp


@PROPS
@given(curve_pairs())
def test_half_varied_matches_the_spanned_cell_scan(case):
    space, c, cp = case
    verts = c.vertex_set() | cp.vertex_set()
    bridge = _spanned_cells(space, verts)
    for a, b in ((c, cp), (cp, c)):
        assert _half_varied(space, a, b, verts) == \
            reference_half_varied(space, a, b, bridge)


@PROPS
@given(st.data())
def test_side_cells_match_the_closure_scan(data):
    space = SIDE_SPACES[data.draw(st.sampled_from(sorted(SIDE_SPACES)))]
    chain = _draw_walk(data.draw, space)
    assert _side_cells(space, chain) == reference_side_cells(space, chain)
