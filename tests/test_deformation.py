import random

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from celltopo import deformation
from celltopo import generators as gen
from celltopo.complexes import CellChain, DiscreteSpace, edge_key
from celltopo.deformation import (DeformationTrace, are_gradually_varied,
                                  are_side_gradually_varied, bfs_moves,
                                  cell_boundary_chain, crosses_over,
                                  decompose_minimal_moves, detour_sequence,
                                  intersection_is_attaching_arc,
                                  point_chain, realizing_cells,
                                  search_contraction, single_cell_move,
                                  verify_contraction, xor_sum)
from celltopo.errors import InputError, PreconditionError


def moebius_band():
    """Four twisted quads: rails 0-3 and 4-7, rungs (i, 4+i), last quad
    glued with a flip.  Not orientable."""
    edges = [(i, i + 1) for i in range(3)] + \
            [(4 + i, 5 + i) for i in range(3)] + \
            [(i, 4 + i) for i in range(4)] + [(3, 4), (0, 7)]
    quads = [(i, i + 1, 4 + i, 5 + i) for i in range(3)] + [(0, 3, 4, 7)]
    return DiscreteSpace(8, edges, {2: quads})


def random_simple_path(space, rng, max_len=6):
    v = rng.randrange(space.n_vertices)
    walk = [v]
    for _ in range(rng.randint(1, max_len)):
        options = [w for w in space.vertex_neighbors(walk[-1])
                   if w not in walk]
        if not options:
            break
        walk.append(rng.choice(options))
    if len(walk) == 1:
        walk.append(space.vertex_neighbors(walk[0])[0])
    return CellChain.path(space, walk)


# -- XorSum algebra ------------------------------------------------------------


def test_xor_self_annihilation(octa):
    eq = gen.equator(octa, "octahedron")
    assert xor_sum(octa, eq, eq).cells == ()


def test_xor_identity_and_involution(octa):
    eq = gen.equator(octa, "octahedron")
    empty = CellChain(1, ())
    assert set(xor_sum(octa, eq, empty).cells) == set(eq.cells)
    tri = cell_boundary_chain(octa, (2, (0, 1, 2)))
    once = xor_sum(octa, eq, tri)
    assert set(xor_sum(octa, once, tri).cells) == set(eq.cells)
    assert set(xor_sum(octa, once, eq).cells) == set(tri.cells)


def test_xor_dimension_mismatch(octa, simplex4):
    eq = gen.equator(octa, "octahedron")
    sphere = gen.equator(simplex4, "simplex-boundary")
    with pytest.raises(InputError):
        xor_sum(octa, eq, sphere)


def test_xor_laws_thousand_pairs(torus44):
    rng = random.Random(20240811)
    empty = CellChain(1, ())
    for _ in range(1000):
        a = random_simple_path(torus44, rng)
        b = random_simple_path(torus44, rng)
        ab = xor_sum(torus44, a, b)
        ba = xor_sum(torus44, b, a)
        assert set(ab.cells) == set(ba.cells)
        assert set(xor_sum(torus44, ab, b).cells) == set(a.cells)
        assert set(xor_sum(torus44, a, empty).cells) == set(a.cells)


def test_xor_hollow_cycle_not_varied():
    # the difference encloses an off-curve vertex: a cycle spanning no
    # 2-cells of the union, so the curves are not gradually varied
    grid = gen.strip_grid(4, 4)

    def vid(i, j):
        return i * 5 + j

    c = CellChain.path(grid, [vid(0, 0), vid(1, 0), vid(2, 0)])
    arch = CellChain.path(grid, [vid(0, 0), vid(0, 1), vid(0, 2), vid(1, 2),
                                 vid(2, 2), vid(2, 1), vid(2, 0)])
    x = xor_sum(grid, c, arch)
    assert x.closed
    assert not are_gradually_varied(grid, c, arch)


# -- gradual variation -----------------------------------------------------------


def test_identity_and_bump(octa):
    eq = gen.equator(octa, "octahedron")
    assert are_gradually_varied(octa, eq, eq)


def test_grid_pairs():
    grid = gen.strip_grid(4, 3)

    def vid(i, j):
        return i * 4 + j

    c = CellChain.path(grid, [vid(i, 1) for i in range(5)])
    near = CellChain.path(grid, [vid(i, 2) for i in range(5)])
    far = CellChain.path(grid, [vid(i, 3) for i in range(5)])
    bump = CellChain.path(grid, [vid(0, 1), vid(0, 2), vid(1, 2), vid(1, 1),
                                 vid(2, 1), vid(3, 1), vid(4, 1)])
    assert are_gradually_varied(grid, c, near)
    assert are_gradually_varied(grid, near, c)
    assert not are_gradually_varied(grid, c, far)
    assert are_gradually_varied(grid, c, bump)


def test_triangle_push():
    tg = gen.strip_grid(3, 3, triangulated=True)

    def vid(i, j):
        return i * 4 + j

    base = CellChain.path(tg, [vid(0, 1), vid(1, 1), vid(2, 1)])
    push = CellChain.path(tg, [vid(0, 1), vid(1, 1), vid(2, 2), vid(2, 1)])
    assert are_gradually_varied(tg, base, push)
    x = xor_sum(tg, base, push)
    assert set(e for _, e in x.cells) == {
        edge_key(vid(1, 1), vid(2, 1)), edge_key(vid(1, 1), vid(2, 2)),
        edge_key(vid(2, 2), vid(2, 1))}


def test_point_target(octa):
    tri = cell_boundary_chain(octa, (2, (0, 1, 2)))
    assert are_gradually_varied(octa, tri, point_chain(octa, 1))


# -- minimal moves ----------------------------------------------------------------


def test_decompose_identity(octa):
    eq = gen.equator(octa, "octahedron")
    trace = decompose_minimal_moves(octa, eq, eq)
    assert len(trace.steps) == 1 and trace.moves == ()


def test_decompose_and_replay():
    grid = gen.strip_grid(4, 3)

    def vid(i, j):
        return i * 4 + j

    c = CellChain.path(grid, [vid(i, 1) for i in range(5)])
    b2 = CellChain.path(grid, [vid(0, 1), vid(0, 2), vid(1, 2), vid(2, 2),
                               vid(2, 1), vid(3, 1), vid(4, 1)])
    trace = decompose_minimal_moves(grid, c, b2)
    assert trace.kind == "minimal"
    assert all(len(m) == 1 for m in trace.moves)
    assert len(trace.moves) == 2
    edges = set(e for _, e in xor_sum(grid, c, c).cells) | \
        {edge_key(u, v) for u, v in zip(c.verts, c.verts[1:])}
    for m in trace.moves:
        cell = next(iter(m))
        faces = {b[1] for b in grid.cells[cell].boundary}
        edges = edges.symmetric_difference(faces)
    want = {edge_key(u, v) for u, v in zip(b2.verts, b2.verts[1:])}
    assert edges == want


def test_decompose_three_disjoint_bumps():
    tg = gen.strip_grid(6, 2, triangulated=True)

    def vid(i, j):
        return i * 3 + j

    c = CellChain.path(tg, [vid(i, 0) for i in range(7)])
    bumps = [vid(0, 0), vid(1, 1), vid(1, 0), vid(2, 0), vid(3, 1),
             vid(3, 0), vid(4, 0), vid(5, 1), vid(5, 0), vid(6, 0)]
    cp = CellChain.path(tg, bumps)
    assert are_gradually_varied(tg, c, cp)
    trace = decompose_minimal_moves(tg, c, cp)
    assert len(trace.moves) == 3
    cells = [next(iter(m)) for m in trace.moves]
    assert cells == sorted(cells)


@pytest.mark.parametrize("space,c,cp,closed,steps,cells", [
    (gen.octahedron(), (0, 2, 1, 4), (0, 2, 1, 5, 4, 3), True,
     [(0, 2, 1, 4), (0, 2, 1, 4, 3), (0, 2, 1, 5, 4, 3)],
     [(2, (0, 3, 4)), (2, (1, 4, 5))]),
    (gen.seven_vertex_torus(), (1, 5, 0, 3), (1, 6, 5, 4, 0, 2, 3), False,
     [(1, 5, 0, 3), (1, 5, 0, 2, 3), (1, 5, 4, 0, 2, 3),
      (1, 6, 5, 4, 0, 2, 3)],
     [(2, (0, 2, 3)), (2, (0, 4, 5)), (2, (1, 5, 6))]),
], ids=["octahedron", "seven-vertex-torus"])
def test_decompose_falls_back_when_the_greedy_order_wedges(
        monkeypatch, space, c, cp, closed, steps, cells):
    """No greedy step shrinks the gap here, so the breadth-first fallback
    finds the trace."""
    searches = []

    def counted(*args, **kwargs):
        searches.append(args)
        return bfs_moves(*args, **kwargs)

    monkeypatch.setattr(deformation, "bfs_moves", counted)
    pools = []
    real_pool = deformation._spanned_cells

    def pooled(*args):
        pools.append(args)
        return real_pool(*args)

    monkeypatch.setattr(deformation, "_spanned_cells", pooled)
    trace = decompose_minimal_moves(space, CellChain.path(space, c, closed),
                                    CellChain.path(space, cp, closed))
    assert len(searches) == 1
    assert len(pools) == 1      # the pool is built for the fallback alone
    assert trace.kind == "minimal"
    assert [s.verts for s in trace.steps] == steps
    assert trace.moves == tuple(frozenset((cell,)) for cell in cells)


def test_decompose_needs_matching_endpoints():
    grid = gen.strip_grid(4, 3)

    def vid(i, j):
        return i * 4 + j

    c = CellChain.path(grid, [vid(i, 1) for i in range(5)])
    near = CellChain.path(grid, [vid(i, 2) for i in range(5)])
    with pytest.raises(PreconditionError):
        decompose_minimal_moves(grid, c, near)


def test_single_cell_move_lemma_quantified():
    # over every (simple short path, arc-attached 2-cell) pair on two small
    # grids, the XorSum stays a simple curve and is one gradual step away
    for space in (gen.strip_grid(3, 2), gen.strip_grid(2, 2, True)):
        paths = []

        def extend(walk):
            if 2 <= len(walk) <= 4:
                paths.append(CellChain.path(space, walk))
            if len(walk) >= 4:
                return
            for w in space.vertex_neighbors(walk[-1]):
                if w not in walk:
                    extend(walk + [w])

        for v in range(space.n_vertices):
            extend([v])
        checked = 0
        for chain in paths:
            for cell in space.cells_of_dim(2):
                if not intersection_is_attaching_arc(space, chain, cell):
                    continue
                out = single_cell_move(space, chain, cell)
                assert out is not None      # the XorSum stays a simple curve
                checked += 1
                assert are_gradually_varied(space, chain, out)
        assert checked > 100


# -- gradual variation against the two-clause rule ---------------------------------


ORACLE_SPACES = {
    "S(3, 4)": gen.lattice_sphere(3, 4)[0],
    "S(4, 2)": gen.lattice_sphere(4, 2)[0],
    "octahedron": gen.octahedron(),
    "torus": gen.torus_grid(4, 4),
}

ORACLE_PROPS = settings(max_examples=400, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def two_clause_half_varied(space, c, cp, verts) -> bool:
    """The rule as stated: the vertex clause at every non-end vertex of c,
    then the edge clause at every non-end edge."""
    other_verts = cp.vertex_set()
    if len(c.verts) == 1:
        return True
    for v in (c.verts if c.closed else c.verts[1:-1]):
        if v in other_verts:
            continue
        if not any(other_verts & set(cid[1]) and verts.issuperset(cid[1])
                   for cid in space.cells_containing(v, 2)):
            return False
    if len(cp.verts) == 1:
        return True
    mine = c.edge_set()
    theirs = cp.edge_set()
    gains = theirs - mine
    edges = tuple(cid[1] for cid in c.cells)
    for e in (edges if c.closed else edges[1:-1]):
        if e in theirs:
            continue
        if not any(verts.issuperset(cid[1]) and
                   gains & {b[1] for b in space.cells[cid].boundary}
                   for cid in space.cofaces((1, e))):
            return False
    return True


def two_clause_gradually_varied(space, c, cp) -> bool:
    if not c.closed and not cp.closed:
        near = deformation._within_one_cell
        if not (near(space, c.verts[0], cp.verts[0]) and
                near(space, c.verts[-1], cp.verts[-1]) or
                near(space, c.verts[0], cp.verts[-1]) and
                near(space, c.verts[-1], cp.verts[0])):
            return False
    verts = c.vertex_set() | cp.vertex_set()
    return (two_clause_half_varied(space, c, cp, verts)
            and two_clause_half_varied(space, cp, c, verts))


def _moved(draw, space, curve, most, least=0):
    """``curve`` after ``least`` to ``most`` drawn single-cell moves, or
    fewer where no move applies."""
    for _ in range(draw(st.integers(least, most))):
        options = [nxt for _, nxt in deformation._cell_moves(space, curve)]
        if not options:
            break
        curve = draw(st.sampled_from(options))
    return curve


def _walk(draw, space, start, length):
    """A self-avoiding walk from ``start`` of at most ``length``
    vertices."""
    path = [start]
    while len(path) < length:
        fresh = [w for w in space.vertex_neighbors(path[-1])
                 if w not in path]
        if not fresh:
            break
        path.append(draw(st.sampled_from(fresh)))
    return path


@st.composite
def oracle_pairs(draw):
    """A space and two curves.  Two draws in three are near pairs: a
    closed curve (single-cell moves from a 2-cell's boundary) or an open
    path of 2 to 6 vertices, and the same curve after 1 to 3 single-cell
    moves, so that most draws decompose into moves.  The others are of one
    kind: closed curves, the second moved from the first or drawn apart;
    open paths of 1 to 6 vertices, the second after moves (same ends),
    ending at the first's ends or drawn apart; or a point and a closed
    curve, in either order."""
    space = ORACLE_SPACES[draw(st.sampled_from(sorted(ORACLE_SPACES)))]
    kind = draw(st.sampled_from(("near",) * 6 + ("closed", "open", "point")))
    cells = space.cells_of_dim(2)
    if kind == "near":
        if draw(st.booleans()):
            c = CellChain.path(space, _walk(
                draw, space, draw(st.integers(0, space.n_vertices - 1)),
                draw(st.integers(2, 6))))
        else:
            c = _moved(draw, space, cell_boundary_chain(
                space, draw(st.sampled_from(cells))), 6)
        cp = _moved(draw, space, c, 3, least=1)
    elif kind == "open":
        c = CellChain.path(space, _walk(
            draw, space, draw(st.integers(0, space.n_vertices - 1)),
            draw(st.integers(1, 6))))
        how = draw(st.sampled_from(("moved", "same ends", "apart")))
        if how == "moved":
            cp = _moved(draw, space, c, 3)
        elif how == "same ends" and len(c.verts) > 1:
            # a walk from c's start closed off at c's end once it gets
            # next to it
            last = c.verts[-1]
            path = [c.verts[0]]
            while last not in path and len(path) < 6:
                fresh = [w for w in space.vertex_neighbors(path[-1])
                         if w not in path]
                if not fresh:
                    break
                path.append(last if last in fresh else
                            draw(st.sampled_from(fresh)))
            cp = CellChain.path(space, path)
        else:
            cp = CellChain.path(space, _walk(
                draw, space, draw(st.integers(0, space.n_vertices - 1)),
                draw(st.integers(1, 6))))
    else:
        # a single-cell move keeps a closed curve closed
        c = _moved(draw, space, cell_boundary_chain(
            space, draw(st.sampled_from(cells))), 6)
        if kind == "point":
            v = draw(st.one_of(st.sampled_from(c.verts),
                               st.integers(0, space.n_vertices - 1)))
            cp = point_chain(space, v)
        elif draw(st.booleans()):
            cp = _moved(draw, space, c, 3)
        else:
            cp = _moved(draw, space, cell_boundary_chain(
                space, draw(st.sampled_from(cells))), 6)
    if draw(st.booleans()):
        c, cp = cp, c
    return space, c, cp


@ORACLE_PROPS
@given(oracle_pairs())
def test_gradual_variation_matches_the_two_clause_rule(case):
    space, c, cp = case
    want = two_clause_gradually_varied(space, c, cp)
    event("gradually varied" if want else "not gradually varied")
    assert are_gradually_varied(space, c, cp) is want
    assert are_gradually_varied(space, cp, c) is \
        two_clause_gradually_varied(space, cp, c)
    side = want and (space.top_dim != 2 or min(len(c.verts),
                                               len(cp.verts)) < 2
                     or not crosses_over(space, c, cp))
    assert are_side_gradually_varied(space, c, cp) is side


def test_only_the_vertex_clause_decides_short_paths(octa):
    # two 3-vertex paths between the poles: no non-end edge, so only the
    # vertex clause can tell them apart, and 1 and 3 share no triangle
    a = CellChain.path(octa, (0, 1, 5))
    b = CellChain.path(octa, (0, 3, 5))
    assert not two_clause_gradually_varied(octa, a, b)
    assert not are_gradually_varied(octa, a, b)
    assert not are_gradually_varied(octa, b, a)
    assert not are_side_gradually_varied(octa, a, b)
    assert are_gradually_varied(octa, a, CellChain.path(octa, (0, 2, 5)))


# -- greedy decomposition against the pool-and-splice greedy ----------------------


def reference_decompose(space, c, cp):
    """The greedy decomposition before moves were scored: it builds the
    pool of every spanned 2-cell up front, splices every pool cell that
    touches the curve, and takes the first move whose curve is nearer
    cp's edges."""
    deformation._require_curve(c)
    deformation._require_curve(cp)
    if c.edge_set() == cp.edge_set():
        return DeformationTrace((c,), (), "minimal")
    if not are_gradually_varied(space, c, cp):
        raise PreconditionError("curves are not gradually varied")
    if not c.closed and {c.verts[0], c.verts[-1]} != {cp.verts[0],
                                                      cp.verts[-1]}:
        raise PreconditionError("single-cell decomposition needs matching "
                                "endpoints")
    pool = deformation._spanned_cells(space, c.vertex_set() | cp.vertex_set())
    target = cp.edge_set()
    steps, moves = [c], []
    while steps[-1].edge_set() != target:
        cur = steps[-1]
        gap = len(cur.edge_set() ^ target)
        best = next(((cell, nxt) for cell, nxt in
                     deformation._cell_moves(space, cur, pool)
                     if len(nxt.edge_set() ^ target) < gap), None)
        if best is None:
            trace = bfs_moves(space, c, pool, deformation._reaching(target),
                              len(pool) + 2)
            if trace is None:
                raise PreconditionError("no single-cell decomposition found")
            return trace
        steps.append(best[1])
        moves.append(frozenset((best[0],)))
    return DeformationTrace(tuple(steps), tuple(moves), "minimal")


def _decomposition(decompose, space, c, cp):
    """The trace's steps, moves and kind, or the error's type and
    message."""
    try:
        trace = decompose(space, c, cp)
    except (InputError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return trace.steps, trace.moves, trace.kind


@ORACLE_PROPS
@given(oracle_pairs())
def test_decomposition_matches_the_pool_and_splice_greedy(case):
    space, c, cp = case
    got = _decomposition(decompose_minimal_moves, space, c, cp)
    event(got[1] if isinstance(got[1], str) else
          "%d moves" % min(len(got[1]), 3))
    assert got == _decomposition(reference_decompose, space, c, cp)


def test_decomposition_errors_match_the_pool_and_splice_greedy():
    grid = gen.strip_grid(4, 3)

    def vid(i, j):
        return i * 4 + j

    c = CellChain.path(grid, [vid(i, 1) for i in range(5)])
    shifted = CellChain.path(grid, [vid(i, 2) for i in range(5)])
    apart = CellChain.path(grid, [vid(i, 3) for i in range(5)])
    # same ends, but the bump two rows high is not one cell away
    far = CellChain.path(grid, [vid(0, 1), vid(1, 1), vid(1, 2), vid(1, 3),
                                vid(2, 3), vid(2, 2), vid(2, 1), vid(3, 1),
                                vid(4, 1)])
    for cp, message in ((shifted, "needs matching endpoints"),
                        (apart, "not gradually varied"),
                        (far, "not gradually varied")):
        got = _decomposition(decompose_minimal_moves, grid, c, cp)
        assert got[0] == "PreconditionError" and message in got[1]
        assert got == _decomposition(reference_decompose, grid, c, cp)


def test_decompose_skips_a_move_that_keeps_the_gap():
    # a row of three squares, numbered so that the middle one has the
    # smallest id; it moves the bottom path by one edge and keeps the gap
    # to the path over the top (two of its four edges are off by one), so
    # the greedy takes the left square first
    b0, b1, b2, b3, t0, t1, t2, t3 = 4, 0, 1, 6, 5, 2, 3, 7
    row = DiscreteSpace(8, [(b0, b1), (b1, b2), (b2, b3), (t0, t1),
                            (t1, t2), (t2, t3), (b0, t0), (b1, t1),
                            (b2, t2), (b3, t3)],
                        {2: [(b0, b1, t1, t0), (b1, b2, t2, t1),
                             (b2, b3, t3, t2)]})
    bottom = CellChain.path(row, (b0, b1, b2, b3))
    top = CellChain.path(row, (b0, t0, t1, t2, t3, b3))
    left, middle, right = ((2, tuple(sorted(q))) for q in
                           ((b0, b1, t1, t0), (b1, b2, t2, t1),
                            (b2, b3, t3, t2)))
    assert middle < left < right
    for c, cp in ((bottom, top), (top, bottom)):
        trace = decompose_minimal_moves(row, c, cp)
        assert trace.moves == tuple(frozenset((q,))
                                    for q in (left, middle, right))
        assert _decomposition(decompose_minimal_moves, row, c, cp) == \
            _decomposition(reference_decompose, row, c, cp)


def _decomposition_cases():
    grid = gen.strip_grid(4, 3)
    line = CellChain.path(grid, [i * 4 + 1 for i in range(5)])
    bump = CellChain.path(grid, (1, 2, 6, 10, 9, 13, 17))
    tg = gen.strip_grid(6, 2, triangulated=True)
    flat = CellChain.path(tg, [3 * i for i in range(7)])
    bumps = CellChain.path(tg, (0, 4, 3, 6, 10, 9, 12, 16, 15, 18))
    # a square of S(3, 4) grown by two of its neighbours, one cell away
    sphere = gen.lattice_sphere(3, 4)[0]
    square = cell_boundary_chain(sphere, sphere.cells_of_dim(2)[0])
    grown = next(two for _, one in deformation._cell_moves(sphere, square)
                 for _, two in deformation._cell_moves(sphere, one)
                 if len(two.verts) == 8 and
                 are_gradually_varied(sphere, square, two))
    return [(grid, line, bump), (grid, bump, line), (tg, flat, bumps),
            (sphere, square, grown), (sphere, grown, square)]


@pytest.mark.parametrize("space,c,cp", _decomposition_cases(),
                         ids=["grid", "grid-back", "bumps", "sphere",
                              "sphere-back"])
def test_decompose_splices_only_the_moves_it_takes(monkeypatch, space, c,
                                                    cp):
    spliced, pools = [], []
    real_splice, real_pool = CellChain._spliced, deformation._spanned_cells

    def splice(*args):
        spliced.append(args)
        return real_splice(*args)

    def pool(*args):
        pools.append(args)
        return real_pool(*args)

    monkeypatch.setattr(CellChain, "_spliced", staticmethod(splice))
    monkeypatch.setattr(deformation, "_spanned_cells", pool)
    trace = decompose_minimal_moves(space, c, cp)
    assert len(trace.moves) >= 2
    assert len(spliced) == len(trace.moves)
    assert pools == []
    assert trace.steps[-1].edge_set() == cp.edge_set()
    monkeypatch.undo()
    assert _decomposition(decompose_minimal_moves, space, c, cp) == \
        _decomposition(reference_decompose, space, c, cp)


# -- cross-over -------------------------------------------------------------------


def crossing_fixture():
    big = gen.strip_grid(4, 4, triangulated=True)

    def vid(i, j):
        return i * 5 + j

    row = CellChain.path(big, [vid(i, 1) for i in range(5)])
    touch = CellChain.path(big, [vid(0, 2), vid(1, 2), vid(1, 1),
                                 vid(2, 2), vid(3, 2)])
    weave = CellChain.path(big, [vid(0, 2), vid(1, 2), vid(1, 1),
                                 vid(1, 0), vid(2, 0)])
    return big, row, touch, weave


def test_crosses_over_cases():
    big, row, touch, weave = crossing_fixture()
    assert not crosses_over(big, row, touch)
    assert crosses_over(big, row, weave)
    assert crosses_over(big, row, weave.reversed())
    assert not crosses_over(big, row, row)


def test_crosses_over_needs_orientation():
    mb = moebius_band()
    assert not mb.oriented
    a = CellChain.path(mb, [0, 1, 2])
    b = CellChain.path(mb, [4, 5, 6])
    with pytest.raises(PreconditionError):
        crosses_over(mb, a, b)


def test_side_gradual_weave():
    tg = gen.strip_grid(3, 3, triangulated=True)

    def vid(i, j):
        return i * 4 + j

    c = CellChain.path(tg, [vid(0, 1), vid(1, 1), vid(2, 1)])
    diag = CellChain.path(tg, [vid(0, 0), vid(1, 1), vid(2, 2)])
    assert are_gradually_varied(tg, c, diag)
    assert crosses_over(tg, c, diag)
    assert not are_side_gradually_varied(tg, c, diag)
    assert are_side_gradually_varied(tg, c, c)


def test_side_gradual_in_dimension_three(simplex4):
    # cross-over is a surface notion; higher-dimensional spaces only need
    # the gradual-variation clauses
    a = CellChain.path(simplex4, [0, 1, 2])
    b = CellChain.path(simplex4, [0, 3, 2])
    assert are_side_gradually_varied(simplex4, a, b) == \
        are_gradually_varied(simplex4, a, b)


# -- detours ----------------------------------------------------------------------


def test_detour_tetrahedron(simplex3):
    c0 = CellChain.path(simplex3, [0, 1, 2])
    c1 = CellChain.path(simplex3, [0, 2])
    trace = detour_sequence(simplex3, c0, c1, (2, (0, 1, 2)))
    assert [s.verts for s in trace.steps] == \
        [(0, 1, 2), (0, 3, 1, 2), (0, 3, 2), (0, 2)]
    assert all((2, (0, 1, 2)) not in m for m in trace.moves)


def test_detour_cube(cube3):
    c0 = CellChain.path(cube3, [0, 4, 6])
    c1 = CellChain.path(cube3, [0, 2, 6])
    trace = detour_sequence(cube3, c0, c1, (2, (0, 2, 4, 6)))
    assert len(trace.moves) == 5
    assert all((2, (0, 2, 4, 6)) not in m for m in trace.moves)
    assert trace.steps[-1].verts == (0, 2, 6)


def test_detour_trivial(simplex3):
    c0 = CellChain.path(simplex3, [0, 1, 2])
    trace = detour_sequence(simplex3, c0, c0, (2, (0, 1, 2)))
    assert len(trace.steps) == 1 and trace.moves == ()


def test_detour_requires_bounding(simplex3):
    c0 = CellChain.path(simplex3, [0, 1, 2])
    c1 = CellChain.path(simplex3, [0, 3, 2])
    with pytest.raises(PreconditionError):
        detour_sequence(simplex3, c0, c1, (2, (0, 1, 2)))


# -- contraction ------------------------------------------------------------------


def test_verify_single_cell_contraction(octa):
    tri = cell_boundary_chain(octa, (2, (0, 1, 2)))
    trace = search_contraction(octa, tri, 1, 2)
    assert trace is not None and len(trace.moves) == 1
    assert verify_contraction(octa, tri, 1, trace)


def test_contraction_octahedron_equator(octa):
    eq = gen.equator(octa, "octahedron")
    trace = search_contraction(octa, eq, 1, 8)
    assert trace is not None
    assert verify_contraction(octa, eq, 1, trace)
    assert trace.steps[-1].verts == (1,)


def test_verify_rejects_reacquisition(octa):
    eq = gen.equator(octa, "octahedron")
    trace = search_contraction(octa, eq, 1, 8)
    # splice the starting cycle back in right before the end
    bad = DeformationTrace(trace.steps[:-1] + (trace.steps[0],
                                               trace.steps[-1]),
                           trace.moves + (frozenset(),), trace.kind)
    report = verify_contraction(octa, eq, 1, bad)
    assert not report
    assert any("re-acquires" in p for p in report.problems)


def test_torus_cycle_not_contractible(torus44):
    mer = gen.torus_meridian(torus44, 4)
    assert search_contraction(torus44, mer, 0, 5) is None


def test_contraction_steps_decompose(octa):
    # every gradual step of a found contraction splits into one-cell moves
    eq = gen.equator(octa, "octahedron")
    trace = search_contraction(octa, eq, 1, 8)
    for a, b in zip(trace.steps, trace.steps[1:]):
        if len(b.verts) == 1 or a.closed != b.closed:
            continue
        sub = decompose_minimal_moves(octa, a, b)
        assert all(len(m) == 1 for m in sub.moves)


# -- realizing cells ---------------------------------------------------------------


def test_realizing_cells(octa):
    eq = gen.equator(octa, "octahedron")
    tri = cell_boundary_chain(octa, (2, (0, 1, 2)))
    pushed = xor_sum(octa, eq, tri)
    from celltopo.deformation import edges_to_curve
    curve = edges_to_curve(octa, [e for _, e in pushed.cells])
    cells = realizing_cells(octa, eq, curve)
    assert cells == frozenset({(2, (0, 1, 2))})
    assert realizing_cells(octa, eq, eq) == frozenset()
