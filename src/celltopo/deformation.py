"""Curve deformation: XorSum algebra and gradually varied moves.

Two curves are gradually varied when each can be matched to the other by
moving every point at most one cell: every non-end vertex of one lies on
the other or shares a 2-cell (spanned by the two curves' vertices) with it,
and every non-end edge not shared lies in such a 2-cell (a coface) that
carries an edge of the other curve; a coface's boundary edges are read
against the other curve's gained edges in place, with no set built per
cell.  The edge clause covers the vertex clause: a non-end vertex off the
other curve lies on a non-end edge off it, and the 2-cell matching that
edge also matches the vertex.  So the vertex clause is tested only where
there is no edge to test, against a point or along an open path of at most
three vertices.  A gradually varied move decomposes into single-cell moves,
each the XorSum with one 2-cell boundary.  A move needs an edge of the cell
on the curve, so the move searches try only the cofaces of the current
curve's edges and skip every other cell of their pool.  A move by a cell
with loop edges L takes the curve's edge set E to E xor L, so the greedy
decomposition scores a cell's gap to the target from its loop alone and
builds only the move it takes; the pool of every spanned cell is built only
for its breadth-first fallback.  When the cell's loop meets the curve in
one arc, the XorSum is a splice: the curve's arc is replaced by the loop's
other arc, read off the loop and the curve's vertex order without
rebuilding the curve from its edges.  The new curve is built by
``CellChain._spliced``, which checks only the spliced-in arc and slices the
rest from the old curve; each curve keeps its edge set once built.  Side
variation additionally forbids cross-overs: a stretch of edges both curves
share that one curve enters and leaves on opposite sides of the other, read
in the oriented links of the stretch's ends (a boundary vertex's link path
is closed by a sentinel for the outside).  A vertex's oriented link, its
rotation, is built on first use and kept in a write-once store on the
space, so later queries on that space read it.  A cycle on a surface
contracts by construction: its smaller side is dissolved one cell per move
toward a cell at the anchor, so the result within a step budget is exact;
above dimension 2 a bounded search over single-cell moves looks for one.
One move shortens a curve by at most the longest 2-cell loop (recorded by
the space) less two vertices, so the search cuts a curve too long to shrink
to a 2-cell in the moves it has left; the cut drops only states that cannot
reach a goal, so it changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (CellChain, CheckReport, DiscreteSpace, _levels,
                        _touching, edge_key, face_counts, walk)
from .errors import InputError, PreconditionError, UnsupportedConfiguration

MOVE_GRADUAL = "gradual"
MOVE_MINIMAL = "minimal"
MOVE_SIDE_GRADUAL = "side-gradual"


@dataclass(frozen=True)
class DeformationTrace:
    """A sequence of chains whose consecutive pairs differ by declared moves.

    ``moves[t]`` is the set of cells realizing the XorSum between steps t
    and t+1; minimal traces use exactly one cell per move.
    """

    steps: tuple
    moves: tuple
    kind: str

    def __post_init__(self):
        if self.steps and len(self.moves) != len(self.steps) - 1:
            raise InputError("a trace with %d steps needs %d move sets"
                             % (len(self.steps), len(self.steps) - 1))


def xor_sum(space: DiscreteSpace, a: CellChain, b: CellChain) -> CellChain:
    """Symmetric difference of the two chains' cell sets."""
    if a.dim != b.dim:
        raise InputError("xor_sum needs chains of one dimension")
    sa, sb = set(a.cells), set(b.cells)
    cells = tuple(sorted(sa.symmetric_difference(sb)))
    # a GF(2) cycle: every face count is even, not necessarily two
    closed = bool(cells) and all(n % 2 == 0 for n in
                                 face_counts(space, cells).values())
    return CellChain(a.dim, cells, closed=closed)


def _require_curve(chain: CellChain):
    if chain.dim != 1 or chain.verts is None:
        raise InputError("expected an ordered dim-1 chain")


def _nonend_verts(chain: CellChain) -> tuple:
    if chain.closed:
        return chain.verts
    return chain.verts[1:-1]


def _within_one_cell(space: DiscreteSpace, x: int, y: int) -> bool:
    if x == y:
        return True
    if edge_key(x, y) in space.edges:
        return True
    return any(y in cid[1] for cid in space.cells_containing(x, 2))


def are_gradually_varied(space: DiscreteSpace, c: CellChain,
                         cp: CellChain) -> bool:
    """One-step deformability of two simple curves (or a curve and a point).

    Each curve is matched on the other by ``_half_varied``, both reading
    one union of the curves' vertex sets.
    """
    _require_curve(c)
    _require_curve(cp)
    if c.closed != cp.closed and 1 not in (len(c.verts), len(cp.verts)):
        raise InputError("cannot compare a closed curve with an open one")
    if not c.closed and not cp.closed:
        # end slack: respective ends at most one cell apart, under either
        # pairing since paths carry no inherent direction
        straight = (_within_one_cell(space, c.verts[0], cp.verts[0])
                    and _within_one_cell(space, c.verts[-1], cp.verts[-1]))
        flipped = (_within_one_cell(space, c.verts[0], cp.verts[-1])
                   and _within_one_cell(space, c.verts[-1], cp.verts[0]))
        if not (straight or flipped):
            return False
    verts = c.vertex_set() | cp.vertex_set()
    return (_half_varied(space, c, cp, verts)
            and _half_varied(space, cp, c, verts))


def _spanned_cells(space: DiscreteSpace, verts: frozenset) -> list:
    """The 2-cells with every vertex in ``verts``, sorted."""
    return sorted({cid for v in verts for cid in space.cells_containing(v, 2)
                   if verts.issuperset(cid[1])})


def _half_varied(space: DiscreteSpace, c: CellChain, cp: CellChain,
                 verts: frozenset) -> bool:
    """Every non-end vertex and edge of c is matched on cp, through the
    2-cells at it spanned by ``verts``, the two curves' vertices.

    The vertex clause runs only where the edge clause is vacuous: cp is
    one vertex, or c is an open path of at most three vertices.  Otherwise
    a non-end vertex of c off cp lies on a non-end edge of c, which is off
    cp too, and the spanned 2-cell matching that edge holds the vertex and,
    through its edge of cp, a vertex of cp: the vertex test could only
    repeat the edge test's verdict.  The edge clause tests each boundary
    edge of a spanned coface of a lost edge against the gained edges in
    place; it builds no edge set per coface."""
    if len(c.verts) == 1:
        return True
    if len(cp.verts) == 1 or not c.closed and len(c.verts) <= 3:
        other_verts = cp.vertex_set()
        for v in _nonend_verts(c):
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
    lost = mine - theirs
    if not c.closed:
        lost = lost - {c.cells[0][1], c.cells[-1][1]}
    cells = space.cells
    # plain loops: here a generator costs more than the tests it runs
    for e in lost:
        for cid in space.cofaces((1, e)):
            if verts.issuperset(cid[1]):
                for b in cells[cid].boundary:
                    if b[1] in gains:
                        break
                else:
                    continue
                break           # a spanned coface of e holds a gained edge
        else:
            return False        # no coface of e matches it on cp
    return True


def edges_to_curve(space: DiscreteSpace, edges, like: CellChain | None = None):
    """Rebuild an ordered curve from an edge set; None if it is not one
    simple path or cycle.  ``like`` fixes the endpoints an open result
    must keep and the preferred start vertex."""
    edges = set(edges)
    start = like.verts[0] if like is not None and not like.closed else None
    verts = walk(edges, start)
    if verts is None:
        return None
    closed = len(verts) == len(edges)
    if start is not None and not closed and verts[-1] != like.verts[-1]:
        return None
    return CellChain.path(space, verts, closed=closed)


def cell_boundary_chain(space: DiscreteSpace, cell) -> CellChain:
    """The boundary of a 2-cell as an ordered closed curve."""
    loop = space.cells[cell].loop
    return CellChain.path(space, loop, closed=True)


def _attaching_arc(space: DiscreteSpace, chain: CellChain, cell):
    """``(ring, k)`` when the 2-cell meets the curve in one arc of k >= 1
    edges, not its whole boundary, and in no other vertex: ``ring`` is the
    cell's loop turned to begin with that arc, ``ring[0..k]``.  None when
    the cell does not attach to the curve along an arc."""
    loop = space.cells[cell].loop
    if loop is None:
        return None
    edges, n = chain.edge_set(), len(loop)
    on = [edge_key(loop[i], loop[(i + 1) % n]) in edges for i in range(n)]
    k = on.count(True)
    if k == 0 or k == n:
        return None
    s = next(i for i in range(n) if on[i] and not on[i - 1])
    if not all(on[(s + j) % n] for j in range(k)):
        return None
    verts = chain.vertex_set()
    if sum(v in verts for v in loop) != k + 1:
        return None
    return loop[s:] + loop[:s], k


def intersection_is_attaching_arc(space: DiscreteSpace, chain: CellChain,
                                  cell) -> bool:
    """Lemma-style attachment: the cell meets the curve exactly in an arc
    with at least one edge (not the whole cell boundary)."""
    return _attaching_arc(space, chain, cell) is not None


def single_cell_move(space: DiscreteSpace, chain: CellChain, cell):
    """XorSum the curve with one 2-cell boundary; None when the move is not
    an attaching-arc move.

    The move is a splice: the arc the cell shares with the curve is
    replaced by the other arc of the cell's loop, which meets the curve
    only at its two ends, so the result is again a simple curve, and
    ``CellChain._spliced`` checks only that new arc.  A closed result runs
    from its smallest vertex toward the smaller neighbour, an open one
    from the start of ``chain`` (the order ``walk`` gives).
    """
    arc = _attaching_arc(space, chain, cell)
    if arc is None:
        return None
    ring, k = arc
    verts = chain.verts
    i = verts.index(ring[0])
    if (chain.closed or i + 1 < len(verts)) and \
            verts[(i + 1) % len(verts)] == ring[1]:
        # the curve runs ring[0] .. ring[k] from position i
        p, bridge = i, ring[:k:-1]
    else:
        p, bridge = verts.index(ring[k]), ring[k + 1:]
    return CellChain._spliced(space, chain, p, k, bridge)


def _cell_moves(space: DiscreteSpace, chain: CellChain, pool=None):
    """Yield ``(cell, next curve)`` for each cell of ``pool`` (every 2-cell,
    ascending, when None) whose single-cell move applies, in pool order.

    A move needs an edge of the cell on the curve, so only the cofaces of
    the curve's edges are tried; ``single_cell_move`` rejects every other
    cell.
    """
    touching = _touching(space, chain.cells)
    for cell in sorted(touching) if pool is None else pool:
        if cell in touching:
            nxt = single_cell_move(space, chain, cell)
            if nxt is not None:
                yield cell, nxt


def bfs_moves(space: DiscreteSpace, start: CellChain, pool, accept,
              max_depth: int | None = None):
    """Breadth-first search over single-cell moves from ``start``.

    Each level moves every curve of the level before by each cell of
    ``pool`` in order, skipping the cells with no edge on the curve, and
    drops the curves whose edge set was met before.  ``accept(steps,
    moves)`` judges each new curve, the last of ``steps`` (which begin
    with ``start``; ``moves`` holds the one-cell sets): False drops it,
    None keeps it for the next level, and any other value ends the search
    as its result.  Returns None once ``max_depth`` levels are done or a
    level comes out empty.
    """
    seen = {start.edge_set()}
    frontier = [((start,), ())]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        level = []
        for steps, moves in frontier:
            for cell, nxt in _cell_moves(space, steps[-1], pool):
                key = nxt.edge_set()
                if key in seen:
                    continue
                seen.add(key)
                ns, nm = steps + (nxt,), moves + (frozenset((cell,)),)
                verdict = accept(ns, nm)
                if verdict is None:
                    level.append((ns, nm))
                elif verdict is not False:
                    return verdict
        frontier = level
    return None


def decompose_minimal_moves(space: DiscreteSpace, c: CellChain,
                            cp: CellChain) -> DeformationTrace:
    """Split one gradually varied move into single-cell moves.

    Cells are peeled greedily: each step takes the first 2-cell in
    ascending id, among those spanned by the two curves' vertices and
    touching the evolving curve, that both shrinks the symmetric difference
    with cp's edges and attaches by an arc (``_shrinking_move``).  A
    breadth-first search over every spanned cell covers the rare layouts
    where no cell does, the greedy order wedged.
    """
    _require_curve(c)
    _require_curve(cp)
    if c.edge_set() == cp.edge_set():
        return DeformationTrace((c,), (), MOVE_MINIMAL)
    if not are_gradually_varied(space, c, cp):
        raise PreconditionError("curves are not gradually varied")
    if not c.closed and {c.verts[0], c.verts[-1]} != {cp.verts[0],
                                                      cp.verts[-1]}:
        # XorSum with a cell boundary never changes vertex degrees mod 2,
        # so shifted endpoints cannot be reached by single-cell moves; the
        # slack endpoints stay exempt from decomposition.
        raise PreconditionError("single-cell decomposition needs matching "
                                "endpoints")
    verts = c.vertex_set() | cp.vertex_set()
    target = cp.edge_set()

    steps = [c]
    moves = []
    while steps[-1].edge_set() != target:
        best = _shrinking_move(space, steps[-1], target, verts)
        if best is None:
            pool = _spanned_cells(space, verts)
            trace = bfs_moves(space, c, pool, _reaching(target),
                              len(pool) + 2)
            if trace is None:
                raise PreconditionError("no single-cell decomposition found")
            return trace
        steps.append(best[1])
        moves.append(frozenset((best[0],)))
    return DeformationTrace(tuple(steps), tuple(moves), MOVE_MINIMAL)


def _shrinking_move(space: DiscreteSpace, cur: CellChain, target: frozenset,
                    verts: frozenset):
    """``(cell, next curve)`` for the first 2-cell, ascending, spanned by
    ``verts`` and touching ``cur``, whose move attaches by an arc and
    shrinks the symmetric difference D of ``cur``'s edges and ``target``;
    None when no cell does.  A move by a cell with loop edges L takes D to
    D xor L, of |D| + |L| - 2|L & D| edges, so the gap is scored from the
    loop and only a cell that shrinks it is tried."""
    gap = cur.edge_set() ^ target
    cells = space.cells
    for cell in sorted(cid for cid in _touching(space, cur.cells)
                       if verts.issuperset(cid[1])):
        bnd = cells[cell].boundary
        if 2 * sum(b[1] in gap for b in bnd) > len(bnd):
            nxt = single_cell_move(space, cur, cell)
            if nxt is not None:
                return cell, nxt
    return None


def _reaching(target: frozenset):
    """The ``bfs_moves`` test that ends on the first curve with the edge
    set ``target``, as a minimal trace."""
    def accept(steps, moves):
        if steps[-1].edge_set() == target:
            return DeformationTrace(steps, moves, MOVE_MINIMAL)
        return None
    return accept


def realizing_cells(space: DiscreteSpace, c1: CellChain, c2: CellChain):
    """A set of 2-cells spanned by the two curves whose boundary XorSum
    equals the curves' edge difference; None when no such set exists.

    Solved as a linear system over GF(2) with one row per candidate cell.
    """
    pool = _spanned_cells(space, c1.vertex_set() | c2.vertex_set())
    target = c1.edge_set() ^ c2.edge_set()
    if not target:
        return frozenset()
    pivots: dict = {}
    for cid in pool:
        vec = frozenset(b[1] for b in space.cells[cid].boundary)
        cells = frozenset((cid,))
        while vec:
            e = min(vec)
            if e in pivots:
                pv, pc = pivots[e]
                vec = vec.symmetric_difference(pv)
                cells = cells.symmetric_difference(pc)
            else:
                pivots[e] = (vec, cells)
                break
    chosen: frozenset = frozenset()
    t = target
    while t:
        e = min(t)
        if e not in pivots:
            return None
        pv, pc = pivots[e]
        t = t.symmetric_difference(pv)
        chosen = chosen.symmetric_difference(pc)
    return chosen


# -- cross-over detection ---------------------------------------------------


_OUTSIDE = -1


def _oriented_link_cycle(space: DiscreteSpace, v: int) -> tuple:
    """The link of v as a directed vertex cycle, oriented by the 2-cells.

    Each 2-cell at v gives one arc of the link.  At a boundary vertex the
    arcs form a path from the one head no arc ends at to the one tail no
    arc starts from; an arc tail -> ``_OUTSIDE`` -> head through the
    sentinel (no vertex id) closes it, so any two link vertices still
    split the others into two sides.  The walk starts from that closing
    arc, or from the first arc when every arc end starts another arc; it
    must pass every arc once and come back."""
    arcs = []
    for cid in space.cells_containing(v, 2):
        loop = space.cells[cid].loop
        i = loop.index(v)
        arcs.append(loop[i + 1:] + loop[:i])
    if not arcs:
        return ()
    starts = {arc[0]: arc for arc in arcs}
    tails = [arc[-1] for arc in arcs if arc[-1] not in starts]
    if tails:
        ends = {arc[-1] for arc in arcs}
        heads = [arc[0] for arc in arcs if arc[0] not in ends]
        if len(heads) != 1 or len(tails) != 1:
            raise PreconditionError("link of vertex %d is not a cycle or a "
                                    "path" % v)
        arcs.insert(0, (tails[0], _OUTSIDE, heads[0]))
        starts[tails[0]] = arcs[0]
    cycle, arc = [], arcs[0]
    for _ in arcs:
        cycle.extend(arc[:-1])
        arc = starts[arc[-1]]
    if arc is not arcs[0] or len(cycle) != len(set(cycle)):
        raise PreconditionError("link of vertex %d is not a cycle or a path"
                                % v)
    return tuple(cycle)


def _rotation(space: DiscreteSpace, v: int) -> tuple:
    """The oriented link cycle of v, built on first use and then read from
    the space's write-once store; a link that is not a cycle or a path
    raises on every call and stores nothing."""
    cycle = space._rotations.get(v)
    if cycle is None:
        cycle = space._rotations[v] = _oriented_link_cycle(space, v)
    return cycle


def _inside_arc(space: DiscreteSpace, v: int, start: int, stop: int,
                probe: int) -> bool:
    """Is ``probe`` strictly inside the directed walk start -> stop around
    the oriented link cycle of v?"""
    cycle = _rotation(space, v)
    try:
        i, j, k = cycle.index(start), cycle.index(stop), cycle.index(probe)
    except ValueError:
        u = next(u for u in (start, stop, probe) if u not in cycle)
        raise PreconditionError("link of vertex %d misses curve vertex %d: "
                                "their edge lies in no 2-cell" % (v, u)) \
            from None
    n = len(cycle)
    return 0 < (k - i) % n < (j - i) % n


def _neighbors_on(chain: CellChain, idx: int):
    verts = chain.verts
    n = len(verts)
    prev = verts[idx - 1] if (idx > 0 or chain.closed) else None
    nxt = verts[(idx + 1) % n] if (idx < n - 1 or chain.closed) else None
    return prev, nxt


def crosses_over(space: DiscreteSpace, c: CellChain, cp: CellChain) -> bool:
    """Transversal intersection: at some shared stretch one curve enters
    and leaves on opposite sides of the other.

    A stretch is a maximal run of vertices joined by edges both curves use
    (a shared vertex on no shared edge is a stretch of one vertex).  At a
    stretch p..q, c runs a -> p .. q -> t and cp leaves it toward a' at p
    and t' at q; the curves cross there when a' and t' lie on different
    sides of c, read in the oriented links of p and q.  Stretches at an
    open end of either curve are touches.  The answer does not depend on
    the argument order, the curves' directions or a closed curve's start.
    Each oriented link is the vertex's rotation, built once per space on
    first use (``_rotation``).
    """
    if space.top_dim != 2:
        raise PreconditionError("cross-over detection needs a 2-complex")
    if not space.oriented:
        raise PreconditionError("cross-over detection needs an oriented "
                                "complex")
    _require_curve(c)
    _require_curve(cp)
    return any(_crossings(space, c, cp))


def _crossings(space: DiscreteSpace, c: CellChain, cp: CellChain):
    """Yield ``(p, q)`` for each stretch p..q, along c, where cp crosses c."""
    poscp = {v: i for i, v in enumerate(cp.verts)}
    n, last = len(c.verts), -1
    for i, p in enumerate(c.verts):
        if i <= last or p not in poscp:
            continue
        a, b = _neighbors_on(c, i)
        around_p = _neighbors_on(cp, poscp[p])
        if a is None or a in around_p:
            # an open end of c, or not the first vertex of its stretch
            continue
        # walk the stretch to q, at position ``last`` on c (mod n)
        last, q, around_q = i, p, around_p
        while True:
            s, t = _neighbors_on(c, last % n)
            if t is None or t not in around_q:
                break
            last, q = last + 1, t
            around_q = _neighbors_on(cp, poscp[q])
        # cp's neighbours off the stretch (both of them when p == q, where
        # b is t and s is a, neither a neighbour on cp)
        x, y = around_p
        ap = y if x == b else x
        x, y = around_q
        tp = x if y == s else y
        if None in (t, ap, tp):
            continue
        if _inside_arc(space, p, a, b, ap) != _inside_arc(space, q, s, t, tp):
            yield p, q


def are_side_gradually_varied(space: DiscreteSpace, c: CellChain,
                              cp: CellChain) -> bool:
    """Gradually varied with no cross-over.

    Transversal intersection of curves is a surface notion; in spaces of
    dimension three or more two curves never cross over, so only the
    gradual-variation clauses apply there.
    """
    if not are_gradually_varied(space, c, cp):
        return False
    if space.top_dim != 2:
        return True
    if len(c.verts) < 2 or len(cp.verts) < 2:
        return True
    return not crosses_over(space, c, cp)


# -- detours around a forbidden cell ---------------------------------------


def detour_sequence(space: DiscreteSpace, c0: CellChain, c1: CellChain,
                    forbidden) -> DeformationTrace:
    """A minimal single-cell move sequence from c0 to c1 avoiding one cell.

    The two arcs must share endpoints and jointly bound the forbidden
    2-cell, which in turn must sit on the boundary sphere of an enclosing
    cell: either an explicit 3-cell of the space, or the space itself when
    it is a closed 2-manifold.
    """
    _require_curve(c0)
    _require_curve(c1)
    if forbidden not in space.cells or forbidden[0] != 2:
        raise InputError("forbidden must name a 2-cell")
    if c0.edge_set() == c1.edge_set():
        return DeformationTrace((c0,), (), MOVE_MINIMAL)
    if c0.closed or c1.closed:
        raise PreconditionError("detour arcs must be open paths")
    if {c0.verts[0], c0.verts[-1]} != {c1.verts[0], c1.verts[-1]}:
        raise PreconditionError("arcs must share their endpoints")
    rim = {b[1] for b in space.cells[forbidden].boundary}
    if c0.edge_set() | c1.edge_set() != rim:
        raise PreconditionError("the arcs do not jointly bound the "
                                "forbidden cell")
    enclosing = space.cofaces(forbidden)
    if enclosing:
        pool = [f for f in space.cells[enclosing[0]].boundary
                if f != forbidden]
    elif space.top_dim == 2:
        pool = [cid for cid in space.cells_of_dim(2) if cid != forbidden]
    else:
        raise PreconditionError("no enclosing cell provides a boundary "
                                "sphere to route over")

    trace = bfs_moves(space, c0, pool, _reaching(c1.edge_set()),
                      len(pool) + 1)
    if trace is None:
        raise PreconditionError("no detour found over the enclosing boundary")
    assert all(forbidden not in m for m in trace.moves)
    return trace


# -- contraction ------------------------------------------------------------


def point_chain(space: DiscreteSpace, v: int) -> CellChain:
    return CellChain.path(space, (v,))


def verify_contraction(space: DiscreteSpace, cycle: CellChain, p: int,
                       trace: DeformationTrace) -> CheckReport:
    """Check the contraction clauses: anchored at p, monotone vertex loss,
    side-gradual steps, ending at the single point p."""
    report = CheckReport(True)
    if trace.kind != MOVE_SIDE_GRADUAL:
        report.add("trace kind is %r, not side-gradual" % trace.kind)
        return report
    if not trace.steps:
        report.add("empty trace")
        return report
    if trace.steps[0].edge_set() != cycle.edge_set():
        report.add("trace does not start at the given cycle")
    last = trace.steps[-1]
    if last.verts != (p,):
        report.add("trace does not end at the single point %d" % p)
    dropped: set = set()
    prev = None
    for t, step in enumerate(trace.steps):
        vs = step.vertex_set()
        if p not in vs:
            report.add("step %d loses the anchor point %d" % (t, p))
        regained = vs & dropped
        if regained:
            report.add("step %d re-acquires dropped vertices %s"
                       % (t, sorted(regained)))
        if prev is not None:
            dropped |= prev.vertex_set() - vs
            if not are_side_gradually_varied(space, prev, step):
                report.add("steps %d -> %d are not side-gradually varied"
                           % (t - 1, t))
        prev = step
    return report


def search_contraction(space: DiscreteSpace, cycle: CellChain, p: int,
                       step_budget: int):
    """A contraction of the cycle to p in at most ``step_budget``
    single-cell moves, checked by ``verify_contraction``; None when there
    is none (on a surface) or none was found (above dimension 2).

    On a surface the trace is the paper's construction, not a search.
    The cells on a cycle edge each walk their side of the cycle level by
    level; a walk stops at the level that takes it past ``step_budget``
    cells or reaches the other start cell (the cycle separates nothing).
    The sides found, the smaller first, go to
    ``separation.contract_to_cell`` with the side's smallest cell at p
    that has an edge on the cycle as the seed; each removal is one
    single-cell move, and the last takes the seed's boundary to p.  A side
    the contraction does not cover leaves the other.  None is exact: the
    cells of any contraction by single-cell moves sum, mod 2, to a 2-chain
    bounded by the cycle, which holds a start cell and its whole side, so
    no trace has fewer moves than the smaller side has cells.  The work
    grows with ``step_budget``, not with the surface.

    Above dimension 2 the search deepens over single-cell moves, depth 1
    to ``step_budget``: a state tries the cofaces of the curve's edges,
    keeps p and brings back no dropped vertex, and the goal is a 2-cell
    bounded by the curve.  With m the most vertices of a 2-cell loop, a
    move by a cell of n <= m vertices sharing k <= n - 1 edges with the
    curve changes its length by n - 2k >= 2 - n, so it shortens the curve
    by at most m - 2 vertices, and a goal curve has at most m.  A state
    with ``depth`` steps left and more than m + (depth - 1)(m - 2)
    vertices is cut before any move.  The cut is exact: it drops only
    subtrees that would return None, so the order of the search, and the
    trace or None it returns, are those of the search without it.
    """
    _require_curve(cycle)
    if not cycle.closed:
        raise InputError("contraction applies to closed curves")
    if p not in cycle.verts:
        raise InputError("anchor %d is not on the cycle" % p)
    if space.top_dim == 2:
        found = _contract_on_surface(space, cycle, p, step_budget)
    else:
        found = _deepening_search(space, cycle, p, step_budget)
    if found is None:
        return None
    steps, moves = found
    trace = DeformationTrace((cycle,) + steps, moves, MOVE_SIDE_GRADUAL)
    report = verify_contraction(space, cycle, p, trace)
    if not report:
        raise PreconditionError("search produced an invalid trace: %s"
                                % "; ".join(report.problems))
    return trace


def _contract_on_surface(space: DiscreteSpace, cycle: CellChain, p: int,
                         step_budget: int):
    """``(steps, moves)`` after the cycle, contracting its smaller side
    within the budget; None when no side is within it or none contracts."""
    # separation builds on this module, so its contraction is imported late
    from .separation import contract_to_cell
    barrier = frozenset(cycle.cells)
    # the first cycle edge in the most 2-cells: two, or one on a rim
    starts = max((space.cofaces(e) for e in cycle.cells), key=len)
    sides = [_side(space, s, barrier, set(starts) - {s}, step_budget)
             for s in starts]
    for side in sorted((s for s in sides if s is not None), key=len):
        seed = min((c for c in side if p in c[1] and
                    not barrier.isdisjoint(space.cells[c].boundary)),
                   default=None)
        if seed is None:
            continue
        try:
            removed = [r.cell for r in
                       contract_to_cell(space, side, cycle, seed).removals]
        except UnsupportedConfiguration:
            continue
        steps = [cycle]
        for cell in removed:
            steps.append(single_cell_move(space, steps[-1], cell))
            if steps[-1] is None:
                break
        else:
            return (tuple(steps[1:]) + (point_chain(space, p),),
                    tuple(frozenset((c,)) for c in removed + [seed]))
    return None


def _side(space: DiscreteSpace, start, barrier: frozenset, stop: set,
          limit: int):
    """The top cells reached from ``start`` through faces outside
    ``barrier``, in breadth-first order; None once a level takes it past
    ``limit`` cells or reaches a cell of ``stop``."""
    side: list = []
    for level in _levels(space, (start,), blocked=barrier):
        if not stop.isdisjoint(level):
            return None
        side.extend(level)
        if len(side) > limit:
            return None
    return side


def _deepening_search(space: DiscreteSpace, cycle: CellChain, p: int,
                      step_budget: int):
    """``(steps, moves)`` after the cycle from an iterative-deepening search
    over single-cell moves; None when every depth up to the budget fails."""
    def goal_cell(chain):
        # a 2-cell bounded by the chain is a coface of each of its edges
        # with as many vertices as the chain
        for cid in space.cofaces((1, edge_key(*chain.verts[:2]))):
            if len(cid[1]) != len(chain.verts) or p not in cid[1]:
                continue
            if {b[1] for b in space.cells[cid].boundary} == chain.edge_set():
                return cid
        return None

    # a goal curve has at most as many vertices as the longest 2-cell loop
    for depth in range(1, step_budget + 1):
        found = _contract_dfs(space, cycle, p, depth, goal_cell,
                              space.longest_loop, frozenset(), set())
        if found is not None:
            return found
    return None


def _contract_dfs(space: DiscreteSpace, cur: CellChain, p: int, depth: int,
                  goal_cell, longest: int, banned: frozenset, visited: set):
    """``(steps, moves)`` from ``cur`` to p in at most ``depth`` steps, the
    last a goal cell; None when there is none.  A curve of more than
    ``longest + (depth - 1) * (longest - 2)`` vertices cannot shrink to a
    goal cell in the moves left (see ``search_contraction``), so it is cut
    before any move.  Every state is a simple closed curve, which its edge
    set fixes up to start and direction, so the edge set keys the visits."""
    cell = goal_cell(cur)
    if cell is not None:
        return (point_chain(space, p),), (frozenset((cell,)),)
    if depth <= 1 or \
            len(cur.verts) > longest + (depth - 1) * (longest - 2):
        return None
    key = (cur.edge_set(), banned, depth)
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
        sub = _contract_dfs(space, nxt, p, depth - 1, goal_cell, longest,
                            nbanned, visited)
        if sub is not None:
            steps, moves = sub
            return (nxt,) + steps, (frozenset((cid,)),) + moves
    return None
