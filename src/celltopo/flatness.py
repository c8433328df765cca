"""Local flatness of curves and submanifolds, focal points, and collars.

A chain C embedded in a space is locally flat when every vertex pair of C
satisfies one of three conditions: the pair is adjacent along C; every
cell-distance level keeps them at least 3 apart; or some level puts them at
distance exactly 2 and every off-chain vertex mediating such a length-2
cell path is a focal point, meaning its link meets C in one connected arc
through both vertices.  A collar is the pair of distance-1 sheets flanking
a flat chain; flatness and collar existence decide each other.

The verdict only asks whether a distance is 1, 2 or more, so no distance
is computed in full.  Each chain vertex p gets one walk up its cell star,
the cells at p one dimension at a time (``complexes._star``), and from it
one radius-2 ball per level (``complexes._ball``): the chain vertices
q > p at distance 1 or 2, with the mediators of those at 2, found by one
step from the cells at p to their faces' cofaces.  Every other pair is at
distance 3 or more on every level.  Each mediator's link is read once per
check, on numbers (``complexes._chain_in_link``): its chain vertices are
those of the cells at the mediator, and a chain edge between two of them
is in the link when a cell above the edge holds the mediator; each chain
edge's vertices above it are kept for the check.  The top cells holding a
collar's chain edge are the edges' cofaces, taken up to the top dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (CellChain, CheckReport, DiscreteSpace, _ball,
                        _chain_in_link, _spans, _star, _touching, closure,
                        edge_key, face_components, face_counts, partial_graph,
                        walk)
from .errors import InputError, PreconditionError
from .metrics import is_triangulated


def subset_flatness(space: DiscreteSpace, verts, edges,
                    levels=None) -> CheckReport:
    """The pair conditions applied to a bare vertex/edge set.

    The set need not be a connected curve; the flattening construction in
    the separation module checks path-submanifold intersections this way.
    Only distances below 3 matter, so each vertex p meets its partners q > p
    in its radius-2 balls, one per level; every other pair is at distance
    3 or more on every level.  Each mediator's link is read once.
    """
    verts = frozenset(verts)
    edges = frozenset(edges)
    if levels is None:
        levels = tuple(range(1, space.top_dim + 1))
    for v in verts:
        space.require_vertex(v)
    for i in levels:
        if not 1 <= i <= space.top_dim:
            raise InputError("level %d outside 1..%d" % (i, space.top_dim))
    focal: dict = {}
    up: dict = {}
    report = CheckReport(True)
    for p in sorted(verts):
        star = _star(space, p)
        balls = {i: _ball(space, star, p, i, verts) for i in levels}
        partners = sorted({q for ball, _ in balls.values() for q in ball})
        for q in partners:
            if edge_key(p, q) in edges:
                continue
            dists = {i: ball[q] for i, (ball, _) in balls.items()
                     if q in ball}
            twos = sorted(i for i, d in dists.items() if d == 2)
            if not twos:
                bad = min(dists, key=lambda i: (dists[i], i))
                report.add("pair (%d, %d): %d-cell distance %s without "
                           "adjacency in the chain" % (p, q, bad, dists[bad]))
                continue
            for i, m in ((i, m) for i in twos
                         for m in sorted(balls[i][1][q])
                         if m not in verts):
                if m not in focal:
                    # the link's chain vertices when it meets the chain in
                    # one connected piece with an edge: an arc, or the
                    # whole curve when closed and fully seen
                    ivs, ies = _chain_in_link(space, m, verts, edges, up)
                    focal[m] = ivs if ies and _spans(space, ivs, ies) \
                        else None
                seen = focal[m]
                if seen is None or p not in seen or q not in seen:
                    report.add("pair (%d, %d): mediator %d at level %d is "
                               "not a focal point" % (p, q, m, i))
                    break
    return report


def _flatness_report(space: DiscreteSpace, chain: CellChain,
                     levels) -> CheckReport:
    edges = frozenset(e for _, e in closure(space, chain.cells, 1))
    return subset_flatness(space, chain.vertex_set(), edges, levels)


def is_locally_flat_triangulated(space: DiscreteSpace,
                                 chain: CellChain) -> CheckReport:
    """Flatness for triangulated spaces: only graph distance matters."""
    if not is_triangulated(space):
        raise PreconditionError("space is not triangulated")
    _require_simple(space, chain)
    return _flatness_report(space, chain, levels=(1,))


def is_locally_flat(space: DiscreteSpace, chain: CellChain) -> CheckReport:
    """Flatness over every cell-distance level up to the space dimension."""
    if chain.dim >= space.top_dim:
        raise InputError("chain dimension %d must be below the space "
                         "dimension %d" % (chain.dim, space.top_dim))
    _require_simple(space, chain)
    return _flatness_report(space, chain,
                            levels=tuple(range(1, space.top_dim + 1)))


def _require_simple(space: DiscreteSpace, chain: CellChain):
    if chain.dim == 1:
        if chain.verts is None:
            raise InputError("curve chains must be ordered vertex paths")
        return
    # Submanifold chains must be closed pseudo-manifolds: every (dim-1)-face
    # in exactly two chain cells.
    if chain.closed and any(n != 2 for n in
                            face_counts(space, chain.cells).values()):
        raise InputError("chain is not a closed pseudo-manifold")


def find_focal_points(space: DiscreteSpace, chain: CellChain) -> list:
    """All off-chain vertices whose link meets the chain in one simple walk
    of two or more edges, each paired with that walk as ``walk`` orders it.

    The walk is an arc of the chain, or the whole chain when the chain is
    a closed curve lying in the link: on ``simplex_boundary(3)`` the curve
    (0, 1, 2) gives vertex 3 with the cycle ``(0, 1, 2)`` as its "arc".
    """
    _require_simple(space, chain)
    verts = chain.vertex_set()
    edges = frozenset(e for _, e in closure(space, chain.cells, 1))
    out, up = [], {}
    for a in range(space.n_vertices):
        if a in verts:
            continue
        ivs, ies = _chain_in_link(space, a, verts, edges, up)
        if len(ies) < 2:
            continue
        arc = walk(ies)
        if arc is None or ivs != set(arc):
            continue
        out.append((a, arc))
    return out


@dataclass(frozen=True)
class CollarCertificate:
    """A chain with its flanking sheets and a distance-1 witness.

    Sheets are disjoint vertex sets at cell distance one from the base;
    ``witness`` maps each sheet vertex to a base vertex it shares a cell
    with.  Curves carry two sheets.  A closed submanifold of dimension two
    or more may have one sheet when one side has no off-chain vertices.
    """

    base: CellChain
    sheets: tuple
    witness: dict


def _side_cells(space: DiscreteSpace, chain: CellChain) -> list:
    """Top cells carrying the collar: those containing a chain cell of
    codimension one in them, or an interior chain vertex."""
    # either kind of top cell has a chain vertex
    near = sorted({cid for v in chain.vertex_set()
                   for cid in space.cells_containing(v, space.top_dim)})
    if chain.dim != 1:
        return near
    interior = set(chain.verts if chain.closed else chain.verts[1:-1])
    # the top cells holding a chain edge: its cofaces' cofaces, and so on
    holding = set(chain.cells)
    for _ in range(space.top_dim - 1):
        holding = _touching(space, holding)
    return [cid for cid in near if interior & set(cid[1]) or cid in holding]


def build_collar(space: DiscreteSpace, chain: CellChain) -> CollarCertificate:
    """Construct the collar of a locally flat chain.

    The curve's flanking cells split into two sides when no boundary sheet
    pinches; the off-chain vertices of each side form the sheets.  Not
    locally flat means no collar exists, reported as a precondition error.
    """
    flat = is_locally_flat(space, chain)
    if not flat:
        raise PreconditionError("chain is not locally flat: %s"
                                % "; ".join(flat.problems[:3]))
    return _collar(space, chain)


def _collar(space: DiscreteSpace, chain: CellChain) -> CollarCertificate:
    """``build_collar`` after its flatness check, for callers that made it."""
    verts = chain.vertex_set()
    cells = _side_cells(space, chain)
    # sides never join across the chain: for a curve, not across any face
    # with all its vertices on it either
    if chain.dim == 1:
        blocked = {f for cid in cells for f in space.cells[cid].boundary
                   if set(f[1]) <= verts}
    else:
        blocked = closure(space, chain.cells)
    comps = face_components(space, cells, blocked)
    sheets = []
    for comp in comps:
        sheet = sorted({v for cid in comp for v in cid[1]} - verts)
        sheets.append(frozenset(sheet))
    if chain.dim == 1:
        if len(comps) != 2 or any(not s for s in sheets):
            raise PreconditionError(
                "no two-sided collar: the chain has %d side(s) with sheet "
                "sizes %s (curves bounding a cell have a vertex-free side)"
                % (len(comps), [len(s) for s in sheets]))
    else:
        sheets = [s for s in sheets if s]
        if not sheets:
            raise PreconditionError("no side of the chain has off-chain "
                                    "vertices to carry a sheet")
    sheets.sort(key=lambda s: min(s))
    witness = {}
    for sheet in sheets:
        for v in sorted(sheet):
            partners = sorted(
                w for cid in space.cells_containing(v)
                for w in cid[1] if w in verts)
            witness[v] = partners[0]
    cert = CollarCertificate(chain, tuple(sheets), witness)
    ok = verify_collar(space, chain, cert)
    if not ok:
        raise PreconditionError("constructed collar failed verification: %s"
                                % "; ".join(ok.problems))
    return cert


def verify_collar(space: DiscreteSpace, chain: CellChain,
                  cert: CollarCertificate) -> CheckReport:
    """Re-check every certificate invariant, independent of construction."""
    report = CheckReport(True)
    verts = chain.vertex_set()
    if chain.dim == 1 and len(cert.sheets) != 2:
        report.add("a curve collar needs two sheets, certificate has %d"
                   % len(cert.sheets))
    for i, sheet in enumerate(cert.sheets):
        if not sheet:
            report.add("sheet %d is empty" % i)
            continue
        if sheet & verts:
            report.add("sheet %d meets the base chain" % i)
        induced = partial_graph(space, sheet)
        split = not _spans(space, sheet, induced)
        if chain.dim == 1 and (split or len(sheet) > 1 and
                               walk(induced) is None):
            report.add("sheet %d self-intersects (induced shape: %s)"
                       % (i, "disconnected" if split else "branched"))
        elif chain.dim >= 2 and split:
            report.add("sheet %d is disconnected" % i)
        for v in sorted(sheet):
            w = cert.witness.get(v)
            if w is None or w not in verts:
                report.add("sheet vertex %d has no base witness" % v)
            elif not any(w in cid[1] for cid in space.cells_containing(v)):
                report.add("sheet vertex %d is not at cell distance 1 from "
                           "its witness %d" % (v, w))
    for a, b in itertools.combinations(range(len(cert.sheets)), 2):
        if cert.sheets[a] & cert.sheets[b]:
            report.add("sheets %d and %d intersect" % (a, b))
    return report
