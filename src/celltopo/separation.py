"""Separation by a closed submanifold and contraction of a component.

A closed locally flat (k-1)-submanifold of a sphere-like closed k-manifold
splits the top cells into exactly two components whose common boundary it
is.  Each component then contracts to a single seed cell by repeatedly
dissolving the in-region cell farthest from the seed: its surface faces are
swapped for its remaining faces, so every step's XorSum is one full cell
boundary and the whole sequence replays backwards as an expansion.

The components are the shared flood's, with the chain's cells blocked;
the crossing parities (one breadth-first tree per off-chain vertex) and
the seed distances are read from the shared level walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .complexes import (CellChain, CheckReport, DiscreteSpace, _adjacent,
                        _face_connected, _levels, _touching, check_regular,
                        closure, edge_key, face_components, is_closed)
from .deformation import (MOVE_SIDE_GRADUAL, DeformationTrace, _cell_moves,
                          are_side_gradually_varied, bfs_moves,
                          realizing_cells)
from .errors import (BudgetExhausted, InputError, PreconditionError,
                     UnsupportedConfiguration)
from .flatness import is_locally_flat, subset_flatness

PARITY_VERTICES = 14    # off-chain vertices whose pairs get a parity
BRIDGE_STATES = 20000   # chain-free paths a bridge search may visit


@dataclass
class SeparationReport:
    """Flood-fill outcome: components of the complement plus evidence."""

    components: tuple
    boundary_ok: tuple
    flatness: CheckReport
    warnings: list = field(default_factory=list)
    crossing_parities: dict = field(default_factory=dict)

    @property
    def sizes(self) -> tuple:
        return tuple(len(c) for c in self.components)

    @property
    def exactly_two(self) -> bool:
        return len(self.components) == 2 and all(self.boundary_ok)


def _submanifold_cells(space: DiscreteSpace, s: CellChain) -> frozenset:
    """The cells of a (k-1)-chain as a barrier: a curve's are its edge
    cells."""
    if s.dim != space.top_dim - 1:
        raise InputError("separating chain must have dimension %d"
                         % (space.top_dim - 1))
    return frozenset(s.cells)


def components_of_complement(space: DiscreteSpace,
                             s: CellChain) -> SeparationReport:
    """Flood fill the top cells, never stepping across a face of ``s``."""
    reg = check_regular(space)
    if not reg:
        raise PreconditionError("space is not a regular manifold: %s"
                                % "; ".join(reg.problems[:3]))
    k = space.top_dim
    top = space.cells_of_dim(k)
    # clause 2 leaves every face in one or two top cells
    if not is_closed(space, top):
        raise PreconditionError("space is not closed")
    if not space.oriented:
        raise PreconditionError("separation requires an oriented space")
    barrier = _submanifold_cells(space, s)
    if not is_closed(space, barrier):
        raise InputError("separating chain is not closed: some face does "
                         "not lie in exactly two of its cells")

    warnings = []
    flat = is_locally_flat(space, s)
    if not flat:
        warnings.append("separating chain is not locally flat; component "
                        "count is not guaranteed")

    components = [frozenset(c)
                  for c in face_components(space, top, barrier)]

    boundary_ok = [all(any(c in comp for c in space.cofaces(f))
                       for f in barrier) for comp in components]

    parities = _crossing_parities(space, barrier)
    return SeparationReport(tuple(components), tuple(boundary_ok), flat,
                            warnings, parities)


def _crossing_parities(space: DiscreteSpace, barrier: frozenset) -> dict:
    """Parity of barrier crossings along one canonical cell path per pair
    of off-chain vertices that lie in a top cell: the path in the
    breadth-first tree from the first vertex's home cell, grown until it
    holds every later vertex's."""
    k = space.top_dim
    s_verts = {v for cid in barrier for v in cid[1]}
    off = [v for v in range(space.n_vertices) if v not in s_verts
           and space.cells_containing(v, k)][:PARITY_VERTICES]
    home = {v: space.cells_containing(v, k)[0] for v in off}
    out = {}
    for i, a in enumerate(off):
        goals, parity = {home[b] for b in off[i + 1:]}, {}
        for level in _levels(space, (home[a],)):
            for cell, via in level.items():
                parity[cell] = 0 if via is None else \
                    parity[via[0]] ^ (via[1] in barrier)
            goals.difference_update(level)
            if not goals:
                break
        out.update(((a, b), parity[home[b]]) for b in off[i + 1:]
                   if home[b] in parity)
    return out


def first_crossing(space: DiscreteSpace, s: CellChain,
                   trace: DeformationTrace):
    """Smallest step index whose path meets the chain, with the entering
    vertex in path order; None when no step does."""
    if trace.kind != MOVE_SIDE_GRADUAL:
        raise InputError("first_crossing expects a side-gradual trace")
    s_verts = s.vertex_set()
    for i, step in enumerate(trace.steps):
        for v in step.verts:
            if v in s_verts:
                return (i, v)
    return None


# -- path flattening ---------------------------------------------------------


def _intersection_with(space: DiscreteSpace, path: CellChain, s_verts,
                       s_edges):
    verts = frozenset(v for v in path.verts if v in s_verts)
    edges = path.edge_set() & s_edges
    return verts, edges


def flatten_path(space: DiscreteSpace, s: CellChain, p_i: CellChain,
                 p_iminus1: CellChain):
    """Pivot a path until its intersection with ``s`` is locally flat in s,
    then bridge from the previous path without touching s.

    Pivots are XorSum moves with 2-cells of s; each must keep the original
    entry vertex and reduce the violation count, and there are at most as
    many as the space has 2-cells.  The returned bridge is a
    side-gradual trace from ``p_iminus1`` to the new path whose
    intermediate steps stay clear of s.
    """
    if space.top_dim < 3:
        raise PreconditionError("path flattening applies from dimension 3 "
                                "upward")
    flat_s = is_locally_flat(space, s)
    if not flat_s:
        raise PreconditionError("the separating chain itself is not "
                                "locally flat")
    s_verts = s.vertex_set()
    s_cells = closure(space, _submanifold_cells(space, s))
    s_edges = frozenset(e for d, e in s_cells if d == 1)
    s_faces = sorted(c for c in s_cells if c[0] == 2)
    sub = _restrict_to(space, s_cells)
    smap = sub["map"]
    s_space = sub["space"]

    iv, ie = _intersection_with(space, p_i, s_verts, s_edges)
    if not iv:
        raise InputError("the path does not meet the chain")
    entry = next(v for v in p_i.verts if v in s_verts)
    if any(v in s_verts for v in p_iminus1.verts):
        raise InputError("the previous path already meets the chain")

    def x_report(path):
        v, e = _intersection_with(space, path, s_verts, s_edges)
        return subset_flatness(s_space, [smap[x] for x in v],
                               [edge_key(smap[a], smap[b]) for a, b in e])

    cur = p_i
    report = x_report(cur)
    if report:
        return p_i, DeformationTrace((), (), MOVE_SIDE_GRADUAL)
    budget = len(space.cells_of_dim(2))
    while not report:
        if budget <= 0:
            raise BudgetExhausted("pivot budget exhausted before the "
                                  "intersection became flat",
                                  state=cur)
        budget -= 1
        best = None
        for cell, nxt in _cell_moves(space, cur, s_faces):
            if entry not in nxt.verts:
                continue
            rep = x_report(nxt)
            nv, _ = _intersection_with(space, nxt, s_verts, s_edges)
            score = (len(rep.problems), len(nv), cell)
            if best is None or score < best[0]:
                best = (score, nxt, rep)
        if best is None or best[0][0] >= len(report.problems):
            raise UnsupportedConfiguration(
                "no pivot cell of the chain reduces the violation count",
                cell=None if best is None else best[0][2])
        _, cur, report = best

    bridge = _bridge_off_chain(space, s_verts, p_iminus1, cur)
    return cur, bridge


def _restrict_to(space: DiscreteSpace, s_cells: frozenset) -> dict:
    """A closed cell set as a standalone space with dense vertex ids."""
    verts = sorted({v for cid in s_cells for v in cid[1]})
    smap = {v: i for i, v in enumerate(verts)}
    edges = [(smap[a], smap[b]) for d, (a, b) in
             (c for c in s_cells if c[0] == 1)]
    cells: dict = {}
    for cid in s_cells:
        if cid[0] >= 2:
            cells.setdefault(cid[0], []).append(
                tuple(sorted(smap[v] for v in cid[1])))
    restricted = DiscreteSpace(len(verts), edges, cells, oriented=True)
    return {"space": restricted, "map": smap}


def _bridge_off_chain(space: DiscreteSpace, s_verts, start: CellChain,
                      goal: CellChain):
    """Single-cell moves from ``start`` through chain-free paths until one
    step of side-gradual variation reaches ``goal``."""
    def clean(chain):
        return not (set(chain.verts) & s_verts)

    if not clean(start):
        raise InputError("bridge start touches the chain")

    def finish(steps, moves):
        last = steps[-1]
        cells = realizing_cells(space, last, goal)
        if cells is None:
            return None
        return DeformationTrace(steps + (goal,), moves + (cells,),
                                MOVE_SIDE_GRADUAL)

    if are_side_gradually_varied(space, start, goal):
        trace = finish((start,), ())
        if trace is not None:
            return trace
    states = 0

    def accept(steps, moves):
        nonlocal states
        if not clean(steps[-1]):
            return False
        states += 1
        if states > BRIDGE_STATES:
            raise BudgetExhausted("bridge search exceeded its state budget",
                                  state=steps[-2])
        if are_side_gradually_varied(space, steps[-1], goal):
            return finish(steps, moves)
        return None

    trace = bfs_moves(space, start, space.cells_of_dim(2), accept)
    if trace is None:
        raise BudgetExhausted("no chain-free bridge reaches the flattened "
                              "path", state=start)
    return trace


# -- contraction of a component ----------------------------------------------


@dataclass(frozen=True)
class Removal:
    """One contraction step: the dissolved cell, the surface faces it
    replaced, and the faces that replaced them."""

    cell: tuple
    replaced: frozenset
    replacement: frozenset


@dataclass(frozen=True)
class ContractionTrace:
    """Removal sequence from a component's boundary down to one cell.

    The trace stores its first surface and the removals; ``surfaces``
    replays them into every intermediate closed pseudo-manifold.
    Inverting the trace swaps each removal's face sets and starts from the
    last surface, which is the expansion witnessing that the component is
    a single cell up to the recorded moves.
    """

    seed: tuple
    first_surface: frozenset
    removals: tuple
    direction: str = "contract"

    @property
    def surfaces(self) -> tuple:
        """The first surface, then the surface after each removal; raises
        InputError at the first removal that does not apply."""
        surface = set(self.first_surface)
        return (self.first_surface,) + tuple(
            frozenset(surface) for _ in _apply(surface, self.removals))


def _apply(surface: set, removals):
    """Apply each removal to ``surface`` in place and yield it with its
    index; raises InputError at the first that does not apply."""
    for i, r in enumerate(removals):
        if not r.replaced <= surface or not surface.isdisjoint(r.replacement):
            raise InputError("step %d does not apply to its surface" % i)
        surface -= r.replaced
        surface |= r.replacement
        yield i, r


def _recount(space: DiscreteSpace, count: dict, removed, added) -> int:
    """Move a surface's face counts from the cells ``removed`` to ``added``;
    returns the change in its faces held by neither 0 nor 2 of its cells."""
    change = 0
    for cells, by in ((removed, -1), (added, 1)):
        for cid in cells:
            for f in space.cells[cid].boundary:
                old = count.get(f, 0)
                new = count[f] = old + by
                change += (new not in (0, 2)) - (old not in (0, 2))
    return change


def _faces(space: DiscreteSpace, cid) -> frozenset:
    return frozenset(space.cells[cid].boundary)


def contract_to_cell(space: DiscreteSpace, component, s: CellChain,
                     seed) -> ContractionTrace:
    """Dissolve the component cell by cell, farthest from the seed first.

    Each selected cell must meet the current surface in one connected patch
    of faces; the patch is swapped for the cell's other faces.  A cell
    whose surface intersection is not such a patch is the configuration
    this construction does not cover, reported as an explicit error.

    The seed distances, a heap of the cells touching the surface and its
    face counts are kept across removals: a removal costs about the cells
    at its faces, plus a distance pass if it lengthens one (``_lengthens``).
    """
    component = frozenset(component)
    if seed not in component:
        raise InputError("seed %r is not in the component" % (seed,))
    barrier = _submanifold_cells(space, s)
    if not _faces(space, seed) & barrier:
        raise InputError("seed has no face on the separating chain")

    surface, count = set(barrier), {}
    unpaired = _recount(space, count, (), surface)
    remaining = set(component)
    far = len(component) + 1
    dist = _region_distances(space, seed, remaining)
    # each remaining non-seed cell touching the surface is queued once,
    # keyed (-distance, cell); a popped cell that no longer touches is dropped
    queued, heap, removals, added = set(), [], [], barrier
    while len(remaining) > 1:
        for c in _touching(space, added) - queued:
            if c in remaining and c != seed:
                queued.add(c)
                heapq.heappush(heap, (-dist.get(c, far), c))
        chosen, passed = None, []
        while heap and chosen is None:
            entry = heapq.heappop(heap)
            patch = _faces(space, entry[1]) & surface
            if not patch:
                queued.remove(entry[1])
            elif _face_connected(space, patch):
                chosen = entry[1]
            else:
                passed.append(entry)
        for entry in passed:
            heapq.heappush(heap, entry)
        if chosen is None:
            if not passed:
                raise UnsupportedConfiguration(
                    "no remaining cell touches the surface")
            raise UnsupportedConfiguration(
                "surface intersection of the farthest cell is not a single "
                "connected patch of faces", cell=passed[0][1])
        queued.remove(chosen)
        added = _faces(space, chosen) - surface
        surface ^= _faces(space, chosen)
        unpaired += _recount(space, count, patch, added)
        if not surface or unpaired:
            raise UnsupportedConfiguration(
                "intermediate surface is not a closed pseudo-manifold",
                cell=chosen)
        removals.append(Removal(chosen, patch, added))
        remaining.remove(chosen)
        if _lengthens(space, dist, chosen):
            dist = _region_distances(space, seed, remaining)
            # re-key every queued cell; a sorted list is a valid heap
            heap = sorted((-dist.get(c, far), c) for c in queued)
    if surface != _faces(space, seed):
        raise UnsupportedConfiguration(
            "contraction ended on a surface other than the seed boundary",
            cell=seed)
    return ContractionTrace(seed, barrier, tuple(removals))


def _region_distances(space: DiscreteSpace, seed, region: set) -> dict:
    """Breadth-first cell distances from ``seed``, 1 at the seed, through
    faces shared by cells of ``region``."""
    return {c: d for d, level in enumerate(_levels(space, (seed,), region), 1)
            for c in level}


def _lengthens(space: DiscreteSpace, dist: dict, cell) -> bool:
    """Pop ``cell`` from the seed distances ``dist``; True when the removal
    lengthens another distance, which is exactly when a neighbour one
    farther than ``cell`` has no neighbour left at ``cell``'s distance.
    Neighbours share a face; the walk from a cell to its faces' cofaces
    meets the cell too, whose distance never matches."""
    d = dist.pop(cell, None)
    if d is None:
        return False
    for n in _adjacent(space, cell):
        if dist.get(n) == d + 1:
            for m in _adjacent(space, n):
                if dist.get(m) == d:
                    break
            else:
                return True
    return False


def invert_trace(trace: ContractionTrace) -> ContractionTrace:
    """The expansion (or re-contraction) obtained by replaying backwards."""
    flipped = tuple(Removal(r.cell, r.replacement, r.replaced)
                    for r in reversed(trace.removals))
    direction = "expand" if trace.direction == "contract" else "contract"
    return ContractionTrace(trace.seed, replay(trace), flipped, direction)


def replay(trace: ContractionTrace) -> frozenset:
    """Apply every removal to the first surface; returns the final surface
    and raises InputError at a step that does not apply."""
    surface = set(trace.first_surface)
    for _ in _apply(surface, trace.removals):
        pass
    return frozenset(surface)


def verify_contraction_trace(space: DiscreteSpace, component, s: CellChain,
                             trace: ContractionTrace) -> CheckReport:
    """Independent re-check of every contraction invariant, in one replay
    with running face counts."""
    report = CheckReport(True)
    barrier = _submanifold_cells(space, s)
    if trace.first_surface != barrier:
        report.add("trace does not start at the chain")
    if len(trace.removals) != len(component) - 1:
        report.add("expected %d removals, found %d"
                   % (len(component) - 1, len(trace.removals)))
    if trace.seed in {r.cell for r in trace.removals}:
        report.add("the seed was removed")
    if trace.seed not in component:
        report.add("the seed %r is not in the component" % (trace.seed,))
    for i, r in enumerate(trace.removals):
        if r.cell not in component:
            report.add("step %d: %r is not in the component" % (i, r.cell))
    surface, count = set(trace.first_surface), {}
    unpaired = _recount(space, count, (), surface)
    before = len(report.problems)
    try:
        for i, r in _apply(surface, trace.removals):
            unpaired += _recount(space, count, r.replaced, r.replacement)
            # r applied, so the surfaces' XorSum is its two face sets
            if r.replaced | r.replacement != _faces(space, r.cell):
                report.add("step %d XorSum is not the removed cell boundary"
                           % i)
            if not surface or unpaired:
                report.add("surface after step %d is not a closed "
                           "pseudo-manifold" % i)
    except InputError as exc:
        # a removal that does not apply is the only per-step problem
        del report.problems[before:]
        report.add(str(exc))
        return report
    if surface != _faces(space, trace.seed):
        report.add("final surface is not the seed boundary")
    return report
