"""Contraction and its verifier against references of the direct rule.

The references below are the contraction and the verifier written the
direct way: every removal computes the seed distances again, scans the
region for the cells touching the surface, sorts them and counts the
faces of the whole new surface, and the verifier builds every surface.
``contract_to_cell`` keeps that state across removals instead.  It must
return the same trace, or raise the same exception with the same message
and cell, and ``verify_contraction_trace`` must report the same problems
in the same order, on drawn blobs of lattice spheres, on the equator
spheres, on the torus and on mutated traces.
"""

import itertools
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from celltopo import complexes, separation
from celltopo import generators as gen
from celltopo.complexes import (CellChain, CheckReport, face_components,
                                face_counts, is_closed, walk)
from celltopo.errors import InputError, TopologyError, UnsupportedConfiguration
from celltopo.separation import (ContractionTrace, Removal,
                                 _submanifold_cells, components_of_complement,
                                 contract_to_cell, replay,
                                 verify_contraction_trace)

from test_flatness_oracle import PROPS, _count_calls

# -- references ---------------------------------------------------------------


def _faces(space, cid) -> frozenset:
    return frozenset(space.cells[cid].boundary)


def reference_distances(space, seed, region: set) -> dict:
    dist = {seed: 1}
    queue = deque([seed])
    while queue:
        cur = queue.popleft()
        for nxt in space.cell_neighbors(cur):
            if nxt in region and nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def reference_contract(space, component, s, seed) -> ContractionTrace:
    component = frozenset(component)
    k = space.top_dim
    if seed not in component:
        raise InputError("seed %r is not in the component" % (seed,))
    barrier = _submanifold_cells(space, s)
    if not _faces(space, seed) & barrier:
        raise InputError("seed has no face on the separating chain")

    surface = barrier
    remaining = set(component)
    removals = []
    while len(remaining) > 1:
        dist = reference_distances(space, seed, remaining)
        touching = [c for c in sorted(remaining)
                    if c != seed and _faces(space, c) & surface]
        if not touching:
            raise UnsupportedConfiguration(
                "no remaining cell touches the surface")
        order = sorted(touching,
                       key=lambda c: (-dist.get(c, len(component) + 1), c))
        chosen = None
        for cand in order:
            if len(face_components(space, _faces(space, cand) & surface)) \
                    == 1:
                chosen = cand
                break
        if chosen is None:
            raise UnsupportedConfiguration(
                "surface intersection of the farthest cell is not a single "
                "connected patch of faces", cell=order[0])
        patch = _faces(space, chosen) & surface
        replacement = _faces(space, chosen) - surface
        new_surface = (surface - patch) | replacement
        if surface.symmetric_difference(new_surface) != _faces(space, chosen):
            raise UnsupportedConfiguration(
                "step does not realize the cell boundary as a XorSum",
                cell=chosen)
        if not is_closed(space, new_surface):
            raise UnsupportedConfiguration(
                "intermediate surface is not a closed pseudo-manifold",
                cell=chosen)
        removals.append(Removal(chosen, patch, replacement))
        surface = new_surface
        remaining.remove(chosen)
    if surface != _faces(space, seed):
        raise UnsupportedConfiguration(
            "contraction ended on a surface other than the seed boundary",
            cell=seed)
    return ContractionTrace(seed, barrier, tuple(removals))


def reference_surfaces(trace) -> tuple:
    surface = trace.first_surface
    out = [surface]
    for i, r in enumerate(trace.removals):
        if not r.replaced <= surface or (surface & r.replacement):
            raise InputError("step %d does not apply to its surface" % i)
        surface = (surface - r.replaced) | r.replacement
        out.append(surface)
    return tuple(out)


def reference_verify(space, component, s, trace) -> CheckReport:
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
    try:
        surfaces = reference_surfaces(trace)
    except InputError as exc:
        report.add(str(exc))
        return report
    for i, r in enumerate(trace.removals):
        before, after = surfaces[i], surfaces[i + 1]
        if before.symmetric_difference(after) != _faces(space, r.cell):
            report.add("step %d XorSum is not the removed cell boundary" % i)
        if not is_closed(space, after):
            report.add("surface after step %d is not a closed "
                       "pseudo-manifold" % i)
    if surfaces[-1] != _faces(space, trace.seed):
        report.add("final surface is not the seed boundary")
    return report


def outcome(fn, *args):
    """The result, or the exception's type, message and cell."""
    try:
        return fn(*args)
    except TopologyError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "cell", None)


def assert_matches_reference(space, component, s, seed):
    got = outcome(contract_to_cell, space, component, s, seed)
    assert got == outcome(reference_contract, space, component, s, seed)
    if isinstance(got, ContractionTrace):
        assert verify_contraction_trace(space, component, s, got).problems \
            == reference_verify(space, component, s, got).problems == []
        assert got.surfaces == reference_surfaces(got)
        assert replay(got) == got.surfaces[-1]
    return got


def chain_seeds(space, component, s) -> list:
    barrier = _submanifold_cells(space, s)
    return sorted(c for c in component if _faces(space, c) & barrier)


# -- drawn blobs --------------------------------------------------------------

LATTICES = {"S(%d, %d)" % dn: gen.lattice_sphere(*dn)
            for dn in ((3, 3), (3, 4), (3, 5), (4, 3))}


def blob_boundary(space, blob) -> list:
    return sorted(f for f, n in face_counts(space, blob).items() if n == 1)


def is_one_closed_piece(space, cells) -> bool:
    """One cycle on a 2-sphere, one closed surface on a 3-sphere."""
    return is_closed(space, cells) and len(face_components(space, cells)) == 1


def boundary_chain(space, blob) -> CellChain:
    cells = blob_boundary(space, blob)
    if space.top_dim == 2:
        return CellChain.path(space, walk([e for _, e in cells]),
                              closed=True)
    return CellChain.of_cells(space, space.top_dim - 1, cells, closed=True)


@st.composite
def blobs(draw):
    """A lattice sphere and a face-connected blob of its top cells whose
    boundary is one closed piece.  The blob grows by one drawn neighbour
    at a time, among those that keep its boundary one closed piece."""
    space, _ = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    blob = [draw(st.sampled_from(space.cells_of_dim(space.top_dim)))]
    for _ in range(draw(st.integers(0, 24))):
        near = sorted({n for c in blob for n in space.cell_neighbors(c)}
                      - set(blob))
        options = [n for n in near if is_one_closed_piece(
            space, blob_boundary(space, blob + [n]))]
        if not options:
            break
        blob.append(draw(st.sampled_from(options)))
    return space, frozenset(blob)


@settings(PROPS, max_examples=40)
@given(blobs(), st.data())
def test_contraction_matches_reference_on_blobs(case, data):
    space, blob = case
    s = boundary_chain(space, blob)
    report = components_of_complement(space, s)
    # a closed, face-connected boundary separates the sphere in two
    assert report.exactly_two
    assert blob in report.components
    for component in report.components:
        seeds = chain_seeds(space, component, s)
        drawn = (data.draw(st.lists(st.sampled_from(seeds), max_size=2))
                 + data.draw(st.lists(st.sampled_from(sorted(component)),
                                      max_size=1)))
        for seed in [seeds[0]] + drawn:
            assert_matches_reference(space, component, s, seed)
        if space.top_dim == 2:
            # every side of a cycle on a 2-sphere is a disk and contracts
            assert isinstance(contract_to_cell(space, component, s,
                                               seeds[0]), ContractionTrace)


EQUATORS = {
    "octahedron": (gen.octahedron(), "octahedron"),
    "simplex4": (gen.simplex_boundary(4), "simplex-boundary"),
    "simplex5": (gen.simplex_boundary(5), "simplex-boundary"),
    "cube3": (gen.cube_boundary(3), "cube-boundary"),
}


def equator_cases():
    for name, (space, family) in EQUATORS.items():
        yield name, space, gen.equator(space, family)
    for name, (space, s) in LATTICES.items():
        yield name, space, s
    torus = gen.torus_grid(4, 4)
    yield "torus", torus, gen.torus_meridian(torus, 4)


@pytest.mark.parametrize("name,space,s", list(equator_cases()),
                         ids=[c[0] for c in equator_cases()])
def test_contraction_matches_reference_on_equators(name, space, s):
    report = components_of_complement(space, s)
    outcomes = set()
    for component in report.components:
        seeds = chain_seeds(space, component, s)
        for seed in seeds[::len(seeds) // 8 + 1]:
            got = assert_matches_reference(space, component, s, seed)
            outcomes.add(got[0] if isinstance(got, tuple)
                         else type(got).__name__)
    if name == "torus":
        assert outcomes == {"UnsupportedConfiguration"}


# -- kept distances -----------------------------------------------------------


@PROPS
@given(st.data())
def test_kept_distances_match_a_fresh_pass(data):
    # any removal order, not only the contraction's: after each removal
    # the kept map is still exact unless ``_lengthens`` says a distance
    # grew, and it says so only then
    space, _ = LATTICES[data.draw(st.sampled_from(sorted(LATTICES)))]
    region = {data.draw(st.sampled_from(space.cells_of_dim(space.top_dim)))}
    for _ in range(data.draw(st.integers(1, 60))):
        near = sorted({n for c in region for n in space.cell_neighbors(c)})
        region.add(data.draw(st.sampled_from(near)))
    seed = data.draw(st.sampled_from(sorted(region)))
    order = data.draw(st.permutations(sorted(region - {seed})))
    remaining = set(region)
    dist = reference_distances(space, seed, remaining)
    for cell in order:
        remaining.remove(cell)
        grew = separation._lengthens(space, dist, cell)
        fresh = reference_distances(space, seed, remaining)
        assert grew == (dist != fresh)
        event("a distance grew" if grew else "distances kept")
        dist = fresh


def band(n: int):
    """S(3, n) and its ring of squares between heights 1 and 2, in order
    around the sphere from the smallest square."""
    space, _ = gen.lattice_sphere(3, n)
    points = [p for p in itertools.product(range(n + 1), repeat=3)
              if 0 in p or n in p]
    squares = {c for c in space.cells_of_dim(2)
               if {points[v][2] for v in c[1]} == {1, 2}}
    ring = [min(squares)]
    while len(ring) < len(squares):
        ring.append(min(c for c in space.cell_neighbors(ring[-1])
                        if c in squares and c not in ring))
    return space, ring


def test_a_removal_that_lengthens_a_distance(monkeypatch):
    # the ring of 16 squares around S(3, 4), with the surface around its
    # first two: the farthest square touching the surface is the third,
    # and its removal sends the fourth's distance from the seed from 4
    # the long way round the ring, to 14
    space, ring = band(4)
    s = CellChain.of_cells(space, 1, blob_boundary(space, ring[:2]),
                           closed=True)
    passes = _count_calls(monkeypatch, separation, "_region_distances")
    got = assert_matches_reference(space, set(ring), s, ring[0])
    # the surface eats round the ring until the seed's other neighbour
    # and the second square are both pinched between two faces
    assert got == ("UnsupportedConfiguration",
                   "surface intersection of the farthest cell is not a "
                   "single connected patch of faces", min(ring[1], ring[15]))
    assert len(passes) == 2
    remaining = set(ring)
    dist = reference_distances(space, ring[0], remaining)
    assert dist[ring[3]] == 4
    assert reference_distances(space, ring[0], remaining - {ring[2]})[
        ring[3]] == 14
    grew = []
    for cell in ring[2:15]:
        remaining.remove(cell)
        grew.append(separation._lengthens(space, dist, cell))
        dist = reference_distances(space, ring[0], remaining)
    assert grew == [True] + [False] * 12
    assert dist[ring[1]] == dist[ring[15]] == 2


def test_a_lengthened_distance_reorders_the_queue():
    # on S(3, 4), a 21-square region and a surface of three cycles around
    # six squares: the first removal lengthens the distance of a square
    # that already touches the surface, and the next choice depends on its
    # new distance (found by a random search against the reference)
    space, _ = gen.lattice_sphere(3, 4)
    region = {(2, c) for c in [
        (1, 2, 6, 7), (1, 2, 26, 27), (5, 6, 10, 11), (5, 10, 30, 32),
        (6, 7, 11, 12), (7, 8, 12, 13), (10, 11, 15, 16), (15, 16, 20, 21),
        (15, 20, 34, 36), (20, 21, 36, 37), (25, 30, 41, 46),
        (26, 27, 42, 43), (30, 32, 46, 48), (32, 34, 48, 50),
        (34, 36, 50, 52), (41, 42, 57, 58), (41, 46, 57, 62),
        (46, 48, 62, 64), (48, 50, 64, 66), (62, 64, 78, 83),
        (64, 66, 83, 88)]}
    inner = [(2, c) for c in [(2, 3, 7, 8), (2, 3, 27, 28), (7, 8, 12, 13),
                              (12, 13, 17, 18), (37, 38, 53, 54),
                              (79, 80, 84, 85)]]
    s = CellChain.of_cells(space, 1, blob_boundary(space, inner),
                           closed=True)
    got = assert_matches_reference(space, region, s, (2, (1, 2, 26, 27)))
    assert got == ("UnsupportedConfiguration", "intermediate surface is "
                   "not a closed pseudo-manifold", (2, (7, 8, 12, 13)))


@PROPS
@given(st.data())
def test_contraction_matches_reference_on_drawn_surfaces(data):
    # a face-connected region and the boundary of any drawn set of cells:
    # most of these contractions stop early, each at the same removal and
    # with the same exception as the reference
    space, _ = LATTICES[data.draw(st.sampled_from(sorted(LATTICES)))]
    top = space.cells_of_dim(space.top_dim)
    region = {data.draw(st.sampled_from(top))}
    for _ in range(data.draw(st.integers(1, 30))):
        near = sorted({n for c in region for n in space.cell_neighbors(c)})
        region.add(data.draw(st.sampled_from(near)))
    inner = data.draw(st.sets(st.sampled_from(top), min_size=1))
    s = CellChain.of_cells(space, space.top_dim - 1,
                           blob_boundary(space, inner), closed=True)
    seeds = chain_seeds(space, region, s) or sorted(region)
    assert_matches_reference(space, region, s, data.draw(
        st.sampled_from(seeds)))


# -- work bound ---------------------------------------------------------------


def test_contraction_work_bound(monkeypatch):
    # one distance pass for the whole contraction, and no whole-surface
    # closedness count in the contraction or its verifier
    space, s = gen.lattice_sphere(3, 4)
    component = max(components_of_complement(space, s).components)
    passes = _count_calls(monkeypatch, separation, "_region_distances")
    closed = _count_calls(monkeypatch, complexes, "is_closed")
    trace = contract_to_cell(space, component, s, chain_seeds(
        space, component, s)[0])
    assert verify_contraction_trace(space, component, s, trace)
    assert len(trace.removals) == len(component) - 1 > 1
    assert len(passes) == 1
    assert closed == []


# -- the verifier on mutated traces -------------------------------------------


def _traces():
    out = []
    for name, space, s in equator_cases():
        if name == "torus":
            continue
        for component in components_of_complement(space, s).components:
            seed = chain_seeds(space, component, s)[0]
            out.append((space, component, s,
                        contract_to_cell(space, component, s, seed)))
    return out


TRACES = _traces()


@st.composite
def mutated_traces(draw):
    """A real trace with one to three drawn edits: drop, swap or re-cell a
    removal, add a face to or take one from its face sets, or change the
    seed."""
    space, component, s, trace = draw(st.sampled_from(TRACES))
    k = space.top_dim
    top, faces = space.cells_of_dim(k), space.cells_of_dim(k - 1)
    for _ in range(draw(st.integers(1, 3))):
        removals = list(trace.removals)
        kind = draw(st.sampled_from(["drop", "swap", "recell", "add",
                                     "take", "seed"]))
        if kind == "seed" or not removals:
            trace = replace(trace, seed=draw(st.sampled_from(top)))
            continue
        i = draw(st.integers(0, len(removals) - 1))
        r = removals[i]
        if kind == "drop":
            del removals[i]
        elif kind == "swap":
            j = draw(st.integers(0, len(removals) - 1))
            removals[i], removals[j] = removals[j], removals[i]
        elif kind == "recell":
            removals[i] = replace(r, cell=draw(st.sampled_from(top)))
        else:
            field = draw(st.sampled_from(["replaced", "replacement"]))
            cells = getattr(r, field)
            if kind == "add":
                cells = cells | {draw(st.sampled_from(faces))}
            elif cells:
                cells = cells - {draw(st.sampled_from(sorted(cells)))}
            removals[i] = replace(r, **{field: cells})
        trace = replace(trace, removals=tuple(removals))
    return space, component, s, trace


@PROPS
@given(mutated_traces())
def test_verifier_matches_reference_on_mutated_traces(case):
    space, component, s, trace = case
    got = verify_contraction_trace(space, component, s, trace)
    want = reference_verify(space, component, s, trace)
    assert (got.ok, got.problems) == (want.ok, want.problems)
    assert outcome(replay, trace) == outcome(
        lambda t: reference_surfaces(t)[-1], trace)
    assert outcome(lambda t: t.surfaces, trace) == outcome(
        reference_surfaces, trace)


def test_real_traces_verify():
    for space, component, s, trace in TRACES:
        assert verify_contraction_trace(space, component, s, trace)
        assert reference_verify(space, component, s, trace)
