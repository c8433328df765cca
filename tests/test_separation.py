import itertools
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltopo import generators as gen
from celltopo import separation
from celltopo.complexes import CellChain, is_minimal_cycle
from celltopo.deformation import (MOVE_SIDE_GRADUAL, DeformationTrace,
                                  are_side_gradually_varied)
from celltopo.errors import InputError, UnsupportedConfiguration
from celltopo.flatness import is_locally_flat
from celltopo.separation import (PARITY_VERTICES, Removal,
                                 _crossing_parities, components_of_complement,
                                 contract_to_cell, first_crossing,
                                 flatten_path, invert_trace, replay,
                                 verify_contraction_trace)

from test_contraction_oracle import blobs, blob_boundary
from test_flatness_oracle import PROPS, _count_calls


def enumerate_cell_paths(space, start, goal):
    """Oracle: every simple sequence of top cells from start to goal where
    consecutive cells share a face; yields the face sequence crossed."""
    k = space.top_dim
    out = []

    def walk(seq, faces):
        cur = seq[-1]
        if cur == goal:
            out.append(tuple(faces))
            return
        cur_faces = set(space.cells[cur].boundary)
        for nxt in space.cells_of_dim(k):
            if nxt in seq:
                continue
            shared = cur_faces & set(space.cells[nxt].boundary)
            for f in sorted(shared):
                walk(seq + [nxt], faces + [f])
                break

    def walk_all(seq, faces):
        cur = seq[-1]
        if cur == goal:
            out.append(tuple(faces))
            return
        cur_faces = set(space.cells[cur].boundary)
        for nxt in space.cells_of_dim(k):
            if nxt in seq:
                continue
            shared = sorted(cur_faces & set(space.cells[nxt].boundary))
            for f in shared:
                walk_all(seq + [nxt], faces + [f])

    walk_all([start], [])
    return out


def barrier_of(space, chain):
    if chain.dim == 1:
        return frozenset((1, e) for e in chain.edge_set())
    return frozenset(chain.cells)


def test_octahedron_separation(octa):
    eq = gen.equator(octa, "octahedron")
    report = components_of_complement(octa, eq)
    assert report.sizes == (4, 4)
    assert report.exactly_two
    assert not report.warnings


def test_simplex4_separation(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    assert sorted(report.sizes) == [1, 4]
    assert report.exactly_two


def test_common_boundary(octa, simplex4):
    for space, family in ((octa, "octahedron"),
                          (simplex4, "simplex-boundary")):
        chain = gen.equator(space, family)
        report = components_of_complement(space, chain)
        barrier = barrier_of(space, chain)
        for f in barrier:
            holders = space.cofaces(f)
            assert len(holders) == 2
            comps = {i for i, comp in enumerate(report.components)
                     for c in holders if c in comp}
            assert comps == {0, 1}


def test_parity_oracle_exhaustive(octa, simplex4):
    for space, family in ((octa, "octahedron"),
                          (simplex4, "simplex-boundary")):
        chain = gen.equator(space, family)
        report = components_of_complement(space, chain)
        barrier = barrier_of(space, chain)
        comp_of = {}
        for i, comp in enumerate(report.components):
            for cid in comp:
                comp_of[cid] = i
        top = space.cells_of_dim(space.top_dim)
        for a, b in itertools.combinations(top, 2):
            want = comp_of[a] != comp_of[b]
            crossings = enumerate_cell_paths(space, a, b)
            assert crossings
            for faces in crossings:
                parity = sum(1 for f in faces if f in barrier) % 2
                assert bool(parity) is want


def test_parity_report_matches_components(octa):
    eq = gen.equator(octa, "octahedron")
    report = components_of_complement(octa, eq)
    assert report.crossing_parities == {(0, 5): 1}


def reference_parities(space, barrier) -> dict:
    """Crossing parities by one breadth-first search per pair of off-chain
    vertices, from the first's home cell until it reaches the second's."""
    k = space.top_dim
    s_verts = {v for cid in barrier for v in cid[1]}
    off = [v for v in range(space.n_vertices) if v not in s_verts
           and space.cells_containing(v, k)][:PARITY_VERTICES]
    out = {}
    for a, b in itertools.combinations(off, 2):
        start = space.cells_containing(a, k)[0]
        goal = space.cells_containing(b, k)[0]
        prev = {start: (None, 0)}
        queue = deque([start])
        while queue and goal not in prev:
            cur = queue.popleft()
            for f in space.cells[cur].boundary:
                for nxt in space.cofaces(f):
                    if nxt != cur and nxt not in prev:
                        cross = 1 if f in barrier else 0
                        prev[nxt] = (cur, prev[cur][1] + cross)
                        queue.append(nxt)
        if goal in prev:
            out[(a, b)] = prev[goal][1] % 2
    return out


def assert_parities_match_reference(space, barrier) -> dict:
    """The whole dict, key order included, and at most one walk per
    off-chain vertex."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        walks = _count_calls(monkeypatch, separation, "_levels")
        got = _crossing_parities(space, barrier)
    assert list(got.items()) == \
        list(reference_parities(space, barrier).items())
    assert len(walks) <= PARITY_VERTICES
    return got


@pytest.mark.parametrize("m, n", [(4, 4), (4, 5), (5, 4), (6, 4)])
def test_parities_match_reference_on_torus_meridians(m, n):
    # the meridian does not separate the torus, so a pair's parity is that
    # of the tree path between them: both parities occur
    space = gen.torus_grid(m, n)
    barrier = barrier_of(space, gen.torus_meridian(space, n))
    got = assert_parities_match_reference(space, barrier)
    assert set(got.values()) == {0, 1}


@settings(PROPS, max_examples=40)
@given(blobs(), st.data())
def test_parities_match_reference_on_blob_boundaries(case, data):
    # a blob's boundary separates, so every path gives the same parity;
    # drawn stray faces make the parity depend on the path
    space, blob = case
    faces = space.cells_of_dim(space.top_dim - 1)
    strays = data.draw(st.sets(st.sampled_from(faces), max_size=6))
    barrier = frozenset(blob_boundary(space, blob)) | strays
    assert_parities_match_reference(space, barrier)


def test_torus_negative_control(torus44):
    mer = gen.torus_meridian(torus44, 4)
    report = components_of_complement(torus44, mer)
    assert report.sizes == (16,)
    assert not report.exactly_two
    assert is_minimal_cycle(torus44, mer)
    # the meridian bounds no 2-cell
    mer_edges = frozenset((1, e) for e in mer.edge_set())
    for cid in torus44.cells_of_dim(2):
        assert frozenset(torus44.cells[cid].boundary) != mer_edges


def test_separation_requires_closed_chain(octa):
    open_arc = CellChain.path(octa, [1, 2, 3])
    with pytest.raises(InputError):
        components_of_complement(octa, open_arc)


# -- first crossing -----------------------------------------------------------


def fixture_cube4(cube4):
    faces = [(2, (0, 2, 4, 6)), (2, (8, 10, 12, 14)), (2, (0, 2, 8, 10)),
             (2, (4, 6, 12, 14)), (2, (0, 4, 8, 12)), (2, (2, 6, 10, 14))]
    return CellChain.of_cells(cube4, 2, faces, closed=True)


def test_first_crossing(cube4):
    s = fixture_cube4(cube4)
    off = CellChain.path(cube4, [9, 1, 5, 13])
    on = CellChain.path(cube4, [9, 8, 12, 13])
    none_trace = DeformationTrace((off,), (), MOVE_SIDE_GRADUAL)
    assert first_crossing(cube4, s, none_trace) is None
    trace = DeformationTrace((off, on), (frozenset(),), MOVE_SIDE_GRADUAL)
    assert first_crossing(cube4, s, trace) == (1, 8)
    starts_on = DeformationTrace((on, off), (frozenset(),),
                                 MOVE_SIDE_GRADUAL)
    assert first_crossing(cube4, s, starts_on) == (0, 8)


# -- path flattening ------------------------------------------------------------


def test_flatten_path_fixture(cube4):
    s = fixture_cube4(cube4)
    assert is_locally_flat(cube4, s)
    p_i = CellChain.path(cube4, [9, 8, 0, 4, 12, 13, 15, 7])
    p_prev = CellChain.path(cube4, [9, 1, 5, 13, 15, 7])
    s_verts = s.vertex_set()

    x0 = [v for v in p_i.verts if v in s_verts]
    # the fixture's intersection is genuinely non-flat: 8 and 12 are
    # adjacent in the chain but three steps apart along the path
    assert x0 == [8, 0, 4, 12]
    assert (8, 12) in cube4.edges

    p_new, bridge = flatten_path(cube4, s, p_i, p_prev)
    assert p_new.verts != p_i.verts
    new_x = [v for v in p_new.verts if v in s_verts]
    assert new_x[0] == x0[0] == 8          # entry vertex preserved
    assert p_new.verts[0] == 9 and p_new.verts[-1] == 7
    assert bridge.kind == MOVE_SIDE_GRADUAL
    assert bridge.steps[0].verts == p_prev.verts
    assert bridge.steps[-1].verts == p_new.verts
    for step in bridge.steps[:-1]:
        assert not (set(step.verts) & s_verts)
    for a, b in zip(bridge.steps, bridge.steps[1:]):
        assert are_side_gradually_varied(cube4, a, b)


def test_flatten_path_already_flat(cube4):
    s = fixture_cube4(cube4)
    p_flat = CellChain.path(cube4, [9, 8, 12, 13, 15, 7])
    p_prev = CellChain.path(cube4, [9, 1, 5, 13, 15, 7])
    p_new, bridge = flatten_path(cube4, s, p_flat, p_prev)
    assert p_new.verts == p_flat.verts
    assert bridge.steps == ()


def test_flatten_path_rejects_dirty_previous(cube4):
    s = fixture_cube4(cube4)
    p_i = CellChain.path(cube4, [9, 8, 0, 4, 12, 13, 15, 7])
    dirty = CellChain.path(cube4, [9, 8, 12, 13, 15, 7])
    with pytest.raises(InputError):
        flatten_path(cube4, s, p_i, dirty)


# -- contraction ------------------------------------------------------------------


def test_contract_octahedron_north(octa):
    eq = gen.equator(octa, "octahedron")
    report = components_of_complement(octa, eq)
    north = next(c for c in report.components
                 if any(0 in cid[1] for cid in c))
    seed = sorted(north)[0]
    trace = contract_to_cell(octa, north, eq, seed)
    assert len(trace.removals) == len(north) - 1 == 3
    assert verify_contraction_trace(octa, north, eq, trace)
    assert trace.surfaces[-1] == frozenset(octa.cells[seed].boundary)


def test_contract_simplex4_component(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    seed = sorted(big)[0]
    trace = contract_to_cell(simplex4, big, sphere, seed)
    assert len(trace.removals) == 3
    check = verify_contraction_trace(simplex4, big, sphere, trace)
    assert check, check.problems
    # per-step invariants, re-stated independently of the verifier
    for i, r in enumerate(trace.removals):
        before, after = trace.surfaces[i], trace.surfaces[i + 1]
        assert before.symmetric_difference(after) == \
            frozenset(simplex4.cells[r.cell].boundary)
        count = {}
        for cid in after:
            for f in simplex4.cells[cid].boundary:
                count[f] = count.get(f, 0) + 1
        assert all(v == 2 for v in count.values())
    # removals strictly shrink the remaining region
    assert len({r.cell for r in trace.removals}) == 3
    assert seed not in {r.cell for r in trace.removals}


def test_contract_single_cell(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    small = next(c for c in report.components if len(c) == 1)
    trace = contract_to_cell(simplex4, small, sphere, next(iter(small)))
    assert trace.removals == ()
    assert trace.surfaces == (frozenset(sphere.cells),)


def test_contract_seed_validation(simplex4, octa):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    with pytest.raises(InputError):
        contract_to_cell(simplex4, big, sphere, (3, (0, 1, 2, 3)))
    eq = gen.equator(octa, "octahedron")
    rep2 = components_of_complement(octa, eq)
    north = next(c for c in rep2.components if any(0 in cid[1] for cid in c))
    # a north cell not touching the equator does not exist, so fake the
    # error with a southern seed instead
    with pytest.raises(InputError):
        contract_to_cell(octa, north, eq, (2, (1, 2, 5)))


def test_contract_unsupported_on_torus(torus44):
    mer = gen.torus_meridian(torus44, 4)
    report = components_of_complement(torus44, mer)
    comp = report.components[0]
    barrier = frozenset((1, e) for e in mer.edge_set())
    seed = sorted(c for c in comp
                  if frozenset(torus44.cells[c].boundary) & barrier)[0]
    with pytest.raises(UnsupportedConfiguration,
                       match="contraction ended on a surface other than "
                             "the seed boundary") as info:
        contract_to_cell(torus44, comp, mer, seed)
    assert info.value.cell == seed


# -- inversion ---------------------------------------------------------------------


def test_verify_reports_a_removal_that_does_not_apply(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    r = trace.removals[0]
    bad = replace(trace, removals=(Removal(r.cell, r.replacement, r.replaced),)
                  + trace.removals[1:])
    check = verify_contraction_trace(simplex4, big, sphere, bad)
    assert check.problems == ["step 0 does not apply to its surface"]
    with pytest.raises(InputError, match="step 0 does not apply"):
        replay(bad)


def test_verify_reports_cells_outside_the_component():
    # the equator splits S(3, 4) into two sides of 48 squares; a trace
    # that contracts one side matches the other in size only
    space, equator = gen.lattice_sphere(3, 4)
    a, b = components_of_complement(space, equator).components
    assert len(a) == len(b) == 48
    seed = min(c for c in b if frozenset(space.cells[c].boundary)
               & frozenset(equator.cells))
    trace = contract_to_cell(space, b, equator, seed)
    assert verify_contraction_trace(space, b, equator, trace)
    check = verify_contraction_trace(space, a, equator, trace)
    assert check.problems[0] == \
        "the seed %r is not in the component" % (seed,)
    assert check.problems[1:] == [
        "step %d: %r is not in the component" % (i, r.cell)
        for i, r in enumerate(trace.removals)]


def test_invert_empty(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    small = next(c for c in report.components if len(c) == 1)
    trace = contract_to_cell(simplex4, small, sphere, next(iter(small)))
    inv = invert_trace(trace)
    assert inv.removals == ()
    assert inv.direction == "expand"


def test_invert_replays_to_chain(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    inv = invert_trace(trace)
    final = replay(inv)
    assert final == frozenset(sphere.cells)
    # byte-identical on the canonical serialized form
    def canon(cells):
        return "\n".join(repr(c) for c in sorted(cells))
    assert canon(final) == canon(frozenset(sphere.cells))


def test_separation_and_contraction_dimension_four():
    # the boundary of the 5-simplex is a 4-sphere; the embedded 4-simplex
    # boundary splits it 1 + 5 and the five-cell side contracts in 4 steps
    s5 = gen.simplex_boundary(5)
    eq = gen.equator(s5, "simplex-boundary")
    assert is_locally_flat(s5, eq)
    report = components_of_complement(s5, eq)
    assert sorted(report.sizes) == [1, 5] and report.exactly_two
    big = next(c for c in report.components if len(c) == 5)
    trace = contract_to_cell(s5, big, eq, sorted(big)[0])
    assert len(trace.removals) == 4
    assert verify_contraction_trace(s5, big, eq, trace)
    assert replay(invert_trace(trace)) == frozenset(eq.cells)


def test_contract_seven_cube_component(cube4):
    s = fixture_cube4(cube4)
    report = components_of_complement(cube4, s)
    assert sorted(report.sizes) == [1, 7] and report.exactly_two
    outer = next(c for c in report.components if len(c) == 7)
    barrier = frozenset(s.cells)
    seed = sorted(c for c in outer
                  if frozenset(cube4.cells[c].boundary) & barrier)[0]
    trace = contract_to_cell(cube4, outer, s, seed)
    assert len(trace.removals) == 6
    assert verify_contraction_trace(cube4, outer, s, trace)
    assert replay(invert_trace(trace)) == barrier


def test_double_inversion(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    assert invert_trace(invert_trace(trace)) == trace
