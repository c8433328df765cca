"""Output checks computed from lattice coordinates, not from celltopo.

Each check returns a list of problems; an empty list means the output is
correct.  Expected values come from closed forms, from the coordinates of
the lattice, or from networkx, so none of them is a copy of a recorded
output.
"""

from __future__ import annotations

import os
from collections import Counter

import networkx as nx

from lattice import LatticeSphere, expected_counts, unit_cube_faces


def equator_faces(sphere: LatticeSphere) -> frozenset:
    """The (d-2)-faces whose vertices all sit at last coordinate h."""
    return frozenset(f for f in sphere.faces[sphere.d - 2]
                     if all(sphere.points[v][-1] == sphere.h for v in f))


def components(sphere: LatticeSphere) -> list:
    """Components of the dual graph of the top cells with the equator's
    faces cut, each a frozenset of vertex tuples, ordered by smallest cell."""
    cut = equator_faces(sphere)
    graph = nx.Graph()
    by_face: dict = {}
    for cell in sphere.faces[sphere.d - 1]:
        graph.add_node(cell)
        for f in unit_cube_faces(sphere, cell):
            if f not in cut:
                by_face.setdefault(f, []).append(cell)
    for cells in by_face.values():
        graph.add_edges_from(zip(cells, cells[1:]))
    return sorted((frozenset(c) for c in nx.connected_components(graph)),
                  key=min)


def side_sizes(sphere: LatticeSphere) -> tuple:
    """Closed form for the two sides: n^(d-1) + 2(d-1) n^(d-2) t for the
    t = h layers below the equator and the n - h layers above it."""
    d, n = sphere.d, sphere.n
    return tuple(n ** (d - 1) + 2 * (d - 1) * n ** (d - 2) * t
                 for t in (sphere.h, n - sphere.h))


def expected_sheets(sphere: LatticeSphere) -> set:
    """Vertices at last coordinate h - 1 and h + 1 with another coordinate
    equal to 0 or n."""
    n = sphere.n
    return {frozenset(v for v, p in enumerate(sphere.points)
                      if p[-1] == level and any(x in (0, n) for x in p[:-1]))
            for level in (sphere.h - 1, sphere.h + 1)}


def check_check(out: str, sphere: LatticeSphere) -> list:
    lines = out.splitlines()
    counts = expected_counts(sphere.d, sphere.n)
    want = ["vertices %d edges %d top-dim %d oriented yes"
            % (counts[0], counts[1], sphere.d - 1)]
    want += ["cells dim %d: %d" % (i, counts[i]) for i in range(2, sphere.d)]
    want += ["chains: equator", "regular: pass", "closed: yes"]
    problems = []
    if lines != want:
        problems.append("check printed %r, expected %r" % (lines, want))
    euler = sum((-1) ** i * c for i, c in counts.items())
    if euler != (2 if sphere.d == 3 else 0):
        problems.append("Euler characteristic %d" % euler)
    return problems


def check_flat(out: str, sphere: LatticeSphere) -> list:
    lines = out.splitlines()
    if not lines or lines[0] != "locally flat":
        return ["flat printed %r" % lines[:1]]
    sheets = {frozenset(int(v) for v in line.split(":", 1)[1].split())
              for line in lines[1:] if line.startswith("collar sheet ")}
    if len(lines) != 3 or sheets != expected_sheets(sphere):
        return ["collar sheets differ from the h - 1 and h + 1 levels"]
    return []


def check_separate(out: str, report: str, sizes: tuple) -> list:
    lines = out.splitlines()
    want = ["components 2"] + ["component %d size %d boundary common"
                               % (i, s) for i, s in enumerate(sizes)]
    problems = []
    if lines[:3] != want:
        problems.append("separate printed %r, expected %r" % (lines[:3], want))
    if report != out:
        problems.append("separate --out differs from its standard output")
    return problems


def _parse_trace(text: str) -> tuple:
    """Cell lists per dimension (by file index), chains and steps of a
    DSCTRACE file."""
    lines = text.splitlines()
    cells, chains, steps = {}, {}, []
    seed = None
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if not parts:
            continue
        if parts[0] == "edges":
            m = int(parts[1])
            cells[1] = [tuple(sorted(map(int, row.split())))
                        for row in lines[i:i + m]]
            i += m
        elif parts[0] == "cells":
            dim, m = int(parts[1]), int(parts[2])
            cells[dim] = [tuple(sorted(map(int, row.split("|")[0].split())))
                          for row in lines[i:i + m]]
            i += m
        elif parts[0] == "chain":
            chains[parts[1]] = [int(x) for x in lines[i].split()]
            i += 1
        elif parts[0] == "seed":
            seed = int(parts[1])
        elif parts[0] == "step":
            top, rep, repl = lines[i - 1][4:].split("|")
            steps.append((int(top), [int(x) for x in rep.split()],
                          [int(x) for x in repl.split()]))
    return cells, chains, seed, steps


def check_trace(text: str, sphere: LatticeSphere, component: frozenset):
    """Replay a contraction trace file from the coordinates.  Returns the
    problems and the face count of every surface."""
    k = sphere.d - 1
    cells, chains, seed, steps = _parse_trace(text)
    top, faces = cells[k], cells[k - 1]
    surface = {faces[j] for j in chains["surface"]}
    problems = []
    if surface != equator_faces(sphere):
        problems.append("trace does not start at the equator")
    counts = Counter(s for f in surface for s in unit_cube_faces(sphere, f))
    open_faces = sum(1 for c in counts.values() if c != 2)
    sizes = [len(surface)]
    removed = []
    for t, (ci, rep, repl) in enumerate(steps):
        cell = top[ci]
        removed.append(cell)
        bnd = set(unit_cube_faces(sphere, cell))
        new = (surface - {faces[j] for j in rep}) | {faces[j] for j in repl}
        if surface ^ new != bnd:
            problems.append("step %d: surface difference is not the removed "
                            "cell's boundary" % t)
        for f in surface ^ new:
            delta = 1 if f in new else -1
            for s in unit_cube_faces(sphere, f):
                before = counts[s]
                counts[s] = before + delta
                open_faces += (counts[s] != 2 and counts[s] != 0) \
                    - (before != 2 and before != 0)
        if open_faces:
            problems.append("surface after step %d is not closed" % t)
        surface = new
        sizes.append(len(surface))
    seed_cell = top[seed]
    if len(steps) != len(component) - 1:
        problems.append("%d removals for a component of %d cells"
                        % (len(steps), len(component)))
    if set(removed) | {seed_cell} != component \
            or len(set(removed)) != len(removed):
        problems.append("removed cells and seed are not the component")
    if surface != set(unit_cube_faces(sphere, seed_cell)):
        problems.append("last surface is not the seed's boundary")
    return problems, sizes


def check_export(prefix: str, sizes: list, n_vertices: int) -> list:
    problems = []
    for i, faces in enumerate(sizes):
        path = "%s_step%03d.off" % (prefix, i)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:2] != ["OFF", "%d %d 0" % (n_vertices, faces)] \
                or len(lines) != 2 + n_vertices + faces:
            problems.append("%s: wrong header or line count" % path)
    if os.path.exists("%s_step%03d.off" % (prefix, len(sizes))):
        problems.append("export wrote more OFF files than surfaces")
    with open(prefix + ".log", encoding="utf-8") as fh:
        if fh.readline().strip() != "snapshots %d" % len(sizes):
            problems.append("export log has the wrong snapshot count")
    return problems


def walk_edges(walk, closed: bool = True) -> set:
    """The edges of a vertex walk, as sorted pairs."""
    pairs = list(zip(walk, walk[1:]))
    if closed:
        pairs.append((walk[-1], walk[0]))
    return {tuple(sorted(p)) for p in pairs}


def curve_edges(chain) -> set:
    return walk_edges(chain.verts, chain.closed)


def check_moves(sphere: LatticeSphere, steps, moves, start: set,
                end: set) -> list:
    """Every move is the XorSum with one 2-cell boundary, from ``start``
    to ``end``."""
    edges = [curve_edges(s) for s in steps]
    problems = []
    if edges[0] != start or edges[-1] != end:
        problems.append("move sequence has the wrong ends")
    for t, move in enumerate(moves):
        if len(move) != 1:
            problems.append("move %d uses %d cells" % (t, len(move)))
            continue
        (cell,) = move
        bnd = set(unit_cube_faces(sphere, cell[1])) if cell[0] == 2 else None
        if bnd != edges[t] ^ edges[t + 1]:
            problems.append("move %d is not one 2-cell XorSum" % t)
    return problems


def check_search(sphere: LatticeSphere, trace, ring: list,
                 anchor: int) -> list:
    if trace is None:
        return ["search found no contraction of %r" % (ring,)]
    problems = check_moves(sphere, trace.steps, trace.moves, walk_edges(ring),
                           set())
    dropped: set = set()
    prev = None
    for t, step in enumerate(trace.steps):
        verts = set(step.verts)
        if anchor not in verts:
            problems.append("step %d drops the anchor" % t)
        if verts & dropped:
            problems.append("step %d brings back a dropped vertex" % t)
        if prev is not None:
            dropped |= prev - verts
        prev = verts
    if tuple(trace.steps[-1].verts) != (anchor,):
        problems.append("search trace does not end at the anchor")
    return problems
