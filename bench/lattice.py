"""Quad lattice spheres: the boundary of the cube [0, n]^d.

Vertices are the boundary lattice points, numbered in lexicographic order
of their coordinates.  Every unit i-face lying in the boundary is a cell.
The space is built through the public ``DiscreteSpace`` constructor, which
derives every boundary, so set-up time includes boundary derivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from celltopo.complexes import CellChain, DiscreteSpace


@dataclass
class LatticeSphere:
    d: int
    n: int
    points: list          # vertex id -> coordinate tuple
    index: dict           # coordinate tuple -> vertex id
    faces: dict           # dim -> sorted list of sorted vertex-id tuples
    space: DiscreteSpace
    equator: CellChain

    @property
    def h(self) -> int:
        return self.n // 2


def boundary_points(d: int, n: int) -> list:
    """Lattice points of [0, n]^d with some coordinate 0 or n, in
    lexicographic order."""
    return [p for p in itertools.product(range(n + 1), repeat=d)
            if any(x in (0, n) for x in p)]


def unit_faces(d: int, n: int, i: int, index: dict, keep=None) -> list:
    """Every unit i-face of [0, n]^d on the boundary, as sorted vertex-id
    tuples.  ``keep(base, free)`` may restrict the faces further."""
    out = []
    for free in itertools.combinations(range(d), i):
        fixed = [a for a in range(d) if a not in free]
        ranges = [range(n) if a in free else range(n + 1) for a in range(d)]
        for base in itertools.product(*ranges):
            if not any(base[a] in (0, n) for a in fixed):
                continue
            if keep is not None and not keep(base, free):
                continue
            verts = []
            for bits in itertools.product((0, 1), repeat=i):
                p = list(base)
                for a, b in zip(free, bits):
                    p[a] += b
                verts.append(index[tuple(p)])
            out.append(tuple(sorted(verts)))
    return sorted(out)


def expected_counts(d: int, n: int) -> dict:
    """Closed form: the number of boundary unit i-faces of [0, n]^d."""
    return {i: comb(d, i) * n ** i * ((n + 1) ** (d - i) - (n - 1) ** (d - i))
            for i in range(d)}


def lattice_sphere(d: int, n: int) -> LatticeSphere:
    """The (d-1)-sphere bounding [0, n]^d, split by last coordinate n // 2."""
    if d not in (3, 4) or n < 2:
        raise ValueError("lattice_sphere needs d in (3, 4) and n >= 2")
    points = boundary_points(d, n)
    index = {p: i for i, p in enumerate(points)}
    faces = {i: unit_faces(d, n, i, index) for i in range(1, d)}
    space = DiscreteSpace(len(points), faces[1],
                          {i: faces[i] for i in range(2, d)}, oriented=True)
    h = n // 2
    if d == 3:
        ring = rectangle_walk(index, (0, 0, h), (0, 1), (0, 0), (n, n))
        equator = CellChain.path(space, ring, closed=True)
    else:
        cells = unit_faces(d, n, 2, index,
                           keep=lambda base, free: d - 1 not in free
                           and base[d - 1] == h)
        equator = CellChain.of_cells(space, 2, [(2, c) for c in cells],
                                     closed=True)
    return LatticeSphere(d, n, points, index, faces, space, equator)


def unit_cube_faces(sphere: LatticeSphere, verts) -> list:
    """The codimension-one faces of a unit cube given by its vertex ids,
    read from the coordinates alone."""
    pts = [sphere.points[v] for v in verts]
    out = []
    for a in range(sphere.d):
        values = sorted({p[a] for p in pts})
        if len(values) == 2:
            for val in values:
                out.append(tuple(sorted(v for v, p in zip(verts, pts)
                                        if p[a] == val)))
    return out


def plane_ring(sphere: LatticeSphere, v: int, axes: tuple) -> list:
    """The 8-cycle of lattice neighbours around ``v`` in the plane of two
    axes, starting at its smallest id and heading to the smaller of that
    vertex's two ring neighbours."""
    a1, a2 = axes
    index = sphere.index
    p = sphere.points[v]
    around = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1),
              (-1, 0)]
    ring = []
    for da, db in around:
        q = list(p)
        q[a1] += da
        q[a2] += db
        ring.append(index[tuple(q)])
    k = ring.index(min(ring))
    ring = ring[k:] + ring[:k]
    if ring[-1] < ring[1]:
        ring = ring[:1] + ring[:0:-1]
    return ring


def rectangle_walk(index: dict, base: tuple, axes: tuple, lo: tuple,
                   hi: tuple) -> list:
    """The boundary of the lattice rectangle [lo, hi] in the plane through
    ``base`` spanned by two axes, as a closed vertex walk from ``lo``."""
    a1, a2 = axes
    (i0, j0), (i1, j1) = lo, hi
    walk = [(i, j0) for i in range(i0, i1)] \
        + [(i1, j) for j in range(j0, j1)] \
        + [(i, j1) for i in range(i1, i0, -1)] \
        + [(i0, j) for j in range(j1, j0, -1)]
    out = []
    for i, j in walk:
        q = list(base)
        q[a1], q[a2] = i, j
        out.append(index[tuple(q)])
    return out
