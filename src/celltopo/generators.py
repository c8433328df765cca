"""Deterministic builders for the standard complexes and named test cases.

Every builder assigns dense integer vertex ids in a documented order, so
the same call always produces the same space, byte for byte after
serialization.
"""

from __future__ import annotations

import itertools

from .complexes import CellChain, DiscreteSpace, partial_graph, walk
from .errors import InputError


def simplex_boundary(n: int) -> DiscreteSpace:
    """Boundary of the n-simplex: the (n-1)-sphere on vertices 0..n.

    Cells of dimension d are exactly the (d+1)-subsets of the vertex set;
    the top cell (the simplex itself) is omitted.
    """
    if not (2 <= n <= 6):
        raise InputError("simplex_boundary supports 2 <= n <= 6")
    verts = range(n + 1)
    edges = list(itertools.combinations(verts, 2))
    cells = {d: [tuple(c) for c in itertools.combinations(verts, d + 1)]
             for d in range(2, n)}
    return DiscreteSpace(n + 1, edges, cells, oriented=True)


def lattice_sphere(d: int, n: int):
    """The quad (d-1)-sphere bounding the cube [0, n]^d, and its equator.

    Vertices are the boundary lattice points, numbered in lexicographic
    order of their coordinates; every unit i-face on the boundary is an
    i-cell.  The equator is the (d-2)-sphere of the cells at last
    coordinate n // 2: a closed vertex walk for d = 3 (from its smallest
    vertex, as ``walk`` orders a cycle), otherwise the chain of its
    (d-2)-cells.  Returns ``(space, equator)``.
    """
    if not (2 <= d <= 5) or n < 1:
        raise InputError("lattice_sphere supports 2 <= d <= 5 and n >= 1")
    points = [p for p in itertools.product(range(n + 1), repeat=d)
              if 0 in p or n in p]
    index = {p: i for i, p in enumerate(points)}
    faces: dict = {0: [(v,) for v in range(len(points))]}
    for p in points:
        for i in range(1, d):
            for axes in itertools.combinations(range(d), i):
                corners = [tuple(x + bits[axes.index(a)] if a in axes else x
                                 for a, x in enumerate(p))
                           for bits in itertools.product((0, 1), repeat=i)]
                if all(c in index for c in corners):
                    faces.setdefault(i, []).append(
                        tuple(sorted(index[c] for c in corners)))
    space = DiscreteSpace(len(points), faces[1],
                          {i: faces[i] for i in range(2, d)}, oriented=True)
    level = {v for v, p in enumerate(points) if p[-1] == n // 2}
    if d == 3:
        ring = walk(partial_graph(space, level))
        return space, CellChain.path(space, ring, closed=True)
    cells = [(d - 2, c) for c in faces[d - 2] if level.issuperset(c)]
    return space, CellChain.of_cells(space, d - 2, cells, closed=True)


def cube_boundary(n: int) -> DiscreteSpace:
    """Boundary complex of the n-cube on vertices 0..2^n - 1.

    Vertex id encodes the coordinate bits big-endian, so (b0, .., b_{n-1})
    gets id sum(b_i * 2^(n-1-i)).  A d-face fixes n-d coordinates and frees
    the rest; the full cube is omitted.  It is ``lattice_sphere(n, 1)``.
    """
    if not (2 <= n <= 5):
        raise InputError("cube_boundary supports 2 <= n <= 5")
    return lattice_sphere(n, 1)[0]


def octahedron() -> DiscreteSpace:
    """The octahedron 2-sphere: poles 0 and 5, equator cycle 1-2-3-4.

    Antipodal pairs (0,5), (1,3), (2,4) are the only non-edges.  The eight
    faces take one vertex from each antipodal pair.
    """
    anti = {(0, 5), (1, 3), (2, 4)}
    edges = [e for e in itertools.combinations(range(6), 2)
             if e not in anti]
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
             (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)]
    return DiscreteSpace(6, edges, {2: faces}, oriented=True)


def torus_grid(m: int, n: int) -> DiscreteSpace:
    """m x n quadrilateral torus; vertex (i, j) has id i*n + j."""
    if m < 3 or n < 3:
        raise InputError("torus_grid needs m, n >= 3")

    def vid(i, j):
        return (i % m) * n + (j % n)

    edges = set()
    quads = []
    for i in range(m):
        for j in range(n):
            edges.add(tuple(sorted((vid(i, j), vid(i + 1, j)))))
            edges.add(tuple(sorted((vid(i, j), vid(i, j + 1)))))
            quads.append(tuple(sorted((vid(i, j), vid(i + 1, j),
                                       vid(i + 1, j + 1), vid(i, j + 1)))))
    return DiscreteSpace(m * n, sorted(edges), {2: quads}, oriented=True)


def torus_meridian(space: DiscreteSpace, n: int) -> CellChain:
    """The column-0 cycle of a torus_grid(m, n): vertices (0, 0..n-1)."""
    return CellChain.path(space, list(range(n)), closed=True)


def strip_grid(m: int, n: int, triangulated: bool = False) -> DiscreteSpace:
    """An open m x n grid patch; vertex (i, j) has id i*(n+1) + j.

    i runs 0..m along the first axis, j runs 0..n along the second.  With
    ``triangulated`` every quad is split along the (i,j)-(i+1,j+1) diagonal.
    """
    if m < 1 or n < 1:
        raise InputError("strip_grid needs m, n >= 1")

    def vid(i, j):
        return i * (n + 1) + j

    edges = []
    cells = []
    for i in range(m + 1):
        for j in range(n + 1):
            if i < m:
                edges.append((vid(i, j), vid(i + 1, j)))
            if j < n:
                edges.append((vid(i, j), vid(i, j + 1)))
            if triangulated and i < m and j < n:
                edges.append((vid(i, j), vid(i + 1, j + 1)))
    for i in range(m):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if triangulated:
                cells.append((a, b, c))
                cells.append((a, c, d))
            else:
                cells.append((a, b, c, d))
    return DiscreteSpace((m + 1) * (n + 1), edges, {2: cells})


def seven_vertex_torus() -> DiscreteSpace:
    """The 7-vertex triangulated torus: complete graph K7 with the 14 faces
    {i, i+1, i+3} and {i, i+2, i+3} mod 7.  Every pair of vertices is
    adjacent, yet most vertex triples span no face, which makes it the
    smallest convenient source of chorded (non-flat) curves.
    """
    edges = list(itertools.combinations(range(7), 2))
    faces = []
    for i in range(7):
        faces.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return DiscreteSpace(7, edges, {2: faces}, oriented=True)


FIGURE_IDS = ("fig2a", "fig3a", "fig3b", "fig3c", "fig4", "fig5",
              "fig6a", "fig6b")


def figure_case(case_id: str):
    """Named (space, curve) pairs used throughout the test suite.

    Verdict summary (computed by the flatness checker, asserted in tests):
      fig2a  straight mid-row in a quad grid          -> flat, collar exists
      fig3a  chorded detour on the 7-vertex torus     -> not flat
      fig3b  curve covering a full face (octahedron)  -> not flat
      fig3c  long way around a chord (7-vertex torus) -> not flat
      fig4   hairpin in a quad grid, one-row gap      -> computed (not flat)
      fig5   corner with one separating vertex        -> flat
      fig6a  corner cut across two cube faces         -> not flat
      fig6b  lengthened cut, face distance still two  -> not flat
    """
    if case_id == "fig2a":
        # 4x2 quad grid, curve along the middle row j=1.
        space = strip_grid(4, 2)
        curve = CellChain.path(space, [i * 3 + 1 for i in range(5)])
        return space, curve
    if case_id == "fig3a":
        # Vertices 0 and 1 are adjacent (K7) but the curve runs 0-2-1 and
        # {0, 1, 2} spans no face.
        space = seven_vertex_torus()
        return space, CellChain.path(space, [0, 2, 1])
    if case_id == "fig3b":
        # Curve 1-0-2 on the octahedron covers the whole face {0, 1, 2}.
        space = octahedron()
        return space, CellChain.path(space, [1, 0, 2])
    if case_id == "fig3c":
        # Curve 0-3-6-1 with the chord (0, 1) far apart along the curve.
        space = seven_vertex_torus()
        return space, CellChain.path(space, [0, 3, 6, 1])
    if case_id == "fig4":
        # Hairpin around a single row: the two straight runs sit at graph
        # distance 2 across the gap, and the gap vertices see both runs.
        space = strip_grid(3, 3)

        def vid(i, j):
            return i * 4 + j

        walk = [vid(0, 0), vid(1, 0), vid(2, 0), vid(2, 1), vid(2, 2),
                vid(1, 2), vid(0, 2)]
        return space, CellChain.path(space, walk)
    if case_id == "fig5":
        # Triangulated 3x3 patch, curve turning the corner (0,1)-(1,1)-(1,0);
        # the inner vertex (0,0) separates the endpoints and its link meets
        # the curve in the full corner arc.
        space = strip_grid(3, 3, triangulated=True)

        def vid(i, j):
            return i * 4 + j

        return space, CellChain.path(space, [vid(0, 1), vid(1, 1), vid(1, 0)])
    if case_id == "fig6a":
        # Cube boundary, curve 100-000-010-011 (ids 4, 0, 2, 3): the end
        # pair sits at face distance 2 but the mediator 101 sees the curve
        # in two separate pieces.
        space = cube_boundary(3)
        return space, CellChain.path(space, [4, 0, 2, 3])
    if case_id == "fig6b":
        # Cube boundary, curve 000-001-011-111 (ids 0, 1, 3, 7): graph
        # distance of the end pair is 3, face distance still 2, and the
        # mediator 100 again sees two pieces.
        space = cube_boundary(3)
        return space, CellChain.path(space, [0, 1, 3, 7])
    raise InputError("unknown figure id %r (known: %s)"
                     % (case_id, ", ".join(FIGURE_IDS)))


def equator(space: DiscreteSpace, family: str) -> CellChain:
    """A canonical closed (k-1)-submanifold of a generated sphere.

    octahedron        -> the 4-cycle through the non-pole vertices
    simplex-boundary  -> the sub-simplex boundary on all but the last vertex
    cube-boundary     -> for the 3-cube, the 8-edge band visiting every
                         vertex (its flatness is whatever the checker says;
                         it is not a discrete curve)
    """
    if family == "octahedron":
        return CellChain.path(space, [1, 2, 3, 4], closed=True)
    if family == "simplex-boundary":
        n = space.n_vertices - 1
        sub = range(n)
        dim = n - 2
        if dim == 1:
            return CellChain.path(space, list(sub), closed=True)
        cells = [(dim, tuple(c)) for c in itertools.combinations(sub, dim + 1)]
        return CellChain.of_cells(space, dim, cells, closed=True)
    if family == "cube-boundary":
        if space.n_vertices != 8:
            raise InputError("cube-boundary equator is provided for the "
                             "3-cube only")
        return CellChain.path(space, [0, 4, 6, 2, 3, 7, 5, 1], closed=True)
    raise InputError("unsupported equator family %r" % (family,))
