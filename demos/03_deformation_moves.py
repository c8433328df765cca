"""
Gradually varied deformation
============================

The XorSum of two curves is the symmetric difference of their edges.  Two
curves one deformation step apart split into single-cell moves, each the
XorSum with one 2-cell boundary.  Around a forbidden cell the moves route
over the rest of the enclosing boundary sphere, and a cycle contracts to
a point through side-gradual moves that never re-acquire a dropped vertex.
"""

from celltopo import generators
from celltopo.complexes import CellChain
from celltopo.deformation import (are_gradually_varied,
                                  are_side_gradually_varied, crosses_over,
                                  decompose_minimal_moves, detour_sequence,
                                  search_contraction, single_cell_move,
                                  verify_contraction, xor_sum)

# A two-quad shift on a grid decomposes into two single-cell moves.
grid = generators.strip_grid(4, 3)
vid = lambda i, j: i * 4 + j
row = CellChain.path(grid, [vid(i, 1) for i in range(5)])
shifted = CellChain.path(grid, [vid(0, 1), vid(0, 2), vid(1, 2), vid(2, 2),
                                vid(2, 1), vid(3, 1), vid(4, 1)])
print("gradually varied:", are_gradually_varied(grid, row, shifted))
trace = decompose_minimal_moves(grid, row, shifted)
print("single-cell moves:", [sorted(m)[0][1] for m in trace.moves])
print("difference:", sorted(e for _, e in xor_sum(grid, row, shifted).cells))

# Cross-over: a diagonal pierces the row, so the pair is gradually varied
# but not side-gradually varied.
tg = generators.strip_grid(3, 3, triangulated=True)
tv = lambda i, j: i * 4 + j
c = CellChain.path(tg, [tv(0, 1), tv(1, 1), tv(2, 1)])
diag = CellChain.path(tg, [tv(0, 0), tv(1, 1), tv(2, 2)])
print("diagonal crosses over:", crosses_over(tg, c, diag))
print("side-gradually varied:", are_side_gradually_varied(tg, c, diag))

# One rule for both argument orders: on the octahedron, the cycle 0-1-2-3
# moved over the face (0, 1, 4) keeps to one side of it either way round.
octa = generators.octahedron()
square = CellChain.path(octa, [0, 1, 2, 3], closed=True)
moved = single_cell_move(octa, square, (2, (0, 1, 4)))
print("octahedron move crosses over:", crosses_over(octa, square, moved),
      crosses_over(octa, moved, square))

# The tetrahedron detour: from the arc 0-1-2 to the arc 0-2 without
# touching the face {0,1,2}, over the three remaining faces.
s3 = generators.simplex_boundary(3)
c0 = CellChain.path(s3, [0, 1, 2])
c1 = CellChain.path(s3, [0, 2])
detour = detour_sequence(s3, c0, c1, (2, (0, 1, 2)))
print("tetrahedron detour:", [t.verts for t in detour.steps])

# The cube needs five moves to swap the two arcs around its bottom face.
cube = generators.cube_boundary(3)
d = detour_sequence(cube, CellChain.path(cube, [0, 4, 6]),
                    CellChain.path(cube, [0, 2, 6]), (2, (0, 2, 4, 6)))
print("cube detour length:", len(d.moves))

# Contracting the equator to a point over the northern triangles.
octa = generators.octahedron()
equator = generators.equator(octa, "octahedron")
contraction = search_contraction(octa, equator, 1, 8)
print("contraction steps:", [s.verts for s in contraction.steps])
print("verified:", bool(verify_contraction(octa, equator, 1, contraction)))

# A torus meridian is essential: both cells on its first edge flood to
# each other, so the cycle bounds no side and no contraction exists.
torus = generators.torus_grid(4, 4)
meridian = generators.torus_meridian(torus, 4)
print("meridian contraction within budget 5:",
      search_contraction(torus, meridian, 0, 5))
