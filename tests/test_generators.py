import itertools
from math import comb

import pytest

from celltopo import generators as gen
from celltopo import io as dio
from celltopo.complexes import check_regular, is_closed, is_closed_manifold
from celltopo.errors import InputError
from celltopo.flatness import is_locally_flat
from celltopo.metrics import is_triangulated


def test_sphere_families_regular_and_closed():
    spaces = [gen.octahedron()]
    spaces += [gen.simplex_boundary(n) for n in range(2, 6)]
    spaces += [gen.cube_boundary(n) for n in range(2, 5)]
    for space in spaces:
        assert check_regular(space), space
        assert is_closed_manifold(space)
        assert space.oriented or space.top_dim > 2


def test_simplex_families_triangulated():
    for n in range(2, 6):
        assert is_triangulated(gen.simplex_boundary(n))
    assert not is_triangulated(gen.cube_boundary(3))


def test_torus_regular(torus44):
    assert check_regular(torus44)
    assert is_closed_manifold(torus44)
    assert torus44.oriented


def test_range_checks():
    with pytest.raises(InputError):
        gen.simplex_boundary(7)
    with pytest.raises(InputError):
        gen.cube_boundary(1)
    with pytest.raises(InputError):
        gen.torus_grid(2, 4)
    with pytest.raises(InputError):
        gen.lattice_sphere(6, 2)
    with pytest.raises(InputError):
        gen.lattice_sphere(3, 0)
    with pytest.raises(InputError):
        gen.figure_case("fig99")
    with pytest.raises(InputError):
        gen.equator(gen.torus_grid(3, 3), "torus-grid")


def test_determinism():
    for build in (gen.octahedron, lambda: gen.simplex_boundary(4),
                  lambda: gen.cube_boundary(3), lambda: gen.torus_grid(3, 5),
                  lambda: gen.strip_grid(2, 3, True),
                  gen.seven_vertex_torus):
        a, b = build(), build()
        assert dio.save_complex(a) == dio.save_complex(b)


def test_figure_cases_build():
    for fid in gen.FIGURE_IDS:
        space, chain = gen.figure_case(fid)
        assert chain.vertex_set() <= set(range(space.n_vertices))


def test_equators():
    octa = gen.octahedron()
    eq = gen.equator(octa, "octahedron")
    assert eq.closed and len(eq.verts) == 4
    assert is_locally_flat(octa, eq)

    s4 = gen.simplex_boundary(4)
    sphere = gen.equator(s4, "simplex-boundary")
    assert sphere.dim == 2 and len(sphere.cells) == 4
    assert is_locally_flat(s4, sphere)

    s3 = gen.simplex_boundary(3)
    tri = gen.equator(s3, "simplex-boundary")
    assert tri.closed and len(tri.verts) == 3

    cube = gen.cube_boundary(3)
    band = gen.equator(cube, "cube-boundary")
    assert band.closed and len(band.verts) == 8
    # computed, not assumed: the band visits every vertex, so chords make
    # it fail the flatness conditions
    assert not is_locally_flat(cube, band)


def test_meridian_shape(torus44):
    mer = gen.torus_meridian(torus44, 4)
    assert mer.closed and len(mer.verts) == 4


@pytest.mark.parametrize("d, n", [(2, 3), (3, 1), (3, 2), (3, 5), (4, 1),
                                  (4, 2), (5, 1)])
def test_lattice_sphere_counts_and_equator(d, n):
    space, equator = gen.lattice_sphere(d, n)
    # boundary unit i-faces of [0, n]^d, in closed form
    for i in range(d):
        assert len(space.cells_of_dim(i)) == \
            comb(d, i) * n ** i * ((n + 1) ** (d - i) - (n - 1) ** (d - i))
    assert check_regular(space) and is_closed_manifold(space)
    assert space.oriented
    # the equator holds the 2 (d - 1) n^(d-2) boundary unit (d-2)-faces
    # of the level n // 2, [0, n]^(d-1): on a 2-sphere as a ring
    assert equator.dim == d - 2 and equator.closed
    assert len(equator.cells) == 2 * (d - 1) * n ** (d - 2)
    if d == 3:
        assert len(set(equator.verts)) == len(equator.cells)
    elif d > 3:
        assert is_closed(space, equator.cells)
    if d >= 3:
        text = dio.save_complex(space, {"equator": equator})
        assert dio.load_complex(text)[1]["equator"] == equator


def test_cube_boundary_numbering():
    # the unit lattice sphere keeps the cube's numbering: an id's bits are
    # the coordinates, big-endian, and an i-cell is the 2^i ids that agree
    # on the other n - i bits
    for n in range(2, 6):
        cube = gen.cube_boundary(n)
        for i in range(1, n):
            want = set()
            for free in itertools.combinations(range(n), i):
                bits = [1 << (n - 1 - a) for a in free]
                mask = sum(bits)
                for base in range(2 ** n):
                    if base & mask == 0:
                        want.add(tuple(sorted(
                            base + sum(itertools.compress(bits, pick))
                            for pick in itertools.product((0, 1), repeat=i))))
            assert {cid[1] for cid in cube.cells_of_dim(i)} == want
        assert cube.cells == gen.lattice_sphere(n, 1)[0].cells
