"""The float layout against numpy: the rounding helper against
``numpy.round`` and ``spectral_layout`` against the numpy layout it
replaced, kept here as the oracle.  Skipped where numpy is not installed;
the package itself does not use it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celltopo import generators as gen
from celltopo import io as dio
from celltopo.complexes import _levels

from test_construction_oracle import GENERATED
from test_io_cli import EDGE_INPUTS

np = pytest.importorskip("numpy")


# -- the numpy layout the float one replaced, line for line --------------------


_NP_CORNERS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                        [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


def _np_vertex_distances(space, a):
    n = space.n_vertices
    dist = [n] * n
    dist[a] = 0
    for step, level in enumerate(_levels(space, space.cofaces((0, (a,)))),
                                 1):
        for e in level:
            for w in e[1]:
                if dist[w] == n:
                    dist[w] = step
    return np.array(dist, dtype=np.int64)


def numpy_layout(space):
    n = space.n_vertices
    neighbors = [space.vertex_neighbors(v) for v in range(n)]
    degree = np.array([len(ns) for ns in neighbors], dtype=np.int64)
    moves = degree > 0
    pos = np.zeros((n, 3))
    nearest = np.full(n, n + 1, dtype=np.int64)
    for corner in _NP_CORNERS[:n]:
        a = int(np.argmax(nearest))
        moves[a] = False
        dist = _np_vertex_distances(space, a)
        pos = pos - dist[:, None] * corner
        nearest = np.minimum(nearest, dist)
    columns = []
    for j in range(int(degree.max())):
        rows = np.flatnonzero(degree > j)
        columns.append((rows, np.array([neighbors[v][j] for v in rows],
                                       dtype=np.int64)))
    divisor = np.maximum(degree, 1)[:, None].astype(np.float64)
    for _ in range(30):
        total = np.zeros((n, 3))
        for rows, cols in columns:
            total[rows] = total[rows] + pos[cols]
        pos = np.where(moves[:, None], total / divisor, pos)
    return np.round(pos, 6)


def _hex(x) -> str:
    return float(x).hex()


# -- rounding ------------------------------------------------------------------


ROUNDED = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e302, 1e303, -1e303,
                     1.7976931348623157e308]),
    # exact ties at the sixth decimal, as near as a float holds them
    st.integers(-10 ** 12, 10 ** 12).map(lambda k: (k + 0.5) / 1e6),
    st.floats(min_value=1e290, max_value=1e308).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=-1e-290, max_value=1e-290),
)


@settings(max_examples=2000, deadline=None)
@given(ROUNDED)
def test_round6_matches_numpy_round(x):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.round(np.array([x]), 6)[0]
    assert _hex(dio._round6(x)) == _hex(want)


# -- the layout ------------------------------------------------------------------


LAYOUT_SPACES = {**GENERATED,
                 "S(3, 10)": gen.lattice_sphere(3, 10)[0],
                 "S(5, 2)": gen.lattice_sphere(5, 2)[0],
                 **{"edge " + name: build()
                    for name, build in EDGE_INPUTS.items()}}


@pytest.mark.parametrize("name", sorted(LAYOUT_SPACES))
def test_layout_matches_the_numpy_layout(name):
    space = LAYOUT_SPACES[name]
    got = dio.spectral_layout(space)
    want = numpy_layout(space)
    assert [tuple(map(_hex, row)) for row in got] == \
        [tuple(map(_hex, row)) for row in want]
