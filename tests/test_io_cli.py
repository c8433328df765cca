import math
import os
import subprocess
import sys
import time

import pytest

import celltopo

from celltopo import cli
from celltopo import generators as gen
from celltopo import io as dio
from celltopo.complexes import CellChain, DiscreteSpace
from celltopo.errors import InputError
from celltopo.separation import components_of_complement, contract_to_cell


@pytest.fixture()
def octa_file(tmp_path, octa):
    path = tmp_path / "octa.dsc"
    chains = {"equator": gen.equator(octa, "octahedron")}
    path.write_text(dio.save_complex(octa, chains))
    return str(path)


@pytest.fixture()
def simplex4_file(tmp_path, simplex4):
    path = tmp_path / "simplex4.dsc"
    chains = {"sphere": gen.equator(simplex4, "simplex-boundary")}
    path.write_text(dio.save_complex(simplex4, chains))
    return str(path)


@pytest.fixture()
def torus_file(tmp_path, torus44):
    path = tmp_path / "torus.dsc"
    chains = {"meridian": gen.torus_meridian(torus44, 4)}
    path.write_text(dio.save_complex(torus44, chains))
    return str(path)


# -- round trips ---------------------------------------------------------------


def test_complex_round_trip(octa, simplex4, cube3, torus44):
    cases = [
        (octa, {"equator": gen.equator(octa, "octahedron")}),
        (simplex4, {"sphere": gen.equator(simplex4, "simplex-boundary")}),
        (cube3, {"band": gen.equator(cube3, "cube-boundary")}),
        (torus44, {"meridian": gen.torus_meridian(torus44, 4)}),
    ]
    for space, chains in cases:
        text = dio.save_complex(space, chains)
        space2, chains2 = dio.load_complex(text)
        assert dio.save_complex(space2, chains2) == text
        assert space2.n_vertices == space.n_vertices
        assert space2.edges == space.edges
        assert set(space2.cells) == set(space.cells)


def test_point_chain_round_trip(octa):
    point = CellChain.path(octa, (3,))
    text = dio.save_complex(octa, {"pt": point})
    _, chains = dio.load_complex(text)
    assert chains["pt"].verts == (3,)


def test_trace_round_trip(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    text = dio.save_trace(simplex4, sphere, trace)
    space2, chains2, trace2 = dio.load_trace(text)
    assert dio.save_trace(space2, chains2["surface"], trace2,
                          chains2) == text
    assert trace2.seed == trace.seed
    assert trace2.removals == trace.removals


def test_empty_chain_round_trip(cube4):
    # an empty chain's index line is blank, before another chain and last
    empty = CellChain.of_cells(cube4, 2, ())
    some = CellChain.of_cells(cube4, 2, cube4.cells_of_dim(2)[:3])
    chains = {"a": empty, "m": some, "z": empty}
    text = dio.save_complex(cube4, chains)
    assert "chain a 2\n\nchain m 2\n" in text
    assert text.endswith("chain z 2\n\n")
    _, chains2 = dio.load_complex(text)
    assert dio.save_complex(cube4, chains2) == text
    assert chains2["a"].cells == chains2["z"].cells == ()
    assert chains2["m"].cells == some.cells


def test_empty_chain_after_the_trace_surface(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    chains = {"z": CellChain.of_cells(simplex4, 2, ())}
    text = dio.save_trace(simplex4, sphere, trace, chains)
    space2, chains2, trace2 = dio.load_trace(text)
    assert chains2["z"].cells == ()
    assert dio.save_trace(space2, chains2["surface"], trace2,
                          chains2) == text


@pytest.mark.parametrize("chain", [CellChain(0, ()), CellChain(1, ())])
def test_empty_point_or_curve_chain_is_not_saved(octa, chain):
    with pytest.raises(InputError):
        dio.save_complex(octa, {"e": chain})


TRAILING = "garbage here\nchain x 1\n0 1\n"


def test_trailing_lines_are_parse_errors(octa, simplex4):
    text = dio.save_complex(octa, {"eq": gen.equator(octa, "octahedron")})
    with pytest.raises(dio.ParseError) as err:
        dio.load_complex(text + "\n" + TRAILING)
    assert err.value.line == len(text.splitlines()) + 2
    trace = _trace_text(simplex4)
    with pytest.raises(dio.ParseError) as err:
        dio.load_trace(trace + TRAILING)
    assert err.value.line == len(trace.splitlines()) + 1
    # blank lines at the end are still fine
    assert dio.load_complex(text + "\n\n")[1].keys() == {"eq"}


def test_cmd_trailing_lines_exit_2(octa_file, simplex4, tmp_path, capsys):
    with open(octa_file, "a") as fh:
        fh.write(TRAILING)
    assert cli.main(["flat", octa_file, "--chain", "x"]) == 2
    path = tmp_path / "trace.txt"
    path.write_text(_trace_text(simplex4) + TRAILING)
    assert cli.main(["export", str(path), "--out",
                     str(tmp_path / "snap")]) == 2
    err = capsys.readouterr().err
    assert err.count("parse error") == 2
    assert "no chain named" not in err and "Traceback" not in err


def test_parse_error_carries_line(octa):
    text = dio.save_complex(octa)
    broken = "\n".join(text.splitlines()[:10])
    with pytest.raises(dio.ParseError) as err:
        dio.load_complex(broken)
    assert err.value.line > 0


def test_repeated_vertex_is_parse_error(octa):
    # the row would otherwise load with a derived boundary in place of its
    # own
    text = dio.save_complex(octa).replace("0 1 2 | 0 1 4", "0 0 1 2 | 11")
    with pytest.raises(dio.ParseError, match="line 19: a cell row repeats "
                       "vertex 0"):
        dio.load_complex(text)


def _reverse_rows(text: str, d: int) -> str:
    """``text`` with its d-cell rows in reverse order.  Every index that
    counts those rows follows them: the boundaries of the (d+1)-cells, the
    d-chains, and in a trace of top dimension k the seed and step cells
    (d = k) or the step faces (d = k - 1)."""
    lines = text.splitlines()
    k = int(next(line for line in lines if line.startswith("dim ")).split()[1])

    def block(dim):
        # the line numbers of the rows under the "cells dim" header
        for i, line in enumerate(lines):
            if line.startswith("cells %d " % dim):
                return range(i + 1, i + 1 + int(line.split()[2]))
        return range(0)

    rows, above = block(d), block(d + 1)
    lines[rows.start:rows.stop] = lines[rows.start:rows.stop][::-1]

    def renumber(part):
        return " ".join(str(len(rows) - 1 - int(i)) for i in part.split())

    for i, line in enumerate(lines):
        bits = line.split(" | ")
        word = bits[0].split()[0] if bits[0] else ""
        if i in above:
            bits[1] = renumber(bits[1])
        elif i and lines[i - 1].startswith("chain ") and \
                lines[i - 1].split()[2] == str(d):
            bits[0] = renumber(bits[0])
        elif word in ("seed", "step") and d == k:
            bits[0] = "%s %s" % (word, renumber(bits[0][5:]))
        elif word == "step" and d == k - 1:
            bits[1:] = [renumber(b) for b in bits[1:]]
        lines[i] = " | ".join(bits)
    return "\n".join(lines) + "\n"


def test_chain_indices_count_file_rows(octa):
    # with the 2-cell rows reversed, index 0 of a 2-chain is the first row
    # of the file, not the smallest cell
    text = dio.save_complex(octa) + "chain one 2\n0\nchain all 2\n0 1 7\n"
    flipped = _reverse_rows(text, 2)
    assert flipped.splitlines()[-4:] == ["chain one 2", "7",
                                         "chain all 2", "7 6 0"]
    _, chains = dio.load_complex(text)
    _, flipped_chains = dio.load_complex(flipped)
    assert chains["one"].cells == ((2, (0, 1, 2)),)
    assert flipped_chains == chains
    _, first = dio.load_complex(flipped.replace("chain one 2\n7",
                                                "chain one 2\n0"))
    assert first["one"].cells == ((2, (3, 4, 5)),)


def test_trace_indices_count_file_rows(simplex4):
    # seed, step cells and step faces resolve against the rows as read
    text = _trace_text(simplex4)
    space, chains, trace = dio.load_trace(text)
    for d in ((3,), (2,), (2, 3)):
        flipped = text
        for dim in d:
            flipped = _reverse_rows(flipped, dim)
        assert flipped != text
        space2, chains2, trace2 = dio.load_trace(flipped)
        assert (trace2.seed, trace2.removals) == (trace.seed, trace.removals)
        assert chains2 == chains
        assert dio.save_trace(space2, chains2["surface"], trace2,
                              chains2) == text


def test_bad_boundary_index(octa):
    text = dio.save_complex(octa)
    lines = text.splitlines()
    idx = next(i for i, line in enumerate(lines) if "|" in line)
    left = lines[idx].split("|")[0]
    lines[idx] = left + "| 0 1 99"
    with pytest.raises(dio.ParseError):
        dio.load_complex("\n".join(lines))


# -- layout and OFF -----------------------------------------------------------


def _exact(rows) -> list:
    """Each coordinate as its exact hex form, so a zero's sign counts."""
    return [tuple(x.hex() for x in row) for row in rows]


def test_layout_deterministic(octa):
    # exact literals: the rule uses exact constants and float arithmetic in
    # a fixed order only, so every build gives these bytes
    expected = [(0.0, 2.0, 2.0),
                (-1.0, 1.0, -1.0),
                (-1.0, -1.0, 1.0),
                (-0.333333, -0.2, 0.2),
                (-0.333333, 0.2, -0.2),
                (0.0, -2.0, -2.0)]
    a = dio.spectral_layout(octa)
    assert all(type(x) is float for row in a for x in row)
    assert _exact(a) == _exact(expected)
    assert _exact(dio.spectral_layout(octa)) == _exact(a)


@pytest.mark.parametrize("n", [4, 10, 32])
def test_layout_gives_lattice_spheres_distinct_rows(n):
    space, _ = gen.lattice_sphere(3, n)
    start = time.perf_counter()
    coords = dio.spectral_layout(space)
    elapsed = time.perf_counter() - start
    assert len(coords) == space.n_vertices
    assert len(set(coords)) == space.n_vertices
    # S(3, 32) has 6146 vertices: a dense n x n eigensolve took about 20 s
    # there, the linear layout well under a second
    assert elapsed < 5.0


def test_layout_survives_a_file_round_trip(octa, torus44):
    for space in (octa, torus44, gen.lattice_sphere(3, 4)[0],
                  gen.lattice_sphere(4, 2)[0]):
        loaded, _ = dio.load_complex(dio.save_complex(space))
        assert _exact(dio.spectral_layout(loaded)) == \
            _exact(dio.spectral_layout(space))


def _two_octahedra():
    octa = gen.octahedron()
    tris = [cid[1] for cid in octa.cells_of_dim(2)]
    return DiscreteSpace(
        12, list(octa.edges) + [(u + 6, v + 6) for u, v in octa.edges],
        {2: tris + [tuple(v + 6 for v in t) for t in tris]})


def _isolated_vertex():
    octa = gen.octahedron()
    return DiscreteSpace(7, octa.edges,
                         {2: [cid[1] for cid in octa.cells_of_dim(2)]})


EDGE_INPUTS = {
    # check_regular passes it; vertex 6 has no edge
    "isolated-vertex": _isolated_vertex,
    # the walk from one octahedron never reaches the other
    "two-octahedra": _two_octahedra,
    # fewer vertices than anchors
    "triangle": lambda: DiscreteSpace(3, [(0, 1), (1, 2), (0, 2)],
                                      {2: [(0, 1, 2)]}),
    "one-vertex": lambda: DiscreteSpace(1, [], {}),
}


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_cmd_export_lays_out_edge_inputs(name, tmp_path, capsys):
    space = EDGE_INPUTS[name]()
    path = tmp_path / "in.dsc"
    path.write_text(dio.save_complex(space))
    prefix = str(tmp_path / "snap")
    assert cli.main(["export", str(path), "--out", prefix]) == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = (tmp_path / "snap_step000.off").read_text().splitlines()
    n = space.n_vertices
    coords = [tuple(map(float, line.split())) for line in lines[2:2 + n]]
    assert len(coords) == n and all(len(row) == 3 for row in coords)
    assert all(math.isfinite(x) for row in coords for x in row)
    layout = dio.spectral_layout(space)
    assert all(abs(x - y) <= 1e-6 for row, want in zip(coords, layout)
               for x, y in zip(row, want))


def test_cli_export_does_not_import_numpy(octa_file, tmp_path):
    # the layout is plain float arithmetic: loading the command line and
    # exporting must not pull numpy in
    script = ("import sys\n"
              "import celltopo.cli\n"
              "code = celltopo.cli.main(['export', sys.argv[1], '--out', "
              "sys.argv[2]])\n"
              "print(code, 'numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(celltopo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script, octa_file, str(tmp_path / "snap")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "snap_step000.off").exists()


def test_off_snapshot(octa):
    coords = dio.spectral_layout(octa)
    text = dio.off_snapshot(octa, octa.cells_of_dim(2), coords)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = map(int, lines[1].split())
    assert (nv, nf) == (6, 8)
    assert len(lines) == 2 + nv + nf


# -- command line ----------------------------------------------------------------


def test_cmd_check_ok(octa_file, capsys):
    assert cli.main(["check", octa_file]) == 0
    out = capsys.readouterr().out
    assert "regular: pass" in out and "closed: yes" in out


def test_cmd_check_violation(tmp_path, capsys):
    bad = DiscreteSpace(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                            (1, 4)],
                        {2: [(0, 1, 2), (0, 1, 3), (0, 1, 4)]})
    path = tmp_path / "bad.dsc"
    path.write_text(dio.save_complex(bad))
    assert cli.main(["check", str(path)]) == 1
    assert "clause 2" in capsys.readouterr().out


def test_cmd_check_parse_error(tmp_path, octa, capsys):
    text = dio.save_complex(octa)
    path = tmp_path / "trunc.dsc"
    path.write_text(text[:len(text) // 2])
    assert cli.main(["check", str(path)]) == 2


def test_cmd_flat(octa_file, capsys):
    assert cli.main(["flat", octa_file, "--chain", "equator"]) == 0
    out = capsys.readouterr().out
    assert "locally flat" in out
    assert "collar sheet 1: 0" in out and "collar sheet 2: 5" in out


def test_cmd_flat_runs_local_flatness_once(octa_file, monkeypatch, capsys):
    from celltopo import flatness
    calls = []
    real = flatness.is_locally_flat

    def counted(space, chain):
        calls.append(chain)
        return real(space, chain)

    monkeypatch.setattr(flatness, "is_locally_flat", counted)
    monkeypatch.setattr(cli, "is_locally_flat", counted)
    assert cli.main(["flat", octa_file, "--chain", "equator"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == \
        "locally flat\ncollar sheet 1: 0\ncollar sheet 2: 5\n"


def test_cmd_flat_negative(tmp_path, capsys):
    space, curve = gen.figure_case("fig6a")
    path = tmp_path / "fig6a.dsc"
    path.write_text(dio.save_complex(space, {"curve": curve}))
    assert cli.main(["flat", str(path), "--chain", "curve"]) == 1
    assert "not locally flat" in capsys.readouterr().out


def test_cmd_flat_missing_chain(octa_file, capsys):
    assert cli.main(["flat", octa_file, "--chain", "nope"]) == 1


def test_cmd_flat_chain_of_top_dimension_is_an_error(tmp_path, octa, capsys):
    faces = CellChain.of_cells(octa, 2, octa.cells_of_dim(2)[:2])
    path = tmp_path / "faces.dsc"
    path.write_text(dio.save_complex(octa, {"faces": faces}))
    assert cli.main(["flat", str(path), "--chain", "faces"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: chain dimension 2 must be below the space " \
        "dimension 2\n"


def test_cmd_separate(octa_file, simplex4_file, torus_file, tmp_path,
                      capsys):
    out = tmp_path / "report.txt"
    assert cli.main(["separate", octa_file, "--chain", "equator",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert "components 2" in text
    assert "component 0 size 4 boundary common" in text
    capsys.readouterr()

    assert cli.main(["separate", simplex4_file, "--chain", "sphere"]) == 0
    text = capsys.readouterr().out
    assert "component 0 size 1" in text and "component 1 size 4" in text

    assert cli.main(["separate", torus_file, "--chain", "meridian"]) == 1
    assert "components 1" in capsys.readouterr().out


def test_cmd_flat_submanifold(simplex4_file, capsys):
    assert cli.main(["flat", simplex4_file, "--chain", "sphere"]) == 0
    out = capsys.readouterr().out
    assert "locally flat" in out and "collar sheet 1: 4" in out


def test_cmd_load_rejects_invalid_complex(tmp_path, capsys):
    # two quads meeting in two non-adjacent vertices: parses, but fails the
    # well-attachment load check, which is a domain violation (exit 1)
    text = "\n".join([
        "DSC 1", "dim 2", "oriented 0", "vertices 6", "edges 8",
        "0 1", "1 2", "2 3", "0 3", "0 4", "2 4", "2 5", "0 5",
        "cells 2 2",
        "0 1 2 3 | 0 1 2 3",
        "0 2 4 5 | 4 5 6 7",
    ]) + "\n"
    path = tmp_path / "glued.dsc"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 1
    assert "well-attached" in capsys.readouterr().err


def test_cmd_separate_warns_on_nonflat_chain(tmp_path, cube3, capsys):
    # the cube band is closed but not locally flat: separation still runs,
    # the warning lands on stderr, the count decides the exit code
    band = gen.equator(cube3, "cube-boundary")
    path = tmp_path / "band.dsc"
    path.write_text(dio.save_complex(cube3, {"band": band}))
    code = cli.main(["separate", str(path), "--chain", "band"])
    captured = capsys.readouterr()
    assert "not locally flat" in captured.err
    assert "components" in captured.out
    assert code in (0, 1)


def test_cmd_contract(simplex4_file, tmp_path, capsys):
    out = tmp_path / "trace.dsctrace"
    assert cli.main(["contract", simplex4_file, "--chain", "sphere",
                     "--component", "1", "--out", str(out)]) == 0
    assert "3 removals" in capsys.readouterr().out
    space, chains, trace = dio.load_trace(out.read_text())
    assert len(trace.removals) == 3


def test_isolated_vertex_is_left_out_of_parities(octa_file, tmp_path,
                                                 capsys):
    # a seventh vertex in no edge or cell: regular, and no traceback
    path = tmp_path / "octa7.dsc"
    text = open(octa_file).read()
    path.write_text(text.replace("vertices 6\n", "vertices 7\n"))
    assert cli.main(["separate", octa_file, "--chain", "equator"]) == 0
    six = capsys.readouterr().out
    assert cli.main(["separate", str(path), "--chain", "equator"]) == 0
    seven = capsys.readouterr().out
    assert [ln for ln in seven.splitlines() if ln.startswith("component")] \
        == [ln for ln in six.splitlines() if ln.startswith("component")]
    assert cli.main(["contract", str(path), "--chain", "equator"]) == 0
    assert "3 removals" in capsys.readouterr().out


def test_cmd_contract_single_cell(simplex4_file, capsys):
    assert cli.main(["contract", simplex4_file, "--chain", "sphere",
                     "--component", "0"]) == 0
    assert "0 removals" in capsys.readouterr().out


def test_cmd_contract_unsupported(torus_file, capsys):
    assert cli.main(["contract", torus_file, "--chain", "meridian"]) == 3
    assert "unsupported configuration" in capsys.readouterr().err


def test_cmd_export_trace(simplex4_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.dsctrace"
    cli.main(["contract", simplex4_file, "--chain", "sphere",
              "--component", "1", "--out", str(trace_path)])
    capsys.readouterr()
    prefix = str(tmp_path / "snap")
    assert cli.main(["export", str(trace_path), "--out", prefix]) == 0
    offs = sorted(tmp_path.glob("snap_step*.off"))
    assert len(offs) == 4                 # 3 removals -> 4 snapshots
    assert (tmp_path / "snap.log").exists()
    first = offs[0].read_text().splitlines()
    assert first[0] == "OFF"


def test_cmd_export_complex(octa_file, tmp_path, capsys):
    prefix = str(tmp_path / "solo")
    assert cli.main(["export", octa_file, "--out", prefix]) == 0
    assert len(list(tmp_path.glob("solo_step*.off"))) == 1


def test_cmd_export_log_only(octa_file, tmp_path, capsys):
    prefix = str(tmp_path / "logonly")
    assert cli.main(["export", octa_file, "--format", "log",
                     "--out", prefix]) == 0
    assert not list(tmp_path.glob("logonly_step*.off"))
    assert (tmp_path / "logonly.log").exists()


def test_cmd_export_unknown_format(octa_file):
    assert cli.main(["export", octa_file, "--format", "svg"]) == 1


@pytest.mark.parametrize("argv", [
    ["separate", "--chain", "sphere"],
    ["contract", "--chain", "sphere"],
    ["export"],
    ["export", "--format", "log"],
])
def test_unwritable_out_exits_2(argv, simplex4_file, tmp_path, capsys):
    # an --out path in a missing directory is reported like an unreadable
    # input: one error line and exit 2, never a traceback
    out = str(tmp_path / "missing" / "x")
    argv = [argv[0], simplex4_file] + argv[1:] + ["--out", out]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "error: cannot write %s" % out in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["check", "flat", "separate",
                                     "contract", "export"])
def test_file_that_is_not_utf8_exits_2(command, tmp_path, capsys):
    # bytes that do not decode as UTF-8 are reported like an unreadable
    # file: one error line and exit 2, never a traceback
    path = tmp_path / "binary.dsc"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    assert cli.main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read %s: " % path)
    assert "can't decode" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# -- malformed files ---------------------------------------------------------


def _trace_text(simplex4):
    sphere = gen.equator(simplex4, "simplex-boundary")
    report = components_of_complement(simplex4, sphere)
    big = next(c for c in report.components if len(c) == 4)
    trace = contract_to_cell(simplex4, big, sphere, sorted(big)[0])
    return dio.save_trace(simplex4, sphere, trace)


@pytest.mark.parametrize("kind, old, new", [
    ("dsc", "dim 2", "dim x"),
    ("dsc", "dim 2", "dim"),
    ("dsc", "oriented 1", "oriented"),
    ("dsc", "oriented 1", "oriented 2"),
    ("dsc", "vertices 6", "vertices -6"),
    ("dsc", "edges 12", "edges x"),
    ("dsc", "cells 2 8", "cells 2"),
    ("dsc", "cells 2 8", "cells x 8"),
    ("dsc", "0 1 2 | 0 1 4", "0 1 2 | 0 1 x"),
    ("dsc", "0 1 2 | 0 1 4", "0 0 1 2 | 0 1 4"),
    ("dsc", "chain eq 1", "chain eq 5"),
    ("dsc", "chain eq 1", "chain eq -1"),
    ("dsc", "4 5 7 9", "4 5 7 -1"),
    ("dsc", "4 5 7 9", "4 5 7 12"),
    ("dsc", "chain eq 1\n4 5 7 9", "chain eq 0\n6"),
    ("dsc", "dim 2", "dim 2 junk"),
    ("dsc", "oriented 1", "oriented 1 0"),
    ("dsc", "vertices 6", "vertices 6 9"),
    ("dsc", "edges 12", "edges 12 x"),
    ("dsc", "cells 2 8", "cells 2 8 8"),
    ("dsc", "chain eq 1", "chain eq 1 x"),
    ("trace", "trace contract 3", "trace contract"),
    ("trace", "trace contract 3", "trace contract 3 0"),
    ("trace", "trace contract 3", "trace sideways 3"),
    ("trace", "seed 1", "seed 1 7"),
    ("trace", "seed 1", "seed -1"),
    ("trace", "seed 1", "seed x"),
    ("trace", "step 2 | 1 | 2 5 8", "step 5 | 1 | 2 5 8"),
    ("trace", "step 2 | 1 | 2 5 8", "step 2 | -1 | 2 5 8"),
])
def test_malformed_file_is_parse_error(kind, old, new, octa, simplex4,
                                       tmp_path, capsys):
    # every malformed header integer, index, extra header field or trace
    # direction exits 2 with a message, never with a traceback or a
    # silently wrapped index
    if kind == "dsc":
        text = dio.save_complex(octa, {"eq": gen.equator(octa, "octahedron")})
    else:
        text = _trace_text(simplex4)
    assert old + "\n" in text
    path = tmp_path / "bad.txt"
    path.write_text(text.replace(old + "\n", new + "\n", 1))
    argv = ["check", str(path)] if kind == "dsc" else \
        ["export", str(path), "--out", str(tmp_path / "snap")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err
