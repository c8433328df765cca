#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of celltopo on quad lattice spheres.

Run from the root of a checkout:

    python3 bench/run.py --workload sphere2 --seed 1 --seconds 35 --trace 0

Each workload runs in this one process.  Set-up builds lattice spheres
through ``DiscreteSpace`` and saves them as DSC files under
``.bench_work/<workload>/``.  Then whole rounds run until the time is up.
A round calls ``celltopo.cli.main`` for check, flat, separate, contract
and export, then seeded curve-pair queries and a fixed set of contraction
searches.  Every output is checked against values derived from the
lattice coordinates (see checks.py).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds, scaled to a reference speed by ``Clock``); with ``--trace 1``
rounds alternate between untraced and traced, and the metrics are
per-layer self times and counts of the traced rounds plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SEARCH_BUDGET = 6
CALIBRATION_LOOPS = 60000
REFERENCE_CALIBRATION_S = 0.045


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop of tuple, dict and frozenset work,
    like the program's own, takes on this machine right now."""
    gc.disable()
    try:
        start = perf_counter()
        counts: dict = {}
        for i in range(CALIBRATION_LOOPS):
            key = (i % 997, i * 7 % 1013)
            counts[key] = counts.get(key, 0) + 1
            frozenset(key)
        return perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Scales wall times to a machine on which the calibration loop takes
    REFERENCE_CALIBRATION_S.  The loop runs after every timed operation;
    ``factor`` is the reference over the mean of the samples taken since
    the last call, which cancels most of the speed changes a shared
    machine goes through between rounds and between runs."""

    def __init__(self):
        self.samples: list = []

    def mark(self):
        self.samples.append(calibration_s())

    def factor(self) -> float:
        mean = sum(self.samples) / len(self.samples)
        self.samples.clear()
        return REFERENCE_CALIBRATION_S / mean


@dataclass(frozen=True)
class Workload:
    cli: tuple          # (d, n): the sphere the five commands run on
    curves: tuple       # (d, n): the sphere the curve queries run on
    pairs: int          # curve-pair queries per round
    searches: int       # facet-centre contraction searches per round
    known_fault: bool   # add the search that fails on every run


WORKLOADS = {
    "sphere2": Workload((3, 10), (3, 10), 64, 2, False),
    "sphere3": Workload((4, 3), (4, 3), 64, 1, False),
    "curve-moves": Workload((3, 4), (3, 8), 160, 6, True),
}


# -- seeded inputs ------------------------------------------------------------


def search_inputs(sphere, count: int) -> list:
    """(ring, anchor) pairs: the 8-cycle around the centre of a facet, in
    the plane of the first two free axes, walked from its smallest vertex
    toward its smaller neighbour, for the first ``count`` facets in the
    order x = 0, x = n, y = 0, ...  One search takes 0.2 s to 6 s and
    cycles of one sphere differ by up to 4.7x, so the set does not depend
    on the seed: a seeded sample of the few searches a round can afford
    would spread search_s across seeds by more than any usable bound."""
    from lattice import plane_ring
    n, d = sphere.n, sphere.d
    out = []
    for facet in range(d):
        for value in (0, n):
            centre = [n // 2] * d
            centre[facet] = value
            axes = tuple(a for a in range(d) if a != facet)[:2]
            ring = plane_ring(sphere, sphere.index[tuple(centre)], axes)
            out.append((ring, ring[0]))
    return out[:count]


def known_fault_input(sphere) -> tuple:
    """The 8-cycle around the centre of the z = 0 face, walked from the
    corner (c-1, c-1, 0) first along +x.  crosses_over reports a false
    cross-over on its first search step, so search_contraction raises."""
    c = sphere.n // 2
    corners = [(c - 1, c - 1), (c, c - 1), (c + 1, c - 1), (c + 1, c),
               (c + 1, c + 1), (c, c + 1), (c - 1, c + 1), (c - 1, c)]
    ring = [sphere.index[(x, y, 0)] for x, y in corners]
    return ring, ring[0]


def pair_inputs(sphere, rng, count: int) -> list:
    """``count`` rectangle pairs in boundary planes: the second rectangle
    grows the first by one row (gradually varied) for three quarters of
    them and by two rows (not gradually varied) for the rest.  Sizes cycle
    through a fixed pattern; the seed picks planes, directions and places."""
    from lattice import rectangle_walk
    n, d = sphere.n, sphere.d
    out = []
    for i in range(count):
        grow = 1 if i % 4 else 2
        along = min(1 + i % 3, n - grow)
        across = min(1 + i // 3 % 3, n)
        base = [0] * d
        facet = rng.randrange(d)
        base[facet] = rng.choice((0, n))
        free = [a for a in range(d) if a != facet]
        if d == 4:
            fixed = free.pop(rng.randrange(3))
            base[fixed] = rng.randrange(n + 1)
        if rng.random() < 0.5:
            free.reverse()
        start = rng.randint(0, n - along - grow)
        j0 = rng.randint(0, n - across)
        if rng.random() < 0.5:
            inner = ((start, j0), (start + along, j0 + across))
        else:
            inner = ((start + grow, j0), (start + grow + along, j0 + across))
        outer = ((start, j0), (start + along + grow, j0 + across))
        plane = (sphere.index, tuple(base), tuple(free))
        out.append((rectangle_walk(*plane, *inner),
                    rectangle_walk(*plane, *outer), grow == 1))
    return out


# -- one round ----------------------------------------------------------------


class Bench:
    def __init__(self, spec: Workload, seed: int, work: Path):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.tracer = None      # a Tracer while a traced round runs
        self.clock = Clock()

    def setup(self) -> float:
        """Build every sphere of the workload and save it as DSC; returns
        the seconds taken."""
        from celltopo import io as dio
        from lattice import lattice_sphere
        start = perf_counter()
        spheres = {}
        for d, n in sorted({self.spec.cli, self.spec.curves}):
            sphere = lattice_sphere(d, n)
            text = dio.save_complex(sphere.space, {"equator": sphere.equator})
            (self.work / ("sphere%d_n%d.dsc" % (d - 1, n))).write_text(text)
            spheres[(d, n)] = sphere
        elapsed = perf_counter() - start
        self.spheres = spheres
        self.clock.mark()
        return elapsed

    def prepare(self):
        """Expected values and seeded inputs; not timed."""
        import checks
        self.cli_sphere = self.spheres[self.spec.cli]
        self.curve_sphere = self.spheres[self.spec.curves]
        comps = checks.components(self.cli_sphere)
        sizes = tuple(len(c) for c in comps)
        if sizes != checks.side_sizes(self.cli_sphere):
            self.problems.append("networkx sides %r differ from the closed "
                                 "form %r" % (sizes, checks.side_sizes(
                                     self.cli_sphere)))
        self.component = comps[0]
        self.sizes = sizes
        rng = random.Random(self.seed)
        self.pairs = pair_inputs(self.curve_sphere, rng, self.spec.pairs)
        self.searches = search_inputs(self.curve_sphere, self.spec.searches)
        if self.spec.known_fault:
            self.searches.append(known_fault_input(self.curve_sphere))
        d, n = self.spec.cli
        self.dsc = str(self.work / ("sphere%d_n%d.dsc" % (d - 1, n)))

    def _cli(self, argv: list) -> tuple:
        from celltopo import cli
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    code = self.tracer.call("cli", cli.main, argv)
            except Exception:   # a traceback breaks the exit-code contract
                traceback.print_exc()
                code = None
            elapsed = perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print("%s exited %r: %s" % (argv[0], code, err.getvalue()[-300:]),
                  file=sys.stderr)
        self.clock.mark()
        return elapsed, code, out.getvalue()

    def round(self) -> dict:
        """One pass over every operation; returns seconds per metric."""
        import checks
        sphere, work = self.cli_sphere, self.work
        times = {}
        report = str(work / "separate.txt")
        trace = str(work / "contract.trace")
        prefix = str(work / "export")
        for old in work.glob("export_step*.off"):
            old.unlink()

        times["check_s"], code, out = self._cli(["check", self.dsc])
        if code == 0:
            self.problems += checks.check_check(out, sphere)
        times["flat_s"], code, out = self._cli(
            ["flat", self.dsc, "--chain", "equator"])
        if code == 0:
            self.problems += checks.check_flat(out, sphere)
        times["separate_s"], code, out = self._cli(
            ["separate", self.dsc, "--chain", "equator", "--out", report])
        if code == 0:
            self.problems += checks.check_separate(
                out, Path(report).read_text(), self.sizes)
        times["contract_s"], code, out = self._cli(
            ["contract", self.dsc, "--chain", "equator", "--out", trace])
        sizes = None
        if code == 0:
            want = "contracted component 0 (%d cells) to seed in %d removals" \
                % (len(self.component), len(self.component) - 1)
            if out.strip() != want:
                self.problems.append("contract printed %r" % out.strip())
            found, sizes = checks.check_trace(Path(trace).read_text(), sphere,
                                              self.component)
            self.problems += found
        times["export_s"], code, out = self._cli(
            ["export", trace, "--out", prefix])
        if code == 0 and sizes is not None:
            self.problems += checks.check_export(prefix, sizes,
                                                 len(sphere.points))
        self.bytes_written = sum(
            p.stat().st_size for p in work.iterdir()
            if p.name.startswith(("export", "separate", "contract")))

        times["moves_s"] = self._pairs()
        times["search_s"] = self._searches()
        return times

    def _pairs(self) -> float:
        import checks
        from celltopo import deformation as dfm
        from celltopo.complexes import CellChain
        space = self.curve_sphere.space
        chains = [(CellChain.path(space, a, closed=True),
                   CellChain.path(space, b, closed=True), gv)
                  for a, b, gv in self.pairs]
        total = 0.0
        gc.collect()
        for c, cp, expected in chains:
            self.attempted += 1
            start = perf_counter()
            try:
                there = dfm.are_gradually_varied(space, c, cp)
                back = dfm.are_gradually_varied(space, cp, c)
                steps = dfm.decompose_minimal_moves(space, c, cp) \
                    if expected else None
                side = dfm.are_side_gradually_varied(space, c, cp)
            except Exception as exc:
                total += perf_counter() - start
                self.failed += 1
                print("curve pair %r -> %r failed: %r" % (c.verts, cp.verts,
                                                          exc),
                      file=sys.stderr)
                continue
            total += perf_counter() - start
            if there != back or there != expected:
                self.problems.append("are_gradually_varied gave %r / %r for "
                                     "%r -> %r, expected %r"
                                     % (there, back, c.verts, cp.verts,
                                        expected))
            if side and not there:
                self.problems.append("side-gradual without gradual variation")
            if steps is not None:
                self.problems += checks.check_moves(
                    self.curve_sphere, steps.steps, steps.moves,
                    checks.curve_edges(c), checks.curve_edges(cp))
        self.clock.mark()
        return total

    def _searches(self) -> float:
        import checks
        from celltopo import deformation as dfm
        from celltopo.complexes import CellChain
        space = self.curve_sphere.space
        total = 0.0
        gc.collect()
        for ring, anchor in self.searches:
            cycle = CellChain.path(space, ring, closed=True)
            self.attempted += 1
            start = perf_counter()
            try:
                trace = dfm.search_contraction(space, cycle, anchor,
                                               SEARCH_BUDGET)
            except Exception as exc:
                total += perf_counter() - start
                self.failed += 1
                print("search %r from %d failed: %r" % (ring, anchor, exc),
                      file=sys.stderr)
                continue
            total += perf_counter() - start
            self.problems += checks.check_search(self.curve_sphere, trace,
                                                 ring, anchor)
        self.clock.mark()
        return total


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    spec = WORKLOADS[workload]
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(spec, seed, work)
    bench.clock.mark()
    setup_s = median([bench.setup() for _ in range(SETUP_REPS)]) \
        * bench.clock.factor()
    bench.prepare()

    tracer = spans.Tracer() if trace else None
    rounds, traced_rounds = [], []
    plain_cost, traced_cost = [], []
    start = perf_counter()
    while True:
        if tracer is not None and len(plain_cost) > len(traced_cost):
            tracer.reset()
            tracer.install()
            bench.tracer = tracer
            try:
                times = bench.round()
            finally:
                bench.tracer = None
                tracer.uninstall()
            times = scaled(times, bench.clock.factor())
            traced_cost.append(sum(times.values()))
            traced_rounds.append(layer_sample(tracer, bench.bytes_written))
        else:
            times = scaled(bench.round(), bench.clock.factor())
            plain_cost.append(sum(times.values()))
            rounds.append(times)
        enough = traced_rounds if tracer is not None else rounds
        if enough and perf_counter() >= start + seconds:
            break

    if tracer is not None:
        metrics = {name: (median([r[name][0] for r in traced_rounds]),
                          unit)
                   for name, unit in layer_units().items()}
        metrics["trace.overhead_pct"] = (
            100.0 * (median(traced_cost) / median(plain_cost) - 1.0), "%")
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for i, sample in enumerate(traced_rounds):
                fh.write(json.dumps({"round": i, "spans": sample}) + "\n")
    else:
        metrics = {name: (median([r[name] for r in rounds]), "s")
                   for name in rounds[0]}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for p in bench.problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())}}


def scaled(times: dict, factor: float) -> dict:
    return {name: value * factor for name, value in times.items()}


def layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    import spans
    units = {"%s.%s_s" % (module, name): "s"
             for module, names in spans.TIMED.items() for name in names}
    units.update((name + "_calls", "count") for name in spans.COUNTED)
    units["deformation.move_yield"] = "ratio"
    units["io.bytes_written"] = "bytes"
    units["cli.self_s"] = "s"
    return units


def layer_sample(tracer, bytes_written: int) -> dict:
    """Per-layer values of one traced round, as (value, unit) pairs."""
    out = {}
    for name, unit in layer_units().items():
        if name.endswith("_calls"):
            value = tracer.calls.get(name[:-6], 0)
        elif name == "deformation.move_yield":
            calls = tracer.calls.get("deformation.single_cell_move", 0)
            value = tracer.hits.get("deformation.single_cell_move", 0) \
                / calls if calls else 0.0
        elif name == "io.bytes_written":
            value = bytes_written
        elif name == "cli.self_s":
            value = tracer.self_s.get("cli", 0.0)
        else:
            value = tracer.self_s.get(name[:-2], 0.0)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "celltopo" / "__init__.py").is_file():
        print("error: %s holds no celltopo sources (src/celltopo)" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import celltopo.cli  # noqa: F401  (imported before set-up is timed)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
