"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each timed public function of celltopo with a
wrapper, in every celltopo module that holds a reference to it, so calls
made through ``from .x import f`` bindings are timed too.  A span's self
time is its duration minus the time its child spans cover.  Nothing is
installed unless the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# module -> the public functions timed in it; DiscreteSpace is timed
# through its constructor.
TIMED = {
    "complexes": ("DiscreteSpace", "check_regular", "link"),
    "metrics": ("k_cell_distance",),
    "flatness": ("is_locally_flat", "build_collar", "verify_collar"),
    "separation": ("components_of_complement", "contract_to_cell",
                   "verify_contraction_trace"),
    "io": ("load_complex", "save_trace", "load_trace", "spectral_layout",
           "off_snapshot"),
    "deformation": ("single_cell_move", "crosses_over",
                    "are_gradually_varied", "decompose_minimal_moves",
                    "search_contraction", "verify_contraction"),
}

# Counts reported next to self times.
COUNTED = ("complexes.DiscreteSpace", "complexes.check_regular",
           "complexes.link", "metrics.k_cell_distance",
           "flatness.is_locally_flat", "deformation.single_cell_move",
           "deformation.crosses_over")


class Tracer:
    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.hits: dict = defaultdict(int)   # calls that returned a value
        self._open: list = []                # child time of each open span
        self._patches: list = []

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.hits.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span named ``name``."""
        self._open.append(0.0)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = perf_counter() - start
            self.self_s[name] += duration - self._open.pop()
            self.calls[name] += 1
            if result is not None:
                self.hits[name] += 1
            if self._open:
                self._open[-1] += duration

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        targets = {short: importlib.import_module("celltopo." + short)
                   for short in TIMED}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "celltopo" or key.startswith("celltopo.")]
        for short, names in TIMED.items():
            mod = targets[short]
            for attr in names:
                original = getattr(mod, attr)
                if isinstance(original, type):
                    init = original.__init__
                    wrapped = self._wrap("%s.%s" % (short, attr), init)
                    self._patches.append((original, "__init__", init))
                    original.__init__ = wrapped
                    continue
                wrapped = self._wrap("%s.%s" % (short, attr), original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
