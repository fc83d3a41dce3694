"""Spans around calls into the lutnet layers, recorded from outside the package.

Nothing under src/ is instrumented: `install` replaces each public function
listed in TARGETS by a wrapper at the place where its callers look it up (a
module attribute, a bare name imported into another module, or a class
attribute for methods), and the returned restore function puts the originals
back.  Spans are aggregated as they close, so a traced run keeps no per-call
records and its memory does not grow with the number of calls.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from dataclasses import dataclass

# (span name, layer, module, attribute).  An attribute "Class.method" is
# patched on the class.  A function imported by bare name into another module
# is patched there as well, because that is where its caller looks it up.
TARGETS = [
    ("data.generate_toy_dataset", "data", "lutnet.data", "generate_toy_dataset"),
    ("data.load_dataset", "data", "lutnet.data", "load_dataset"),
    ("numerics.dense_forward", "numerics", "lutnet.numerics", "dense_forward"),
    ("numerics.adam_step", "numerics", "lutnet.numerics", "adam_step"),
    ("model.forward_real_train", "model", "lutnet.model", "forward_real_train"),
    ("model.backward_real", "model", "lutnet.model", "backward_real"),
    ("model.forward_binary_train", "model", "lutnet.model", "forward_binary_train"),
    ("model.backward_binary", "model", "lutnet.model", "backward_binary"),
    ("model.forward_lut_train", "model", "lutnet.model", "forward_lut_train"),
    ("model.backward_lut", "model", "lutnet.model", "backward_lut"),
    ("model.forward_hardened_bits", "model", "lutnet.model", "forward_hardened_bits"),
    ("prune.solve_theta_for_density", "prune", "lutnet.prune", "solve_theta_for_density"),
    ("prune.prune_threshold", "prune", "lutnet.prune", "prune_threshold"),
    ("prune.binarise_network", "prune", "lutnet.prune", "binarise_network"),
    ("prune.residual_binarise", "prune", "lutnet.prune", "residual_binarise"),
    ("expand.interp_basis", "expand", "lutnet.expand", "interp_basis"),
    ("expand.interp_dx_partial", "expand", "lutnet.expand", "interp_dx_partial"),
    ("expand.expand_network", "expand", "lutnet.expand", "expand_network"),
    ("expand.harden_network", "expand", "lutnet.expand", "harden_network"),
    ("expand.detect_dont_cares", "expand", "lutnet.hwgen.lower", "detect_dont_cares"),
    ("expand.detect_dont_cares", "expand", "lutnet.hwgen.area", "detect_dont_cares"),
    ("training.run_phase1", "training", "lutnet.training", "run_phase1"),
    ("training.run_phase2", "training", "lutnet.training", "run_phase2_retrain"),
    ("training.run_phase3", "training", "lutnet.training", "run_phase3_retrain"),
    ("training.evaluate", "training", "lutnet.training", "evaluate"),
    ("checkpoint.save_checkpoint", "checkpoint", "lutnet.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "checkpoint", "lutnet.checkpoint", "load_checkpoint"),
    ("hwgen.lower", "hwgen.lower", "lutnet.hwgen", "lower"),
    ("hwgen.simulate", "hwgen.netlist", "lutnet.hwgen", "simulate"),
    ("hwgen.topo_order", "hwgen.netlist", "lutnet.hwgen.netlist", "Netlist.topo_order"),
    ("hwgen.emit_verilog", "hwgen.verilog", "lutnet.hwgen", "emit_verilog"),
    ("hwgen.area_report", "hwgen.area", "lutnet.hwgen", "area_report"),
    ("hwgen.pack_estimate", "hwgen.area", "lutnet.hwgen.area", "pack_estimate"),
]

LAYERS = ("data", "numerics", "model", "prune", "expand", "training", "checkpoint",
          "hwgen.lower", "hwgen.netlist", "hwgen.verilog", "hwgen.area")

# Spans the benchmark opens around its own sections.  They are the roots of
# every traced call, so time the library does not account for lands here.
BENCH_LAYER = "bench"
SETUP, ITERATION = "setup", "iteration"


@dataclass
class SpanStats:
    """Aggregate of the closed spans of one name within one section."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Stack of open spans plus per-(section, name) aggregates.

    A span's self time is its duration minus the durations of the spans opened
    directly inside it; the children's own children are already inside those
    durations, so nothing is subtracted twice.
    """

    def __init__(self, clock=time.perf_counter, max_rss_mb=None):
        self.clock = clock
        self.max_rss_mb = max_rss_mb or _max_rss_mb
        self.section = SETUP
        self.layer_of = {BENCH_LAYER + "." + SETUP: BENCH_LAYER,
                         BENCH_LAYER + "." + ITERATION: BENCH_LAYER}
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.errors: list[tuple[str, str]] = []   # (span name, exception type)
        self.rss_after_stage: dict[str, float] = {}
        self._stack: list[list] = []               # [name, start, child seconds]

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self, error: str | None = None) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.setdefault((self.section, name), SpanStats())
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        if error is not None:
            st.failed += 1
            self.errors.append((name, error))
        if self._stack:
            self._stack[-1][2] += duration
            if len(self._stack) == 1:
                # a stage the benchmark called directly has ended
                layer = self.layer_of.get(name, BENCH_LAYER)
                if layer not in self.rss_after_stage:
                    self.rss_after_stage[layer] = self.max_rss_mb()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            self.close(type(e).__name__)
            raise
        self.close()
        return result

    def wrap(self, name: str, layer: str, fn):
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, targets=TARGETS):
        """Patch every target; returns a function that restores the originals.

        A target the library no longer has is skipped, so that a refactor of
        the library leaves the benchmark running; its metrics go missing."""
        undo = []
        for name, layer, module_name, attr in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            setattr(owner, attr, self.wrap(name, layer, original))
            undo.append((owner, attr, original))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def per_unit(self, name: str, field: str, units: dict) -> float:
        """Mean over sections of field per set-up or iteration, summed: for a
        function called in set-up and in each iteration this is its cost in
        one set-up plus one iteration.  units maps section -> repetitions."""
        out = 0.0
        for section, n in units.items():
            st = self.stats.get((section, name))
            if st is not None and n:
                out += getattr(st, field) / n
        return out

    def mean_call_s(self, name: str) -> float:
        calls = sum(st.calls for (_s, n), st in self.stats.items() if n == name)
        total = sum(st.total_s for (_s, n), st in self.stats.items() if n == name)
        return total / calls if calls else 0.0

    def layer_self_s(self, layer: str, section: str, repetitions: int) -> float:
        """Self time of every span of one layer in one section, per repetition."""
        total = sum(st.self_s for (s, n), st in self.stats.items()
                    if s == section and self.layer_of.get(n) == layer)
        return total / repetitions if repetitions else 0.0

    def layer_failed(self, layer: str) -> int:
        return sum(st.failed for (_s, n), st in self.stats.items()
                   if self.layer_of.get(n) == layer)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
