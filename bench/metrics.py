"""Metric names, units and the per-layer figures derived from a trace.

REPORTED lists every end-to-end metric the benchmark knows, in the order it
prints them.  END_TO_END and PER_LAYER are the metrics of the last output line
and of BENCHMARK.json: only those that every workload listed there measures,
because each run must print all of them.
"""

from __future__ import annotations

import re

from tracing import BENCH_LAYER, ITERATION, LAYERS, SETUP

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# name -> unit, for every end-to-end metric a workload may report
REPORTED = {
    "setup_s": "s",
    "wall_s": "s",
    "phase1_samples_per_s": "samples/s",
    "phase2_samples_per_s": "samples/s",
    "phase3_samples_per_s": "samples/s",
    "hw_build_s": "s",
    "verify_vectors_per_s": "vectors/s",
    "peak_rss_mb": "MB",
    "acc_hw_pct": "%",
    "area_luts": "LUT",
    "verilog_mb": "MB",
    "mismatch_frac": "ratio",
    "failed_frac": "ratio",
}

# A run with a failed operation reports only these, so that a failure fixed
# later does not read as a time or memory regression.
ON_FAILURE = ("mismatch_frac", "failed_frac")

# (name, better, bound): the last output line of an untraced run
END_TO_END = [
    ("setup_s", "lower", 0.25),
    ("wall_s", "lower", 0.25),
    ("phase3_samples_per_s", "higher", 0.25),
    ("peak_rss_mb", "lower", 0.15),
]

# (name, unit, better): the last output line of a traced run
PER_LAYER = [
    ("numerics.adam_step.ms", "ms", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("numerics.failed", "count", "lower"),
    ("model.forward_lut_train.ms", "ms", "lower"),
    ("model.backward_lut.ms", "ms", "lower"),
    ("model.self_s", "s", "lower"),
    ("model.failed", "count", "lower"),
    ("expand.interp_basis.ms", "ms", "lower"),
    ("expand.interp_dx_partial.ms", "ms", "lower"),
    ("expand.expand_network.s", "s", "lower"),
    ("expand.self_s", "s", "lower"),
    ("expand.failed", "count", "lower"),
    ("expand.rss_hwm_mb", "MB", "lower"),
    ("prune.residual_binarise.calls", "count", "lower"),
    ("prune.residual_binarise.ms", "ms", "lower"),
    ("prune.solve_theta_for_density.s", "s", "lower"),
    ("prune.self_s", "s", "lower"),
    ("prune.failed", "count", "lower"),
    ("prune.rss_hwm_mb", "MB", "lower"),
    ("training.run_phase3.s", "s", "lower"),
    ("training.self_s", "s", "lower"),
    ("training.failed", "count", "lower"),
    ("training.rss_hwm_mb", "MB", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# layer -> (end-to-end metrics a faster layer should move, on which workloads).
# Written down before measuring, so that a change to one layer can be checked
# against the end-to-end figure it claims to improve.
LAYER_MOVES = {
    "numerics": ("phase1_samples_per_s on toy-k2; phase3_samples_per_s on lfc-k4-train"),
    "model": ("phase1/2/3_samples_per_s on toy-k2 and lfc-k4-train; "
              "verify_vectors_per_s on lfc-k4-hw and toy-k2"),
    "expand": ("phase3_samples_per_s on lfc-k4-train; setup_s on lfc-k4-train; "
               "hw_build_s on lfc-k4-hw"),
    "prune": "phase2/3_samples_per_s and setup_s on toy-k2",
    "training": "wall_s on every workload",
    "checkpoint": "wall_s and peak_rss_mb on lfc-k4-hw",
    "data": "setup_s on toy-k2",
    "hwgen.lower": "hw_build_s and peak_rss_mb on lfc-k4-hw and toy-k2",
    "hwgen.netlist": "verify_vectors_per_s on lfc-k4-hw and toy-k2",
    "hwgen.verilog": "hw_build_s and verilog_mb on lfc-k4-hw and toy-k2",
    "hwgen.area": "hw_build_s on lfc-k4-hw (the packer has no work on toy-k2)",
}

# Spans reported as mean milliseconds per call: the per-step kernels.
PER_CALL_MS = (
    "numerics.dense_forward", "numerics.adam_step",
    "model.forward_real_train", "model.backward_real", "model.forward_binary_train",
    "model.backward_binary", "model.forward_lut_train", "model.backward_lut",
    "expand.interp_basis", "expand.interp_dx_partial", "prune.residual_binarise",
)
# Spans reported as seconds per set-up plus per iteration: the stages.
PER_UNIT_S = (
    "data.generate_toy_dataset", "data.load_dataset",
    "expand.expand_network", "expand.harden_network", "expand.detect_dont_cares",
    "prune.solve_theta_for_density",
    "training.run_phase1", "training.run_phase2", "training.run_phase3", "training.evaluate",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "hwgen.lower", "hwgen.topo_order", "hwgen.emit_verilog", "hwgen.area_report",
    "hwgen.pack_estimate",
)
PER_UNIT_CALLS = ("prune.residual_binarise", "expand.detect_dont_cares")
# Spans whose throughput is reported, over the differential's test vectors.
VECTOR_SPANS = ("model.forward_hardened_bits", "hwgen.simulate")


def check_name(name: str) -> str:
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


def per_layer(tracer, n_setups, n_iterations, fingerprint, vectors, skipped_ops, overhead_s):
    """Every per-layer figure the trace supports, as {name: (value, unit)}.

    `.ms` is the mean time of one call; `.s` and `.calls` are per set-up plus
    per iteration (a stage called only in set-up is counted once per set-up);
    `<layer>.self_s` is the layer's self time per traced iteration, and
    `<layer>.setup_self_s` the same per set-up.  `<layer>.failed` counts
    failed calls per traced iteration (a failed set-up ends the run); it
    includes skipped_ops, the operations of the traced iterations that failed
    without the tracer seeing them, such as those not called because an
    operation they depend on failed.
    """
    units = {SETUP: n_setups, ITERATION: n_iterations}
    called = {name for (_section, name) in tracer.stats}
    out = {}
    for name in PER_CALL_MS:
        if name in called:
            out[f"{name}.ms"] = (tracer.mean_call_s(name) * 1e3, "ms")
    for name in PER_UNIT_S:
        if name in called:
            out[f"{name}.s"] = (tracer.per_unit(name, "total_s", units), "s")
    for name in PER_UNIT_CALLS:
        if name in called:
            calls = tracer.per_unit(name, "calls", units)
            out[f"{name}.calls"] = (int(calls) if calls.is_integer() else calls, "count")
    for name in VECTOR_SPANS:
        seconds = tracer.per_unit(name, "total_s", {ITERATION: n_iterations})
        if seconds > 0.0:
            out[f"{name}.vectors_per_s"] = (vectors / seconds, "vectors/s")
    if "checkpoint_bytes" in fingerprint:
        out["checkpoint.bytes"] = (fingerprint["checkpoint_bytes"], "B")
    if "verilog" in fingerprint:
        out["hwgen.emit_verilog.bytes"] = (fingerprint["verilog"]["bytes"], "B")
    for kind, count in fingerprint.get("cells", {}).items():
        out[f"hwgen.lower.cells.{kind}"] = (count, "count")
    if "area_rows" in fingerprint:
        out["hwgen.pack_estimate.luts"] = (
            sum(r["inference"] for r in fingerprint["area_rows"]), "LUT")

    skipped = {}
    for op in skipped_ops:
        layer = tracer.layer_of.get(op, op.split(".")[0])
        skipped[layer] = skipped.get(layer, 0) + 1
    for layer in LAYERS + (BENCH_LAYER,):
        for section, suffix, n in ((ITERATION, "self_s", n_iterations),
                                   (SETUP, "setup_self_s", n_setups)):
            if any(s == section and tracer.layer_of.get(name) == layer
                   for (s, name) in tracer.stats):
                out[f"{layer}.{suffix}"] = (tracer.layer_self_s(layer, section, n), "s")
        failed = (tracer.layer_failed(layer) + skipped.get(layer, 0)) / n_iterations
        out[f"{layer}.failed"] = (int(failed) if failed.is_integer() else failed, "count")
        if layer in tracer.rss_after_stage:
            out[f"{layer}.rss_hwm_mb"] = (tracer.rss_after_stage[layer], "MB")
    out["trace.overhead_s"] = (overhead_s, "s")
    for name, (_value, unit) in out.items():
        check_name(name)
        check_unit(unit)
    return out
