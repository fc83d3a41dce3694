"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench -q
"""

import json
import os
import sys
import types

import numpy as np
import pytest

import metrics
from ops import DEPENDENCY, Ops
from tracing import ITERATION, SETUP, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock, max_rss_mb=lambda: 1.0)
    tr.layer_of.update({"a": "outer", "b": "inner", "c": "inner", "d": "outer"})
    tr.section = ITERATION
    for t, action in [(0, "a"), (1, "b"), (2, "c"), (4, None), (5, None),
                      (6, "d"), (9, None), (10, None)]:
        clock.now = t
        if action:
            tr.open(action)
        else:
            tr.close()
    st = {name: tr.stats[(ITERATION, name)] for name in "abcd"}
    assert (st["a"].total_s, st["a"].self_s) == (10, 3)   # 10 - (b 4 + d 3)
    assert (st["b"].total_s, st["b"].self_s) == (4, 2)    # 4 - c 2
    assert (st["c"].total_s, st["c"].self_s) == (2, 2)
    assert (st["d"].total_s, st["d"].self_s) == (3, 3)
    # self times partition the root span exactly
    assert sum(s.self_s for s in st.values()) == st["a"].total_s
    assert tr.layer_self_s("outer", ITERATION, 1) == 6
    assert tr.layer_self_s("inner", ITERATION, 2) == 2


def test_per_unit_counts_setup_and_iteration_separately():
    clock = FakeClock()
    tr = Tracer(clock=clock, max_rss_mb=lambda: 1.0)
    for section, n in ((SETUP, 3), (ITERATION, 2)):
        tr.section = section
        for _ in range(n):
            tr.open("f")
            clock.now += 0.5
            tr.close()
    # three set-ups and two iterations, each calling f once
    assert tr.per_unit("f", "calls", {SETUP: 3, ITERATION: 2}) == 2
    assert tr.per_unit("f", "total_s", {SETUP: 3, ITERATION: 2}) == 1.0
    assert tr.mean_call_s("f") == 0.5


def test_rss_is_read_when_a_stage_ends():
    readings = iter([10.0, 20.0, 30.0])
    tr = Tracer(max_rss_mb=lambda: next(readings))
    tr.layer_of.update({"stage": "L1", "kernel": "L2", "other": "L1"})
    tr.open("root")
    tr.open("stage")
    tr.open("kernel")
    tr.close()          # nested: no reading
    tr.close()          # stage of L1 ends: first reading
    tr.open("other")
    tr.close()          # L1 already has its reading
    tr.close()
    assert tr.rss_after_stage == {"L1": 10.0}


def _stub_module(name="stub_layer_mod"):
    mod = types.ModuleType(name)

    def good(x):
        return x + 1

    def bad(x):
        raise np.exceptions.AxisError("axis 2 is out of bounds for array of dimension 2")

    class Thing:
        def method(self, x):
            return good(x) * 2

    mod.good, mod.bad, mod.Thing = good, bad, Thing
    sys.modules[name] = mod
    return mod


def test_install_wraps_functions_and_methods_and_restores_them():
    mod = _stub_module()
    originals = (mod.good, mod.bad, mod.Thing.method)
    tr = Tracer(max_rss_mb=lambda: 1.0)
    restore = tr.install([("stub.good", "stub", mod.__name__, "good"),
                          ("stub.bad", "stub", mod.__name__, "bad"),
                          ("stub.method", "stub", mod.__name__, "Thing.method"),
                          ("stub.gone", "stub", mod.__name__, "removed_function")])
    tr.section = ITERATION
    assert mod.good(1) == 2
    assert mod.Thing().method(1) == 4
    with pytest.raises(np.exceptions.AxisError):
        mod.bad(1)
    restore()
    assert (mod.good, mod.bad, mod.Thing.method) == originals
    assert not hasattr(mod, "removed_function")
    assert tr.stats[(ITERATION, "stub.good")].calls == 1
    assert tr.stats[(ITERATION, "stub.method")].calls == 1
    assert tr.stats[(ITERATION, "stub.bad")].failed == 1
    assert tr.errors == [("stub.bad", "AxisError")]
    assert tr.layer_failed("stub") == 1


def test_ops_records_any_exception_and_fails_dependents():
    called = []

    def raises():
        raise np.exceptions.AxisError("axis 2 is out of bounds")

    def dependent():
        called.append("dependent")

    ops = Ops()
    assert ops.run("hwgen.lower", raises) is None
    assert ops.run("hwgen.simulate", dependent, needs=["hwgen.lower"]) is None
    assert ops.run("hwgen.emit_verilog", dependent, needs=["hwgen.lower"]) is None
    assert ops.run("model.forward_hardened_bits", lambda: 7) == 7
    assert called == []
    assert (ops.attempted, len(ops.failures)) == (4, 3)
    assert [(f["op"], f["error"]) for f in ops.failures] == [
        ("hwgen.lower", "AxisError"),
        ("hwgen.simulate", DEPENDENCY),
        ("hwgen.emit_verilog", DEPENDENCY)]
    assert "AxisError" in ops.failures[0]["traceback"]
    assert set(ops.seconds) == {"model.forward_hardened_bits"}


def test_ops_does_not_swallow_interrupts():
    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        Ops().run("x", interrupted)


def test_per_layer_counts_failed_and_skipped_operations_by_layer():
    tr = Tracer(max_rss_mb=lambda: 1.0)
    tr.layer_of.update({"hwgen.lower": "hwgen.lower", "expand.detect_dont_cares": "expand",
                        "hwgen.simulate": "hwgen.netlist"})
    tr.section = ITERATION
    tr.open("bench.iteration")
    tr.open("hwgen.lower")
    tr.open("expand.detect_dont_cares")
    tr.close("AxisError")
    tr.close("AxisError")
    tr.close()
    # one traced iteration in which lower failed, so simulate and compare were skipped
    out = metrics.per_layer(tr, 1, 1, {}, 0, ["hwgen.simulate", "bench.compare"], 0.1)
    assert out["hwgen.lower.failed"] == (1, "count")
    assert out["expand.failed"] == (1, "count")
    assert out["hwgen.netlist.failed"] == (1, "count")
    assert out["bench.failed"] == (1, "count")
    assert out["training.failed"] == (0, "count")


@pytest.mark.parametrize("name", [
    "setup_s", "hwgen.lower.cells.lut", "expand.detect_dont_cares.calls", "a-b_c.9", "0x",
    "x" * 64])
def test_metric_name_rule_accepts(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_x", ".x", "x y", "x/s", "x" * 65, "acc%", "naïve"])
def test_metric_name_rule_rejects(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_every_known_metric_name_and_unit_follows_the_rule():
    names = dict(metrics.REPORTED)
    names.update((name, unit) for name, unit, _better in metrics.PER_LAYER)
    for name, unit in names.items():
        metrics.check_name(name)
        metrics.check_unit(unit)
    with pytest.raises(ValueError):
        metrics.check_unit("samples per s")


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (name, metrics.REPORTED[name], better, bound)
        for name, better, bound in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        metrics.check_name(name)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
