"""The benchmark's read paths into the library, pinned on a tiny net so that a
refactor that breaks bench/workloads.py or bench/tracing.py fails here in
seconds.  The modules are loaded from their files and only called, never
changed."""

import copy
import hashlib
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from lutnet import checkpoint as ck
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import training as tr

from conftest import netlist_pin, tiny_stages

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("stage", ["expanded", "hardened"])
def test_lut_fingerprint_reads_channel_slices(workloads, stage):
    net = dict(tiny_stages())[stage]
    lut = net.layers[2].lut
    want = hashlib.sha256(lut.gammas.tobytes())
    for a, e in zip(lut.offsets[:-1], lut.offsets[1:]):
        want.update(lut.coeffs[:, a:e].tobytes())
    assert workloads._lut_bytes(net) == want.hexdigest()
    assert sum(ch.n_nodes for ch in lut.channels) == lut.indices.shape[0] == 9


def test_coefficient_writes_through_channels_land_in_the_layer():
    lut = dict(tiny_stages())["expanded"].layers[2].lut
    before = lut.coeffs.copy()
    for ch in lut.channels:
        ch.coeffs += 1.0
    assert np.array_equal(lut.coeffs, before + 1.0)


# cells of lower(tiny hardened net), recorded from the object-per-bit netlist;
# re-recorded when the time-multiplexed l0 became an engine, whose only
# cells are its 4 threshold cells
TINY_CELLS = {"lut": 18, "add": 12, "threshold": 7}


def test_netlist_readers_run(workloads):
    net = dict(tiny_stages())["hardened"]
    nl = hw.lower(net)
    counts = workloads._cell_counts(nl)
    assert counts == TINY_CELLS
    assert sum(1 for _cell in nl.cells) == sum(TINY_CELLS.values())
    assert workloads._verilog_tables_match(nl, hw.emit_verilog(nl))
    # the engine row carries every key the benchmark reads, and no LUT
    engine, expanded = workloads._area_rows(hw.area_report(net))
    assert engine == {"layer": "l0", "logical": 0, "inference": 0, "popcount": 0, "other": 0,
                      "total": 0, "keff_hist": {}}
    assert expanded["layer"] == "l2" and expanded["total"] > 0


# netlist_pin of the lfc-k4-hw workload's netlist, hardened at 8 fractional
# bits: channels of ~25 nodes, deep adder trees and thousands of cell groups,
# which no hand-built net reaches; the behavioral sha256 is the benchmark's
# recorded Verilog fingerprint
LFC_K4_HW_PIN = ("a74f5aba07ad1bf33ab62fade4c37914b0dff26c64d63ab17836a8489c04b7db",
                 "17820f90ef435c9fc6676309ec417b9e9994f32a8cbc101b044cfa1b70ecc2f6",
                 {"lut": 39834, "add": 38278, "threshold": 1034})


@pytest.fixture(scope="module")
def lfc_k4_hw(workloads, tmp_path_factory):
    """The lfc-k4-hw workload's net, hardened at 8 fractional bits."""
    net = workloads.LfcK4Hw().setup(31, str(tmp_path_factory.mktemp("lfc_k4_hw")))["net"]
    return ex.harden_network(net, frac_bits=8)


def test_lfc_k4_hw_netlist_matches_pin(lfc_k4_hw):
    assert netlist_pin(hw.lower(lfc_k4_hw)) == LFC_K4_HW_PIN


def test_lfc_k4_hw_checkpoint_round_trips_under_13_mb(lfc_k4_hw, tmp_path):
    # 19,917 nodes: a schema-4 file of repr'd floats was 19.79 MB
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    ck.save_checkpoint(ck.Checkpoint(lfc_k4_hw), str(first))
    ck.save_checkpoint(ck.load_checkpoint(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size < 13_000_000


# TARGETS entries whose attribute the library no longer has; the tracer
# skips them.  Dropping them from TARGETS is left to the next change of the
# benchmark (ROADMAP item 1).
KNOWN_STALE = {("lutnet.numerics", "dense_forward"),
               ("lutnet.hwgen.lower", "detect_dont_cares"),
               ("lutnet.hwgen.area", "detect_dont_cares"),
               ("lutnet.hwgen.netlist", "Netlist.topo_order")}


def _resolve(module, attr):
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_tracer_finds_every_target_module():
    """Every TARGETS attribute resolves and is wrapped while the tracer is
    installed, except the known-stale ones, and nothing stays wrapped after
    restore: a refactor that drops a traced name fails here."""
    tracing = _load("tracing")
    restore = tracing.Tracer().install()
    try:
        for _name, _layer, module, attr in tracing.TARGETS:
            assert module in sys.modules, module
            traced = _resolve(module, attr)
            if (module, attr) in KNOWN_STALE:
                assert traced is None, f"{module}.{attr} is back; take it off KNOWN_STALE"
            else:
                assert hasattr(traced, "__wrapped__"), f"{module}.{attr}"
    finally:
        restore()
    for _name, _layer, module, attr in tracing.TARGETS:
        assert not hasattr(_resolve(module, attr), "__wrapped__"), attr


def test_phase3_calls_every_timed_span():
    """Every per-call time (`.ms`) the benchmark reports names a traced span
    that one phase-3 epoch calls; a span the library stops calling would
    drop its metric from the traced runs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        timed = [m["name"][:-len(".ms")] for m in json.load(f)["per_layer"]
                 if m["name"].endswith(".ms")]
    net = copy.deepcopy(dict(tiny_stages())["expanded"])
    rng = np.random.default_rng(14)
    data = (rng.choice([-1.0, 1.0], size=(20, 8)), rng.integers(0, 3, 20))
    tracer = _load("tracing").Tracer()
    restore = tracer.install()
    try:
        tr.run_phase3_retrain(net, data, tr.PhaseConfig(epochs3=1, batch_size=10))
    finally:
        restore()
    called = {name for (_section, name), st in tracer.stats.items() if st.calls}
    assert timed and set(timed) <= called, sorted(set(timed) - called)
