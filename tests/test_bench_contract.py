"""The benchmark's read paths into the library, pinned on a tiny net so that a
refactor that breaks bench/workloads.py or bench/tracing.py fails here in
seconds.  The modules are loaded from their files and only called, never
changed."""

import hashlib
import importlib.util
import os
import sys

import numpy as np
import pytest

from lutnet import hwgen as hw

from conftest import tiny_stages

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


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


# cells of lower(tiny hardened net), recorded from the object-per-bit netlist
TINY_CELLS = {"lut": 82, "add": 68, "threshold": 7}


def test_netlist_readers_run(workloads):
    nl = hw.lower(dict(tiny_stages())["hardened"])
    counts = workloads._cell_counts(nl)
    assert counts == TINY_CELLS
    assert sum(1 for _cell in nl.cells) == sum(TINY_CELLS.values())
    assert workloads._verilog_tables_match(nl, hw.emit_verilog(nl))


def test_tracer_finds_every_target_module():
    tracing = _load("tracing")
    restore = tracing.Tracer().install()
    try:
        for _name, _layer, module, _attr in tracing.TARGETS:
            assert module in sys.modules, module
    finally:
        restore()
    for _name, _layer, module, attr in tracing.TARGETS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert not hasattr(owner, "__wrapped__"), attr
