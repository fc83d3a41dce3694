"""The benchmark's read path into the library, pinned on a tiny net so that a
refactor that breaks bench/workloads.py fails here in seconds.  The module
is loaded from its file and only called, never changed."""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from lutnet import hwgen as hw

from conftest import tiny_stages

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_netlist_readers_run(workloads):
    nl = hw.lower(dict(tiny_stages())["hardened"])
    counts = workloads._cell_counts(nl)
    assert sum(counts.values()) == len(nl.cells) and counts["lut"] > 0
    assert workloads._verilog_tables_match(nl, hw.emit_verilog(nl))
