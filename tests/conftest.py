import copy
import hashlib

import numpy as np
import pytest

from lutnet import data as dataio
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import prune as pr


@pytest.fixture(scope="session")
def toy_data(tmp_path_factory):
    """Small slice of the bundled digit set, shared across training tests."""
    root = tmp_path_factory.mktemp("toy")
    dataio.generate_toy_dataset(root, n_train=1500, n_test=400, seed=123)
    return dataio.load_dataset(root)


def fold_initial_scale(net):
    """Move the mean |w| of each compute layer's initial weights into the
    batch norm after it, as the schema-2 checkpoint migration moves a
    layer's scale: the running mean is divided by it, the running variance
    and eps by its square.  Nets built with it compute what they computed
    when each layer multiplied its dot product by that scale, so the pins
    recorded then hold."""
    for i, layer in net.compute_layers():
        bn = net.layers[i + 1]
        a = float(np.mean(np.abs(layer.weights)))
        sq = a * a
        bn.running_mean = bn.running_mean / a
        bn.running_var = bn.running_var / sq
        bn.eps = bn.eps / sq


def make_tiny_net(seed=7, b_levels=2, in_bits=8, hidden=4, classes=3,
                  randomize_bn=True):
    """8 -> 4 -> 3 dense stack; input space small enough for exhaustive checks."""
    layers = [
        md.DenseLayer(in_bits, hidden, unrolled=False),
        md.BatchNormLayer(hidden),
        md.DenseLayer(hidden, classes, unrolled=True),
        md.BatchNormLayer(classes),
        md.SoftmaxLayer(),
    ]
    net = md.init_network(md.Network("tiny", layers, b_levels, (in_bits,), seed))
    if randomize_bn:
        rng = np.random.default_rng(seed + 17)
        for layer in net.layers:
            if layer.kind == "batchnorm":
                n = layer.num_features
                layer.running_mean = rng.standard_normal(n) * 0.2
                layer.running_var = rng.uniform(0.5, 2.0, n)
                layer.gamma = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
                layer.beta = rng.standard_normal(n) * 0.2
        fold_initial_scale(net)
    return net


def tiny_stages():
    """(stage, network) after each pipeline step of make_tiny_net(): prune,
    binarise, expand at K=3 with perturbed coefficients, harden.  The
    checkpoints under data/ hold these nets as they were wired before
    expansion drew one wiring plan per layer, so they compute other
    functions."""
    net = make_tiny_net()
    out = [("real", copy.deepcopy(net))]
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.75, tol=0.3))
    out.append(("pruned", copy.deepcopy(net)))
    pr.binarise_network(net)
    out.append(("binarised", copy.deepcopy(net)))
    ex.expand_network(net, k=3, seed=11)
    rng = np.random.default_rng(12)
    for _i, layer in net.compute_layers():
        if layer.lut is not None:
            for ch in layer.lut.channels:
                ch.coeffs += rng.normal(0.0, 0.3, ch.coeffs.shape)
    out.append(("expanded", copy.deepcopy(net)))
    ex.harden_network(net)
    out.append(("hardened", net))
    return out


def untiled_pool_net():
    """conv(1->2, k1) on 1x6x6, maxpool 4, dense(2->3), expanded at K=1 and
    set to the hardened stage at 6 fractional bits, which harden_network
    would refuse: the pool size does not tile 6x6, so the net has no
    reference function."""
    layers = [md.ConvLayer(1, 2, 1, 1), md.BatchNormLayer(2), md.MaxPoolLayer(4),
              md.DenseLayer(2, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("untiled", layers, 2, (1, 6, 6), 61))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=62)
    net.stage, net.frac_bits = "hardened", 6
    return net


def exhaustive_pm1(n_bits):
    idx = np.arange(1 << n_bits)
    return ((idx[:, None] >> np.arange(n_bits)[None, :]) & 1) * 2.0 - 1.0


def rel_err(got, want, floor=1e-12):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), floor)
    return float(np.linalg.norm(got - want)) / denom


def netlist_pin(nl):
    """(sha256 of the behavioral Verilog, sha256 of the vendor-primitive
    Verilog, {lut, add, threshold} cell counts) of a netlist.  Files are
    hashed in name order, as bench/workloads.py hashes them."""
    shas = []
    for style in ("behavioral", "vendor-primitive"):
        files = hw.emit_verilog(nl, style=style)
        h = hashlib.sha256()
        for name in sorted(files):
            h.update(name.encode("ascii") + b"\0" + files[name].encode("ascii") + b"\0")
        shas.append(h.hexdigest())
    counts = {"lut": 0, "add": 0, "threshold": 0}
    for cell in nl.cells:
        kind = ("lut" if isinstance(cell, hw.LutCell) else
                "add" if isinstance(cell, hw.AddCell) else "threshold")
        counts[kind] += 1
    return shas[0], shas[1], counts


def area_sha(net):
    """sha256 of area_report(net).to_csv()."""
    return hashlib.sha256(hw.area_report(net).to_csv().encode("ascii")).hexdigest()
