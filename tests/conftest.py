import copy

import numpy as np
import pytest

from lutnet import data as dataio
from lutnet import expand as ex
from lutnet import model as md
from lutnet import prune as pr


@pytest.fixture(scope="session")
def toy_data(tmp_path_factory):
    """Small slice of the bundled digit set, shared across training tests."""
    root = tmp_path_factory.mktemp("toy")
    dataio.generate_toy_dataset(root, n_train=1500, n_test=400, seed=123)
    return dataio.load_dataset(root)


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
    return net


def tiny_stages():
    """(stage, network) after each pipeline step of make_tiny_net(): prune,
    binarise, expand at K=3 with perturbed coefficients, harden.  The
    hardened network is the one data/tiny_hardened_v1.json holds."""
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


def exhaustive_pm1(n_bits):
    idx = np.arange(1 << n_bits)
    return ((idx[:, None] >> np.arange(n_bits)[None, :]) & 1) * 2.0 - 1.0


def rel_err(got, want, floor=1e-12):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), floor)
    return float(np.linalg.norm(got - want)) / denom
