"""Pins of the windowed compute path: a conv layer whose kernel covers its
whole input is the same operator as a dense layer over the flattened input,
and conv stacks with pooling stay bit-exact through expansion and lowering."""

import copy
import hashlib

import numpy as np
import pytest

from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import numerics as nm
from lutnet import prune as pr
from lutnet import training as tr
from lutnet.errors import DimensionError

from conftest import area_sha, fold_initial_scale, netlist_pin, tiny_stages, untiled_pool_net


def _randomize_bn(net, seed):
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        if layer.kind == "batchnorm":
            n = layer.num_features
            layer.running_mean = rng.standard_normal(n) * 0.2
            layer.running_var = rng.uniform(0.5, 2.0, n)
            layer.gamma = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
            layer.beta = rng.standard_normal(n) * 0.2


def _pair(first_unrolled):
    """(conv net, dense net) with identical parameters; the conv kernel covers
    its whole 2x3x3 input, so it has one output position."""
    tail = [md.BatchNormLayer(4), md.DenseLayer(4, 3, unrolled=True),
            md.BatchNormLayer(3), md.SoftmaxLayer()]
    conv = md.Network("conv", [md.ConvLayer(2, 4, 3, 1, unrolled=first_unrolled)]
                      + copy.deepcopy(tail), 2, (2, 3, 3), 41)
    dense = md.Network("dense", [md.DenseLayer(18, 4, unrolled=first_unrolled)]
                       + copy.deepcopy(tail), 2, (18,), 41)
    md.init_network(conv)
    _randomize_bn(conv, 42)
    for src, dst in zip(conv.layers, dense.layers):
        for name in ("weights", "prune_mask", "gamma", "beta",
                     "running_mean", "running_var"):
            if hasattr(src, name):
                setattr(dst, name, copy.deepcopy(getattr(src, name)))
    return conv, dense


def _assert_same_grads(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("first_unrolled", [False, True])
def test_full_kernel_conv_equals_dense(first_unrolled):
    conv, dense = _pair(first_unrolled)
    rng = np.random.default_rng(43)
    x = rng.standard_normal((32, 18))
    labels = rng.integers(0, 3, 32)

    assert np.array_equal(md.forward(conv, x), md.forward(dense, x))
    grads = []
    for net in (conv, dense):
        logits, caches = md.forward_real_train(net, x)
        _loss, dlogits = nm.softmax_xent(logits, labels)
        grads.append(md.backward_real(net, caches, dlogits))
    _assert_same_grads(*grads)

    theta = pr.solve_theta_for_density(conv, 0.6, tol=0.3)
    for net in (conv, dense):
        pr.prune_threshold(net, theta)
        pr.binarise_network(net)
    assert np.array_equal(md.forward(conv, x), md.forward(dense, x))
    grads = []
    for net in (conv, dense):
        logits, caches = md.forward_binary_train(net, x)
        _loss, dlogits = nm.softmax_xent(logits, labels)
        grads.append(md.backward_binary(net, caches, dlogits))
    _assert_same_grads(*grads)

    for k in (1, 2, 3):
        pair = [copy.deepcopy(conv), copy.deepcopy(dense)]
        perturb = np.random.default_rng(44 + k)
        for net in pair:
            ex.expand_network(net, k=k, seed=5)
        for (_i, lc), (_j, ld) in zip(pair[0].compute_layers(), pair[1].compute_layers()):
            if lc.lut is not None:
                lc.lut.coeffs += perturb.normal(0.0, 0.05, lc.lut.coeffs.shape)
                ld.lut.coeffs[...] = lc.lut.coeffs
        assert np.array_equal(md.forward(pair[0], x), md.forward(pair[1], x))
        grads = []
        for net in pair:
            logits, caches = md.forward_lut_train(net, x)
            _loss, dlogits = nm.softmax_xent(logits, labels)
            grads.append(md.backward_lut(net, caches, dlogits))
        _assert_same_grads(*grads)
        for net in pair:
            ex.harden_network(net, frac_bits=6)
        assert np.array_equal(md.forward(pair[0], x), md.forward(pair[1], x))
        assert np.array_equal(md.forward_hardened_bits(pair[0], x),
                              md.forward_hardened_bits(pair[1], x))


def _conv_stack(seed=51):
    """conv -> bn -> maxpool -> conv (unrolled) -> bn -> dense (unrolled) ->
    bn -> softmax on a 1x7x7 input."""
    layers = [
        md.ConvLayer(1, 3, 2, 1), md.BatchNormLayer(3),
        md.MaxPoolLayer(2),
        md.ConvLayer(3, 4, 2, 1, unrolled=True), md.BatchNormLayer(4),
        md.DenseLayer(16, 3, unrolled=True), md.BatchNormLayer(3),
        md.SoftmaxLayer(),
    ]
    net = md.init_network(md.Network("convstack", layers, 2, (1, 7, 7), seed))
    _randomize_bn(net, seed + 1)
    fold_initial_scale(net)
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.7, tol=0.3))
    pr.binarise_network(net)
    return net


def test_conv_stack_k1_expansion_equals_binary():
    net = _conv_stack()
    x = np.random.default_rng(52).standard_normal((200, 49))
    want = md.forward(net, x)
    ex.expand_network(net, k=1, seed=3)
    assert np.array_equal(md.forward(net, x), want)


def _expanded_conv_stack(k, rng):
    net = _conv_stack()
    ex.expand_network(net, k=k, seed=53)
    for _i, layer in net.compute_layers():
        if layer.lut is not None:
            for ch in layer.lut.channels:
                ch.coeffs += rng.normal(0.0, 0.05, ch.coeffs.shape)
    return net


def _hardened_conv_stack(k, rng):
    return ex.harden_network(_expanded_conv_stack(k, rng), frac_bits=6)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of (forward_lut_train logits, backward_lut gradients by sorted name,
# every LUT's gammas and coefficients after one run_phase3_retrain step) on
# the conv stack: its unrolled conv reads overlapping windows at 4
# positions, so each input feeds several nodes in several window rows.
# Recorded from the engine that gathered every node's inputs as
# (rows, N, K) floats
CONV_STACK_PHASE3_PINS = {
    1: ("63ba59c41a308b7127a7b42b7737f481f5707865e23329ec6f10adf73fa7d2bc",
        "0660e4ab920ea4e6393df0871e44318e29597248048c31f0c08e7ded3b147f83",
        "196188d4bb5c29783cc13018806df4dd1b5dc4dc4d5e6673c00e8bc461168abe"),
    2: ("854534bea409d6694f980bc68ecd40c3759972b344be6e833db2c4abc846b187",
        "c2c7945b92c3e7715d7cefe74cd5c6caf7574f1c11ce9dea793960c3bfe67a3b",
        "7cc8cfef465f990bd79a0b98b61cfb2f6e84941085e0a2190d0acfc6e3e059c9"),
    3: ("6f27e923175fb1908a292c5837a736a66c08cf17ccdc15a18acf606803b9f52d",
        "326c2003d9eaed4a386f45e4d86ed9eea263bbe3283b9a544c04b8ba3f2ea4fa",
        "23ee2368adfcb03ebb168f96b5ee37280e172af93ae4b5423dd6181383aebe17"),
    4: ("8956de1e7c9ba96203353a41dffd5b805b5f07b1788e500c2deaa745774357da",
        "1f591f189cf6016eb18a62055c83b99433d48c641cc1169b2beb5406fba6471b",
        "5fbf90648c53e1aba4328ef28958c60e046ef0f84b5395eca331119db05a18e1"),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_phase3_matches_pin(k):
    rng = np.random.default_rng(70 + k)
    x = rng.choice([-1.0, 1.0], size=(96, 49))
    labels = rng.integers(0, 3, 96)
    net = _expanded_conv_stack(k, np.random.default_rng(54 + k))
    logits, caches = md.forward_lut_train(net, x)
    grads = md.backward_lut(net, caches, nm.softmax_xent(logits, labels)[1])
    h = hashlib.sha256()
    for name in sorted(grads):
        h.update(name.encode("ascii") + b"\0" + grads[name].tobytes())
    net = _expanded_conv_stack(k, np.random.default_rng(54 + k))
    tr.run_phase3_retrain(net, (x, labels), tr.PhaseConfig(epochs3=1, batch_size=96))
    luts = [layer.lut for _i, layer in net.compute_layers() if layer.lut is not None]
    trained = _sha(*[a for lut in luts for a in (lut.gammas, lut.coeffs)])
    assert (_sha(logits), h.hexdigest(), trained) == CONV_STACK_PHASE3_PINS[k]


@pytest.mark.parametrize("infer", [md.forward, md.forward_hardened_bits])
@pytest.mark.parametrize("build", [lambda: dict(tiny_stages())["hardened"],
                                   lambda: _hardened_conv_stack(3, np.random.default_rng(57))],
                         ids=["tiny", "conv_stack"])
def test_inference_blocks_equal_one_call_per_row(build, infer):
    # INFER_BATCH + 1 rows make a full block and a block of one row
    net = build()
    x = np.random.default_rng(58).standard_normal((md.INFER_BATCH + 1, np.prod(net.input_shape)))
    assert np.array_equal(infer(net, x), np.concatenate([infer(net, row[None]) for row in x]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_netlist_equals_hardened_bits(k):
    rng = np.random.default_rng(54 + k)
    net = _hardened_conv_stack(k, rng)
    x = rng.choice([-1.0, 1.0], size=(300, 49))
    want = hw.encode_pm1(md.forward_hardened_bits(net, x))
    got = hw.simulate(hw.lower(net), hw.encode_pm1(x))
    assert np.array_equal(got, want)


# netlist_pin of the lowered conv stack: Verilog sha256 in both styles and the
# cell counts, recorded from the object-per-bit netlist that the per-layer
# arrays replaced
CONV_STACK_PINS = {
    1: ("aa6b7863aef70d0154a6976449517b40090872d4d73c766de4e768c2d8f46a19",
        "7bf7084023e7c75c77fbe95fcd68d9229fbe880bf4a09f5843ced8767fac47a9",
        {"lut": 1229, "add": 948, "threshold": 127}),
    2: ("aa6b7863aef70d0154a6976449517b40090872d4d73c766de4e768c2d8f46a19",
        "7bf7084023e7c75c77fbe95fcd68d9229fbe880bf4a09f5843ced8767fac47a9",
        {"lut": 1229, "add": 948, "threshold": 127}),
    3: ("3586c9478740f5a8d75e8900cb5beef7e150aa9692a88995efb11a4e89c7154b",
        "f470ba20ffd8e4290417996f2ab5aa7e97248d4d9127f8c2bc74f461ef19b552",
        {"lut": 1229, "add": 948, "threshold": 127}),
    4: ("18aba3335e86e3a69589b81755c197bcd0ddf4857f68941e53f1046be12b8e41",
        "025987bdcfdc799e55cf3392ce72c14ce45427a7c1a8615f733be85cd66193f1",
        {"lut": 1229, "add": 948, "threshold": 127}),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_netlist_matches_pin(k):
    net = _hardened_conv_stack(k, np.random.default_rng(54 + k))
    assert netlist_pin(hw.lower(net)) == CONV_STACK_PINS[k]


# sha256 of area_report(...).to_csv() of the conv stack (a time-multiplexed
# conv, a maxpool row, positions > 1), recorded from the area estimate that
# walked the network itself, before it priced lower's blocks
CONV_STACK_AREA = {
    1: "138096939aebe72a527d79cb8016e9e30f9250db24d1b907e9cf96f693849714",
    2: "138096939aebe72a527d79cb8016e9e30f9250db24d1b907e9cf96f693849714",
    3: "d164bdcb6fbdc4ea67124a614e86069615d1f4125c6e534091b62949a2d03441",
    4: "a11e92c06607c3d03f09055561722c8f6682710b43e4958ec035c55bfc2ebbdf",
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_area_matches_pin(k):
    net = _hardened_conv_stack(k, np.random.default_rng(54 + k))
    assert area_sha(net) == CONV_STACK_AREA[k]


@pytest.mark.parametrize("build", [md.forward_hardened_bits, hw.lower, hw.area_report])
def test_untiled_pool_is_rejected(build):
    net = untiled_pool_net()
    args = (np.ones((1, 36)),) if build is md.forward_hardened_bits else ()
    with pytest.raises(DimensionError, match="pool size 4 does not tile 6x6"):
        build(net, *args)
