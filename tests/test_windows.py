"""Pins of the windowed compute path: a conv layer whose kernel covers its
whole input is the same operator as a dense layer over the flattened input,
and conv stacks with pooling stay bit-exact through expansion and lowering."""

import copy
import hashlib

import numpy as np
import pytest

from lutnet import checkpoint as ck
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import numerics as nm
from lutnet import prune as pr
from lutnet import training as tr
from lutnet.errors import DimensionError, FoldError, SchemaError

from conftest import (area_sha, fold_initial_scale, netlist_pin, run_netlist_text, tiny_stages,
                      untiled_pool_net)


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


def _conv_stack(seed=51, binarise=True):
    """conv -> bn -> maxpool -> conv (unrolled) -> bn -> dense (unrolled) ->
    bn -> softmax on a 1x7x7 input, pruned and binarised unless binarise is
    False."""
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
    if binarise:
        pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.7, tol=0.3))
        pr.binarise_network(net)
    return net


def test_conv_stack_k1_expansion_equals_binary():
    net = _conv_stack()
    x = np.random.default_rng(52).standard_normal((200, 49))
    want = md.forward(net, x)
    ex.expand_network(net, k=1, seed=3)
    assert np.array_equal(md.forward(net, x), want)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _grads_sha(grads):
    h = hashlib.sha256()
    for name in sorted(grads):
        h.update(name.encode("ascii") + b"\0" + grads[name].tobytes())
    return h.hexdigest()


# sha256 of the conv stack's binarised `forward` logits, and of its
# (logits, gradients by sorted name) of one phase-1 forward_real_train +
# backward_real (before pruning) and one phase-2 forward_binary_train +
# backward_binary: both backwards route gradients through the maxpool.
# Recorded from the walk that pooled by 6-D reshapes
CONV_STACK_BINARISED_LOGITS = "8b62ec55b3df46750f66c9e78f83110f15dd6e6a0e227629f33b518ba147cd00"
CONV_STACK_PHASE_PINS = {
    1: ("f3d27c4e19a9b5fc6d7d90f83b66700c50134edb917ab6fbf520ba5376dc268d",
        "07deb81f9174b5436f38109a2ddb5a9a24a46b9d88b02ba8c0cd27647b277d65"),
    2: ("e95697ee8e432d88737fc78db761cf143cb40f599d17a76e8b54428d7da3604e",
        "33a75a9ad9b9b5717c05dc0a7d1c8c195662978eb53396ca54358bd5c8603a26"),
}


def test_conv_stack_binarised_logits_match_pin():
    x = np.random.default_rng(59).standard_normal((200, 49))
    assert _sha(md.forward(_conv_stack(), x)) == CONV_STACK_BINARISED_LOGITS


@pytest.mark.parametrize("phase", [1, 2])
def test_conv_stack_phase_step_matches_pin(phase):
    rng = np.random.default_rng(60 + phase)
    x = rng.standard_normal((96, 49))
    labels = rng.integers(0, 3, 96)
    net = _conv_stack(binarise=phase == 2)
    train, back = ((md.forward_real_train, md.backward_real) if phase == 1
                   else (md.forward_binary_train, md.backward_binary))
    logits, caches = train(net, x)
    grads = back(net, caches, nm.softmax_xent(logits, labels)[1])
    assert (_sha(logits), _grads_sha(grads)) == CONV_STACK_PHASE_PINS[phase]


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


# sha256 of (forward_lut_train logits, backward_lut gradients by sorted name,
# every LUT's gammas and coefficients after one run_phase3_retrain step) on
# the conv stack: its unrolled conv reads overlapping windows at 4
# positions, so each input feeds several nodes in several window rows.
# Recorded from the engine that gathered every node's inputs as
# (rows, N, K) floats; K >= 2 re-recorded when expansion drew one wiring
# plan per layer
CONV_STACK_PHASE3_PINS = {
    1: ("63ba59c41a308b7127a7b42b7737f481f5707865e23329ec6f10adf73fa7d2bc",
        "0660e4ab920ea4e6393df0871e44318e29597248048c31f0c08e7ded3b147f83",
        "196188d4bb5c29783cc13018806df4dd1b5dc4dc4d5e6673c00e8bc461168abe"),
    2: ("fac546fff77a315dd1e7d4ec9ed434740efbf664e08c9d406b6935e91e479b22",
        "63fe90958c249c5bafe208f63c7839c2010da197296bb869296a0ae434f439fb",
        "912cff1ec5d662a12c89fa09420e5ca35866d27c10d9d0d1e21df219df60c71c"),
    3: ("c2e19e322ceb1340bd226bd0655cf004c4fc4c0b36217d9a6a491c242581cf14",
        "8cc6340cba621cf40e7d42cfe922bc783d7e3e97627d7358543f49cf57828949",
        "be316126410a6d141adc5a6a3d308d1a98671db8de41bbcc97f559d9d4dba825"),
    4: ("6f191adae16b6ec7a2be5f9c7ce0d6c2d9486d04e88dab138d5a59026c6b87a5",
        "f6a1f13c721a7bd4154195f9d87b228d63d9d2d6fe5b0764dcd5efdf48c85a4a",
        "f6469503b5c2182b99a72454cb15efff9808f7b3b115aeef582c27c4001740b4"),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_phase3_matches_pin(k):
    rng = np.random.default_rng(70 + k)
    x = rng.choice([-1.0, 1.0], size=(96, 49))
    labels = rng.integers(0, 3, 96)
    net = _expanded_conv_stack(k, np.random.default_rng(54 + k))
    logits, caches = md.forward_lut_train(net, x)
    grads = md.backward_lut(net, caches, nm.softmax_xent(logits, labels)[1])
    net = _expanded_conv_stack(k, np.random.default_rng(54 + k))
    tr.run_phase3_retrain(net, (x, labels), tr.PhaseConfig(epochs3=1, batch_size=96))
    luts = [layer.lut for _i, layer in net.compute_layers() if layer.lut is not None]
    trained = _sha(*[a for lut in luts for a in (lut.gammas, lut.coeffs)])
    assert (_sha(logits), _grads_sha(grads), trained) == CONV_STACK_PHASE3_PINS[k]


# sha256 of the conv stack's inference on 700 rows, which cross an
# INFER_BATCH block: `forward` expanded, then `forward` and
# `forward_hardened_bits` hardened.  The inference batch norms read rows of
# several positions after binarisation.  Recorded from the walk that ran
# each batch norm as a layer of its own on channel-first tensors; K >= 2
# re-recorded when expansion drew one wiring plan per layer
CONV_STACK_INFER_PINS = {
    1: ("d757310ad07e524f06826bdb7a4c91724ae2ab9c5a93d8edc08b078db5945bff",
        "9bb57bd269a8b7a05ef04cf8a9b4fbef619553e780d153637e10536ae0c8b3fe",
        "784ec4ec927306fe575ec80d9d0e4d31c9a070977b3b13fde522069d72d20658"),
    2: ("8d92c35116e94fe96dfd0694cbf5d19b6f6bc5fdccb93d3336b5872598c9cb70",
        "d77a3d7e667573a2bc5d249b522b8fd47be6d66f1a1e688e08a46c250bbcc12c",
        "16267a09eb637f6bd519517ab629884b7294956ff39f84fad62a55663fd4f565"),
    3: ("ab8ff0330e3cc1630eda88ae8304509b98d206cf0f3ad46ab9b2987e5b391c77",
        "c0fa7f51b84e1f0e7d3cf4cbcac92b6181ccf1f5d63bb65715c62fd5d5523d3f",
        "4817820d527abd6890a3ce657ebfdddbbcc69dbdc892e05a54ada177add205fc"),
    4: ("b270c144c8d7ed958330c6105027f1dd7ccea07167e1dd606d6bc381510b7efa",
        "a3710f33dffbcf00f90feb5a7e1855e37e58db3f83ad682d6ace2c9cb8d89d67",
        "b0b054036fa9e3a77bb61d23033d927d58eaefd186072bdf312972aa0cb58ffa"),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_inference_matches_pin(k):
    x = np.random.default_rng(80 + k).standard_normal((700, 49))
    net = _expanded_conv_stack(k, np.random.default_rng(54 + k))
    expanded = _sha(md.forward(net, x))
    ex.harden_network(net, frac_bits=6)
    got = (expanded, _sha(md.forward(net, x)), _sha(md.forward_hardened_bits(net, x)))
    assert got == CONV_STACK_INFER_PINS[k]


# the conv stack's rows are samples x positions, so blocks of rows end
# mid-sample (see test_model.test_blocks_change_no_pin for the sizes)
@pytest.mark.parametrize("entries", [1, 7, 1000])
def test_conv_stack_blocks_change_no_pin(monkeypatch, entries):
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", entries)
    for k in CONV_STACK_PHASE3_PINS:
        test_conv_stack_phase3_matches_pin(k)
    for k in CONV_STACK_INFER_PINS:
        test_conv_stack_inference_matches_pin(k)


@pytest.mark.parametrize("infer", [md.forward, md.forward_hardened_bits])
@pytest.mark.parametrize("build", [lambda: dict(tiny_stages())["hardened"],
                                   lambda: _hardened_conv_stack(3, np.random.default_rng(57))],
                         ids=["tiny", "conv_stack"])
def test_inference_blocks_equal_one_call_per_row(build, infer):
    # INFER_BATCH + 1 rows make a full block and a block of one row
    net = build()
    x = np.random.default_rng(58).standard_normal((md.INFER_BATCH + 1, np.prod(net.input_shape)))
    assert np.array_equal(infer(net, x), np.concatenate([infer(net, row[None]) for row in x]))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_conv_stack_netlist_equals_hardened_bits(k):
    rng = np.random.default_rng(54 + k)
    net = _hardened_conv_stack(k, rng)
    x = rng.choice([-1.0, 1.0], size=(300, 49))
    want = hw.encode_pm1(md.forward_hardened_bits(net, x))
    got = hw.simulate(hw.lower(net), hw.encode_pm1(x))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_engine_verilog_runs_as_simulated(k):
    # the time-multiplexed conv is an engine of 36 positions
    nl = hw.lower(_hardened_conv_stack(k, np.random.default_rng(54 + k)))
    bits = np.random.default_rng(90 + k).integers(0, 2, (256, 49)).astype(np.uint8)
    assert np.array_equal(run_netlist_text(nl, hw.emit_verilog(nl), bits), hw.simulate(nl, bits))


# netlist_pin of the lowered conv stack: Verilog sha256 in both styles and the
# cell counts, recorded from the object-per-bit netlist that the per-layer
# arrays replaced; K = 3 and 4 re-recorded when expansion drew one wiring
# plan per layer, and all when the time-multiplexed conv became an engine
# block
CONV_STACK_PINS = {
    1: ("258bf9517294330d93cb3f1c56b00c49ed17bdac0d82d808c31047b987a9d309",
        "47bc26e5ccfbbab59ab13bb9b314e0fae987de711ffb29a1e4b38acc2d1bc564",
        {"lut": 365, "add": 300, "threshold": 127}),
    2: ("258bf9517294330d93cb3f1c56b00c49ed17bdac0d82d808c31047b987a9d309",
        "47bc26e5ccfbbab59ab13bb9b314e0fae987de711ffb29a1e4b38acc2d1bc564",
        {"lut": 365, "add": 300, "threshold": 127}),
    3: ("cde5edaff421223458424d9d58a064ad1fa5a72ba8a3e4c9631024cb0a5bcf7a",
        "e7b9cd65f9044c4fbc4a878b832d289e1bbbe28e231d24c4a96c054c42102150",
        {"lut": 365, "add": 300, "threshold": 127}),
    4: ("927b98081371ab17707a5006a4581eefb33f9e54e81eb80e5387eb71ef0d87fb",
        "0f980f071d358737e0c4b50b7cc4f3417d73dd708af493ac14fc6dcdd7ccd5f6",
        {"lut": 365, "add": 300, "threshold": 127}),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_netlist_matches_pin(k):
    net = _hardened_conv_stack(k, np.random.default_rng(54 + k))
    assert netlist_pin(hw.lower(net)) == CONV_STACK_PINS[k]


# sha256 of area_report(...).to_csv() of the conv stack (a time-multiplexed
# conv, a maxpool row, positions > 1), recorded from the area estimate that
# walked the network itself, before it priced lower's blocks; K = 3 and 4
# re-recorded when expansion drew one wiring plan per layer, and all when
# the time-multiplexed conv became an engine row of 0 LUTs
CONV_STACK_AREA = {
    1: "528cfc7dbef7ae74f47d942afa98882db4c677796e0dfef36504cb37024cd49f",
    2: "528cfc7dbef7ae74f47d942afa98882db4c677796e0dfef36504cb37024cd49f",
    3: "8ca040d7edfe9c2f61da04a3cee40be99b2b43893725f9c58456c42c49bdcd7f",
    4: "42e145c075326e0c273e5cbff340e47e187eddbf39f632d9b20b1b4d360ca4e3",
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_stack_area_matches_pin(k):
    net = _hardened_conv_stack(k, np.random.default_rng(54 + k))
    assert area_sha(net) == CONV_STACK_AREA[k]


def harden_from_expanded(net):
    """harden_network on a net set to the hardened stage, as if it were the
    expanded net it was set from."""
    net.stage = "expanded"
    return ex.harden_network(net, frac_bits=net.frac_bits)


@pytest.mark.parametrize("build", [md.forward_hardened_bits, hw.lower, hw.area_report,
                                   harden_from_expanded])
def test_untiled_pool_is_rejected(build):
    net = untiled_pool_net()
    args = (np.ones((1, 36)),) if build is md.forward_hardened_bits else ()
    with pytest.raises(DimensionError, match="pool size 4 does not tile 6x6"):
        build(net, *args)


def test_batchnorm_after_pool_is_not_hardened():
    # the hardware folds a batch norm into the threshold of the layer in
    # front of it; one after a maxpool would change `forward`, not the netlist
    layers = [md.ConvLayer(1, 3, 2, 1), md.BatchNormLayer(3), md.MaxPoolLayer(2),
              md.BatchNormLayer(3), md.ConvLayer(3, 4, 2, 1, unrolled=True),
              md.BatchNormLayer(4), md.DenseLayer(16, 3, unrolled=True),
              md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("poolbn", layers, 2, (1, 7, 7), 66))
    _randomize_bn(net, 67)
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=2, seed=68)
    raw = dict(ck.to_dict(ck.Checkpoint(net)), stage="hardened", frac_bits=6)
    with pytest.raises(FoldError, match="batch norm l3 follows no dense or conv layer"):
        ex.harden_network(net, frac_bits=6)
    with pytest.raises(SchemaError, match="cannot harden"):
        ck.from_dict(raw)


def _dense_pool_net():
    """dense(4->8) -> bn -> maxpool 2 -> dense(8->3) -> bn -> softmax,
    expanded at K=1 and set to the hardened stage at 6 fractional bits,
    which harden_network would refuse: the maxpool reads a flat vector."""
    layers = [md.DenseLayer(4, 8), md.BatchNormLayer(8), md.MaxPoolLayer(2),
              md.DenseLayer(8, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("densepool", layers, 2, (4,), 63))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=64)
    net.stage, net.frac_bits = "hardened", 6
    return net


@pytest.mark.parametrize("build", [md.forward_hardened_bits, hw.lower, hw.area_report,
                                   harden_from_expanded])
def test_pool_after_dense_is_rejected(build):
    net = _dense_pool_net()
    args = (np.ones((1, 4)),) if build is md.forward_hardened_bits else ()
    with pytest.raises(DimensionError, match=r"maxpool expects \(C, H, W\) inputs"):
        build(net, *args)
