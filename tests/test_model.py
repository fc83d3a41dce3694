import copy
import hashlib
import tracemalloc

import numpy as np
import pytest

from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import numerics as nm
from lutnet import prune as pr
from lutnet import training as tr
from lutnet.errors import (ConfigError, DimensionError, ExpansionError, FoldError, FormatError,
                           LoweringError, NonFiniteError, StageError, TrainingDivergedError)

from conftest import exhaustive_pm1, make_tiny_net, rel_err, tiny_stages


def _finite_differences(loss, param, h=1e-6):
    """Central differences of loss() in every entry of param, which is
    perturbed in place and restored."""
    fd = np.zeros_like(param)
    for i in np.ndindex(param.shape):
        orig = param[i]
        param[i] = orig + h
        up = loss()
        param[i] = orig - h
        down = loss()
        param[i] = orig
        fd[i] = (up - down) / (2 * h)
    return fd


def test_single_layer_scaled_identity():
    layer = md.DenseLayer(2, 2)
    layer.weights = 0.5 * np.eye(2)
    layer.prune_mask = np.ones((2, 2), dtype=bool)
    net = md.Network("one", [layer], 1, (2,), 0)
    x = np.array([[3.0, -4.0]])
    assert np.array_equal(md.forward(net, x), 0.5 * x)


def test_forward_real_matches_hand_oracle():
    # 2-2-2 stack checked against an explicit reimplementation
    layers = [md.DenseLayer(2, 2), md.BatchNormLayer(2),
              md.DenseLayer(2, 2), md.BatchNormLayer(2), md.SoftmaxLayer()]
    net = md.init_network(md.Network("oracle", layers, 1, (2,), 5))
    bn1, bn2 = net.layers[1], net.layers[3]
    rng = np.random.default_rng(9)
    bn1.running_mean = rng.standard_normal(2)
    bn1.running_var = rng.uniform(0.5, 2.0, 2)
    x = rng.standard_normal((4, 2))

    w1, w2 = net.layers[0].weights, net.layers[2].weights
    h = x @ w1.T
    h = bn1.gamma * (h - bn1.running_mean) / np.sqrt(bn1.running_var + bn1.eps) + bn1.beta
    h = np.where(h < 0, -1.0, 1.0)
    h = h @ w2.T
    want = bn2.gamma * (h - bn2.running_mean) / np.sqrt(bn2.running_var + bn2.eps) + bn2.beta
    assert np.array_equal(md.forward(net, x), want)


class TestBackwardReal:
    def test_conv_into_head_batchnorm(self):
        # a 2x2 conv on 1x3x3 writes 4 positions per channel into the head
        # batch norm, whose gradients sum over samples and positions
        layers = [md.ConvLayer(1, 2, 2, 1), md.BatchNormLayer(2)]
        net = md.init_network(md.Network("convhead", layers, 1, (1, 3, 3), 16))
        rng = np.random.default_rng(17)
        bn = net.layers[1]
        bn.gamma = rng.uniform(0.5, 1.5, 2)
        bn.beta = rng.standard_normal(2)
        x = rng.standard_normal((5, 9))
        proj = rng.standard_normal((5, 2, 2, 2))

        def loss():
            return float(np.sum(md.forward_real_train(net, x)[0] * proj))

        _out, caches = md.forward_real_train(net, x)
        grads = md.backward_real(net, caches, proj)
        for name, param in (("l0.weights", net.layers[0].weights),
                            ("l1.gamma", bn.gamma), ("l1.beta", bn.beta)):
            assert rel_err(grads[name], _finite_differences(loss, param)) < 1e-6, name

    def test_last_dense_layer_of_two(self):
        net = make_tiny_net(seed=18)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((12, 8))
        labels = rng.integers(0, 3, 12)

        def loss():
            return nm.softmax_xent(md.forward_real_train(net, x)[0], labels)[0]

        logits, caches = md.forward_real_train(net, x)
        grads = md.backward_real(net, caches, nm.softmax_xent(logits, labels)[1])
        fd = _finite_differences(loss, net.layers[2].weights)
        assert rel_err(grads["l2.weights"], fd) < 1e-6


def _layer0_net(kind):
    """A net whose layer 0 is of kind, at the stage that trains that layer."""
    if kind == "maxpool":
        layers = [md.MaxPoolLayer(2), md.DenseLayer(4, 3), md.BatchNormLayer(3), md.SoftmaxLayer()]
        return md.init_network(md.Network("pool0", layers, 2, (1, 4, 4), 23))
    net = make_tiny_net(seed=23)
    if kind == "real":
        return net
    net.layers[0].unrolled = kind == "lut"
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
    pr.binarise_network(net)
    return ex.expand_network(net, k=2, seed=24) if kind == "lut" else net


@pytest.mark.parametrize("kind", ["real", "maxpool", "binary", "lut"])
def test_layer_0_forms_no_input_gradient(kind):
    net = _layer0_net(kind)
    train = {"real": md.forward_real_train, "binarised": md.forward_binary_train,
             "expanded": md.forward_lut_train}[net.stage]
    x = np.random.default_rng(25).standard_normal((6, 8 if kind != "maxpool" else 16))
    for step, inner, _bn, _pre in train(net, x)[1]:
        bwd = md._pool_layer_bwd if step.layer.kind == "maxpool" else md._ENGINES[net.stage][1]
        drows = np.ones((x.shape[0] * step.win.positions, step.win.out_shape[0]))
        assert (bwd(net, step.idx, inner, drows, {}) is None) == (step.idx == 0), step.idx


@pytest.mark.parametrize("layers, message", [
    ([md.BatchNormLayer(2), md.DenseLayer(2, 2), md.BatchNormLayer(2), md.SoftmaxLayer()],
     "batch norm l0 does not follow a dense, conv or maxpool"),
    ([md.DenseLayer(2, 2), md.BatchNormLayer(2), md.BatchNormLayer(2), md.SoftmaxLayer()],
     "batch norm l2 does not follow a dense, conv or maxpool"),
    ([md.DenseLayer(2, 3), md.BatchNormLayer(2), md.SoftmaxLayer()],
     "batch norm l1 has 2 features, l0 has 3 channels"),
], ids=["first", "after_batchnorm", "narrower_than_its_layer"])
@pytest.mark.parametrize("walk", [md.forward, md.forward_real_train])
def test_batchnorm_not_after_windowed_layer_is_rejected(layers, message, walk):
    # the walk runs a batch norm in the step of the layer in front of it, on
    # that layer's channels
    net = md.init_network(md.Network("straybn", layers, 1, (2,), 3))
    with pytest.raises(DimensionError, match=message):
        walk(net, np.ones((4, 2)))


@pytest.mark.parametrize("call", [lambda net, x, y: tr.evaluate(net, x, y),
                                  lambda net, x, y: tr.run_phase1(net, (x, y), tr.PhaseConfig())],
                         ids=["evaluate", "run_phase1"])
def test_head_of_more_than_one_position_is_rejected(call):
    # a 2x2 conv on 1x3x3 writes 4 positions of its 3 channels into the head
    layers = [md.ConvLayer(1, 3, 2, 1), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("convhead", layers, 1, (1, 3, 3), 16))
    with pytest.raises(DimensionError, match="head of convhead writes 4 positions"):
        call(net, np.ones((8, 9)), np.zeros(8, dtype=np.int64))


@pytest.mark.parametrize("call", [lambda net, x, y: tr.evaluate(net, x, y),
                                  lambda net, x, y: tr.run_phase1(net, (x, y),
                                                                  tr.PhaseConfig(epochs1=1))],
                         ids=["evaluate", "run_phase1"])
@pytest.mark.parametrize("n_x, n_y", [(0, 0), (5, 4), (4, 5)])
def test_data_without_one_label_per_sample_is_rejected(call, n_x, n_y):
    net = make_tiny_net()
    with pytest.raises(FormatError, match=f"got {n_x} samples and {n_y} labels"):
        call(net, np.ones((n_x, 8)), np.zeros(n_y, dtype=np.int64))


@pytest.mark.parametrize("call", [lambda net, x, y: tr.evaluate(net, x, y),
                                  lambda net, x, y: tr.run_phase1(net, (x, y),
                                                                  tr.PhaseConfig(epochs1=1))],
                         ids=["evaluate", "run_phase1"])
@pytest.mark.parametrize("relabel", [lambda y: y[:, None], lambda y: y + 0.25],
                         ids=["column", "fractional"])
def test_labels_that_are_not_one_integer_per_sample_are_rejected(call, relabel):
    # labelled with the net's own predictions, a column of labels scored 648 %
    # by broadcasting and fractional ones trained as their truncation
    net = make_tiny_net()
    x = np.random.default_rng(15).standard_normal((50, 8))
    y = np.argmax(md.forward(net, x), axis=1)
    assert tr.evaluate(net, x, y) == 100.0
    with pytest.raises(FormatError, match="labels must be a 1-D array of integers"):
        call(net, x, relabel(y))


def test_batch_permutation_equivariance():
    net = make_tiny_net()
    rng = np.random.default_rng(10)
    x = rng.standard_normal((16, 8))
    perm = rng.permutation(16)
    assert np.array_equal(md.forward(net, x)[perm], md.forward(net, x[perm]))


def test_stage_validation():
    # each training forward and phase refuses a net at any stage it does not train
    x, y = np.ones((2, 8)), np.zeros(2, dtype=np.int64)
    cfg = tr.PhaseConfig(epochs1=1, epochs2=1, epochs3=1)
    for stage, net in tiny_stages():
        for allowed, call in (
                (("real", "pruned"), lambda: md.forward_real_train(net, x)),
                (("binarised",), lambda: md.forward_binary_train(net, x)),
                (("expanded",), lambda: md.forward_lut_train(net, x)),
                (("real",), lambda: tr.run_phase1(net, (x, y), cfg)),
                (("binarised",), lambda: tr.run_phase2_retrain(net, (x, y), cfg)),
                (("expanded",), lambda: tr.run_phase3_retrain(net, (x, y), cfg))):
            if stage not in allowed:
                with pytest.raises(StageError):
                    call()
    net.stage = "quantised"
    with pytest.raises(StageError):
        md.forward(net, x)


class TestForwardBinary:
    def test_xnor_cancellation(self):
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[1.0, -1.0]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        net = md.Network("b1", [layer], 1, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        assert md.forward(net, np.array([[1.0, 1.0]])).tolist() == [[0.0]]

    def test_b2_reconstruction_reproduces_real_dot(self):
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[0.7, -0.3]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        net = md.Network("b2", [layer], 2, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        gammas = [g for _w, g in md.levels(net.layers[0], 2)]
        assert abs(gammas[0] - 0.5) < 1e-15
        assert abs(gammas[1] - 0.2) < 1e-15
        for xt in exhaustive_pm1(2):
            got = md.forward(net, xt[None, :])[0, 0]
            want = 0.7 * xt[0] - 0.3 * xt[1]
            assert abs(got - want) < 1e-15

    def test_equals_real_when_weights_already_binary(self):
        # fixed point of binarisation: w in {-g, +g}, B=1
        layer = md.DenseLayer(3, 2, unrolled=True)
        g = 0.25
        layer.weights = g * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
        layer.prune_mask = np.ones((2, 3), dtype=bool)
        net = md.Network("fp", [layer], 1, (3,), 0, stage="pruned")
        real = copy.deepcopy(net)
        real.stage = "real"
        pr.binarise_network(net)
        x = exhaustive_pm1(3)
        assert np.array_equal(md.forward(net, x), md.forward(real, x))


def test_pruned_positions_never_influence_outputs():
    net = make_tiny_net()
    theta = pr.solve_theta_for_density(net, 0.5, tol=0.3)
    pr.prune_threshold(net, theta)
    pr.binarise_network(net)
    x = exhaustive_pm1(8)
    base = md.forward(net, x)
    tampered = copy.deepcopy(net)
    layer = tampered.layers[2]
    # perturb a pruned weight's stored value, then re-zero via the mask
    pruned_at = np.argwhere(~layer.prune_mask)
    assert pruned_at.size, "test needs at least one pruned weight"
    layer.weights[tuple(pruned_at[0])] = 99.0
    layer.weights *= layer.prune_mask
    assert np.array_equal(md.forward(tampered, x), base)


class TestIm2col:
    """The window rows of a conv layer (im2col) and their adjoint (col2im),
    through model.windows."""

    def test_window_counting(self):
        win = md.windows(md.ConvLayer(1, 1, 2, 1), (1, 3, 3))
        rows = win.rows(np.arange(9.0).reshape(1, 1, 3, 3))
        assert win.positions == 4 and rows.shape == (4, 4)
        assert rows[0].tolist() == [0.0, 1.0, 3.0, 4.0]
        assert rows[3].tolist() == [4.0, 5.0, 7.0, 8.0]

    def test_1x1_kernel_is_reshuffle(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
        rows = md.windows(md.ConvLayer(3, 1, 1, 1), x.shape[1:]).rows(x)
        assert rows.shape == (8, 3)
        assert np.array_equal(rows, np.moveaxis(x, 1, -1).reshape(8, 3))

    def test_conv_equals_direct_convolution(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 1, 4, 4))
        w = rng.standard_normal((3, 1 * 2 * 2))
        rows = md.windows(md.ConvLayer(1, 3, 2, 1), (1, 4, 4)).rows(x)
        got = np.einsum("rw,ow->ro", rows, w).reshape(2, 9, 3)
        direct = np.zeros((2, 9, 3))
        for b in range(2):
            p = 0
            for i in range(3):
                for j in range(3):
                    patch = x[b, :, i:i + 2, j:j + 2].reshape(-1)
                    for o in range(3):
                        direct[b, p, o] = float(patch @ w[o])
                    p += 1
        assert np.allclose(got, direct, atol=1e-12)

    def test_geometry_error(self):
        with pytest.raises(DimensionError):
            md.windows(md.ConvLayer(1, 1, 2, 2), (1, 3, 3))

    def test_col2im_adjoint(self):
        # <rows(x), c> == <x, rows_backward(c)> for random c: exact adjoint pairing
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 2, 4, 4))
        win = md.windows(md.ConvLayer(2, 1, 2, 2), (2, 4, 4))
        rows = win.rows(x)
        c = rng.standard_normal(rows.shape)
        lhs = float(np.sum(rows * c))
        rhs = float(np.sum(x * win.rows_backward(c)))
        assert abs(lhs - rhs) < 1e-9

    def test_rows_backward_is_an_ascending_position_scatter(self):
        # overlapping stride-1 windows: each input adds its window gradients
        # in ascending position, bit for bit
        rng = np.random.default_rng(13)
        c, k, h = 2, 3, 6
        win = md.windows(md.ConvLayer(c, 1, k, 1), (c, h, h))
        drows = rng.standard_normal((3 * win.positions, c * k * k))
        want = np.zeros((3, c, h, h))
        o = h - k + 1
        for b in range(3):
            for p in range(win.positions):
                i, j = divmod(p, o)
                want[b, :, i:i + k, j:j + k] += drows[b * win.positions + p].reshape(c, k, k)
        assert np.array_equal(win.rows_backward(drows), want)


class TestFoldBatchnorm:
    def test_identity_fold(self):
        bn = md.BatchNormLayer(1)
        bn.gamma, bn.beta = np.array([1.0]), np.array([0.0])
        bn.running_mean, bn.running_var = np.array([0.0]), np.array([1.0])
        tau, flip = md.fold_batchnorm(bn)
        assert tau[0] == 0.0 and not flip[0]

    def test_algebraic_example(self):
        # mu=2, sigma=2, gamma=2, beta=1 -> tau=1, flip=false; check at s in {0,1,2}
        bn = md.BatchNormLayer(1)
        bn.eps = 1e-12
        bn.gamma, bn.beta = np.array([2.0]), np.array([1.0])
        bn.running_mean, bn.running_var = np.array([2.0]), np.array([4.0 - bn.eps])
        tau, flip = md.fold_batchnorm(bn)
        assert abs(tau[0] - 1.0) < 1e-9 and not flip[0]
        for s in (0.0, 1.0, 2.0):
            bn_out = bn.gamma[0] * (s - 2.0) / 2.0 + bn.beta[0]
            folded = (s - tau[0]) if not flip[0] else (tau[0] - s)
            assert np.sign(bn_out) == np.sign(folded) or bn_out == 0.0

    def test_negative_gamma_flips(self):
        rng = np.random.default_rng(13)
        bn = md.BatchNormLayer(1)
        bn.gamma, bn.beta = np.array([-1.3]), np.array([0.4])
        bn.running_mean, bn.running_var = np.array([0.7]), np.array([1.9])
        tau, flip = md.fold_batchnorm(bn)
        assert flip[0]
        sigma = np.sqrt(bn.running_var[0] + bn.eps)
        for s in rng.standard_normal(1000) * 3:
            real = nm.sign_pm1(bn.gamma[0] * (s - bn.running_mean[0]) / sigma
                               + bn.beta[0])
            folded = 1.0 if tau[0] - s >= 0 else -1.0
            assert real == folded

    def test_zero_gamma_reports_index(self):
        bn = md.BatchNormLayer(3)
        bn.gamma = np.array([1.0, 0.0, 1.0])
        bn.beta = np.zeros(3)
        bn.running_mean, bn.running_var = np.zeros(3), np.ones(3)
        with pytest.raises(FoldError, match="1"):
            md.fold_batchnorm(bn)

    def test_non_finite_threshold_reports_index(self):
        bn = md.BatchNormLayer(3)
        bn.gamma = np.array([1.0, 1.0, 1e-320])   # beta * sigma / gamma overflows
        bn.beta = np.full(3, 0.5)
        bn.running_mean, bn.running_var = np.zeros(3), np.ones(3)
        with pytest.raises(FoldError, match=r"\[2\]"):
            md.fold_batchnorm(bn)


class TestQuantise:
    def test_largest_value_that_fits(self):
        top = 2.0 ** 61 - 256   # the largest float64 below 2**61
        assert md.quantise(top / 256, 8) == int(top)
        assert md.quantise(-top / 256, 8) == -int(top)

    @pytest.mark.parametrize("value", [2.0 ** 53, -2.0 ** 53, 2.5e299, np.inf, np.nan])
    def test_value_outside_the_accumulator_is_a_lowering_error(self, value):
        with pytest.raises(LoweringError, match="does not fit"):
            md.quantise(value, 8)


def test_threshold_outside_the_accumulator_is_a_lowering_error():
    net = dict(tiny_stages())["expanded"]
    net.layers[1].gamma[0] = 1e-300   # tau about 1e299
    ex.harden_network(net)
    with pytest.raises(LoweringError, match="does not fit"):
        md.forward_hardened_bits(net, exhaustive_pm1(8))
    with pytest.raises(LoweringError, match="does not fit"):
        hw.lower(net)


@pytest.mark.parametrize("exponent, bits", [(51, 63), (53, 65)])
def test_accumulator_past_the_cap_is_a_lowering_error(exponent, bits):
    # at 2**53 the int64 bound of the l0 accumulator used to wrap
    net = dict(tiny_stages())["expanded"]
    net.layers[0].weights *= 2.0 ** exponent
    ex.harden_network(net)
    message = f"l0_c0: accumulator needs {bits} bits"
    with pytest.raises(LoweringError, match=message):
        md.forward_hardened_bits(net, exhaustive_pm1(8))
    with pytest.raises(LoweringError, match=message):
        hw.lower(net)


@pytest.mark.parametrize("frac_bits", [-1, 25, 80])
def test_harden_rejects_frac_bits_outside_the_config_range(frac_bits):
    net = dict(tiny_stages())["expanded"]
    with pytest.raises(ConfigError, match=r"frac_bits must be in \[0, 24\]"):
        ex.harden_network(net, frac_bits=frac_bits)
    assert net.stage == "expanded"


@pytest.mark.parametrize("frac_bits", [8.5, 8.0, True, np.True_, "8"],
                         ids=["8.5", "8.0", "True", "np.True_", "str"])
def test_harden_rejects_frac_bits_that_are_no_integer(frac_bits):
    # a hardened net stores frac_bits, which the loader reads as a JSON integer
    net = dict(tiny_stages())["expanded"]
    with pytest.raises(ConfigError, match="frac_bits must be an integer"):
        ex.harden_network(net, frac_bits=frac_bits)
    assert net.stage == "expanded"


@pytest.mark.parametrize("k", [0, 7])
def test_expand_rejects_k_outside_the_fabric_lut(k):
    net = make_tiny_net(hidden=8)   # l2 reads a window of 8, wide enough for K = 7
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    with pytest.raises(ExpansionError, match=rf"K must be in \[1, 6\], got {k}"):
        ex.expand_network(net, k=k, seed=1)
    assert net.stage == "binarised" and net.layers[2].lut is None


class TestWiring:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_drawn_inputs_are_distinct_window_inputs_past_column_0(self, k):
        positions = np.random.default_rng(30).integers(0, 9, 2000)
        idx = ex.select_inputs(9, positions, k, np.random.default_rng(31))
        assert idx.shape == (2000, k) and np.array_equal(idx[:, 0], positions)
        assert idx.min() >= 0 and idx.max() < 9
        assert all(len(set(row)) == k for row in idx.tolist())

    @pytest.mark.parametrize("k", range(2, 7))
    def test_a_window_of_k_inputs_is_taken_whole(self, k):
        positions = np.arange(k).repeat(50)
        idx = ex.select_inputs(k, positions, k, np.random.default_rng(32))
        assert np.array_equal(np.sort(idx, axis=1), np.broadcast_to(np.arange(k), idx.shape))

    def test_k1_draws_nothing(self):
        rng = np.random.default_rng(33)
        before = rng.bit_generator.state
        positions = np.array([3, 0, 7, 7])
        idx = ex.select_inputs(8, positions, 1, rng)
        assert np.array_equal(idx, positions[:, None]) and rng.bit_generator.state == before

    def test_the_same_seed_gives_the_same_wiring(self):
        positions = np.random.default_rng(34).integers(0, 12, 300)
        a, b = (ex.select_inputs(12, positions, 4, np.random.default_rng(35)) for _ in range(2))
        assert np.array_equal(a, b)
        nets = [make_tiny_net(hidden=8) for _ in range(2)]
        for net in nets:
            pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
            pr.binarise_network(net)
            ex.expand_network(net, k=4, seed=36)
        assert np.array_equal(nets[0].layers[2].lut.indices, nets[1].layers[2].lut.indices)

    def test_ordered_pairs_are_drawn_uniformly(self):
        # window 6, K 3, preserved input 2: 20 ordered pairs of the other 5
        idx = ex.select_inputs(6, np.full(200_000, 2), 3, np.random.default_rng(37))
        pairs, counts = np.unique(idx[:, 1] * 6 + idx[:, 2], return_counts=True)
        want = [a * 6 + b for a in (0, 1, 3, 4, 5) for b in (0, 1, 3, 4, 5) if a != b]
        assert pairs.tolist() == want
        assert np.all(np.abs(counts - counts.mean()) <= 0.1 * counts.mean())

    @pytest.mark.parametrize("k", range(1, 7))
    def test_coefficients_equal_the_per_node_formula(self, k):
        net = make_tiny_net(hidden=8)
        pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
        pr.binarise_network(net)
        layer = net.layers[2]
        original = layer.phase1_weights.copy()
        lv = md.levels(layer, net.b_levels)
        sum_gamma = sum(g for _w, g in lv)
        ex.expand_network(net, k=k, seed=38)
        lut = layer.lut
        reconnected = 0
        for c, (a, e) in enumerate(lut.spans()):
            for n in range(a, e):
                wires = lut.indices[n]
                for b, (w_b, _g) in enumerate(lv):
                    w = np.zeros(k)
                    w[0] = w_b[c, wires[0]]
                    for j in range(1, k):
                        if not layer.prune_mask[c, wires[j]]:
                            w[j] = original[c, wires[j]] / sum_gamma
                            reconnected += 1
                    # two rows: BLAS may hand a one-row product to a
                    # matrix-vector kernel, which adds in another order
                    got = ex.linear_coeffs(np.stack([w, w]))[0]
                    assert np.array_equal(lut.coeffs[b, n], got), (c, n, b)
        assert (reconnected > 0) == (k > 1)


class TestLutForms:
    def _expanded(self, k=2, seed=21):
        net = make_tiny_net(seed=seed)
        pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
        pr.binarise_network(net)
        ex.expand_network(net, k=k, seed=seed)
        return net

    def test_k1_expansion_reproduces_binary_exhaustively(self):
        net = make_tiny_net(seed=22)
        pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
        pr.binarise_network(net)
        binary = copy.deepcopy(net)
        ex.expand_network(net, k=1, seed=3)
        x = exhaustive_pm1(8)
        want = md.forward(binary, x)
        assert np.array_equal(md.forward(net, x), want)
        ex.harden_network(net)
        assert np.array_equal(md.forward(net, x), want)

    def test_single_node_k2_xnor(self):
        # all-0.25 coefficients make the smooth node x1*x2
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[0.9, 0.1]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        net = md.Network("xn", [layer], 1, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        ex.expand_network(net, k=2, seed=5)
        lut = net.layers[0].lut
        assert lut.offsets.tolist() == [0, 2]
        assert lut.indices[:, 0].tolist() == [0, 1]
        lut.coeffs[0] = 0.25
        lut.gammas = np.array([1.0])
        for xt in exhaustive_pm1(2):
            got = md.forward(net, xt[None, :])[0, 0]
            want = (xt[lut.indices[0, 0]] * xt[lut.indices[0, 1]]
                    + xt[lut.indices[1, 0]] * xt[lut.indices[1, 1]])
            assert abs(got - want) < 1e-12

    def test_hardened_equals_interpolated_at_vertices(self):
        # exhaustive over 2**K vertices per node, random coefficients
        rng = np.random.default_rng(14)
        for k in range(1, 9):
            coeffs = rng.standard_normal((2, 3, 1 << k))
            verts = ex.vertices(k)
            # g(v) = sum over d of c_d * prod_k (v_k - d_k), term by term
            terms = np.prod(verts[:, None, :] - verts[None, :, :], axis=-1)   # (v, d)
            vals = np.einsum("bnd,vd->bnv", coeffs, terms)
            assert np.array_equal(ex.harden_masks(coeffs), nm.sign_pm1(vals).astype(np.int8))

    def test_one_coefficient_gradient_per_expanded_layer(self):
        net = self._expanded(k=3)
        lut = net.layers[2].lut
        x = exhaustive_pm1(8)
        labels = np.arange(256) % 3

        def loss():
            logits, caches = md.forward_lut_train(net, x)
            return nm.softmax_xent(logits, labels)[0], caches, logits

        _l, caches, logits = loss()
        grads = md.backward_lut(net, caches, nm.softmax_xent(logits, labels)[1])
        assert sorted(k for k in grads if ".lut." in k) == ["l2.lut.coeffs", "l2.lut.gammas"]
        assert grads["l2.lut.coeffs"].shape == lut.coeffs.shape
        h = 1e-6
        for b, n, v in [(0, 0, 0), (1, lut.offsets[1], 5), (0, lut.offsets[-1] - 1, 7)]:
            lut.coeffs[b, n, v] += h
            up = loss()[0]
            lut.coeffs[b, n, v] -= 2 * h
            down = loss()[0]
            lut.coeffs[b, n, v] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - grads["l2.lut.coeffs"][b, n, v]) <= 1e-6 * max(1.0, abs(fd))

    def test_plane_gamma_gradient(self):
        net = self._expanded(k=3)
        x = exhaustive_pm1(8)
        labels = np.arange(256) % 3

        def loss():
            return nm.softmax_xent(md.forward_lut_train(net, x)[0], labels)[0]

        logits, caches = md.forward_lut_train(net, x)
        grads = md.backward_lut(net, caches, nm.softmax_xent(logits, labels)[1])
        fd = _finite_differences(loss, net.layers[2].lut.gammas)
        assert rel_err(grads["l2.lut.gammas"], fd) < 1e-6

    def test_hardened_bits_requires_hardened_stage(self):
        net = self._expanded()
        logits = md.forward(net, exhaustive_pm1(8))   # expanded: real logits
        assert logits.shape == (256, 3) and logits.dtype == np.float64
        with pytest.raises(StageError):
            md.forward_hardened_bits(net, exhaustive_pm1(8))


@pytest.mark.parametrize("x, error", [(np.full((2, 8), np.nan), NonFiniteError),
                                      (np.ones((2, 9)), DimensionError)], ids=["nan", "width"])
def test_hardened_bits_checks_its_input(x, error):
    with pytest.raises(error):
        md.forward_hardened_bits(dict(tiny_stages())["hardened"], x)


def _phase3_net(k):
    """An expanded net for the phase-3 pins: make_tiny_net(hidden=8) with its
    8 -> 3 head expanded at K = k, channel 1 fully pruned, coefficients
    perturbed; or, for k None, the expanded net of tiny_stages() (K=3)."""
    if k is None:
        return copy.deepcopy(dict(tiny_stages())["expanded"])
    net = make_tiny_net(hidden=8)
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
    net.layers[2].prune_mask[1] = False
    pr.binarise_network(net)
    ex.expand_network(net, k=k, seed=11)
    lut = net.layers[2].lut
    lut.coeffs += np.random.default_rng(12).normal(0.0, 0.3, lut.coeffs.shape)
    return net


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of (forward_lut_train logits, backward_lut gradients by sorted name,
# LUT gammas and coefficients after one run_phase3_retrain step) on all 256
# inputs, recorded from the per-channel einsum engine; K >= 2 and
# tiny_stages() re-recorded when expansion drew one wiring plan per layer
PHASE3_PINS = {
    1: ("427fbfaf1328d8d603aadebe548233d7b256c1ff4186b92a387a82ae8c8f1aa9",
        "671adc36a9d1da53ebcac10d81dcbdf9e57a00896c9dab5412c75d09b99765d7",
        "3679d8eefdc8a6e2c7e085519200fd1598e87a2f0bd49499694cb0985880c894"),
    2: ("78a6b08868a2e9d3414930cc551ba2f2daa5013e14b27313849bb6aa28d76016",
        "01d3db743c7a53e8707c05c4ff9bbc5836c74c8ae1be5fc239ed67c3281f4c28",
        "55682a50d0ee84562c488f48f188d7a2c29ae281c4cf360276c93906db2a4b8b"),
    3: ("e42c7aae8a2d92b1e93dc4f8f71cb9ae4dea0f2a93b3b28960a65bc18b506140",
        "8a6da75eb20f4e88a1241974f034165a7a8f69e180091345af287c65a4b92e4d",
        "5b78e6cc13b2ee30352219e56052fc744bd11844455e68b9aa727357bec157c7"),
    4: ("8f145f1a891f57feb544771b432cf24e3dfc8ecff147809ec8baadaea28a91a2",
        "cba20d64a4a29c096b5344a6f08d66c5cbee48852c8d3ca378594a69c0c2d2f6",
        "3c99e0057b3bfc2edc9c4a22d7a5cf8f5e88a67a2e72575c103f5ca8d8992713"),
    5: ("fb868829c4e3935b8cd0aa0bf81aa382d99d478bf1e68eb944c1cd0c18476cfe",
        "e935cc87be8b6b114b4cf9d46998997605486f8315fd8f48219f31b9ca0a8b83",
        "aba35d646949ad02d21c184529c3fe6d3a5ffd5dca71511e92608d4469ee611b"),
    6: ("87f15df63b5cad3d09331f286ccb373335d00d053567ad745ad2a1b278e1d3d2",
        "010236c281f8657c760da5e96fdfd8caa8fa0e9163da3586d525ca672178d82e",
        "df0bb3a8eb2c0c562887a739768b11ce1c24cad81f9568f5e655df53969efc4d"),
    None: ("ce397cf4bc7a53d0ba08d02c97b7e95dce6c2edba9e98639bc09c5a68a6c2af7",
           "a8919a6292bc881af61eee0ad55b43b48395bc7ec3efedfb2e7f9cbbea79f351",
           "c76a27b7fefdb577a0a34f0b87a448bad7c02d1a6be63713722d64547d869abc"),
}


@pytest.mark.parametrize("k", list(PHASE3_PINS), ids=lambda k: f"K{k}" if k else "tiny_stages")
def test_phase3_matches_pin(k):
    x = exhaustive_pm1(8)
    labels = np.arange(256) % 3
    net = _phase3_net(k)
    logits, caches = md.forward_lut_train(net, x)
    grads = md.backward_lut(net, caches, nm.softmax_xent(logits, labels)[1])
    h = hashlib.sha256()
    for name in sorted(grads):
        h.update(name.encode("ascii") + b"\0" + grads[name].tobytes())
    net = _phase3_net(k)
    tr.run_phase3_retrain(net, (x, labels), tr.PhaseConfig(epochs3=1, batch_size=256))
    lut = net.layers[2].lut
    assert (_sha(logits), h.hexdigest(), _sha(lut.gammas, lut.coeffs)) == PHASE3_PINS[k]


def _net_sha(net):
    """sha256 of every compute layer's weights and every batch norm's gamma,
    beta, running mean and running variance, in layer order."""
    arrays = []
    for layer in net.layers:
        if layer.kind in ("dense", "conv"):
            arrays.append(layer.weights)
        elif layer.kind == "batchnorm":
            arrays += [layer.gamma, layer.beta, layer.running_mean, layer.running_var]
    return _sha(*arrays)


def _trained_phases():
    """(phase, TrainLog, net) after one epoch of each phase on make_tiny_net():
    run_phase1, then run_phase2_retrain on the net pruned to 0.6 density and
    binarised, then run_phase3_retrain on it expanded at K=2.  40 samples in
    batches of 16 leave a short last batch."""
    rng = np.random.default_rng(15)
    data = (rng.standard_normal((40, 8)), rng.integers(0, 3, 40))
    cfg = tr.PhaseConfig(epochs1=1, epochs2=1, epochs3=1, batch_size=16, lam=1e-3, seed=4)
    net = make_tiny_net()
    yield 1, tr.run_phase1(net, data, cfg), net
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.6, tol=0.3))
    pr.binarise_network(net)
    yield 2, tr.run_phase2_retrain(net, data, cfg), net
    ex.expand_network(net, k=2, seed=11)
    yield 3, tr.run_phase3_retrain(net, data, cfg), net


# sha256 of (TrainLog.to_csv(), _net_sha, the plane scales of every compute
# layer and the LUT coefficients) after each phase of _trained_phases(),
# recorded from one step closure per phase; phase 3 re-recorded when
# expansion drew one wiring plan per layer
TRAINING_PINS = {
    1: ("31d18cc15b3429b3652a40acd2cd7bb5ae766f633607fda9b0008fdf5ee628d7",
        "2918fe38ed3454cf379e389b29d7c81c177e2bdf7c15c8cc05a3656f9bce1279", None),
    2: ("ea5c841d1bcb2465f4b885a27338bb497e92b10c93df5802c0b8b51f9d41cedf",
        "c2a6478973a07191a9d12b64192e7eeb8dbf413204443d54ea336c8e2a78fb64",
        "11760614f97df64e6370b8c0e8f5bcc32541f82e8f402c0d4ee608e84e2b8506"),
    3: ("a1da7c0de22c4351966dca8511618465ca4c67d18229878b0d8bb12231261997",
        "63645856d1661b9afab4f76200a9b72df3b86107ae416384b8650f4e23d2a4b1",
        "0925ea07347b3170ac4c453b31f39bfe9b99d5a52a1c02b00990482071aef04a"),
}


def test_training_phases_match_pins():
    for phase, log, net in _trained_phases():
        scales = None
        if phase > 1:
            layers = [layer for _i, layer in net.compute_layers()]
            scales = _sha(*[np.array([g for _w, g in md.levels(layer, net.b_levels)])
                            if layer.lut is None else layer.lut.gammas for layer in layers],
                          *[layer.lut.coeffs for layer in layers if layer.lut is not None])
        got = (hashlib.sha256(log.to_csv().encode("ascii")).hexdigest(), _net_sha(net), scales)
        assert got == TRAINING_PINS[phase], phase


# sha256 of the inference logits of each tiny_stages() network on all 256
# inputs, recorded from the per-stage inference forwards; expanded and
# hardened re-recorded when expansion drew one wiring plan per layer
STAGE_LOGIT_PINS = {
    "real": "76457f060b262db6502f441874ade0f8bce96b6f6ad062c3fcf32254e96419c4",
    "pruned": "1dd75c89cdd7ab9d2484100629e6b8f92b112a4fca44bc040083b783bfcf2134",
    "binarised": "1784f58e2897712c761e1f4e7a95f8f72e3f4ec90022809387bee1cc02fe0034",
    "expanded": "9b96a63276c082b2ac24e0b62a3fa348086a056319c7d65de31bf9692f30a4e8",
    "hardened": "8ddc4b0286ac0c453b7affa4bd8e71f2655cf2a2a514dc868fcaa854ef99dbd6",
}


@pytest.mark.parametrize("stage", md.STAGES)
def test_stage_logits_match_pin(stage):
    net = dict(tiny_stages())[stage]
    assert _sha(md.forward(net, exhaustive_pm1(8))) == STAGE_LOGIT_PINS[stage]


# 1 entry makes every block one row or node and every Adam block one entry;
# 7 leaves layers of up to 7 nodes blocks of several rows; 1000 makes blocks
# of several rows and nodes whose last block is short
@pytest.mark.parametrize("entries", [1, 7, 1000])
def test_blocks_change_no_pin(monkeypatch, entries):
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", entries)
    for k in PHASE3_PINS:
        test_phase3_matches_pin(k)
    test_training_phases_match_pins()
    for stage in md.STAGES:
        test_stage_logits_match_pin(stage)


@pytest.fixture(scope="module")
def _lfc_k4_built():
    net = md.build_preset("lfc", 31, 2)
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.1, tol=0.02))
    pr.binarise_network(net)
    ex.expand_network(net, 4, seed=31)
    return net


@pytest.fixture
def lfc_k4(_lfc_k4_built):
    """lfc pruned to density 0.1, binarised and expanded at K=4, built once
    per module and copied per test."""
    return copy.deepcopy(_lfc_k4_built)


def test_an_expanded_layer_runs_in_bounded_memory(lfc_k4):
    # an lfc hidden layer at K=4 and density 0.1 (about 6,400 nodes) on one
    # INFER_BATCH of rows: numpy reports its buffers to tracemalloc, and no
    # pass may form a (rows, nodes) array of 8-byte entries, 25 MB here
    net = lfc_k4
    rows = np.random.default_rng(3).choice([-1.0, 1.0], size=(md.INFER_BATCH, 256))
    tracemalloc.start()
    try:
        y, cache = md._lut_layer(net, 2, rows)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        md._lut_layer_bwd(net, 2, cache, np.ones_like(y), {})
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.layers[2].lut.indices.shape[0] > 6000
    assert forward_peak < 16e6 and backward_peak < 32e6, (forward_peak, backward_peak)


def test_a_phase3_step_peaks_at_its_gradients_and_adam_state(lfc_k4, monkeypatch):
    # one cold phase-3 step of lfc at K=4 on 100 rows: its gradients (about
    # 7 MB) and fresh Adam moments (about 13 MB) must not meet the forward's
    # caches (about 9 MB), which backward frees layer by layer
    left = []

    def consuming(net, caches, dlogits, _backward=md.backward_lut):
        grads = _backward(net, caches, dlogits)
        left.append(len(caches))
        return grads
    monkeypatch.setattr(md, "backward_lut", consuming)
    rng = np.random.default_rng(5)
    data = rng.choice([-1.0, 1.0], size=(100, 784)), rng.integers(0, 10, size=100)
    cfg = tr.PhaseConfig(epochs3=1, batch_size=100, seed=31)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tr.run_phase3_retrain(lfc_k4, data, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert left == [0]
    assert peak < 24e6, peak


@pytest.mark.parametrize("k", range(1, 7))
def test_vertex_gathers_equal_the_term_by_term_extension(k):
    # on every +-1 point, against prod_j (x_j - d_j) for every vertex d
    x = exhaustive_pm1(k)
    diffs = x[:, None, :] - ex.vertices(k)              # (points, d, K)
    vertex, value = ex.interp_basis(x, k)
    want = np.zeros((len(x), 1 << k))
    want[np.arange(len(x)), vertex] = value
    assert np.array_equal(np.prod(diffs, axis=-1), want)
    # d/dx_j of the term of vertex d is prod over i != j of (x_i - d_i)
    partial = np.stack([np.prod(np.delete(diffs, j, axis=-1), axis=-1) for j in range(k)],
                       axis=-1)                          # (points, d, K)
    dx = ex.interp_dx_partial(x, k)
    bit = 1 << np.arange(k)
    want = np.zeros_like(partial)
    for pair in (vertex[:, None] & ~bit, vertex[:, None] | bit):
        want[np.arange(len(x))[:, None], pair, np.arange(k)] = dx
    assert np.array_equal(partial, want)


def _extension(lut, rows):
    """Layer output (rows, C) of an expanded layer, term by term:
    sum_b gamma_b sum over nodes n of channel c of
    sum_d c_bnd prod_k (x_{n,k} - d_k)."""
    verts = ex.vertices(lut.k)
    terms = np.prod(rows[:, lut.indices][:, :, None, :] - verts, axis=-1)   # (rows, N, 2**K)
    nodes = np.einsum("rnd,bnd,b->rn", terms, lut.coeffs, lut.gammas)
    return np.stack([nodes[:, a:e].sum(axis=1) for a, e in lut.spans()], axis=1)


@pytest.mark.parametrize("k", range(1, 7))
def test_window_row_gradient_is_the_extension_difference(k):
    # the extension is affine in each input, so on +-1 inputs its derivative
    # in x_j is exactly (g(x_j = +1) - g(x_j = -1)) / 2
    net = _phase3_net(k)
    layer = net.layers[2]
    rng = np.random.default_rng(30 + k)
    rows = rng.choice([-1.0, 1.0], size=(16, layer.window_size))
    drows = rng.standard_normal((16, 3))
    y, cache = md._lut_layer(net, 2, rows)
    assert rel_err(y, _extension(layer.lut, rows)) < 1e-12
    got = md._lut_layer_bwd(net, 2, cache, drows, {})
    want = np.empty_like(rows)
    for j in range(rows.shape[1]):
        up, down = rows.copy(), rows.copy()
        up[:, j], down[:, j] = 1.0, -1.0
        diff = (_extension(layer.lut, up) - _extension(layer.lut, down)) / 2
        want[:, j] = np.sum(drows * diff, axis=1)
    assert rel_err(got, want) < 1e-12


def test_checkpoint_stage_tags_follow_pipeline():
    net = make_tiny_net()
    assert net.stage == "real"
    pr.prune_threshold(net, 0.01)
    assert net.stage == "pruned"
    pr.binarise_network(net)
    assert net.stage == "binarised"
    ex.expand_network(net, k=2, seed=1)
    assert net.stage == "expanded"
    ex.harden_network(net)
    assert net.stage == "hardened"


def test_phase1_trains_every_compute_layer():
    net = make_tiny_net()
    weights = [layer.weights.copy() for _i, layer in net.compute_layers()]
    rng = np.random.default_rng(15)
    data = (rng.standard_normal((40, 8)), rng.integers(0, 3, 40))
    tr.run_phase1(net, data, tr.PhaseConfig(epochs1=1, batch_size=20))
    assert not any(np.array_equal(layer.weights, w)
                   for (_i, layer), w in zip(net.compute_layers(), weights))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase1_divergence_raises():
    net = make_tiny_net()
    rng = np.random.default_rng(15)
    data = (rng.standard_normal((40, 8)), rng.integers(0, 3, 40))
    with pytest.raises(TrainingDivergedError, match="phase 1 loss became non-finite"):
        tr.run_phase1(net, data, tr.PhaseConfig(epochs1=3, batch_size=20, lr=1e10))
