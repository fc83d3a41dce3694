import copy

import numpy as np
import pytest

from lutnet import expand as ex
from lutnet import model as md
from lutnet import numerics as nm
from lutnet import prune as pr
from lutnet import training as tr
from lutnet.errors import DimensionError, FoldError, StageError

from conftest import exhaustive_pm1, make_tiny_net


def test_single_layer_scaled_identity():
    layer = md.DenseLayer(2, 2)
    layer.weights = np.eye(2)
    layer.prune_mask = np.ones((2, 2), dtype=bool)
    layer.alpha = 0.5
    net = md.Network("one", [layer], 1, (2,), 0)
    x = np.array([[3.0, -4.0]])
    assert np.array_equal(md.forward_real(net, x), 0.5 * x)


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

    w1, a1 = net.layers[0].weights, net.layers[0].alpha
    w2, a2 = net.layers[2].weights, net.layers[2].alpha
    h = nm.dense_forward(x, w1, a1)
    h = bn1.gamma * (h - bn1.running_mean) / np.sqrt(bn1.running_var + bn1.eps) + bn1.beta
    h = np.where(h < 0, -1.0, 1.0)
    h = nm.dense_forward(h, w2, a2)
    want = bn2.gamma * (h - bn2.running_mean) / np.sqrt(bn2.running_var + bn2.eps) + bn2.beta
    assert np.array_equal(md.forward_real(net, x), want)


def test_batch_permutation_equivariance():
    net = make_tiny_net()
    rng = np.random.default_rng(10)
    x = rng.standard_normal((16, 8))
    perm = rng.permutation(16)
    assert np.array_equal(md.forward_real(net, x)[perm], md.forward_real(net, x[perm]))


def test_stage_validation():
    net = make_tiny_net()
    with pytest.raises(StageError):
        md.forward_binary(net, np.ones((1, 8)))
    with pytest.raises(StageError):
        md.forward_lut(net, np.ones((1, 8)))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    with pytest.raises(StageError):
        md.forward_real(net, np.ones((1, 8)))


class TestForwardBinary:
    def test_xnor_cancellation(self):
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[1.0, -1.0]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        layer.alpha = 1.0
        net = md.Network("b1", [layer], 1, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        assert md.forward_binary(net, np.array([[1.0, 1.0]])).tolist() == [[0.0]]

    def test_b2_reconstruction_reproduces_real_dot(self):
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[0.7, -0.3]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        layer.alpha = 1.0
        net = md.Network("b2", [layer], 2, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        gammas = [g for _w, g in net.layers[0].levels]
        assert abs(gammas[0] - 0.5) < 1e-15
        assert abs(gammas[1] - 0.2) < 1e-15
        for xt in exhaustive_pm1(2):
            got = md.forward_binary(net, xt[None, :])[0, 0]
            want = 0.7 * xt[0] - 0.3 * xt[1]
            assert abs(got - want) < 1e-15

    def test_equals_real_when_weights_already_binary(self):
        # fixed point of binarisation: w in {-g, +g}, B=1
        layer = md.DenseLayer(3, 2, unrolled=True)
        g = 0.25
        layer.weights = g * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
        layer.prune_mask = np.ones((2, 3), dtype=bool)
        layer.alpha = 1.0
        net = md.Network("fp", [layer], 1, (3,), 0, stage="pruned")
        real = copy.deepcopy(net)
        real.stage = "real"
        pr.binarise_network(net)
        x = exhaustive_pm1(3)
        assert np.array_equal(md.forward_binary(net, x), md.forward_real(real, x))


def test_pruned_positions_never_influence_outputs():
    net = make_tiny_net()
    theta = pr.solve_theta_for_density(net, 0.5, tol=0.3)
    pr.prune_threshold(net, theta)
    pr.binarise_network(net)
    x = exhaustive_pm1(8)
    base = md.forward_binary(net, x)
    tampered = copy.deepcopy(net)
    layer = tampered.layers[2]
    # perturb a pruned weight's stored value, then re-zero via the mask
    pruned_at = np.argwhere(~layer.prune_mask)
    assert pruned_at.size, "test needs at least one pruned weight"
    layer.weights[tuple(pruned_at[0])] = 99.0
    layer.weights *= layer.prune_mask
    pr.refresh_levels(tampered)
    assert np.array_equal(md.forward_binary(tampered, x), base)


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
        tau, flip = md.fold_batchnorm(bn, 1.0)
        assert tau[0] == 0.0 and not flip[0]

    def test_algebraic_example(self):
        # mu=2, sigma=2, gamma=2, beta=1 -> tau=1, flip=false; check at s in {0,1,2}
        bn = md.BatchNormLayer(1)
        bn.eps = 1e-12
        bn.gamma, bn.beta = np.array([2.0]), np.array([1.0])
        bn.running_mean, bn.running_var = np.array([2.0]), np.array([4.0 - bn.eps])
        tau, flip = md.fold_batchnorm(bn, 1.0)
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
        alpha = 0.8
        tau, flip = md.fold_batchnorm(bn, alpha)
        assert flip[0]
        sigma = np.sqrt(bn.running_var[0] + bn.eps)
        for s in rng.standard_normal(1000) * 3:
            real = nm.sign_pm1(bn.gamma[0] * (alpha * s - bn.running_mean[0]) / sigma
                               + bn.beta[0])
            folded = 1.0 if tau[0] - s >= 0 else -1.0
            assert real == folded

    def test_zero_gamma_reports_index(self):
        bn = md.BatchNormLayer(3)
        bn.gamma = np.array([1.0, 0.0, 1.0])
        bn.beta = np.zeros(3)
        bn.running_mean, bn.running_var = np.zeros(3), np.ones(3)
        with pytest.raises(FoldError, match="1"):
            md.fold_batchnorm(bn, 1.0)


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
        want = md.forward_binary(binary, x)
        assert np.array_equal(md.forward_lut(net, x), want)
        ex.harden_network(net)
        assert np.array_equal(md.forward_hardened_logits(net, x), want)

    def test_single_node_k2_xnor(self):
        # all-0.25 coefficients make the smooth node x1*x2
        layer = md.DenseLayer(2, 1, unrolled=True)
        layer.weights = np.array([[0.9, 0.1]])
        layer.prune_mask = np.ones((1, 2), dtype=bool)
        layer.alpha = 1.0
        net = md.Network("xn", [layer], 1, (2,), 0, stage="pruned")
        pr.binarise_network(net)
        ex.expand_network(net, k=2, seed=5)
        lut = net.layers[0].lut
        assert lut.offsets.tolist() == [0, 2]
        assert lut.indices[:, 0].tolist() == [0, 1]
        lut.coeffs[0] = 0.25
        lut.gammas = np.array([1.0])
        for xt in exhaustive_pm1(2):
            got = md.forward_lut(net, xt[None, :])[0, 0]
            want = (xt[lut.indices[0, 0]] * xt[lut.indices[0, 1]]
                    + xt[lut.indices[1, 0]] * xt[lut.indices[1, 1]])
            assert abs(got - want) < 1e-12

    def test_hardened_equals_interpolated_at_vertices(self):
        # exhaustive over 2**K vertices per node, random coefficients
        rng = np.random.default_rng(14)
        for k in (1, 2, 4):
            coeffs = rng.standard_normal((2, 3, 1 << k))
            masks = ex.harden_masks(coeffs)
            verts = ex.vertices(k)
            for b in range(2):
                for n in range(3):
                    # g(v) = sum over d of c_d * prod_k (v_k - d_k), term by term
                    vals = np.array([sum(coeffs[b, n, d] * np.prod(v - verts[d])
                                         for d in range(1 << k)) for v in verts])
                    assert np.array_equal(nm.sign_pm1(vals).astype(np.int8), masks[b, n])

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

    def test_hardened_bits_requires_hardened_stage(self):
        net = self._expanded()
        logits = md.forward_lut(net, exhaustive_pm1(8))   # expanded: real logits
        assert logits.shape == (256, 3) and logits.dtype == np.float64
        with pytest.raises(StageError):
            md.forward_hardened_bits(net, exhaustive_pm1(8))


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


def test_phase1_keeps_alpha_at_its_initial_value():
    net = make_tiny_net()
    alphas = [layer.alpha for _i, layer in net.compute_layers()]
    weights = [layer.weights.copy() for _i, layer in net.compute_layers()]
    rng = np.random.default_rng(15)
    data = (rng.standard_normal((40, 8)), rng.integers(0, 3, 40))
    tr.run_phase1(net, data, tr.PhaseConfig(epochs1=1, batch_size=20))
    assert [layer.alpha for _i, layer in net.compute_layers()] == alphas
    assert not any(np.array_equal(layer.weights, w)
                   for (_i, layer), w in zip(net.compute_layers(), weights))
