import copy

import numpy as np
import pytest

from lutnet import model as md
from lutnet import prune as pr
from lutnet.errors import ConfigError

from conftest import make_tiny_net


def single_layer_net(weights, unrolled=True):
    w = np.asarray(weights, dtype=np.float64)
    layer = md.DenseLayer(w.shape[1], w.shape[0], unrolled=unrolled)
    layer.weights = w.copy()
    layer.prune_mask = np.ones_like(w, dtype=bool)
    return md.Network("p", [layer], 1, (w.shape[1],), 0)


class TestPruneThreshold:
    def test_direct_example(self):
        net = single_layer_net([[0.7, -0.3, 0.05]])
        report = pr.prune_threshold(net, 0.1)
        assert net.layers[0].weights.tolist() == [[0.7, -0.3, 0.0]]
        assert report.rows[0][3] == pytest.approx(2 / 3)

    def test_theta_zero_keeps_all_nonzero(self):
        net = single_layer_net([[0.7, -0.3, 0.05]])
        pr.prune_threshold(net, 0.0)
        assert pr.density_of(net) == 1.0

    def test_theta_at_max_prunes_everything(self):
        # strict inequality: |w| == theta is pruned
        net = single_layer_net([[0.7, -0.3, 0.05]])
        pr.prune_threshold(net, 0.7)
        assert pr.density_of(net) == 0.0

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigError):
            pr.prune_threshold(single_layer_net([[1.0]]), -0.1)

    def test_idempotence(self):
        net = make_tiny_net(seed=31)
        pr.prune_threshold(net, 0.05)
        snap = copy.deepcopy(net)
        pr.prune_threshold(net, 0.05)
        for a, b in zip(snap.layers, net.layers):
            if a.kind == "dense":
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.prune_mask, b.prune_mask)
                assert np.array_equal(a.phase1_weights, b.phase1_weights)

    def test_mask_monotonicity_in_theta(self):
        rng = np.random.default_rng(32)
        w = rng.standard_normal((4, 16))
        for _ in range(20):
            t1, t2 = sorted(rng.uniform(0, 1.5, size=2))
            n1 = single_layer_net(w)
            n2 = single_layer_net(w)
            pr.prune_threshold(n1, t1)
            pr.prune_threshold(n2, t2)
            survive1 = n1.layers[0].prune_mask
            survive2 = n2.layers[0].prune_mask
            assert np.all(survive2 <= survive1)   # mask(theta2) subset of mask(theta1)

    def test_only_unrolled_layers_pruned(self):
        net = make_tiny_net(seed=33)
        pr.prune_threshold(net, 10.0)
        assert np.all(net.layers[0].prune_mask)          # time-multiplexed: untouched
        assert not net.layers[2].prune_mask.any()        # unrolled: fully pruned


class TestSolveTheta:
    def test_sorting_oracle(self):
        net = single_layer_net([[1.0, -2.0, 3.0, -4.0]])
        theta = pr.solve_theta_for_density(net, 0.5)
        assert theta == 2.0
        pr.prune_threshold(net, theta)
        assert pr.density_of(net) == 0.5

    def test_full_density(self):
        net = single_layer_net([[1.0, 2.0]])
        assert pr.solve_theta_for_density(net, 1.0) == 0.0

    def test_tie_case_reports_nearest(self):
        net = single_layer_net([[1.0, 1.0, 1.0, 1.0]])
        with pytest.warns(UserWarning, match="nearest achievable"):
            theta = pr.solve_theta_for_density(net, 0.5)
        pr.prune_threshold(net, theta)
        assert pr.density_of(net) == 1.0

    def test_exact_on_tie_free_targets(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            net = single_layer_net(rng.standard_normal((1, n)))
            k = int(rng.integers(1, n + 1))
            theta = pr.solve_theta_for_density(net, k / n)
            pr.prune_threshold(net, theta)
            assert pr.density_of(net) == pytest.approx(k / n)

    def test_rejects_bad_target(self):
        net = single_layer_net([[1.0]])
        with pytest.raises(ConfigError):
            pr.solve_theta_for_density(net, 0.0)
        with pytest.raises(ConfigError):
            pr.solve_theta_for_density(net, 1.5)


class TestResidualBinarise:
    def test_worked_example(self):
        # hand recursion: gamma = [0.5, 0.2], w1 = [1,-1], w2 = [1,1],
        # reconstruction exact up to float64 rounding of the recursion
        levels, eps = pr.residual_binarise(np.array([0.7, -0.3]), np.ones(2, bool), 2)
        (w1, g1), (w2, g2) = levels
        assert w1.tolist() == [1.0, -1.0]
        assert w2.tolist() == [1.0, 1.0]
        assert abs(g1 - 0.5) < 1e-15
        assert abs(g2 - 0.2) < 1e-15
        rec = g1 * w1 + g2 * w2
        assert np.max(np.abs(rec - [0.7, -0.3])) < 1e-15
        assert np.max(np.abs(eps)) < 1e-15

    def test_binary_fixed_point(self):
        g = 0.37
        levels, eps = pr.residual_binarise(np.array([g, -g]), np.ones(2, bool), 1)
        assert levels[0][1] == g
        assert np.array_equal(eps, np.zeros(2))

    def test_residual_norm_non_increasing(self):
        rng = np.random.default_rng(35)
        for _ in range(1000):
            w = rng.standard_normal(int(rng.integers(2, 24)))
            mask = np.ones(w.shape, bool)
            eps = w.copy()
            prev = np.linalg.norm(eps)
            for _b in range(3):
                levels, eps = pr.residual_binarise(eps, mask, 1)
                cur = np.linalg.norm(eps)
                assert cur <= prev + 1e-12
                prev = cur

    def test_reconstruction_improves_with_b(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            w = rng.standard_normal((3, 7))
            mask = np.ones(w.shape, bool)
            errs = []
            for b in (1, 2, 3, 4):
                _lv, eps = pr.residual_binarise(w, mask, b)
                errs.append(np.linalg.norm(eps))
            assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_gamma_nonnegative_and_zero_only_when_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            w = rng.standard_normal(6)
            levels, _eps = pr.residual_binarise(w, np.ones(6, bool), 3)
            for _wb, g in levels:
                assert g >= 0.0

    def test_all_pruned_layer_is_inert(self):
        levels, eps = pr.residual_binarise(np.zeros(4), np.zeros(4, bool), 2)
        for w_b, g in levels:
            assert g == 0.0
            assert np.array_equal(w_b, np.ones(4))
        assert not eps.any()

    def test_pruned_positions_stay_zero_at_every_level(self):
        w = np.array([0.5, 0.0, -0.8])
        mask = np.array([True, False, True])
        levels, _eps = pr.residual_binarise(w, mask, 2)
        for w_b, g in levels:
            assert (w_b * mask)[1] == 0.0


def test_density_report_csv_schema():
    net = make_tiny_net(seed=38)
    report = pr.prune_threshold(net, 0.1)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "layer,total,nonzero,density,theta"
    assert lines[-1].startswith("model,")
    assert len(lines) == 2 + len(report.rows)
