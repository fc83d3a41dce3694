import numpy as np
import pytest

from lutnet import numerics as nm
from lutnet.errors import ConfigError, DimensionError, NonFiniteError

from conftest import rel_err


class TestSign:
    def test_sign_convention(self):
        assert nm.sign_pm1([0.3, -0.2, 0.0]).tolist() == [1.0, -1.0, 1.0]

    def test_negative(self):
        assert nm.sign_pm1([-5.0]).tolist() == [-1.0]

    def test_special_values(self):
        # -0.0 and NaN are not negative; no output is -0.0
        s = nm.sign_pm1([-0.0, np.nan, np.inf, -np.inf, -5e-324])
        assert s.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0] and not np.signbit(s[:3]).any()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        s = nm.sign_pm1(x)
        assert np.array_equal(nm.sign_pm1(s), s)

    def test_range_is_pm1(self):
        rng = np.random.default_rng(4)
        s = nm.sign_pm1(rng.standard_normal(1000))
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_ste_inside_clip(self):
        assert nm.sign_ste_backward([0.5], [2.0]).tolist() == [2.0]

    def test_ste_outside_clip(self):
        assert nm.sign_ste_backward([1.5], [2.0]).tolist() == [0.0]

    def test_ste_boundary_inclusive(self):
        assert nm.sign_ste_backward([1.0], [2.0]).tolist() == [2.0]


class TestBatchNorm:
    def test_identity(self):
        x = np.array([[0.5, -0.3]])
        y = nm.batchnorm_forward(x, 0.0, 1.0, 1.0, 0.0, 1e-300)
        assert np.allclose(y, x, atol=1e-12)

    def test_hand_value(self):
        y = nm.batchnorm_forward(np.array([[2.0]]), 2.0, 4.0, 2.0, 1.0, 1e-300)
        assert np.allclose(y, [[1.0]])

    def test_batch_moments(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, np.sqrt(2.0), size=(4096, 4))
        y, _mu, _var, _cache = nm.batchnorm_train_forward(x, np.ones(4), np.zeros(4), 1e-12)
        assert np.all(np.abs(y.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(y.var(axis=0) - 1.0) < 1e-6)

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigError):
            nm.batchnorm_forward(np.ones((1, 1)), 0.0, 1.0, 1.0, 0.0, 0.0)

    def test_affine_inverse_recovers_input(self):
        # inference-mode batchnorm is affine; composing with its inverse is identity
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 5))
        mu, var = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        gamma, beta = rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)
        eps = 1e-5
        y = nm.batchnorm_forward(x, mu, var, gamma, beta, eps)
        a = gamma / np.sqrt(var + eps)
        back = (y - (beta - a * mu)) / a
        assert np.max(np.abs(back - x)) < 1e-9

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 3))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.standard_normal(3)
        proj = rng.standard_normal((6, 3))
        eps = 1e-5
        _y, _mu, _var, cache = nm.batchnorm_train_forward(x, gamma, beta, eps)
        dx, dgamma, dbeta = nm.batchnorm_backward(cache, proj)
        h = 1e-5

        def loss(xv, gv, bv):
            yv, _m, _v, _c = nm.batchnorm_train_forward(xv, gv, bv, eps)
            return float(np.sum(yv * proj))

        fd = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (loss(xp, gamma, beta) - loss(xm, gamma, beta)) / (2 * h)
        assert rel_err(dx, fd) < 1e-5
        fdg = np.zeros_like(gamma)
        for i in range(3):
            gp, gm = gamma.copy(), gamma.copy()
            gp[i] += h
            gm[i] -= h
            fdg[i] = (loss(x, gp, beta) - loss(x, gm, beta)) / (2 * h)
        assert rel_err(dgamma, fdg) < 1e-5
        assert rel_err(dbeta, proj.sum(axis=0)) < 1e-12


class TestSoftmaxXent:
    def test_uniform_logits(self):
        for c in (2, 5, 10):
            loss, _ = nm.softmax_xent(np.zeros((3, c)), np.array([0, 1, 0])[:3] % c)
            assert abs(loss - np.log(c)) < 1e-12

    def test_confident_correct(self):
        loss, _ = nm.softmax_xent(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            nm.softmax_xent(np.zeros((1, 3)), np.array([3]))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, 4)
        _loss, dlogits = nm.softmax_xent(logits, labels)
        h = 1e-5
        fd = np.zeros_like(logits)
        for i in np.ndindex(logits.shape):
            lp, lm = logits.copy(), logits.copy()
            lp[i] += h
            lm[i] -= h
            fd[i] = (nm.softmax_xent(lp, labels)[0] - nm.softmax_xent(lm, labels)[0]) / (2 * h)
        assert rel_err(dlogits, fd) < 1e-5


class TestAdam:
    def test_first_step_direction(self):
        # at t=1 the bias-corrected update is -lr * g / (|g| + eps')
        params = {"w": np.array([1.0, 1.0])}
        grads = {"w": np.array([0.5, -2.0])}
        state = nm.AdamState()
        nm.adam_step(params, grads, state, lr=0.1)
        step = params["w"] - 1.0
        assert np.allclose(step, -0.1 * np.sign(grads["w"]), atol=1e-6)

    def test_zero_grad_keeps_params(self):
        params = {"w": np.array([3.0])}
        state = nm.AdamState()
        nm.adam_step(params, {"w": np.array([1.0])}, state, lr=0.01)
        before = params["w"].copy()
        nm.adam_step(params, {"w": np.array([0.0])}, state, lr=0.0)
        assert np.array_equal(params["w"], before)
        assert state.m["w"][0] != 0.0 and state.t == 2

    def test_scalar_convergence(self):
        # 200 steps on f(w) = w^2 from w=1 with lr=0.1 drives |w| below 0.05
        params = {"w": np.array([1.0])}
        state = nm.AdamState()
        for _ in range(200):
            nm.adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
        assert abs(params["w"][0]) < 0.05

    def test_blocks_equal_the_whole_array_update(self, monkeypatch):
        # the whole-array update, operation for operation, over 3 steps of
        # parameters spanning several blocks, the last one short
        def reference(p, g, m, v, t, lr):
            m *= nm.ADAM_BETA1
            m += (1.0 - nm.ADAM_BETA1) * g
            v *= nm.ADAM_BETA2
            v += (1.0 - nm.ADAM_BETA2) * g * g
            mhat = m / (1.0 - nm.ADAM_BETA1 ** t)
            vhat = v / (1.0 - nm.ADAM_BETA2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + nm.ADAM_EPS)

        monkeypatch.setattr(nm, "BLOCK_ENTRIES", 8 * 7)
        rng = np.random.default_rng(9)
        params = {"a": rng.standard_normal((5, 9)), "b": rng.standard_normal(3)}
        want = {name: p.copy() for name, p in params.items()}
        moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in want.items()}
        state = nm.AdamState()
        for t in (1, 2, 3):
            grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
            nm.adam_step(params, grads, state, lr=0.03)
            for name, g in grads.items():
                reference(want[name], g, *moments[name], t, 0.03)
        for name in want:
            assert np.array_equal(params[name], want[name]), name
            assert np.array_equal(state.m[name], moments[name][0])
            assert np.array_equal(state.v[name], moments[name][1])

    def test_parameter_that_is_not_contiguous_is_rejected(self):
        # a transposed view would only be updated through a copy
        params = {"w": np.arange(6.0).reshape(2, 3).T}
        state = nm.AdamState()
        with pytest.raises(DimensionError, match="'w' is not C-contiguous"):
            nm.adam_step(params, {"w": np.ones((3, 2))}, state)
        assert np.array_equal(params["w"], np.arange(6.0).reshape(2, 3).T) and state.t == 0

    def test_gradient_of_another_shape_is_rejected(self):
        params = {"w": np.ones(4)}
        with pytest.raises(DimensionError, match="shape"):
            nm.adam_step(params, {"w": np.ones((4, 1))}, nm.AdamState())
        assert np.array_equal(params["w"], np.ones(4))

    def test_nonfinite_grad_aborts(self):
        params = {"w": np.array([1.0])}
        with pytest.raises(NonFiniteError, match="w"):
            nm.adam_step(params, {"w": np.array([np.nan])}, nm.AdamState())
        assert params["w"][0] == 1.0
