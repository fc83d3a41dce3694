"""Dense-tensor kernels for training: binarisation, batch norm, softmax
cross-entropy and Adam.

Tensors are plain float64 numpy arrays in C (row-major) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError


def as_tensor(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def ensure_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {name}")


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign onto {-1, +1} with sign(0) = +1."""
    x = as_tensor(x)
    return np.where(x < 0.0, -1.0, 1.0)


def sign_ste_backward(x, dy):
    """Straight-through estimator: pass dy where |x| <= 1 (inclusive), else 0."""
    x = as_tensor(x)
    dy = as_tensor(dy)
    if x.shape != dy.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {dy.shape}")
    return dy * (np.abs(x) <= 1.0)


def batchnorm_forward(x, mu, var, gamma, beta, eps):
    """Per-feature normalisation over the last axis: gamma*(x-mu)/sqrt(var+eps)+beta."""
    x = as_tensor(x)
    if eps <= 0.0:
        raise ConfigError(f"batchnorm eps must be positive, got {eps}")
    if np.any(np.asarray(var) < 0.0):
        raise ConfigError("negative variance passed to batchnorm")
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def batchnorm_train_forward(x, gamma, beta, eps):
    """Training-mode batch norm over axis 0; returns output, batch moments and
    a cache for the backward pass.  Variance is the biased (population) estimate."""
    x = as_tensor(x)
    if eps <= 0.0:
        raise ConfigError(f"batchnorm eps must be positive, got {eps}")
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    y = gamma * xhat + beta
    cache = (xhat, inv_std, gamma)
    return y, mu, var, cache


def batchnorm_backward(cache, dy):
    xhat, inv_std, gamma = cache
    dy = as_tensor(dy)
    n = dy.shape[0]
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    dxhat = dy * gamma
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
    return dx, dgamma, dbeta


def softmax_xent(logits, labels):
    """Mean cross-entropy over the batch and its gradient wrt logits."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise IndexError(f"label out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


@dataclass
class AdamState:
    """First/second moment estimates per parameter name, plus the step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: dict, grads: dict, state: AdamState,
              lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One in-place Adam update with bias correction.  Raises on non-finite
    gradients instead of corrupting the parameters."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for '{name}' at step {state.t + 1}")
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
