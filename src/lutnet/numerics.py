"""Dense-tensor kernels: binarisation, batch norm, softmax cross-entropy
and Adam for training, and the node-sum kernel (vertex_codes and
channel_sums) that the model's plane-sum engine and hwgen.simulate share:
each K-LUT node's table entry at its vertex code, added per channel.

Tensors are plain float64 numpy arrays in C (row-major) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError

# Adam's decay of its first and second moment estimates, and its denominator's floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# entries per block of a blocked pass: a block's int64 or float64
# temporaries, 1 MB each, stay in a core's L2 cache.  Adam streams six
# arrays, so its blocks are an eighth as long
BLOCK_ENTRIES = 1 << 17


def as_tensor(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def ensure_finite(name: str, x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite values in {name}")


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign onto {-1, +1} with sign(0) = +1."""
    out = np.less(as_tensor(x), 0.0).astype(np.float64)
    out *= -2.0
    out += 1.0
    return out


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


def adam_step(params: dict, grads: dict, state: AdamState, lr=1e-3) -> None:
    """One in-place Adam update with bias correction, BLOCK_ENTRIES // 8
    entries at a time: each entry takes the same operations in the same
    order, so the blocks change no result.  Raises on non-finite gradients
    instead of corrupting the parameters, on a gradient of another shape
    than its parameter, and on a parameter that is not C-contiguous, which
    could only be updated through a copy that the caller never sees."""
    for name, g in grads.items():
        p = params[name]
        if not p.flags.c_contiguous:
            raise DimensionError(f"parameter '{name}' is not C-contiguous, so Adam cannot "
                                 f"update it in place")
        if g.shape != p.shape:
            raise DimensionError(f"gradient for '{name}' has shape {g.shape}, its parameter "
                                 f"{p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for '{name}' at step {state.t + 1}")
    state.t += 1
    m_scale, v_scale = 1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t
    block = max(1, BLOCK_ENTRIES // 8)
    scratch = np.empty((2, block))
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        flat = [x.reshape(-1) for x in (p, state.m[name], state.v[name], g)]
        for a in range(0, p.size, block):
            pb, mb, vb, gb = (x[a:a + block] for x in flat)
            step, root = scratch[:, :gb.size]
            mb *= ADAM_BETA1
            mb += np.multiply(1.0 - ADAM_BETA1, gb, out=step)
            vb *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, gb, out=step)
            vb += np.multiply(step, gb, out=step)
            np.divide(vb, v_scale, out=root)             # vhat
            np.sqrt(root, out=root)
            root += ADAM_EPS
            np.divide(mb, m_scale, out=step)             # mhat
            step *= lr
            pb -= np.divide(step, root, out=step)


def block_items(entries_per_item, items):
    """Items per block of a pass over `items` items of `entries_per_item`
    entries each: about BLOCK_ENTRIES entries, at least one item."""
    return max(1, min(items, BLOCK_ENTRIES // max(entries_per_item, 1)))


def vertex_codes(cols, sources):
    """(rows, N) uint8 vertex code of each of N nodes on each row: cols
    (W, rows) uint8 holds the 0/1 bit of each of W inputs, one contiguous
    row per input, and sources (N, K) the inputs of each node; bit k of a
    code is the bit of input sources[n, k]."""
    # gathered node-major, each node's bits one contiguous row, then
    # transposed to row-major, the order of every later gather and bincount
    code = cols[sources[:, 0]]
    for k in range(1, sources.shape[1]):
        bits = cols[sources[:, k]]
        bits <<= k
        code |= bits
    return np.ascontiguousarray(code.T)


def channel_sums(codes, k, counts, tables):
    """Per table (N * 2**K,), the (rows, C) float64 sums over each channel's
    nodes of the entry at slot node * 2**K + code of the (rows, N) codes,
    channel c owning the counts[c] nodes after those of channels < c.  Each
    block of rows forms its slots once for all tables and bincounts them
    over row * C + channel, which adds each channel's nodes in ascending
    order (none sums to 0), so the blocks change no result."""
    (n_rows, n_nodes), c = codes.shape, counts.size
    sums = [np.empty((n_rows, c)) for _t in tables]
    block = block_items(n_nodes, n_rows)
    index = (np.arange(block)[:, None] * c + np.repeat(np.arange(c), counts)).reshape(-1)
    node = np.arange(n_nodes) << k
    for a in range(0, n_rows, block):
        e = min(a + block, n_rows)
        slot = node + codes[a:e]
        for s, t in zip(sums, tables):
            s[a:e] = np.bincount(index[:slot.size], weights=np.take(t, slot).reshape(-1),
                                 minlength=(e - a) * c).reshape(e - a, c)
    return sums
