"""Logic expansion: replace each surviving XNOR with a trainable K-LUT node.

The smooth extension of a node's Boolean function is the multilinear form

    g(x) = sum over d in {-1,1}^K of  c_d * prod_k (x_k - d_k)

which is diagonal over the binary vertices: at a vertex v only the d = -v term
survives, with value c_{-v} * 2^K * prod_k v_k.  Vertex encoding is fixed
everywhere (model evaluation, netlist simulation, Verilog INIT masks): vertex v
maps to the integer with bit k = (v_k + 1) / 2, bit 0 being the node's first
input.  Truth tables are stored as {-1,+1} int8 vectors indexed that way.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ExpansionError, FoldError


@lru_cache(maxsize=16)
def vertices(k: int) -> np.ndarray:
    """(2**K, K) array of +-1 vertices; row i has coordinate j = +1 iff bit j of i."""
    idx = np.arange(1 << k)
    return ((idx[:, None] >> np.arange(k)[None, :]) & 1) * 2.0 - 1.0


def interp_basis(x: np.ndarray, k: int) -> np.ndarray:
    """prod_k (x_k - d_k) for every vertex d; x (..., K) -> (..., 2**K)."""
    diffs = x[..., None, :] - vertices(k)
    return diffs.prod(axis=-1)


def interp_dx_partial(x: np.ndarray, k: int) -> np.ndarray:
    """(..., 2**K, K) products prod_{j!=k}(x_j - d_j), for backprop through x."""
    diffs = x[..., None, :] - vertices(k)
    ones = np.ones(diffs.shape[:-1] + (1,))
    prefix = np.concatenate([ones, np.cumprod(diffs, axis=-1)], axis=-1)
    suffix = np.concatenate([np.cumprod(diffs[..., ::-1], axis=-1)[..., ::-1], ones], axis=-1)
    return prefix[..., :k] * suffix[..., 1:]


def linear_coeffs(wvec: np.ndarray) -> np.ndarray:
    """Coefficients whose extension equals h(x) = sum_k wvec[k] * x_k exactly on
    every vertex: c_{-v} = h(v) / (2**K * prod_k v_k); -v is the bitwise
    complement of v's index."""
    wvec = nm.as_tensor(wvec)
    k = wvec.shape[-1]
    v = vertices(k)
    h = wvec @ v.T                                   # (..., 2**K)
    scaled = h / ((1 << k) * v.prod(axis=-1))
    out = np.empty_like(scaled)
    out[..., np.arange(1 << k) ^ ((1 << k) - 1)] = scaled
    return out


def harden_masks(coeffs: np.ndarray) -> np.ndarray:
    """Truth tables per plane: mask at vertex v is sign(g(v)) with sign(0)=+1,
    obtained by evaluating the interpolation at every vertex so hardened and
    interpolated forwards agree on the binary domain by construction."""
    coeffs = nm.as_tensor(coeffs)
    n = coeffs.shape[-1]
    k = int(n).bit_length() - 1
    if (1 << k) != n:
        raise ExpansionError(f"coefficient count {n} is not a power of two")
    basis_at_vertices = interp_basis(vertices(k), k)         # (2**K, 2**K)
    vals = coeffs @ basis_at_vertices.T
    return nm.sign_pm1(vals).astype(np.int8)


def detect_dont_cares(table: np.ndarray, k: int):
    """Inputs the truth table does not depend on.

    Input j is removable iff the table is unchanged under flipping bit j for all
    vertices.  Returns (kept_inputs, reduced_table) with the reduced table
    defined over the kept inputs in ascending original order and
    function-equivalent to the original.
    """
    table = np.asarray(table)
    if table.shape[-1] != (1 << k):
        raise ExpansionError(f"table length {table.shape[-1]} != 2**{k}")
    cube = table.reshape((2,) * k)   # axis k-1-j indexes input j (bit 0 fastest)
    kept = []
    for j in range(k):
        axis = k - 1 - j
        if not np.array_equal(np.take(cube, 0, axis=axis), np.take(cube, 1, axis=axis)):
            kept.append(j)
    # ascending j: dropping axis k-1-j leaves the axes of higher inputs,
    # still to be visited, where they were
    reduced = cube
    for j in range(k):
        if j not in kept:
            reduced = np.take(reduced, 0, axis=k - 1 - j)
    return kept, np.ascontiguousarray(reduced.reshape(-1))


MUX_TABLE = np.array([-1, 1, -1, 1, -1, -1, 1, 1], dtype=np.int8)
# 2:1 mux truth table over inputs (bit0=lo, bit1=hi, bit2=sel): out = sel ? hi : lo


def shannon_decompose(table: np.ndarray, input_ids: list, max_k: int = 6):
    """Split a wide truth table into cells of at most max_k inputs via recursive
    Shannon expansion on the highest input.

    Returns a topologically ordered list of (table, inputs) cells computing the
    original function at the last cell; an input is either an id from
    input_ids or ("cell", j), the output of the j-th returned cell.
    """
    cells = []

    def rec(tbl, ids):
        k = len(ids)
        if k <= max_k:
            cells.append((np.asarray(tbl, dtype=np.int8), list(ids)))
            return ("cell", len(cells) - 1)
        cube = np.asarray(tbl).reshape((2,) * k)
        lo_ref = rec(np.take(cube, 0, axis=0).reshape(-1), ids[:-1])
        hi_ref = rec(np.take(cube, 1, axis=0).reshape(-1), ids[:-1])
        cells.append((MUX_TABLE.copy(), [lo_ref, hi_ref, ids[-1]]))
        return ("cell", len(cells) - 1)

    rec(table, list(input_ids))
    return cells


# ---------------------------------------------------------------------------
# network-level expansion


def select_inputs(window: int, positions: np.ndarray, k: int, rng: np.random.Generator):
    """Wiring plan (N~, K) for one channel's surviving nodes.

    Input 1 of each node preserves the original connection; the K-1 further
    inputs are drawn uniformly without replacement from the remaining window
    positions (a node is never multiply connected to the same input).
    """
    n = positions.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    indices[:, 0] = positions
    all_idx = np.arange(window)
    for row, pos in enumerate(positions):
        others = all_idx[all_idx != pos]
        if k > 1:
            indices[row, 1:] = rng.choice(others, size=k - 1, replace=False)
    return indices


def _plane_coeffs(layer, channel, indices, k, sum_gamma):
    """Initial coefficients for every plane of one channel, from the level-b
    binary weight of the preserved input plus the phase-1 weights of drawn
    inputs that were pruned, spread evenly across planes via 1/sum(gamma)."""
    n = indices.shape[0]
    planes = []
    original = layer.phase1_weights if layer.phase1_weights is not None else layer.weights
    for w_b, _gamma in layer.levels:
        wvecs = np.zeros((n, k))
        wvecs[:, 0] = w_b[channel, indices[:, 0]]
        if k > 1 and sum_gamma > 0.0:
            recon_w = original[channel][indices] / sum_gamma
            reconnected = ~layer.prune_mask[channel][indices]
            wvecs[:, 1:] = np.where(reconnected[:, 1:], recon_w[:, 1:], 0.0)
        planes.append(linear_coeffs(wvecs))
    return np.stack(planes)   # (B, N~, 2**K)


def expand_network(net, k: int, seed: int):
    """Convert every surviving XNOR of the unrolled layers into a K-LUT node
    with a deterministic per-channel wiring plan; time-multiplexed layers are
    untouched.  The preserved-input weights and reconnections are read once
    here: afterwards the layer's levels and phase-1 weights are dropped.
    Stage: binarised -> expanded."""
    from .model import LutData, require_stage

    require_stage(net, "binarised")
    if k < 1:
        raise ExpansionError(f"K must be >= 1, got {k}")
    for li, layer in net.compute_layers():
        if not layer.unrolled:
            continue
        window = layer.window_size
        if window < k:
            raise ExpansionError(
                f"layer l{li} ({layer.kind}): window of {window} inputs cannot feed a {k}-LUT")
        gammas = np.array([g for _w, g in layer.levels])
        sum_gamma = float(gammas.sum())
        indices, coeffs = [], []
        for c in range(layer.prune_mask.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(li, c)))
            idx = select_inputs(window, np.flatnonzero(layer.prune_mask[c]), k, rng)
            indices.append(idx)
            coeffs.append(_plane_coeffs(layer, c, idx, k, sum_gamma))
        offsets = np.concatenate(([0], np.cumsum(layer.prune_mask.sum(axis=1))))
        layer.lut = LutData(k=k, gammas=gammas, offsets=offsets.astype(np.int64),
                            indices=np.concatenate(indices), coeffs=np.concatenate(coeffs, axis=1))
        layer.levels = None
        layer.phase1_weights = None
    net.stage = "expanded"
    return net


def harden_network(net, frac_bits: int = 8):
    """Freeze trained coefficients into truth-table masks, fold batch norms into
    per-neuron thresholds and attach the fixed-point spec.
    Stage: expanded -> hardened."""
    from .model import FixedPointSpec, fold_batchnorm, require_stage

    require_stage(net, "expanded")
    for li, layer in net.compute_layers():
        if layer.lut is not None:
            layer.lut.masks = harden_masks(layer.lut.coeffs)
        bn = net.bn_after(li)
        if bn is None:
            raise FoldError(f"layer l{li} has no following batch-norm to fold")
        layer.tau, layer.flip = fold_batchnorm(bn, layer.alpha)
    net.fx = FixedPointSpec(frac_bits=frac_bits)
    net.stage = "hardened"
    return net
