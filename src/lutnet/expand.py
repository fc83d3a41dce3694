"""Logic expansion: replace each surviving XNOR with a trainable K-LUT node.

The smooth extension of a node's Boolean function is the multilinear form

    g(x) = sum over d in {-1,1}^K of  c_d * prod_k (x_k - d_k)

which is diagonal over the binary vertices: at a vertex v only the d = -v term
survives, with value c_{-v} * 2^K * prod_k v_k.  Node inputs are always
+-1, so a node's output reads that one coefficient (interp_basis) and its
partial in input k the two whose vertices differ from -v only there
(interp_dx_partial).  Both depend only on the code of -v, never on the
sample: phase 3 evaluates them once on the 2^K codes, tabulates each node's
terms per code, and gathers the tables by slot = node * 2^K + code.
Truth tables, the netlist and the Verilog (simulation, table literals and
INIT masks) index vertex v by the integer with bit k = (v_k + 1) / 2, bit 0
being the node's first input; truth tables are stored as {-1,+1} int8
vectors indexed that way.  The coefficients and model._plane_sums' codes
use the complement, the code of -v: bit k is set when input k is negative.
harden_masks converts from the one to the other.  Expansion wires each
layer by a per-layer wiring plan, all of its nodes drawn at once by one
generator seeded per layer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .config import FABRIC_K, check_frac_bits
from .errors import ExpansionError, FoldError


@lru_cache(maxsize=16)
def vertices(k: int) -> np.ndarray:
    """(2**K, K) array of +-1 vertices; row i has coordinate j = +1 iff bit j of i."""
    idx = np.arange(1 << k)
    return ((idx[:, None] >> np.arange(k)[None, :]) & 1) * 2.0 - 1.0


def interp_basis(x: np.ndarray, k: int):
    """(vertex, value) (...) of the one nonzero basis term of the extension at
    points x (..., K), valid only where every x_k is +-1: only d = -x keeps
    every factor x_k - d_k = 2 x_k nonzero, so g(x) = value * c[vertex] with
    vertex = sum_k (x_k < 0) << k and value = 2**K * prod_k x_k."""
    vertex = ((x < 0) << np.arange(k)).sum(axis=-1)
    return vertex, (1 << k) * x.prod(axis=-1)


def interp_dx_partial(x: np.ndarray, k: int) -> np.ndarray:
    """(..., K) partials 2**(K-1) * prod_{j!=k} x_j at points x (..., K), valid
    only where every x_j is +-1.  There the terms that depend on x_k are the
    two at interp_basis's vertex with bit k clear (lo_k) and set (hi_k), so
    dg/dx_k = partial_k * (c[lo_k] + c[hi_k])."""
    return (1 << (k - 1)) * x.prod(axis=-1, keepdims=True) * x


def linear_coeffs(wvec: np.ndarray) -> np.ndarray:
    """Coefficients whose extension equals h(x) = sum_k wvec[k] * x_k exactly on
    every vertex: the one coefficient g reads at the point x of code c (x_k =
    -1 iff bit k of c, as interp_basis reads it) is h(x) / value(x).  The
    table of h by code doubles with each input, so h adds its K products in
    ascending k and a node's coefficients do not depend on how many nodes
    share the call."""
    wvec = nm.as_tensor(wvec)
    k = wvec.shape[-1]
    h = np.stack([wvec[..., 0], -wvec[..., 0]], axis=-1)
    for j in range(1, k):
        h = np.concatenate([h + wvec[..., j, None], h - wvec[..., j, None]], axis=-1)
    # row c of -vertices(K) is the point whose code is c
    return h / interp_basis(-vertices(k), k)[1]


def harden_masks(coeffs: np.ndarray) -> np.ndarray:
    """Truth tables per plane: mask at vertex v is sign(g(v)) with sign(0)=+1,
    read from the one nonzero term of the interpolation at v, so hardened and
    interpolated forwards agree on the binary domain by construction."""
    coeffs = nm.as_tensor(coeffs)
    n = coeffs.shape[-1]
    k = int(n).bit_length() - 1
    if (1 << k) != n:
        raise ExpansionError(f"coefficient count {n} is not a power of two")
    vertex, value = interp_basis(vertices(k), k)
    return nm.sign_pm1(value * coeffs[..., vertex]).astype(np.int8)


def reduce_dont_cares(tables: np.ndarray, k: int):
    """Drop the inputs each truth table does not depend on, for every table
    of tables (..., 2**k) at once.

    Input j is a don't-care iff flipping bit j of the vertex index never
    changes the output.  Returns (k_eff, kept, reduced):
    - k_eff (...): the number of inputs the table depends on;
    - kept (..., k): those inputs in ascending order, then zeros;
    - reduced (..., 2**k): the table over the kept inputs (bit i of its index
      carries input kept[i]), function-equivalent to the original, then zeros.
    """
    tables = np.asarray(tables)
    n = 1 << k
    if tables.shape[-1] != n:
        raise ExpansionError(f"table length {tables.shape[-1]} != 2**{k}")
    vertex = np.arange(n)
    depends = np.stack([np.any(tables != tables[..., vertex ^ (1 << j)], axis=-1)
                        for j in range(k)], axis=-1)
    k_eff = depends.sum(axis=-1)
    live = np.arange(k) < k_eff[..., None]
    kept = np.where(live, np.argsort(~depends, axis=-1, kind="stable"), 0)
    # entry s of the reduced table reads the vertex whose kept input i is bit
    # i of s and whose don't-care inputs are 0
    source = np.zeros(tables.shape, dtype=np.int64)
    for i in range(k):
        source |= (((vertex >> i) & 1) * live[..., i:i + 1]) << kept[..., i:i + 1]
    reduced = np.take_along_axis(tables, source, axis=-1)
    reduced = np.where(vertex < (1 << k_eff)[..., None], reduced, 0).astype(tables.dtype)
    return k_eff, kept, reduced


# ---------------------------------------------------------------------------
# network-level expansion


def select_inputs(window: int, positions: np.ndarray, k: int, rng: np.random.Generator):
    """Wiring plan (N, K) of nodes whose preserved inputs are positions (N,).

    Column 0 of each node preserves the original connection; the K-1 further
    inputs are drawn for all nodes at once, uniformly over ordered tuples of
    distinct window inputs other than column 0 (a node is never multiply
    connected to the same input): K-1 rounds of Floyd's algorithm draw a set
    from the window-1 other inputs, a shuffle orders it, and each drawn index
    at or past the preserved input steps over it."""
    n = positions.shape[0]
    other = np.empty((n, k - 1), dtype=np.int64)
    for r, j in enumerate(range(window - k, window - 1)):
        val = rng.integers(0, j + 1, size=n)
        taken = (other[:, :r] == val[:, None]).any(axis=1)
        other[:, r] = np.where(taken, j, val)
    other = rng.permuted(other, axis=1)
    other += other >= positions[:, None]
    return np.concatenate((positions[:, None], other), axis=1)


def _plane_coeffs(layer, lv, channel, indices, k, sum_gamma):
    """Initial coefficients (B, N, 2**K) of every plane of a layer's nodes,
    node n of channel[n], from the level-b binary weight in the levels lv of
    the preserved input plus the phase-1 weights of drawn inputs that were
    pruned, spread evenly across planes via 1/sum(gamma)."""
    rows, planes = channel[:, None], []
    original = layer.phase1_weights if layer.phase1_weights is not None else layer.weights
    for w_b, _gamma in lv:
        wvecs = np.zeros(indices.shape)
        wvecs[:, 0] = w_b[channel, indices[:, 0]]
        if k > 1 and sum_gamma > 0.0:
            recon_w = original[rows, indices] / sum_gamma
            reconnected = ~layer.prune_mask[rows, indices]
            wvecs[:, 1:] = np.where(reconnected[:, 1:], recon_w[:, 1:], 0.0)
        planes.append(linear_coeffs(wvecs))
    return np.stack(planes)   # (B, N, 2**K)


def expand_network(net, k: int, seed: int):
    """Convert every surviving XNOR of the unrolled layers into a K-LUT node
    with a deterministic per-layer wiring plan, drawn by one generator per
    layer; time-multiplexed layers are untouched.  The residual levels of
    the latent weights and the phase-1 weights are read once here, for the
    preserved inputs and reconnections: afterwards the phase-1 weights are
    dropped.  Stage: binarised -> expanded."""
    from .model import LutData, levels, require_stage

    require_stage(net, "binarised")
    if not 1 <= k <= FABRIC_K:
        raise ExpansionError(f"K must be in [1, {FABRIC_K}], got {k}")
    for li, layer in net.compute_layers():
        if not layer.unrolled:
            continue
        window = layer.window_size
        if window < k:
            raise ExpansionError(
                f"layer l{li} ({layer.kind}): window of {window} inputs cannot feed a {k}-LUT")
        lv = levels(layer, net.b_levels)
        gammas = np.array([g for _w, g in lv])
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(li,)))
        channel, positions = np.nonzero(layer.prune_mask)   # channel-major, ascending
        indices = select_inputs(window, positions, k, rng)
        offsets = np.concatenate(([0], np.cumsum(layer.prune_mask.sum(axis=1))))
        coeffs = _plane_coeffs(layer, lv, channel, indices, k, float(gammas.sum()))
        layer.lut = LutData(k=k, gammas=gammas, offsets=offsets.astype(np.int64),
                            indices=indices, coeffs=coeffs)
        layer.phase1_weights = None
    net.stage = "expanded"
    return net


def harden_network(net, frac_bits: int = 8):
    """Set the fractional bits of the fixed point, once every step of
    model.steps folds as the hardware folds it: a dense or conv step's batch
    norm into thresholds, and no batch norm after a maxpool, which would
    change `forward` and not the netlist.  Nothing is stored: the engines
    read truth tables from model._plane_terms, the netlist from harden_masks,
    and both thresholds from model.fold_batchnorm.  Loading a hardened
    checkpoint calls it too.  Stage: expanded -> hardened."""
    from .model import fold_batchnorm, require_stage, steps

    require_stage(net, "expanded")
    frac_bits = check_frac_bits(frac_bits)
    for step in steps(net):
        if step.layer.kind != "maxpool":
            if step.bn is None:
                raise FoldError(f"layer l{step.idx} has no following batch-norm to fold")
            fold_batchnorm(step.bn)
        elif step.bn is not None:
            raise FoldError(f"batch norm l{step.idx + 1} follows no dense or conv layer; "
                            f"cannot fold")
    net.frac_bits = frac_bits
    net.stage = "hardened"
    return net
