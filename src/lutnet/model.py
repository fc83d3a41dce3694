"""Network data model across pipeline stages, plus forward/backward engines.

A network is a sequential stack of dense/conv/batchnorm/maxpool/softmax layers.
It moves through the stages real -> pruned -> binarised -> expanded -> hardened,
and the stage picks the engine: the layer forward and backward in
_ENGINES[stage] for the one layer walk and its reverse, `backward`.  Each
training forward checks that its input is at the stage it trains; `forward`
and the quantised reference forward_hardened_bits (the walk with
_bits_layer) infer INFER_BATCH samples at a time.

Every compute layer is one windowed operator.  `windows` gives its geometry:
the layer reads `positions` windows of its input and writes one value per
channel and position.  A dense layer is conv over one position, whose window
is the whole flattened input; a conv layer's windows are its receptive
fields.  Both are one integer `index_map` (positions, window) into the
flattened input: the layer walk gathers window rows (one row per sample and
position) through it and scatters their gradients back through it, so each
engine only maps rows (rows, window) -> (rows, C), and the netlist builder
wires each window by the same map.

An expanded layer keeps its K-LUT nodes in one `LutData` of flat arrays:
the wiring `indices` (N, K), per-plane `coeffs` (B, N, 2**K), and channel
`offsets` (C+1,), channel c owning nodes offsets[c]:offsets[c+1].
`LutData.channels` gives per-channel views of them.
Phase 3 evaluates a whole layer's nodes at once: on +-1 inputs a node reads
only its vertex, so each layer tabulates its nodes' terms per vertex and
gathers them by slot, one value per (row, node) forward and one K-vector
backward (see expand.py).

A hardened network is its expanded network plus `frac_bits`: no mask or
threshold is stored.  The hardened engines and the netlist read each node's
truth tables as expand.harden_masks of its coefficients, and each layer's
thresholds as fold_batchnorm of the batch norm after it.

Conventions used by every engine and by the hardware path:
  * hidden activation is sign(batchnorm(.)) with sign(0) = +1; the batch-norm
    directly feeding the softmax head stays real,
  * from the binarised stage on, the network input is binarised with sign,
  * maxpool over {-1,+1} values is max, which is OR in the bit domain,
  * a compute layer's pre-activation is its plain dot product; level scaling
    is combined as pre = g1*s1; pre += g2*s2; ... (see combine_levels) so that
    binary, hardened and netlist paths agree bit-for-bit.  Any positive
    per-layer scale would fold into the following batch norm, so there is
    none,
  * quantise rounds scales and thresholds to integers of at most
    ACC_WIDTH_CAP signed bits, the width of an exact int64 accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expand as ex
from . import numerics as nm
from . import prune as pr
from .errors import DimensionError, FoldError, LoweringError, StageError

STAGES = ("real", "pruned", "binarised", "expanded", "hardened")
BN_MOMENTUM = 0.9   # running statistics keep this share of their old value per step
ACC_WIDTH_CAP = 62  # exact int64 simulation bound
INFER_BATCH = 500   # samples per block of an inference walk


def require_stage(net: "Network", *allowed: str) -> None:
    if net.stage not in allowed:
        raise StageError(f"operation requires stage in {allowed}, checkpoint is '{net.stage}'")


@dataclass
class DenseLayer:
    in_features: int
    out_features: int
    unrolled: bool = False
    weights: np.ndarray = None          # (out, in) real latent weights
    prune_mask: np.ndarray = None       # bool (out, in); False => weight held at 0
    phase1_weights: np.ndarray = None   # pre-pruning copy, kept for reconnection until expansion
    lut: "LutData" = None               # set by logic expansion

    kind = "dense"

    @property
    def window_size(self) -> int:
        return self.in_features


@dataclass
class ConvLayer:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    unrolled: bool = False
    weights: np.ndarray = None          # (out_channels, in_channels*kernel*kernel)
    prune_mask: np.ndarray = None
    phase1_weights: np.ndarray = None
    lut: "LutData" = None

    kind = "conv"

    @property
    def window_size(self) -> int:
        return self.in_channels * self.kernel * self.kernel


@dataclass
class BatchNormLayer:
    num_features: int
    gamma: np.ndarray = None
    beta: np.ndarray = None
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    eps: float = 1e-5

    kind = "batchnorm"


@dataclass
class MaxPoolLayer:
    size: int

    kind = "maxpool"


@dataclass
class SoftmaxLayer:
    kind = "softmax"


@dataclass
class LutChannel:
    """One output channel's nodes as views into its layer's flat arrays; it
    stores nothing, so in-place writes through it land in the layer."""

    indices: np.ndarray          # (N~, K) view
    coeffs: np.ndarray           # (B, N~, 2**K) view

    @property
    def n_nodes(self) -> int:
        return int(self.indices.shape[0])


@dataclass
class LutData:
    """The K-LUT nodes of one expanded layer, all channels in flat arrays.

    Channel c owns nodes offsets[c]:offsets[c+1], in ascending window
    position of their preserved input, which is column 0 of `indices`; the
    other K-1 columns are the drawn inputs.  Node n of plane b computes the
    interpolating extension with coefficients coeffs[b, n] and, once
    hardened, the truth table expand.harden_masks(coeffs)[b, n] (vertex
    encoding of expand.py)."""

    k: int
    gammas: np.ndarray           # (B,) per-plane output scales
    offsets: np.ndarray          # (C+1,) int64 node offsets per channel
    indices: np.ndarray          # (N, K) int64 window index of each node input
    coeffs: np.ndarray           # (B, N, 2**K) interpolation coefficients

    def spans(self) -> list:
        """(start, end) node range of each channel, in channel order."""
        return list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

    @property
    def channels(self) -> list:
        """Per-channel views of the flat arrays, in channel order."""
        return [LutChannel(self.indices[a:e], self.coeffs[:, a:e]) for a, e in self.spans()]


@dataclass
class Network:
    name: str
    layers: list
    b_levels: int
    input_shape: tuple
    seed: int
    stage: str = "real"
    frac_bits: int = None   # fractional bits of quantised scales and thresholds, set at harden

    def compute_layers(self):
        return [(i, l) for i, l in enumerate(self.layers) if l.kind in ("dense", "conv")]

    def bn_after(self, idx: int):
        """The batch-norm layer immediately following layer idx, or None."""
        if idx + 1 < len(self.layers) and self.layers[idx + 1].kind == "batchnorm":
            return self.layers[idx + 1]
        return None


def quantise(value: float, frac_bits: int) -> int:
    """Shared fixed-point rounding for model reference and netlist lowering;
    the result fits ACC_WIDTH_CAP signed bits."""
    q = np.rint(value * 2.0 ** frac_bits)
    if not abs(q) < 2.0 ** (ACC_WIDTH_CAP - 1):   # also catches inf and NaN
        raise LoweringError(f"{value:.6g} at {frac_bits} fractional bits does not fit "
                            f"a {ACC_WIDTH_CAP}-bit accumulator")
    return int(q)


def combine_levels(s_list, gammas):
    """pre = sum_b gamma_b * s_b, accumulated in ascending b.

    Every forward path that must agree bit-exactly (binary, hardened, K=1
    recovery) funnels through this helper so the float op order is identical.
    """
    acc = gammas[0] * s_list[0]
    for b in range(1, len(s_list)):
        acc = acc + gammas[b] * s_list[b]
    return acc


# ---------------------------------------------------------------------------
# construction


def _init_compute(layer, rng):
    fan_in = layer.window_size
    fan_out = layer.out_features if layer.kind == "dense" else layer.out_channels
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_out, fan_in)
    layer.weights = rng.uniform(-limit, limit, size=shape)
    layer.prune_mask = np.ones(shape, dtype=bool)


def _init_batchnorm(layer):
    n = layer.num_features
    layer.gamma = np.ones(n)
    layer.beta = np.zeros(n)
    layer.running_mean = np.zeros(n)
    layer.running_var = np.ones(n)


def init_network(net: Network) -> Network:
    """Seed-deterministic parameter initialisation (Glorot-uniform weights,
    identity batch norm)."""
    seq = np.random.SeedSequence(net.seed)
    children = seq.spawn(len(net.layers))
    for child, layer in zip(children, net.layers):
        if layer.kind in ("dense", "conv"):
            _init_compute(layer, np.random.default_rng(child))
        elif layer.kind == "batchnorm":
            _init_batchnorm(layer)
    return net


def build_preset(preset: str, seed: int, b_levels: int = 2) -> Network:
    """Named architectures. 'lfc-small' is the desk-scale profile used by the
    bundled pipeline config; 'lfc' and 'cnv' follow the full benchmark stacks."""
    if preset == "lfc-small":
        layers = [
            DenseLayer(784, 64, unrolled=False),
            BatchNormLayer(64),
            DenseLayer(64, 10, unrolled=True),
            BatchNormLayer(10),
            SoftmaxLayer(),
        ]
        net = Network("lfc_small", layers, b_levels, (784,), seed)
    elif preset == "lfc":
        dims = [784, 256, 256, 256, 256, 10]
        unrolled = [False, True, True, True, True]
        layers = []
        for i in range(5):
            layers.append(DenseLayer(dims[i], dims[i + 1], unrolled=unrolled[i]))
            layers.append(BatchNormLayer(dims[i + 1]))
        layers.append(SoftmaxLayer())
        net = Network("lfc", layers, b_levels, (784,), seed)
    elif preset == "cnv":
        layers = [
            ConvLayer(3, 64, 3, 1), BatchNormLayer(64),
            ConvLayer(64, 64, 3, 1), BatchNormLayer(64),
            MaxPoolLayer(2),
            ConvLayer(64, 128, 3, 1), BatchNormLayer(128),
            ConvLayer(128, 128, 3, 1), BatchNormLayer(128),
            MaxPoolLayer(2),
            ConvLayer(128, 256, 3, 1), BatchNormLayer(256),
            ConvLayer(256, 256, 3, 1, unrolled=True), BatchNormLayer(256),
            DenseLayer(256, 512), BatchNormLayer(512),
            DenseLayer(512, 512), BatchNormLayer(512),
            DenseLayer(512, 10), BatchNormLayer(10),
            SoftmaxLayer(),
        ]
        net = Network("cnv", layers, b_levels, (3, 32, 32), seed)
    else:
        raise ValueError(f"unknown preset '{preset}'")
    return init_network(net)


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True, eq=False)
class Windows:
    """How one compute layer reads its input: `positions` windows, each a
    row of inputs, and `out_shape[0]` channels written per position.

    index_map[p, j] is the flat index into the per-sample input of slot j of
    window p.  A dense layer is one position whose window is the whole
    flattened input, arange(in)[None, :]; a conv layer's windows are its
    receptive fields, position-major, with slots in (channel, ky, kx)
    C-order.  Engines see one row per (sample, position), gathered through
    the map; the netlist wires window slots through the same map."""

    in_shape: tuple
    out_shape: tuple        # (C,) for dense, (C, OH, OW) for conv
    index_map: np.ndarray   # (positions, window) int64

    @property
    def positions(self) -> int:
        return self.index_map.shape[0]

    def rows(self, h: np.ndarray) -> np.ndarray:
        """(B, *in_shape) -> (B*positions, window)."""
        flat = h.reshape(h.shape[0], math.prod(self.in_shape))   # not -1: B may be 0
        return flat[:, self.index_map].reshape(-1, self.index_map.shape[1])

    def rows_backward(self, drows: np.ndarray) -> np.ndarray:
        """Adjoint of rows: (B*positions, window) -> (B, *in_shape).  Each
        input adds its window gradients in ascending position."""
        n_in = int(np.prod(self.in_shape))
        bsz = drows.shape[0] // self.positions
        flat = self.index_map[None] + n_in * np.arange(bsz)[:, None, None]
        dx = np.bincount(flat.reshape(-1), weights=drows.reshape(-1), minlength=bsz * n_in)
        return dx.reshape((bsz,) + self.in_shape)

    def outputs(self, y: np.ndarray) -> np.ndarray:
        """(B*positions, C) -> (B, *out_shape), channels first."""
        bsz = y.shape[0] // self.positions
        return np.moveaxis(y.reshape(bsz, self.positions, self.out_shape[0]), -1, 1).reshape(
            (bsz,) + self.out_shape)

    def outputs_backward(self, d: np.ndarray) -> np.ndarray:
        """Adjoint of outputs: (B, *out_shape) -> (B*positions, C)."""
        c = self.out_shape[0]
        return np.moveaxis(d.reshape(d.shape[0], c, self.positions), 1, -1).reshape(-1, c)


def windows(layer, in_shape) -> Windows:
    """Window geometry of a compute layer on a per-sample input shape.  Shared
    by every engine and by the netlist builder."""
    in_shape = tuple(int(s) for s in in_shape)
    if layer.kind == "dense":
        if int(np.prod(in_shape)) != layer.in_features:
            raise DimensionError(f"dense layer expects {layer.in_features} inputs, got {in_shape}")
        return Windows(in_shape, (layer.out_features,),
                       np.arange(layer.in_features, dtype=np.int64)[None, :])
    if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
        raise DimensionError(f"conv layer expects ({layer.in_channels}, H, W), got {in_shape}")
    c, h, w = in_shape
    k, s = layer.kernel, layer.stride
    if h < k or w < k:
        raise DimensionError(f"kernel {k} does not fit input {h}x{w}")
    if (h - k) % s or (w - k) % s:
        raise DimensionError(f"stride {s} does not tile input {h}x{w} with kernel {k}")
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    slot = (np.arange(c)[:, None, None] * (h * w) + np.arange(k)[:, None] * w
            + np.arange(k)).reshape(-1)
    start = (np.arange(oh)[:, None] * (s * w) + np.arange(ow) * s).reshape(-1)
    return Windows(in_shape, (layer.out_channels, oh, ow),
                   (start[:, None] + slot).astype(np.int64))


def pool_out_shape(in_shape, size: int) -> tuple:
    """(C, H/size, W/size) of a maxpool over (C, H, W) inputs, which size
    must tile.  Shared by the engines and the netlist builder."""
    if len(in_shape) != 3:
        raise DimensionError(f"maxpool expects (C, H, W) inputs, got {tuple(in_shape)}")
    c, h, w = (int(d) for d in in_shape)
    if h % size or w % size:
        raise DimensionError(f"pool size {size} does not tile {h}x{w}")
    return c, h // size, w // size


# ---------------------------------------------------------------------------
# shared layer plumbing


def _is_head_bn(net, idx):
    """True if layer idx is the batch-norm feeding the softmax head (kept real)."""
    for later in net.layers[idx + 1:]:
        if later.kind != "softmax":
            return False
    return True


def levels(layer, b: int) -> list:
    """[(w_b, gamma_b), ...]: the b residual levels of a layer's latent
    weights, derived wherever they are read."""
    return pr.residual_binarise(layer.weights, layer.prune_mask, b)[0]


def _pool_forward(x, size):
    c, oh, ow = pool_out_shape(x.shape[1:], size)
    return x.reshape(x.shape[0], c, oh, size, ow, size).max(axis=(3, 5))


def _pool_backward(x, size, dy):
    bsz, c, h, w = x.shape
    r = x.reshape(bsz, c, h // size, size, w // size, size)
    m = r.max(axis=(3, 5), keepdims=True)
    # ties route the gradient to every argmax position
    grad = (r == m) * dy.reshape(bsz, c, h // size, 1, w // size, 1)
    return grad.reshape(bsz, c, h, w)


# ---------------------------------------------------------------------------
# layer walk: owns all window geometry, engines see rows only


def _forward_stack(net, x, training, layer_fn=None):
    """Common layer walk.  layer_fn, by default the stage's forward in
    _ENGINES, maps the window rows (B*positions, window) of compute layer idx
    to its outputs (B*positions, C) plus a cache; from the binarised stage on
    the network input is binarised.  _bits_layer folds the batch norm after
    its layer into thresholds, so the walk skips batch norms for it."""
    layer_fn = layer_fn or _ENGINES[net.stage][0]
    x = nm.as_tensor(x)
    nm.ensure_finite("network input", x)
    bsz = x.shape[0]
    if np.prod(x.shape[1:]) != np.prod(net.input_shape):
        raise DimensionError(f"{net.name} takes inputs of {np.prod(net.input_shape)} values "
                             f"{tuple(net.input_shape)}, got {np.prod(x.shape[1:])}")
    h = x.reshape((bsz,) + tuple(net.input_shape))
    if net.stage not in ("real", "pruned"):
        h = nm.sign_pm1(h)
    caches = []
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("dense", "conv"):
            win = windows(layer, h.shape[1:])
            y, cache = layer_fn(net, idx, win.rows(h))
            caches.append(("compute", idx, (win, cache)))
            h = win.outputs(y)
        elif layer.kind == "batchnorm":
            if layer_fn is _bits_layer:
                continue
            head = _is_head_bn(net, idx)
            moved = h if h.ndim == 2 else np.moveaxis(h, 1, -1)
            shp = moved.shape
            flat = moved.reshape(-1, shp[-1])
            if training:
                y, mu, var, bn_cache = nm.batchnorm_train_forward(flat, layer.gamma, layer.beta, layer.eps)
                layer.running_mean = BN_MOMENTUM * layer.running_mean + (1 - BN_MOMENTUM) * mu
                layer.running_var = BN_MOMENTUM * layer.running_var + (1 - BN_MOMENTUM) * var
            else:
                y = nm.batchnorm_forward(flat, layer.running_mean, layer.running_var,
                                         layer.gamma, layer.beta, layer.eps)
                bn_cache = None
            caches.append(("batchnorm", idx, (bn_cache, None if head else y, shp, head)))
            if not head:
                y = nm.sign_pm1(y)
            h = y.reshape(shp) if len(shp) == 2 else np.moveaxis(y.reshape(shp), -1, 1)
        elif layer.kind == "maxpool":
            caches.append(("maxpool", idx, h))
            h = _pool_forward(h, layer.size)
        elif layer.kind != "softmax":
            raise ValueError(f"unknown layer kind {layer.kind}")
    return h, caches


def backward(net: Network, caches, dlogits):
    """Parameter gradients of a training forward, by the reverse walk over
    its caches.  The stage's layer backward in _ENGINES maps output gradient
    rows (B*positions, C) to window-row gradients (B*positions, window) and
    records the layer's parameter gradients.  The gradient of the network
    input is not formed."""
    layer_bwd = _ENGINES[net.stage][1]
    grads = {}
    d = nm.as_tensor(dlogits)
    for kind, idx, cache in reversed(caches):
        if kind == "batchnorm":
            bn_cache, pre_sign, shp, head = cache
            if d.ndim > 2:
                d = np.moveaxis(d, 1, -1)
            dflat = d.reshape(-1, shp[-1])
            if not head:
                dflat = nm.sign_ste_backward(pre_sign, dflat)
            dx, dgamma, dbeta = nm.batchnorm_backward(bn_cache, dflat)
            grads[f"l{idx}.gamma"] = dgamma
            grads[f"l{idx}.beta"] = dbeta
            d = dx.reshape(shp) if len(shp) == 2 else np.moveaxis(dx.reshape(shp), -1, 1)
        elif kind == "maxpool":
            d = _pool_backward(cache, net.layers[idx].size, d)
        else:
            win, inner = cache
            drows = layer_bwd(net, idx, inner, win.outputs_backward(d), grads)
            if idx:   # layer 0 reads the network input
                d = win.rows_backward(drows)
    return grads


# the backward of each training phase, under the names that training._PHASES
# calls so that the benchmark's tracer times each phase's backward
backward_real = backward_binary = backward_lut = backward


# ---------------------------------------------------------------------------
# real-weight engine (phase 1)


def _real_layer(net, idx, rows):
    layer = net.layers[idx]
    w = layer.weights * layer.prune_mask
    return rows @ w.T, (rows, w)


def _real_layer_bwd(net, idx, cache, drows, grads):
    rows, w = cache
    grads[f"l{idx}.weights"] = (drows.T @ rows) * net.layers[idx].prune_mask
    return drows @ w


def forward_real_train(net: Network, x):
    require_stage(net, "real", "pruned")
    return _forward_stack(net, x, True)


# ---------------------------------------------------------------------------
# binarised engine (phase 2): the forward binarises the latent weights into
# residual levels, scales in closed form, untrained, and hands them to the
# backward in its cache; inputs are +-1


def _binary_dots(layer, xt, lv):
    """Per-level integer-exact dot products of +-1 inputs with masked level weights."""
    return [xt @ (w_b * layer.prune_mask).T for w_b, _gamma in lv]


def _binary_layer(net, idx, rows):
    layer = net.layers[idx]
    lv = levels(layer, net.b_levels)
    return combine_levels(_binary_dots(layer, rows, lv), [g for _w, g in lv]), (rows, lv)


def forward_binary_train(net: Network, x):
    require_stage(net, "binarised")
    return _forward_stack(net, x, True)


def _binary_layer_bwd(net, idx, cache, d, grads):
    """STE gradient of a binary layer: the latent real weights receive the
    gradient of the binary weights reconstructed from the forward's levels,
    clip-gated at |w| <= 1."""
    layer = net.layers[idx]
    rows, lv = cache
    grads[f"l{idx}.weights"] = (d.T @ rows) * layer.prune_mask * (np.abs(layer.weights) <= 1.0)
    rec = np.zeros_like(layer.weights)
    for w_b, g in lv:
        rec += g * w_b
    return d @ (rec * layer.prune_mask)


# ---------------------------------------------------------------------------
# batch-norm folding for the hardware path


def fold_batchnorm(bn: BatchNormLayer):
    """Fold inference-mode batch norm + sign into per-neuron thresholds:
    sign(bn(s)) == sign(tau - s) if flip else sign(s - tau)."""
    zero = np.flatnonzero(bn.gamma == 0.0)
    if zero.size:
        raise FoldError(f"batch-norm gamma is zero for neuron(s) {zero.tolist()}; cannot fold")
    sigma = np.sqrt(bn.running_var + bn.eps)
    with np.errstate(over="ignore"):
        tau = bn.running_mean - bn.beta * sigma / bn.gamma
    bad = np.flatnonzero(~np.isfinite(tau))
    if bad.size:
        raise FoldError(f"batch norm folds to a non-finite threshold for neuron(s) "
                        f"{bad.tolist()}; cannot fold")
    flip = bn.gamma < 0.0
    return tau, flip


# ---------------------------------------------------------------------------
# expanded engine (phase 3): interpolated LUT nodes on binarised inputs.  On
# +-1 inputs everything a node reads depends only on its vertex code, so
# each layer evaluates expand.interp_basis (forward) and
# expand.interp_dx_partial (backward) once on the 2**K codes, builds
# per-vertex tables, (N, 2**K) of value * coefficient per plane and
# (N * 2**K, K) of input partials, and gathers them by slot =
# node * 2**K + code: one value per (row, node) forward, one contiguous
# K-vector backward.  Time-multiplexed layers (lut is None) keep the binary
# engine.

# (row, node, input) entries per block of the backward scatter: a block's
# gathered values and scatter index, 1 MB each, stay in a core's L2 cache
BLOCK_ENTRIES = 1 << 17


def _vertex_slots(lut, rows):
    """(rows, N) slots node * 2**K + code of every node on +-1 window rows,
    bit k of code set iff input k is negative: the coefficient that
    interp_basis reads.  A truth table reads slot ^ (2**K - 1), the vertex
    of the inputs themselves."""
    # gathered node-major, each node's signs one contiguous row, then
    # transposed to row-major, the order of every later gather and bincount
    neg = np.ascontiguousarray((rows < 0).T).view(np.uint8)
    code = neg[lut.indices[:, 0]]
    for k in range(1, lut.k):
        code |= neg[lut.indices[:, k]] << k
    return (np.arange(lut.indices.shape[0]) << lut.k) + np.ascontiguousarray(code.T)


def _channel_sums(lut, planes):
    """Per-channel sums (rows, C) of each plane's node terms (rows, N): one
    bincount per plane over row * C + channel, an index built once, which
    adds each channel's nodes in ascending order; a channel with no nodes
    sums to 0."""
    rows, c = planes[0].shape[0], lut.offsets.shape[0] - 1
    index = (np.arange(rows)[:, None] * c
             + np.repeat(np.arange(c), np.diff(lut.offsets))).reshape(-1)
    return [np.bincount(index, weights=t.reshape(-1), minlength=rows * c).reshape(rows, c)
            for t in planes]


def _lut_layer(net, idx, rows):
    lut = net.layers[idx].lut
    if lut is None:
        return _binary_layer(net, idx, rows)
    # row v of -vertices(K) is the point whose code is v
    value = ex.interp_basis(-ex.vertices(lut.k), lut.k)[1]   # (2**K,)
    slot = _vertex_slots(lut, rows)
    s_list = _channel_sums(lut, [np.take((value * c).reshape(-1), slot) for c in lut.coeffs])
    return combine_levels(s_list, lut.gammas), (slot, value, s_list)


def forward_lut_train(net: Network, x):
    require_stage(net, "expanded")
    return _forward_stack(net, x, True)


def _lut_layer_bwd(net, idx, cache, drows, grads):
    """Gradient of one layer in the expanded engine: coefficients, plane scales
    and inputs for expanded layers, the binary STE otherwise.  Each bincount
    adds in ascending row, then node, then input order."""
    lut = net.layers[idx].lut
    if lut is None:
        return _binary_layer_bwd(net, idx, cache, drows, grads)
    slot, value, s_list = cache
    k, n_nodes = lut.k, lut.indices.shape[0]
    rows, window = slot.shape[0], net.layers[idx].window_size
    dnode = np.repeat(drows, np.diff(lut.offsets), axis=1)   # (rows, N)
    # value is +-2**K in each bin, so scaling the bin sums is exact; + 0.0
    # turns the -0.0 of an empty bin into the 0.0 a bincount gives
    dbasis = np.bincount(slot.reshape(-1), weights=dnode.reshape(-1),
                         minlength=n_nodes << k).reshape(n_nodes, -1) * value + 0.0
    grads[f"l{idx}.lut.coeffs"] = lut.gammas[:, None, None] * dbasis
    grads[f"l{idx}.lut.gammas"] = np.array([float(np.sum(drows * s)) for s in s_list])
    # input k of a node reads the coefficients at its vertex with bit k clear
    # and set; row slot of table holds the K partials times those pairs
    ceff = np.einsum("b,bnv->nv", lut.gammas, lut.coeffs)
    vertex, bit = np.arange(1 << k)[:, None], 1 << np.arange(k)
    partial = ex.interp_dx_partial(-ex.vertices(k), k)   # (2**K, K)
    pair = (np.take(ceff, (vertex & ~bit).reshape(-1), axis=1)
            + np.take(ceff, (vertex | bit).reshape(-1), axis=1))   # (N, 2**K * K)
    table = (partial.reshape(-1) * pair).reshape(-1, k)
    # gather, weight and scatter to the window slots a block of rows at a
    # time, the blocks sharing one scatter index
    wires = lut.indices.reshape(-1)
    block = max(1, min(rows, BLOCK_ENTRIES // max(wires.size, 1)))
    index = (np.arange(block)[:, None] * window + wires).reshape(-1)
    drows_in = np.empty((rows, window))
    for a in range(0, rows, block):
        e = min(a + block, rows)
        dxg = np.take(table, slot[a:e], axis=0)   # (e - a, N, K)
        dxg *= dnode[a:e, :, None]
        drows_in[a:e] = np.bincount(index[:dxg.size], weights=dxg.reshape(-1),
                                    minlength=(e - a) * window).reshape(e - a, window)
    return drows_in


# ---------------------------------------------------------------------------
# hardened engines


def _plane_gammas(layer, b):
    """(B,) plane scales of a compute layer from the binarised stage on."""
    if layer.lut is not None:
        return layer.lut.gammas
    return np.array([g for _w, g in levels(layer, b)])


def _hardened_layer_sums(net, idx, flat_bits):
    """Per-plane integer sums (rows, C) of hardened layer idx: its binary dots,
    or its truth-table outputs per channel; sums of +-1 are exact in float64."""
    layer = net.layers[idx]
    if layer.lut is None:
        return [s.astype(np.int64)
                for s in _binary_dots(layer, flat_bits, levels(layer, net.b_levels))]
    lut = layer.lut
    slot = _vertex_slots(lut, flat_bits) ^ ((1 << lut.k) - 1)
    masks = ex.harden_masks(lut.coeffs)
    return [s.astype(np.int64)
            for s in _channel_sums(lut, [np.take(m.reshape(-1), slot) for m in masks])]


def quantise_layer(net: Network, idx: int):
    """(q_gammas (B,), q_tau (C,), flip (C,), acc_width (C,)) of hardened
    compute layer idx and the batch norm after it, for _bits_layer and the
    netlist: scales and the thresholds the batch norm folds to at
    net.frac_bits, and each channel's two's-complement accumulator bits for
    sum_b |q_b| * N~ + |q_tau|, in Python integers so that they cannot wrap."""
    layer = net.layers[idx]
    n_tilde = layer.prune_mask.sum(axis=1)   # nodes per channel, as in the LUT offsets
    q_gammas = np.array([quantise(float(g), net.frac_bits)
                         for g in _plane_gammas(layer, net.b_levels)], dtype=np.int64)
    tau, flip = fold_batchnorm(net.bn_after(idx))
    q_tau = np.array([quantise(float(t), net.frac_bits) for t in tau], dtype=np.int64)
    scale = sum(abs(q) for q in q_gammas.tolist())
    acc_width = np.array([max(1, (scale * n + abs(t)).bit_length()) + 1
                          for n, t in zip(n_tilde.tolist(), q_tau.tolist())], dtype=np.int64)
    over = np.flatnonzero(acc_width > ACC_WIDTH_CAP)
    if over.size:
        c = int(over[0])
        raise LoweringError(f"l{idx}_c{c}: accumulator needs {acc_width[c]} bits "
                            f"(> {ACC_WIDTH_CAP}); reduce fixed-point fractional bits")
    return q_gammas, q_tau, flip, acc_width


def _hardened_layer(net, idx, rows):
    """Truth-table sums with real plane scales: hidden layers then meet the
    real batch norms' sign thresholds, the head their real affine.  Equals
    the binary engine for K=1 buffer/inverter masks."""
    s_list = [s.astype(np.float64) for s in _hardened_layer_sums(net, idx, rows)]
    return combine_levels(s_list, _plane_gammas(net.layers[idx], net.b_levels)), None


def _bits_layer(net, idx, rows):
    """The quantised reference of layer idx and the batch norm after it, as
    the netlist computes them: integer sums, scales and thresholds quantised
    to net.frac_bits fractional bits, {-1,+1} threshold bits out."""
    q_gammas, q_tau, flip, _width = quantise_layer(net, idx)
    acc = sum(q * s for q, s in zip(q_gammas, _hardened_layer_sums(net, idx, rows)))
    return np.where(np.where(flip, acc <= q_tau, acc >= q_tau), 1.0, -1.0), None


# stage -> (layer forward, layer backward); a hardened net does not train
_ENGINES = {"real": (_real_layer, _real_layer_bwd), "pruned": (_real_layer, _real_layer_bwd),
            "binarised": (_binary_layer, _binary_layer_bwd),
            "expanded": (_lut_layer, _lut_layer_bwd), "hardened": (_hardened_layer, None)}


def _infer(net, x, layer_fn=None):
    """The inference walk, INFER_BATCH samples at a time (an empty batch in
    one block): samples are independent at inference, so blocks change no
    output but bound memory."""
    x = nm.as_tensor(x)
    return np.concatenate([_forward_stack(net, x[a:a + INFER_BATCH], False, layer_fn)[0]
                           for a in range(0, max(x.shape[0], 1), INFER_BATCH)])


def forward(net: Network, x) -> np.ndarray:
    """Inference logits at any stage, from the stage's engine.  A hardened
    network is scored with real plane scales and batch norms;
    forward_hardened_bits is its quantised reference."""
    require_stage(net, *STAGES)
    return _infer(net, x)


def forward_hardened_bits(net: Network, x) -> np.ndarray:
    """Quantised reference of the lowered netlist: the inference walk with
    the _bits_layer engine, every compute layer (including the head)
    emitting {-1,+1} threshold bits."""
    require_stage(net, "hardened")
    return _infer(net, x, _bits_layer)
