"""Network data model across pipeline stages, plus forward/backward engines.

A network is a sequential stack of dense/conv/batchnorm/maxpool/softmax layers.
It moves through the stages real -> pruned -> binarised -> expanded -> hardened;
every engine validates the stage tag of its input.

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
the wiring `indices` (N, K), per-plane `coeffs` and hardened `masks`
(B, N, 2**K), and channel `offsets` (C+1,), channel c owning nodes
offsets[c]:offsets[c+1].  `LutData.channels` gives per-channel views of them.
Phase 3 evaluates a whole layer's nodes at once as vertex gathers on their +-1
inputs: one coefficient forward, two per input backward (see expand.py).

A hardened network is its expanded network plus `frac_bits`: the truth-table
masks, folded thresholds `tau` and `flip` are computed from the coefficients
and batch norms by expand.harden_network, and by nothing else.

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

from dataclasses import dataclass

import numpy as np

from . import expand as ex
from . import numerics as nm
from .errors import DimensionError, FoldError, LoweringError, StageError

STAGES = ("real", "pruned", "binarised", "expanded", "hardened")
BN_MOMENTUM = 0.9   # running statistics keep this share of their old value per step
ACC_WIDTH_CAP = 62  # exact int64 simulation bound


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
    levels: list = None                 # [(w_b pm1 array, gamma_b), ...] while binary
    lut: "LutData" = None               # set by logic expansion
    tau: np.ndarray = None              # folded thresholds, set at harden
    flip: np.ndarray = None

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
    levels: list = None
    lut: "LutData" = None
    tau: np.ndarray = None
    flip: np.ndarray = None

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
    hardened, the truth table masks[b, n] (vertex encoding of expand.py)."""

    k: int
    gammas: np.ndarray           # (B,) per-plane output scales
    offsets: np.ndarray          # (C+1,) int64 node offsets per channel
    indices: np.ndarray          # (N, K) int64 window index of each node input
    coeffs: np.ndarray           # (B, N, 2**K) interpolation coefficients
    masks: np.ndarray = None     # (B, N, 2**K) int8 in {-1,+1} once hardened

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
        return h.reshape(h.shape[0], -1)[:, self.index_map].reshape(-1, self.index_map.shape[1])

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
        return np.moveaxis(y.reshape(bsz, self.positions, -1), -1, 1).reshape(
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


def _masked(layer):
    return layer.weights * layer.prune_mask


def _level_arrays(layer):
    if layer.levels is None:
        raise StageError(f"{layer.kind} layer has no residual levels populated")
    return layer.levels


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


def _forward_stack(net, x, training, layer_fn, binarise_input):
    """Common layer walk.  layer_fn(layer, rows) maps window rows
    (B*positions, window) to pre-activation rows (B*positions, C) plus a cache."""
    x = nm.as_tensor(x)
    nm.ensure_finite("network input", x)
    bsz = x.shape[0]
    if np.prod(x.shape[1:]) != np.prod(net.input_shape):
        raise DimensionError(f"{net.name} takes inputs of {np.prod(net.input_shape)} values "
                             f"{tuple(net.input_shape)}, got {np.prod(x.shape[1:])}")
    h = x.reshape((bsz,) + tuple(net.input_shape))
    if binarise_input:
        h = nm.sign_pm1(h)
    caches = []
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("dense", "conv"):
            win = windows(layer, h.shape[1:])
            y, cache = layer_fn(layer, win.rows(h))
            caches.append(("compute", idx, (win, cache)))
            h = win.outputs(y)
        elif layer.kind == "batchnorm":
            head = _is_head_bn(net, idx)
            feat = h
            moved = feat if feat.ndim == 2 else np.moveaxis(feat, 1, -1)
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
            if head:
                caches.append(("batchnorm", idx, (bn_cache, None, shp, head)))
            else:
                caches.append(("batchnorm", idx, (bn_cache, y, shp, head)))
                y = nm.sign_pm1(y)
            h = y.reshape(shp) if len(shp) == 2 else np.moveaxis(y.reshape(shp), -1, 1)
        elif layer.kind == "maxpool":
            caches.append(("maxpool", idx, h))
            h = _pool_forward(h, layer.size)
        elif layer.kind == "softmax":
            caches.append(("softmax", idx, None))
        else:
            raise ValueError(f"unknown layer kind {layer.kind}")
    return h, caches


def _backward_stack(net, caches, dlogits, layer_bwd):
    """Reverse walk; returns the parameter gradients.  layer_bwd(idx, layer,
    cache, drows, grads) maps output gradient rows (B*positions, C) to
    window-row gradients (B*positions, window) and records the layer's
    parameter gradients in grads.  The gradient of the network input is not
    formed."""
    grads = {}
    d = nm.as_tensor(dlogits)
    for kind, idx, cache in reversed(caches):
        layer = net.layers[idx]
        if kind == "softmax":
            continue
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
            d = _pool_backward(cache, layer.size, d)
        elif kind == "compute":
            win, inner = cache
            drows = layer_bwd(idx, layer, inner, win.outputs_backward(d), grads)
            if idx:   # layer 0 reads the network input
                d = win.rows_backward(drows)
    return grads


# ---------------------------------------------------------------------------
# real-weight engine (phase 1)


def _real_layer(layer, rows):
    w = _masked(layer)
    return rows @ w.T, (rows, w)


def forward_real(net: Network, x) -> np.ndarray:
    """Inference forward for real-weight checkpoints; returns logits."""
    require_stage(net, "real", "pruned")
    logits, _ = _forward_stack(net, x, False, _real_layer, binarise_input=False)
    return logits


def forward_real_train(net: Network, x):
    require_stage(net, "real", "pruned")
    return _forward_stack(net, x, True, _real_layer, binarise_input=False)


def backward_real(net: Network, caches, dlogits):
    """Gradients for phase-1 training: weights and batch-norm parameters."""

    def layer_bwd(idx, layer, cache, d, grads):
        rows, w = cache
        grads[f"l{idx}.weights"] = (d.T @ rows) * layer.prune_mask
        return d @ w

    return _backward_stack(net, caches, dlogits, layer_bwd)


# ---------------------------------------------------------------------------
# binarised engine (phase 2); weights live in residual levels, inputs are +-1


def _binary_dots(layer, xt):
    """Per-level integer-exact dot products of +-1 inputs with masked level weights."""
    outs = []
    for w_b, _gamma in _level_arrays(layer):
        outs.append(xt @ (w_b * layer.prune_mask).T)
    return outs


def _binary_layer(layer, rows):
    return combine_levels(_binary_dots(layer, rows), _plane_gammas(layer)), rows


def forward_binary(net: Network, x) -> np.ndarray:
    """Inference forward for residual-binarised checkpoints; returns logits."""
    require_stage(net, "binarised")
    logits, _ = _forward_stack(net, x, False, _binary_layer, binarise_input=True)
    return logits


def forward_binary_train(net: Network, x):
    require_stage(net, "binarised")
    return _forward_stack(net, x, True, _binary_layer, binarise_input=True)


def _reconstructed(layer):
    rec = np.zeros_like(layer.weights)
    for w_b, g in _level_arrays(layer):
        rec += g * w_b
    return rec * layer.prune_mask


def _binary_layer_bwd(idx, layer, rows, d, grads):
    """STE gradient of a binary layer: the latent real weights receive the
    gradient of the reconstructed binary weights, clip-gated at |w| <= 1."""
    grads[f"l{idx}.weights"] = (d.T @ rows) * layer.prune_mask * (np.abs(layer.weights) <= 1.0)
    return d @ _reconstructed(layer)


def backward_binary(net: Network, caches, dlogits):
    """STE gradients for phase 2; level scales are refreshed in closed form by
    the training loop, not trained here."""
    return _backward_stack(net, caches, dlogits, _binary_layer_bwd)


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
# expanded engine (phase 3): interpolated LUT nodes on binarised inputs, as
# vertex gathers (expand.interp_basis forward, expand.interp_dx_partial
# backward); time-multiplexed layers (lut is None) keep the binary engine


def _channel_sums(lut, terms):
    """Per-channel sums (rows, C) of node terms (rows, N): one bincount over
    row * C + channel, which adds each channel's nodes in ascending order; a
    channel with no nodes sums to 0."""
    rows, c = terms.shape[0], lut.offsets.shape[0] - 1
    slot = np.arange(rows)[:, None] * c + np.repeat(np.arange(c), np.diff(lut.offsets))
    return np.bincount(slot.reshape(-1), weights=terms.reshape(-1),
                       minlength=rows * c).reshape(rows, c)


def _lut_layer(layer, rows):
    if layer.lut is None:
        return _binary_layer(layer, rows)
    lut = layer.lut
    xg = rows[:, lut.indices]                           # (rows, N, K)
    vertex, value = ex.interp_basis(xg, lut.k)          # (rows, N) each
    slot = np.arange(xg.shape[1]) * (1 << lut.k) + vertex   # flat (node, vertex) index
    s_list = [_channel_sums(lut, value * c.reshape(-1)[slot]) for c in lut.coeffs]
    return combine_levels(s_list, lut.gammas), (xg, slot, value, s_list)


def forward_lut(net: Network, x):
    """Forward for LUT-form checkpoints.

    Expanded stage: interpolated node functions on binarised inputs; returns
    real logits.  Hardened stage: truth-table lookups with quantised scales and
    folded thresholds; returns the output layer's {-1,+1} threshold bits,
    bit-exact with the lowered netlist.
    """
    require_stage(net, "expanded", "hardened")
    if net.stage == "expanded":
        logits, _ = _forward_stack(net, x, False, _lut_layer, binarise_input=True)
        return logits
    return forward_hardened_bits(net, x)


def forward_lut_train(net: Network, x):
    require_stage(net, "expanded")
    return _forward_stack(net, x, True, _lut_layer, binarise_input=True)


def _lut_layer_bwd(idx, layer, cache, drows, grads):
    """Gradient of one layer in the expanded engine: coefficients, plane scales
    and inputs for expanded layers, the binary STE otherwise.  Each bincount
    adds in ascending row, then node, then input order."""
    if layer.lut is None:
        return _binary_layer_bwd(idx, layer, cache, drows, grads)
    xg, slot, value, s_list = cache
    lut = layer.lut
    rows, _n, k = xg.shape
    dnode = np.repeat(drows, np.diff(lut.offsets), axis=1)   # (rows, N)
    dbasis = np.bincount(slot.reshape(-1), weights=(dnode * value).reshape(-1),
                         minlength=lut.coeffs[0].size).reshape(lut.coeffs.shape[1:])
    grads[f"l{idx}.lut.coeffs"] = lut.gammas[:, None, None] * dbasis
    grads[f"l{idx}.lut.gammas"] = np.array([float(np.sum(drows * s)) for s in s_list])
    # input k of a node reads the coefficients at its vertex with bit k clear and set
    ceff = np.einsum("b,bnv->nv", lut.gammas, lut.coeffs).reshape(-1)
    bit = 1 << np.arange(k)
    pair = ceff[slot[..., None] & ~bit] + ceff[slot[..., None] | bit]
    dxg = ex.interp_dx_partial(xg, k) * pair * dnode[..., None]
    flat = np.arange(rows)[:, None, None] * layer.window_size + lut.indices
    return np.bincount(flat.reshape(-1), weights=dxg.reshape(-1),
                       minlength=rows * layer.window_size).reshape(rows, -1)


def backward_lut(net: Network, caches, dlogits):
    """Phase-3 gradients: LUT coefficients and plane scales for expanded layers,
    STE latent-weight gradients for time-multiplexed layers, batch-norm
    parameters everywhere."""
    return _backward_stack(net, caches, dlogits, _lut_layer_bwd)


# ---------------------------------------------------------------------------
# hardened engines


def _plane_gammas(layer):
    """(B,) plane scales of a compute layer from the binarised stage on."""
    if layer.lut is not None:
        return layer.lut.gammas
    return np.array([g for _w, g in _level_arrays(layer)])


def _hardened_layer_sums(layer, flat_bits):
    """Per-plane integer sums (rows, C) of one hardened layer: its binary dots,
    or its truth-table outputs per channel; sums of +-1 are exact in float64."""
    if layer.lut is None:
        return [s.astype(np.int64) for s in _binary_dots(layer, flat_bits)]
    lut = layer.lut
    vertex = ((flat_bits[:, lut.indices] > 0) << np.arange(lut.k)).sum(axis=-1)   # (rows, N)
    node = np.arange(vertex.shape[1])
    return [_channel_sums(lut, m[node, vertex]).astype(np.int64) for m in lut.masks]


def quantise_layer(layer, frac_bits: int, what: str):
    """(q_gammas (B,), q_tau (C,), acc_width (C,)) of a hardened compute layer,
    for forward_hardened_bits and the netlist: scales and thresholds at
    frac_bits, and each channel's two's-complement accumulator bits for
    sum_b |q_b| * N~ + |q_tau|, in Python integers so that they cannot wrap."""
    n_tilde = layer.prune_mask.sum(axis=1)   # nodes per channel, as in the LUT offsets
    q_gammas = np.array([quantise(float(g), frac_bits) for g in _plane_gammas(layer)],
                        dtype=np.int64)
    q_tau = np.array([quantise(float(t), frac_bits) for t in layer.tau], dtype=np.int64)
    scale = sum(abs(q) for q in q_gammas.tolist())
    acc_width = np.array([max(1, (scale * n + abs(t)).bit_length()) + 1
                          for n, t in zip(n_tilde.tolist(), q_tau.tolist())], dtype=np.int64)
    over = np.flatnonzero(acc_width > ACC_WIDTH_CAP)
    if over.size:
        c = int(over[0])
        raise LoweringError(f"{what}_c{c}: accumulator needs {acc_width[c]} bits "
                            f"(> {ACC_WIDTH_CAP}); reduce fixed-point fractional bits")
    return q_gammas, q_tau, acc_width


def forward_hardened_logits(net: Network, x) -> np.ndarray:
    """Real-scaled forward of a hardened network: hidden layers use the truth
    tables with exact batch-norm sign thresholds, the head layer applies the
    real batch-norm affine to its scaled popcount.  Bit-compatible with
    forward_binary for K=1 buffer/inverter masks."""
    require_stage(net, "hardened")

    def layer_fn(layer, rows):
        s_list = [s.astype(np.float64) for s in _hardened_layer_sums(layer, rows)]
        return combine_levels(s_list, _plane_gammas(layer)), None

    logits, _ = _forward_stack(net, x, False, layer_fn, binarise_input=True)
    return logits


def forward_hardened_bits(net: Network, x) -> np.ndarray:
    """Quantised reference of the lowered netlist: integer popcount sums, scales
    and thresholds quantised to net.frac_bits fractional bits, every layer
    (including the head) emitting {-1,+1} threshold bits."""
    require_stage(net, "hardened")
    x = nm.as_tensor(x)
    bsz = x.shape[0]
    h = nm.sign_pm1(x.reshape((bsz,) + tuple(net.input_shape)))
    for idx, layer in enumerate(net.layers):
        if layer.kind in ("batchnorm", "softmax"):
            continue
        if layer.kind == "maxpool":
            h = _pool_forward(h, layer.size)
            continue
        win = windows(layer, h.shape[1:])
        q_gammas, q_tau, _width = quantise_layer(layer, net.frac_bits, f"l{idx}")
        s_list = _hardened_layer_sums(layer, win.rows(h))
        acc = sum(q * s for q, s in zip(q_gammas, s_list))
        fire = np.where(layer.flip, acc <= q_tau, acc >= q_tau)
        h = win.outputs(np.where(fire, 1.0, -1.0))
    return h
