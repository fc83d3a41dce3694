"""Network data model across pipeline stages, plus forward/backward engines.

A network is a sequential stack of dense/conv/batchnorm/maxpool/softmax layers.
It moves through the stages real -> pruned -> binarised -> expanded -> hardened,
and one engine, the plane-sum engine's _plane_layer and _plane_layer_bwd,
serves every stage in the one layer walk and its reverse, `backward`; the
stage fixes what each layer's planes are.  Each training forward checks that
its input is at the stage it trains; `forward` and the quantised reference
forward_hardened_bits (the walk with _bits_layer) derive what each layer
reads of the net once per call, then infer INFER_BATCH samples at a time.

Every dense, conv and maxpool layer is one windowed operator and one step
of `steps`, the one checked layer plan, which the walk, `backward`,
expand.harden_network, hwgen.lower, the label check and the loader read;
it alone pairs each layer with the batch norm after it, which the walk
runs on the layer's own output rows.  `windows` gives its geometry: the
layer reads `positions` windows of its input and writes one value per
channel and position.  A dense layer is conv over one
position, whose window is the whole flattened input; a conv layer's windows
are its receptive fields, and a maxpool's are conv windows with
kernel = stride = size, reduced by a max per channel (_pool_layer).  Each is
one integer `index_map` (positions, window) into the flattened input: the
layer walk gathers window rows (one row per sample and position) through it
and scatters their gradients back through it, so each engine and batch norm
only maps rows, (rows, window) -> (rows, C) -> (rows, C), and the netlist
builder wires each window by the same map.

Every layer forward reads one per-plane sum, _plane_sums: per plane and
channel, the sum of functions of the window's inputs.  Before binarisation
a layer has one plane, its latent weights at scale 1, on real inputs (a
real layer is a residual sum of one level); from then on the inputs are
+-1 and the functions are Boolean: XNORs with the binary levels of a layer
without LUTs, an expanded layer's interpolated K-LUT nodes, and their truth
tables once hardened.

K-LUT nodes sit in the unrolled dense and conv layers only, each of which
has them exactly from the expanded stage on, as `steps` checks.  An
expanded layer keeps its K-LUT nodes in one `LutData` of flat arrays:
the wiring `indices` (N, K), per-plane `coeffs` (B, N, 2**K), and channel
`offsets` (C+1,), channel c owning nodes offsets[c]:offsets[c+1].
`LutData.channels` gives per-channel views of them.
The plane-sum engine evaluates all of a layer's nodes together: on +-1
inputs a node reads only its vertex, so a layer tabulates its nodes' terms
per vertex, keeps the vertex codes of its rows as (rows, N) uint8, and
gathers its terms by slot, one value per (row, node) forward and one
K-vector backward (see expand.py), a block of about numerics.BLOCK_ENTRIES
entries at a time.  The blocks bound each pass's temporaries by entries
rather than rows, whatever the batch, and change no result.  The forward is
numerics' node-sum kernel, which hwgen.simulate runs on truth tables too.

A hardened network is its expanded network plus `frac_bits`: no mask or
threshold is stored.  Each node's truth tables are the signs of its terms,
which the plane-sum engine and _bits_layer read as _plane_terms tabulates
them and the netlist as expand.harden_masks of its coefficients, and each
layer's thresholds are fold_batchnorm of its step's batch norm.

Conventions used by every engine and by the hardware path:
  * hidden activation is sign(batchnorm(.)) with sign(0) = +1; the batch-norm
    directly feeding the softmax head stays real,
  * a uint8 network input holds pixel intensities p and reads as
    p/127.5 - 1, a batch at a time in the walk; inputs of hardware bits
    (0/1) go to hwgen.simulate only,
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

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import expand as ex
from . import numerics as nm
from . import prune as pr
from .errors import ConfigError, DimensionError, FoldError, LoweringError, StageError

STAGES = ("real", "pruned", "binarised", "expanded", "hardened")
REAL_STAGES = STAGES[:2]   # before binarisation: real inputs and latent weights
WINDOWED = ("dense", "conv", "maxpool")   # the layer kinds the walk steps through
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

    Every layer forward of the plane-sum engine, at every stage, funnels
    through this helper so the float op order is identical on the paths that
    must agree bit-exactly (binary, hardened, K=1 recovery); the backward of
    a layer without LUTs combines its masked planes the same way.
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
        raise ConfigError(f"unknown preset '{preset}'")
    return init_network(net)


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True, eq=False)
class Windows:
    """How one dense, conv or maxpool layer reads its input: `positions`
    windows, each a row of inputs, and `out_shape[0]` channels written per
    position.

    index_map[p, j] is the flat index into the per-sample input of slot j of
    window p.  A dense layer is one position whose window is the whole
    flattened input, arange(in)[None, :]; a conv layer's windows are its
    receptive fields, position-major, with slots in (channel, ky, kx)
    C-order.  A maxpool's are the conv windows with kernel = stride = size,
    so a window row reshapes to (C, size**2).  Engines see one row per
    (sample, position), gathered through the map; the netlist wires window
    slots through the same map."""

    in_shape: tuple
    out_shape: tuple        # (C,) for dense, (C, OH, OW) for conv and maxpool
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
    """Window geometry of a dense, conv or maxpool layer on a per-sample
    input shape.  A maxpool is conv geometry with kernel = stride = size and
    one output channel per input channel.  Shared by every engine and by the
    netlist builder."""
    in_shape = tuple(int(s) for s in in_shape)
    if layer.kind == "dense":
        if int(np.prod(in_shape)) != layer.in_features:
            raise DimensionError(f"dense layer expects {layer.in_features} inputs, got {in_shape}")
        return Windows(in_shape, (layer.out_features,),
                       np.arange(layer.in_features, dtype=np.int64)[None, :])
    if layer.kind == "maxpool":
        if len(in_shape) != 3:
            raise DimensionError(f"maxpool expects (C, H, W) inputs, got {in_shape}")
        k = s = layer.size
        if in_shape[1] % k or in_shape[2] % k:
            raise DimensionError(f"pool size {k} does not tile {in_shape[1]}x{in_shape[2]}")
        out_channels = in_shape[0]
    else:
        if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
            raise DimensionError(f"conv layer expects ({layer.in_channels}, H, W), got {in_shape}")
        k, s, out_channels = layer.kernel, layer.stride, layer.out_channels
    c, h, w = in_shape
    if h < k or w < k:
        raise DimensionError(f"kernel {k} does not fit input {h}x{w}")
    if (h - k) % s or (w - k) % s:
        raise DimensionError(f"stride {s} does not tile input {h}x{w} with kernel {k}")
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    slot = (np.arange(c)[:, None, None] * (h * w) + np.arange(k)[:, None] * w
            + np.arange(k)).reshape(-1)
    start = (np.arange(oh)[:, None] * (s * w) + np.arange(ow) * s).reshape(-1)
    return Windows(in_shape, (out_channels, oh, ow), (start[:, None] + slot).astype(np.int64))


Step = namedtuple("Step", "idx layer win bn head")


def steps(net: "Network") -> list:
    """The layer plan of net: per dense, conv and maxpool layer idx, in
    order, its windows on the shape in front of it, the batch norm directly
    after it or None, and whether it is the head, the last step, whose batch
    norm stays real.  DimensionError unless each window fits, each batch
    norm directly follows a windowed layer and has its channels, a softmax
    is the last layer, a dense or conv layer computes, and K-LUT nodes sit
    where expansion puts them: an unrolled dense or conv layer has a `lut`
    exactly when the net is expanded or hardened, a time-multiplexed one
    never."""
    plan, shape = [], tuple(net.input_shape)
    for idx, layer in enumerate(net.layers):
        if layer.kind == "softmax" and idx != len(net.layers) - 1:
            raise DimensionError(f"softmax l{idx} is not the last layer")
        if layer.kind == "batchnorm" and (not idx or net.layers[idx - 1].kind not in WINDOWED):
            raise DimensionError(f"batch norm l{idx} does not follow a dense, conv or maxpool "
                                 f"layer")
        if layer.kind in WINDOWED:
            win = windows(layer, shape)
            bn = next((l for l in net.layers[idx + 1:idx + 2] if l.kind == "batchnorm"), None)
            if bn is not None and bn.num_features != win.out_shape[0]:
                raise DimensionError(f"batch norm l{idx + 1} has {bn.num_features} features, "
                                     f"l{idx} has {win.out_shape[0]} channels")
            if layer.kind != "maxpool" and (layer.lut is not None) != (
                    layer.unrolled and net.stage in ("expanded", "hardened")):
                raise DimensionError(
                    f"l{idx} carries K-LUT nodes, which only the unrolled layers of an "
                    f"expanded or hardened net carry" if layer.lut is not None else
                    f"unrolled l{idx} of a {net.stage} net has no K-LUT nodes")
            plan.append(Step(idx, layer, win, bn, False))
            shape = win.out_shape
    if not net.compute_layers():
        raise DimensionError(f"{net.name} has no dense or conv layer")
    plan[-1] = plan[-1]._replace(head=True)
    return plan


# ---------------------------------------------------------------------------
# shared layer plumbing


def levels(layer, b: int) -> list:
    """[(w_b, gamma_b), ...]: the b residual levels of a layer's latent
    weights, derived wherever they are read."""
    return pr.residual_binarise(layer.weights, layer.prune_mask, b)[0]


def _pool_layer(net, idx, rows):
    """Maxpool rows (rows, C*size**2) -> (rows, C): the max of each channel's
    slots, an OR in the bit domain; every stage and _bits_layer run it."""
    area = net.layers[idx].size ** 2
    r = rows.reshape(rows.shape[0], rows.shape[1] // area, area)   # not -1: rows may be 0
    y = r.max(axis=2)
    return y, (r, y)


def _pool_layer_bwd(net, idx, cache, drows, grads):
    if not idx:   # layer 0 reads the network input, whose gradient is not formed
        return None
    r, y = cache
    # ties route the gradient to every maximum
    return ((r == y[..., None]) * drows[..., None]).reshape(r.shape[0], -1)


# ---------------------------------------------------------------------------
# layer walk: owns all window geometry, engines see rows only


def _forward_stack(net, x, training, layer_fn=None, folded=False):
    """Common layer walk over steps(net): each step's window rows
    (B*positions, window) go through layer_fn, by default the plane-sum
    engine's _plane_layer, or _pool_layer for a maxpool, to outputs
    (B*positions, C) plus a cache; the step's batch norm runs on those rows,
    then the sign unless the step is the head, before the rows become the
    next step's input.  A uint8 input reads as p/127.5 - 1 of its pixels p.
    From the binarised stage on the network input is binarised.  An
    inference walk passes a layer_fn bound to what the net fixes:
    _plane_layer over _net_plane_terms, or _bits_layer over
    _quantised_layers, which folds the batch norm after its layer into
    thresholds, so that walk is `folded` and skips batch norms.  Only a
    training walk keeps the caches, which only `backward` reads."""
    if layer_fn is None:
        layer_fn = _plane_layer
    x = np.asarray(x)
    if x.dtype == np.uint8:
        x = x.astype(np.float64) / 127.5 - 1.0
    x = nm.as_tensor(x)
    nm.ensure_finite("network input", x)
    if np.prod(x.shape[1:]) != np.prod(net.input_shape):
        raise DimensionError(f"{net.name} takes inputs of {np.prod(net.input_shape)} values "
                             f"{tuple(net.input_shape)}, got {np.prod(x.shape[1:])}")
    h = x.reshape((x.shape[0],) + tuple(net.input_shape))
    if net.stage not in REAL_STAGES:
        h = nm.sign_pm1(h)
    caches = []
    for step in steps(net):
        fn = _pool_layer if step.layer.kind == "maxpool" else layer_fn
        y, cache = fn(net, step.idx, step.win.rows(h))
        bn = None if folded else step.bn
        bn_cache = pre_sign = None
        if bn is not None:
            if training:
                y, mu, var, bn_cache = nm.batchnorm_train_forward(y, bn.gamma, bn.beta, bn.eps)
                bn.running_mean = BN_MOMENTUM * bn.running_mean + (1 - BN_MOMENTUM) * mu
                bn.running_var = BN_MOMENTUM * bn.running_var + (1 - BN_MOMENTUM) * var
            else:
                y = nm.batchnorm_forward(y, bn.running_mean, bn.running_var,
                                         bn.gamma, bn.beta, bn.eps)
            if not step.head:
                pre_sign, y = y, nm.sign_pm1(y)
        if training:
            caches.append((step, cache, bn_cache, pre_sign))
        h = step.win.outputs(y)
    return h, caches


def backward(net: Network, caches, dlogits):
    """Parameter gradients of a training forward, by the reverse walk over
    its steps: output gradient rows (B*positions, C) go back through the
    sign STE and the batch norm, then through _plane_layer_bwd, or
    _pool_layer_bwd for a maxpool, to window-row gradients (B*positions,
    window), recording the parameter gradients on the way.  The gradient of
    the network input is not formed: every layer backward returns None at
    layer 0.  The walk consumes `caches`: it pops each step's entry as it
    reaches it, so a layer's cache is freed once its backward has run and
    the list is empty on return."""
    grads = {}
    d = nm.as_tensor(dlogits)
    while caches:
        step, inner, bn_cache, pre_sign = caches.pop()
        drows = step.win.outputs_backward(d)
        if pre_sign is not None:
            drows = nm.sign_ste_backward(pre_sign, drows)
        if bn_cache is not None:
            drows, grads[f"l{step.idx + 1}.gamma"], grads[f"l{step.idx + 1}.beta"] = \
                nm.batchnorm_backward(bn_cache, drows)
        bwd = _pool_layer_bwd if step.layer.kind == "maxpool" else _plane_layer_bwd
        drows = bwd(net, step.idx, inner, drows, grads)
        if drows is not None:
            d = step.win.rows_backward(drows)
    return grads


# the backward of each training phase, under the names that training._PHASES
# calls so that the benchmark's tracer times each phase's backward
backward_real = backward_binary = backward_lut = backward


# ---------------------------------------------------------------------------
# plane-sum engine (every stage): per plane, the sum over each channel of
# functions of the window's inputs, the planes combined with their scales.
# Before binarisation a layer has one plane, its latent weights at scale 1,
# and the rows are real.  From then on the inputs are +-1, and a layer
# without LUTs sums XNORs, the dots of its residual levels, scales in closed
# form, untrained.
# An expanded layer's node reads only its vertex code, so each layer
# evaluates expand.interp_basis (forward) and expand.interp_dx_partial
# (backward) once on the 2**K codes and builds per-vertex tables: per plane
# (N * 2**K,) of value * coefficient, or their signs once hardened, and
# (N * 2**K, K) of input partials times coefficient pair sums, both indexed
# by slot = node * 2**K + code.
# A pass keeps the nm.vertex_codes as (rows, N) uint8 and forms slots, gathers
# and scatter indices only for a block of nm.block_items: rows for the
# nm.channel_sums and the input gradient, nodes for the coefficient gradient.
# Each bincount bin still adds its entries in the order of the whole-layer
# pass, so the blocks change no result.


def _plane_terms(net, idx, hardened):
    """(gammas, terms) of compute layer idx, all that its plane sums read
    besides the rows, fixed by the net: the plane scales (B,), and per plane
    what it sums.  For a layer without LUTs that is [(w_b, gamma_b), ...]:
    before binarisation the one plane of its latent weights at scale 1,
    from then on its residual levels.  For an expanded layer it is the
    (N * 2**K,) table by slot of its nodes' terms, value * coefficient at
    their vertex, or the terms' signs once hardened, which are the truth
    tables harden_masks reads at the inputs' vertex."""
    layer = net.layers[idx]
    lut = layer.lut
    if lut is None:
        lv = [(layer.weights, 1.0)] if net.stage in REAL_STAGES else levels(layer, net.b_levels)
        return np.array([g for _w, g in lv]), lv
    # row v of -vertices(K) is the point whose code is v
    value = ex.interp_basis(-ex.vertices(lut.k), lut.k)[1]   # (2**K,)
    return lut.gammas, [(nm.sign_pm1(value * c) if hardened else value * c).reshape(-1)
                        for c in lut.coeffs]


def _net_plane_terms(net):
    """{idx: _plane_terms} of every compute layer of a net, as the net's
    stage reads them.  They depend only on the net, so an inference walk
    derives them once per call."""
    hardened = net.stage == "hardened"
    return {step.idx: _plane_terms(net, step.idx, hardened)
            for step in steps(net) if step.layer.kind != "maxpool"}


def _plane_sums(net, idx, rows, terms):
    """(sums, state) of compute layer idx on window rows, given its
    _plane_terms: per plane the sums (rows, C), and what the backward reads
    besides the sums.  A layer without LUTs sums the dots of its planes
    masked by its prune mask, its state (rows, [(masked plane, gamma_b),
    ...]).  An expanded layer sums per channel (nm.channel_sums) its nodes'
    terms at their vertex, exact integers in float64 on +-1 rows, its state;
    bit k of a node's code (nm.vertex_codes) is set iff input k is negative,
    so that slot node * 2**K + code holds the term of the coefficient that
    interp_basis reads."""
    layer = net.layers[idx]
    lut = layer.lut
    if lut is None:
        masked = [(w_b * layer.prune_mask, g) for w_b, g in terms]
        return [rows @ w.T for w, _g in masked], (rows, masked)
    codes = nm.vertex_codes(np.ascontiguousarray((rows < 0).T, np.uint8), lut.indices)
    return nm.channel_sums(codes, lut.k, np.diff(lut.offsets), terms), codes


def _plane_layer(net, idx, rows, planes=None):
    """Plane sums combined with real plane scales.  Once hardened they are
    truth-table sums: hidden layers then meet the real batch norms' sign
    thresholds, the head their real affine.  A training walk derives the
    layer's _plane_terms, which change with every step; an inference walk
    passes them in `planes`, its _net_plane_terms."""
    gammas, terms = (_plane_terms(net, idx, net.stage == "hardened") if planes is None
                     else planes[idx])
    s_list, state = _plane_sums(net, idx, rows, terms)
    # only an expanded layer's backward reads the sums, for its plane scales
    return combine_levels(s_list, gammas), (state, None if net.layers[idx].lut is None else s_list)


def forward_real_train(net: Network, x):
    require_stage(net, *REAL_STAGES)
    return _forward_stack(net, x, True)


def forward_binary_train(net: Network, x):
    require_stage(net, "binarised")
    return _forward_stack(net, x, True)


def forward_lut_train(net: Network, x):
    require_stage(net, "expanded")
    return _forward_stack(net, x, True)


def _levels_layer_bwd(net, idx, cache, d, grads):
    """Gradient of a layer without LUTs: the latent weights receive the
    gradient of the plane sum the forward combined, from the binarised stage
    on the STE of its residual levels, clip-gated at |w| <= 1."""
    layer = net.layers[idx]
    rows, masked = cache
    grad = (d.T @ rows) * layer.prune_mask
    if net.stage not in REAL_STAGES:
        grad *= np.abs(layer.weights) <= 1.0
    grads[f"l{idx}.weights"] = grad
    if not idx:
        return None
    return d @ combine_levels([w for w, _g in masked], [g for _w, g in masked])


def _plane_layer_bwd(net, idx, cache, drows, grads):
    """Gradient of one layer in the plane-sum engine: coefficients, plane
    scales and inputs for expanded layers, the latent weights and inputs
    otherwise.  Each bincount adds in ascending row, then node, then input
    order."""
    lut = net.layers[idx].lut
    state, s_list = cache
    if lut is None:
        return _levels_layer_bwd(net, idx, state, drows, grads)
    codes, k = state, lut.k
    rows, n_nodes = codes.shape
    counts = np.diff(lut.offsets)
    channel = np.repeat(np.arange(counts.size), counts)
    # a block of nodes at a time, each node's rows weighted by its channel's
    # output gradient; value is +-2**K in each bin, so scaling the bin sums
    # is exact, and + 0.0 turns the -0.0 of an empty bin into the 0.0 a
    # bincount gives
    dbasis = np.empty((n_nodes, 1 << k))
    block = nm.block_items(rows, n_nodes)
    local = np.arange(block) << k
    for a in range(0, n_nodes, block):
        e = min(a + block, n_nodes)
        dbasis[a:e] = np.bincount((local[:e - a] + codes[:, a:e]).reshape(-1),
                                  weights=np.take(drows, channel[a:e], axis=1).reshape(-1),
                                  minlength=(e - a) << k).reshape(e - a, -1)
    dbasis *= ex.interp_basis(-ex.vertices(k), k)[1]
    dbasis += 0.0
    grads[f"l{idx}.lut.coeffs"] = lut.gammas[:, None, None] * dbasis
    grads[f"l{idx}.lut.gammas"] = np.array([float(np.sum(drows * s)) for s in s_list])
    if not idx:
        return None
    # input j of a node reads the coefficients at its vertex with bit j clear
    # and set, a pair that vertices v and v ^ 2**j share: viewed as
    # (N, 2**(K-1-j), 2, 2**j), ceff's two halves on axis 2 are those pairs,
    # so each pair sum is formed once and multiplied by the partials straight
    # into input j of the (N, 2**K, K) table, whose row slot holds the K
    # partials times the pair sums of vertex slot % 2**K
    ceff = np.einsum("b,bnv->nv", lut.gammas, lut.coeffs)
    partial = ex.interp_dx_partial(-ex.vertices(k), k)   # (2**K, K)
    table = np.empty((n_nodes, 1 << k, k))
    for j in range(k):
        split = (1 << (k - 1 - j), 2, 1 << j)
        pairs = ceff.reshape((n_nodes,) + split)
        np.multiply(pairs[:, :, :1] + pairs[:, :, 1:], partial[:, j].reshape(split),
                    out=table.reshape((n_nodes,) + split + (k,))[..., j])
    table = table.reshape(-1, k)
    # gather, weight by the node's channel gradient and scatter to the
    # window slots a block of rows at a time, the blocks sharing one
    # scatter index
    wires, window = lut.indices.reshape(-1), net.layers[idx].window_size
    block = nm.block_items(wires.size, rows)
    index = (np.arange(block)[:, None] * window + wires).reshape(-1)
    node = np.arange(n_nodes) << k
    drows_in = np.empty((rows, window))
    for a in range(0, rows, block):
        e = min(a + block, rows)
        dxg = np.take(table, node + codes[a:e], axis=0).reshape(-1)   # (e - a) * N * K
        dxg *= np.repeat(drows[a:e], counts * k, axis=1).reshape(-1)
        drows_in[a:e] = np.bincount(index[:dxg.size], weights=dxg,
                                    minlength=(e - a) * window).reshape(e - a, window)
    return drows_in


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
# quantised reference: a hardened layer and the batch norm after it, folded
# into thresholds, as the netlist computes them


def quantise_layer(net: Network, step: Step, gammas):
    """(q_gammas (B,), q_tau (C,), flip (C,), acc_width (C,)) of the compute
    layer of a hardened net's step, whose plane scales are gammas, and the
    step's batch norm, for _bits_layer and the netlist: scales and the
    thresholds the batch norm folds to at net.frac_bits, and each channel's
    two's-complement accumulator bits for sum_b |q_b| * N~ + |q_tau|, in
    Python integers so that they cannot wrap."""
    n_tilde = step.layer.prune_mask.sum(axis=1)   # nodes per channel, as in the LUT offsets
    q_gammas = np.array([quantise(float(g), net.frac_bits) for g in gammas], dtype=np.int64)
    tau, flip = fold_batchnorm(step.bn)
    q_tau = np.array([quantise(float(t), net.frac_bits) for t in tau], dtype=np.int64)
    scale = sum(abs(q) for q in q_gammas.tolist())
    acc_width = np.array([max(1, (scale * n + abs(t)).bit_length()) + 1
                          for n, t in zip(n_tilde.tolist(), q_tau.tolist())], dtype=np.int64)
    over = np.flatnonzero(acc_width > ACC_WIDTH_CAP)
    if over.size:
        c = int(over[0])
        raise LoweringError(f"l{step.idx}_c{c}: accumulator needs {acc_width[c]} bits "
                            f"(> {ACC_WIDTH_CAP}); reduce fixed-point fractional bits")
    return q_gammas, q_tau, flip, acc_width


def _quantised_layers(net):
    """Per compute layer idx of hardened net, what _bits_layer reads: its
    _plane_terms and the quantise_layer scales, thresholds and flips of its
    step.  All of it depends only on the net, so forward_hardened_bits
    derives it once per call."""
    planes = _net_plane_terms(net)
    return {s.idx: (planes[s.idx][1], *quantise_layer(net, s, planes[s.idx][0])[:3])
            for s in steps(net) if s.idx in planes}


def _bits_layer(quantised, net, idx, rows):
    """The quantised reference of layer idx and the batch norm after it, as
    the netlist computes them from _quantised_layers: integer sums, scales
    and thresholds quantised to net.frac_bits fractional bits, {-1,+1}
    threshold bits out."""
    terms, q_gammas, q_tau, flip = quantised[idx]
    s_list, _state = _plane_sums(net, idx, rows, terms)
    acc = sum(q * s.astype(np.int64) for q, s in zip(q_gammas, s_list))
    return np.where(np.where(flip, acc <= q_tau, acc >= q_tau), 1.0, -1.0), None


def _infer(net, x, layer_fn, folded=False):
    """The inference walk with layer_fn, INFER_BATCH samples at a time (an
    empty batch in one block): samples are independent at inference, so
    blocks change no output but bound memory.  Each block becomes float64
    in the walk, so a uint8 data set is never widened whole."""
    x = np.asarray(x)
    return np.concatenate([_forward_stack(net, x[a:a + INFER_BATCH], False, layer_fn, folded)[0]
                           for a in range(0, max(x.shape[0], 1), INFER_BATCH)])


def forward(net: Network, x) -> np.ndarray:
    """Inference logits at any stage from the plane-sum engine, which reads
    each layer's _plane_terms as the stage fixes them, derived once per call.
    A hardened network is scored with real plane scales and batch norms;
    forward_hardened_bits is its quantised reference."""
    require_stage(net, *STAGES)
    return _infer(net, x, functools.partial(_plane_layer, planes=_net_plane_terms(net)))


def forward_hardened_bits(net: Network, x) -> np.ndarray:
    """Quantised reference of the lowered netlist: the inference walk with
    the _bits_layer engine, every compute layer (including the head)
    emitting {-1,+1} threshold bits.  Each layer is quantised once per
    call, before the walk."""
    require_stage(net, "hardened")
    return _infer(net, x, functools.partial(_bits_layer, _quantised_layers(net)), folded=True)
