"""Checkpoint persistence: a self-describing JSON text format with explicit
field names.  Floats go through repr (shortest round-trip decimal), so
load(save(x)) reproduces every tensor bit-for-bit; serialisation is
key-sorted and therefore byte-deterministic for a given checkpoint.

Schema 4 leaves out what loading can derive.  A compute layer holds its
latent weights, prune mask and, once expanded, a `lut` block with the flat
arrays of model.LutData: k, gammas, offsets, indices and coeffs.  A hardened
checkpoint is its expanded checkpoint plus `frac_bits`.  Derived on load:
  * the residual levels of every layer that computes with binary weights,
    by prune.refresh_levels, from the binarised stage on;
  * a hardened net's truth-table masks and folded thresholds (tau, flip),
    by expand.harden_network, the one place that computes them.
Phase-1 weights are stored until expansion only.  The LUT offsets and
column 0 of the indices follow from the prune mask but stay stored: loading
checks them against it, which is what catches a corrupted mask.

Loading checks every field against the layer dimensions, the LUT offsets
and first inputs against the prune mask, every float for finiteness and
every batch norm for a positive eps and a non-negative running variance,
and raises SchemaError on malformed input, including a hardened net that
harden_network rejects.  Older files still load:
  * schema 1: per-channel LUT lists are concatenated, and stored levels,
    node positions and reconnection flags are ignored;
  * schemas 1 and 2: each compute layer's scale `alpha` moves into the batch
    norm after it, whose running mean is divided by alpha and running
    variance and eps by alpha**2, so the layer computes the same function
    without the scale;
  * schemas 1 to 3: frac_bits is read from the fixed-point spec `fx`, and
    the stored masks, tau, flip and batch-norm momentum are ignored and
    derived again."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import LutNetError, SchemaError
from .expand import harden_network
from .model import (STAGES, BatchNormLayer, ConvLayer, DenseLayer, LutData, MaxPoolLayer,
                    Network, SoftmaxLayer)
from .prune import refresh_levels
from .training import TrainLog

SCHEMA_VERSION = 4
DERIVED = ("levels", "masks", "tau", "flip")   # fields that loading computes


@dataclass
class Checkpoint:
    net: Network
    logs: list = field(default_factory=list)   # TrainLog per completed phase


def _out(value):
    """JSON form of a layer field: arrays as nested lists (bool as 0/1) and
    the LUT block as a dict of its stored arrays."""
    if isinstance(value, LutData):
        return {f.name: _out(getattr(value, f.name)) for f in fields(value)
                if f.name not in DERIVED}
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    return value


def _layer_out(layer):
    """A layer's fields, less those loading derives."""
    return {"kind": layer.kind, **{f.name: _out(getattr(layer, f.name))
                                   for f in fields(layer) if f.name not in DERIVED}}


def to_dict(ckpt: Checkpoint) -> dict:
    net = ckpt.net
    return {
        "schema_version": SCHEMA_VERSION,
        "name": net.name,
        "stage": net.stage,
        "b_levels": net.b_levels,
        "input_shape": list(net.input_shape),
        "seed": net.seed,
        "frac_bits": net.frac_bits,
        "layers": [_layer_out(l) for l in net.layers],
        "logs": [{"phase": lg.phase, "rows": [list(r) for r in lg.rows]} for lg in ckpt.logs],
    }


def _int(raw, what):
    """A JSON integer, not a bool: int() would truncate or coerce anything else."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise SchemaError(f"{what} must be an integer, got {raw!r}")
    return raw


def _array(raw, dtype, shape, what, optional=False):
    """A JSON array as a numpy array of dtype and exactly the given shape;
    None stays None if the field is optional."""
    if raw is None:
        if optional:
            return None
        raise SchemaError(f"{what} is missing")
    try:
        a = np.asarray(raw)
    except ValueError as e:
        raise SchemaError(f"{what} is a ragged array") from e
    if a.dtype.kind not in ("biuf" if np.dtype(dtype).kind == "f" else "biu"):
        raise SchemaError(f"{what} holds values of type {a.dtype}, expected {np.dtype(dtype)}")
    if a.shape != shape:
        if a.size or np.prod(shape):   # tolist() of an empty array keeps no shape
            raise SchemaError(f"{what} has shape {a.shape}, expected {shape}")
        a = a.reshape(shape)
    a = a.astype(dtype)
    if a.dtype.kind == "f" and not np.all(np.isfinite(a)):
        raise SchemaError(f"{what} holds non-finite values")
    return a


def _lut_in(raw, prune_mask, b_levels, what):
    """The LUT block, checked against the layer's prune mask: channel c owns
    one node per unpruned weight of row c, and node n's first input is that
    weight's column."""
    if raw is None:
        return None
    k = _int(raw["k"], f"{what}.k")
    if k < 1:
        raise SchemaError(f"{what}.k must be >= 1, got {k}")
    n_out, window = prune_mask.shape
    offsets = _array(raw["offsets"], np.int64, (n_out + 1,), f"{what}.offsets")
    if not np.array_equal(offsets, np.concatenate(([0], np.cumsum(prune_mask.sum(axis=1))))):
        raise SchemaError(f"{what}.offsets must be 0 then the cumulative row sums of prune_mask")
    n = int(offsets[-1])
    indices = _array(raw["indices"], np.int64, (n, k), f"{what}.indices")
    if indices.size and (indices.min() < 0 or indices.max() >= window):
        raise SchemaError(f"{what}.indices must lie in [0, {window})")
    if not np.array_equal(indices[:, 0], np.nonzero(prune_mask)[1]):
        raise SchemaError(f"{what}.indices[:, 0] must be the unpruned columns of prune_mask, "
                          f"row by row")
    return LutData(k=k, gammas=_array(raw["gammas"], np.float64, (b_levels,), f"{what}.gammas"),
                   offsets=offsets, indices=indices,
                   coeffs=_array(raw["coeffs"], np.float64, (b_levels, n, 1 << k),
                                 f"{what}.coeffs"))


def _compute_in(raw, b_levels, what):
    size = lambda name: _int(raw[name], f"{what}.{name}")
    if raw["kind"] == "dense":
        layer = DenseLayer(size("in_features"), size("out_features"))
        n_out = layer.out_features
    else:
        layer = ConvLayer(size("in_channels"), size("out_channels"), size("kernel"),
                          size("stride"))
        n_out = layer.out_channels
    layer.unrolled = bool(raw["unrolled"])
    matrix = (n_out, layer.window_size)
    for name, dtype, optional in (("weights", np.float64, False), ("prune_mask", bool, False),
                                  ("phase1_weights", np.float64, True)):
        setattr(layer, name, _array(raw[name], dtype, matrix, f"{what}.{name}", optional))
    layer.lut = _lut_in(raw["lut"], layer.prune_mask, b_levels, f"{what}.lut")
    return layer


def _layer_in(raw: dict, b_levels: int, what: str):
    kind = raw.get("kind")
    if kind == "dense" or kind == "conv":
        return _compute_in(raw, b_levels, what)
    if kind == "batchnorm":
        layer = BatchNormLayer(_int(raw["num_features"], f"{what}.num_features"))
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(layer, name, _array(raw[name], np.float64, (layer.num_features,),
                                        f"{what}.{name}"))
        layer.eps = float(raw["eps"])
        if not 0.0 < layer.eps < np.inf:
            raise SchemaError(f"{what}.eps must be finite and positive, got {layer.eps}")
        if np.any(layer.running_var < 0.0):
            raise SchemaError(f"{what}.running_var must not be negative")
        return layer
    if kind == "maxpool":
        return MaxPoolLayer(_int(raw["size"], f"{what}.size"))
    if kind == "softmax":
        return SoftmaxLayer()
    raise SchemaError(f"unknown layer kind {kind!r}")


def _from_v1(raw: dict) -> dict:
    """A schema-1 checkpoint in schema-2 form: per-channel LUT lists are
    concatenated.  Levels, node positions, reconnection flags and masks are
    left for the reader to ignore."""
    raw = dict(raw, layers=[dict(l) for l in raw["layers"]])
    for layer in raw["layers"]:
        lut = layer.get("lut")
        if lut is None:
            continue
        chs = lut["channels"]
        layer["lut"] = {
            "k": lut["k"], "gammas": lut["gammas"],
            "offsets": np.cumsum([0] + [len(ch["indices"]) for ch in chs]).tolist(),
            "indices": [row for ch in chs for row in ch["indices"]],
            "coeffs": [[node for ch in chs for node in ch["coeffs"][b]]
                       for b in range(len(lut["gammas"]))],
        }
    return raw


def _from_v2(raw: dict) -> dict:
    """A schema-2 checkpoint in schema-3 form: each compute layer's scale
    alpha moves into the batch norm after it, which sees alpha * pre, so its
    running mean is divided by alpha and its running variance and eps by
    alpha**2."""
    raw = dict(raw, layers=[dict(l) for l in raw["layers"]])
    layers = raw["layers"]
    for i, layer in enumerate(layers):
        if layer.get("kind") not in ("dense", "conv"):
            continue
        alpha = float(layer.pop("alpha"))
        if not 0.0 < alpha < np.inf:
            raise SchemaError(f"l{i}.alpha must be finite and positive, got {alpha}")
        bn = layers[i + 1] if i + 1 < len(layers) else {}
        if bn.get("kind") != "batchnorm":
            raise SchemaError(f"l{i} has no batch norm after it to take its alpha")
        sq = alpha * alpha
        bn["running_mean"] = np.asarray(bn["running_mean"], dtype=np.float64) / alpha
        bn["running_var"] = np.asarray(bn["running_var"], dtype=np.float64) / sq
        bn["eps"] = float(bn["eps"]) / sq
    return raw


def _checkpoint_in(raw: dict) -> Checkpoint:
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise SchemaError("not a checkpoint: missing schema_version")
    version = _int(raw["schema_version"], "schema_version")
    if version > SCHEMA_VERSION:
        raise SchemaError(f"checkpoint schema {version} is newer than supported "
                          f"{SCHEMA_VERSION}; refusing to load")
    if version == 1:
        raw = _from_v1(raw)
    if version <= 2:
        raw = _from_v2(raw)
    if version <= 3:
        fx = raw.get("fx")
        raw = dict(raw, frac_bits=None if fx is None else fx["frac_bits"])
    stage, b_levels = raw["stage"], _int(raw["b_levels"], "b_levels")
    if stage not in STAGES:
        raise SchemaError(f"unknown stage {stage!r}")
    if b_levels < 1:
        raise SchemaError(f"b_levels must be >= 1, got {b_levels}")
    hardened = stage == "hardened"
    layers = [_layer_in(l, b_levels, f"l{i}") for i, l in enumerate(raw["layers"])]
    if not layers:
        raise SchemaError("checkpoint has an empty layer list")
    net = Network(name=raw["name"], layers=layers, b_levels=b_levels,
                  input_shape=tuple(_int(d, "input_shape") for d in raw["input_shape"]),
                  seed=_int(raw["seed"], "seed"),
                  stage="expanded" if hardened else stage)
    if stage not in ("real", "pruned"):
        refresh_levels(net)
    if hardened:
        frac_bits = _int(raw["frac_bits"], "frac_bits")
        try:
            harden_network(net, frac_bits)
        except LutNetError as e:
            raise SchemaError(f"cannot harden the stored network: {e}") from e
    logs = []
    for lg in raw.get("logs", []):
        log = TrainLog(phase=_int(lg["phase"], "logs.phase"))
        for row in lg["rows"]:
            log.append(*row)
        logs.append(log)
    return Checkpoint(net=net, logs=logs)


def from_dict(raw: dict) -> Checkpoint:
    try:
        return _checkpoint_in(raw)
    except SchemaError:   # itself a ValueError
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed checkpoint: {e!r}") from e


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    text = json.dumps(to_dict(ckpt), sort_keys=True, separators=(",", ":"))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as f:
        f.write(text)
        f.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = json.loads(data.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError(f"{path}: corrupt checkpoint: {e}") from e
    return from_dict(raw)
