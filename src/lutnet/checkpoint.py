"""Checkpoint persistence: a self-describing JSON text format with explicit
field names.  Floats go through repr (shortest round-trip decimal), so
load(save(x)) reproduces every tensor bit-for-bit; serialisation is
key-sorted and therefore byte-deterministic for a given checkpoint.

Schema 2 leaves out what loading can derive.  A compute layer holds
its latent weights, prune mask, alpha, folded thresholds and, once expanded,
a `lut` block with the flat arrays of model.LutData: k, gammas, offsets,
indices, coeffs and masks.  Derived on load: the residual levels of every
layer that computes with binary weights, by prune.refresh_levels, from the
binarised stage on.  Phase-1 weights are stored until expansion only.

Loading checks every field against the layer dimensions and raises
SchemaError on malformed input.  Schema-1 files still load: their
per-channel LUT lists are concatenated, and their stored levels, node
positions and reconnection flags are ignored."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SchemaError
from .model import (STAGES, BatchNormLayer, ConvLayer, DenseLayer, FixedPointSpec,
                    LutData, MaxPoolLayer, Network, SoftmaxLayer)
from .prune import refresh_levels
from .training import TrainLog

SCHEMA_VERSION = 2


@dataclass
class Checkpoint:
    net: Network
    logs: list = field(default_factory=list)   # TrainLog per completed phase


def _out(value):
    """JSON form of a layer field: arrays as nested lists (bool as 0/1) and
    the LUT block as a dict of its arrays."""
    if isinstance(value, LutData):
        return {f.name: _out(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    return value


def _layer_out(layer):
    """A layer's fields, less the residual levels, which loading derives."""
    return {"kind": layer.kind, **{f.name: _out(getattr(layer, f.name))
                                   for f in fields(layer) if f.name != "levels"}}


def to_dict(ckpt: Checkpoint) -> dict:
    net = ckpt.net
    return {
        "schema_version": SCHEMA_VERSION,
        "name": net.name,
        "stage": net.stage,
        "b_levels": net.b_levels,
        "input_shape": list(net.input_shape),
        "seed": net.seed,
        "fx": None if net.fx is None else {"frac_bits": net.fx.frac_bits},
        "layers": [_layer_out(l) for l in net.layers],
        "logs": [{"phase": lg.phase, "rows": [list(r) for r in lg.rows]} for lg in ckpt.logs],
    }


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
    return a.astype(dtype)


def _lut_in(raw, n_out, window, b_levels, hardened, what):
    if raw is None:
        return None
    k = int(raw["k"])
    offsets = _array(raw["offsets"], np.int64, (n_out + 1,), f"{what}.offsets")
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise SchemaError(f"{what}.offsets must rise from 0 without decreasing")
    n = int(offsets[-1])
    indices = _array(raw["indices"], np.int64, (n, k), f"{what}.indices")
    if indices.size and (indices.min() < 0 or indices.max() >= window):
        raise SchemaError(f"{what}.indices must lie in [0, {window})")
    planes = (b_levels, n, 1 << k)
    masks = _array(raw["masks"], np.int64, planes, f"{what}.masks", optional=not hardened)
    if masks is not None and np.any(np.abs(masks) != 1):
        raise SchemaError(f"{what}.masks must hold only -1 and +1")
    return LutData(k=k, gammas=_array(raw["gammas"], np.float64, (b_levels,), f"{what}.gammas"),
                   offsets=offsets, indices=indices,
                   coeffs=_array(raw["coeffs"], np.float64, planes, f"{what}.coeffs"),
                   masks=None if masks is None else masks.astype(np.int8))


def _compute_in(raw, b_levels, hardened, what):
    if raw["kind"] == "dense":
        layer = DenseLayer(int(raw["in_features"]), int(raw["out_features"]))
        n_out = layer.out_features
    else:
        layer = ConvLayer(int(raw["in_channels"]), int(raw["out_channels"]),
                          int(raw["kernel"]), int(raw["stride"]))
        n_out = layer.out_channels
    layer.unrolled = bool(raw["unrolled"])
    layer.alpha = float(raw["alpha"])
    matrix = (n_out, layer.window_size)
    for name, dtype, shape, optional in (
            ("weights", np.float64, matrix, False), ("prune_mask", bool, matrix, False),
            ("phase1_weights", np.float64, matrix, True),
            ("tau", np.float64, (n_out,), not hardened), ("flip", bool, (n_out,), not hardened)):
        setattr(layer, name, _array(raw[name], dtype, shape, f"{what}.{name}", optional))
    layer.lut = _lut_in(raw["lut"], n_out, layer.window_size, b_levels, hardened, f"{what}.lut")
    return layer


def _layer_in(raw: dict, b_levels: int, hardened: bool, what: str):
    kind = raw.get("kind")
    if kind == "dense" or kind == "conv":
        return _compute_in(raw, b_levels, hardened, what)
    if kind == "batchnorm":
        layer = BatchNormLayer(int(raw["num_features"]))
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(layer, name, _array(raw[name], np.float64, (layer.num_features,),
                                        f"{what}.{name}"))
        layer.eps = float(raw["eps"])
        layer.momentum = float(raw["momentum"])
        return layer
    if kind == "maxpool":
        return MaxPoolLayer(int(raw["size"]))
    if kind == "softmax":
        return SoftmaxLayer()
    raise SchemaError(f"unknown layer kind {kind!r}")


def _from_v1(raw: dict) -> dict:
    """A schema-1 checkpoint in schema-2 form: per-channel LUT lists are
    concatenated.  Levels, node positions and reconnection flags are left for
    the reader to ignore."""
    raw = dict(raw, layers=[dict(l) for l in raw["layers"]])
    for layer in raw["layers"]:
        lut = layer.get("lut")
        if lut is None:
            continue
        chs = lut["channels"]

        def planes(key):
            return [[node for ch in chs for node in ch[key][b]] for b in range(len(lut["gammas"]))]

        layer["lut"] = {
            "k": lut["k"], "gammas": lut["gammas"],
            "offsets": np.cumsum([0] + [len(ch["indices"]) for ch in chs]).tolist(),
            "indices": [row for ch in chs for row in ch["indices"]],
            "coeffs": planes("coeffs"),
            "masks": None if any(ch["masks"] is None for ch in chs) else planes("masks"),
        }
    return raw


def _checkpoint_in(raw: dict) -> Checkpoint:
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise SchemaError("not a checkpoint: missing schema_version")
    version = raw["schema_version"]
    if version > SCHEMA_VERSION:
        raise SchemaError(f"checkpoint schema {version} is newer than supported "
                          f"{SCHEMA_VERSION}; refusing to load")
    if version == 1:
        raw = _from_v1(raw)
    stage, b_levels = raw["stage"], int(raw["b_levels"])
    if stage not in STAGES:
        raise SchemaError(f"unknown stage {stage!r}")
    if b_levels < 1:
        raise SchemaError(f"b_levels must be >= 1, got {b_levels}")
    layers = [_layer_in(l, b_levels, stage == "hardened", f"l{i}")
              for i, l in enumerate(raw["layers"])]
    if not layers:
        raise SchemaError("checkpoint has an empty layer list")
    net = Network(
        name=raw["name"], layers=layers, b_levels=b_levels,
        input_shape=tuple(raw["input_shape"]), seed=int(raw["seed"]), stage=stage,
        fx=None if raw.get("fx") is None else FixedPointSpec(int(raw["fx"]["frac_bits"])))
    if stage not in ("real", "pruned"):
        refresh_levels(net)
    logs = []
    for lg in raw.get("logs", []):
        log = TrainLog(phase=int(lg["phase"]))
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
