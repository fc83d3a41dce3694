"""Checkpoint persistence, schema 5: one key-sorted, so byte-deterministic,
JSON file in which each array is {"dtype": "<f8" | "<i8" | "|b1", "shape":
[...], "data": base64 of its little-endian C-order bytes}, so load(save(x))
reproduces every tensor bit for bit.  Scalars, names, input_shape and log
rows are plain JSON.

A compute layer stores its latent weights, prune mask and, once expanded,
a `lut` block with the flat arrays of model.LutData.  A hardened checkpoint
is its expanded checkpoint plus `frac_bits`: truth tables, folded
thresholds and residual levels are derived where they are read (see
model.py), and loading runs expand.harden_network for its checks.  Phase-1
weights are stored until expansion only.  The LUT offsets and column 0 of
the indices follow from the prune mask but stay stored: loading checks
them against it, which is what catches a corrupted mask.

Loading reads schema 5 only; any other schema_version is a SchemaError, and
the stage that wrote the file must be re-run.  Each array must carry its
field's exact dtype, a shape of JSON integers equal to the one the layer
dimensions give and strict base64 of exactly that many bytes; it loads as a
writable native array.  Every other field is checked for its JSON type (no
value is coerced into another), K against the fabric's LUT
(config.FABRIC_K), the name for a Verilog identifier, every size for an
integer of at least 1, every mask byte for 0 or 1, every float for
finiteness, every batch norm for a positive eps and a non-negative running
variance, each log for a phase of 1 to 3, and the layers with model.steps,
which also places the `lut` blocks: an unrolled layer has one exactly when
the stage is expanded or hardened, a time-multiplexed layer never."""

from __future__ import annotations

import base64
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .config import FABRIC_K
from .errors import DimensionError, LutNetError, SchemaError
from .expand import harden_network
from .model import (STAGES, BatchNormLayer, ConvLayer, DenseLayer, LutData, MaxPoolLayer,
                    Network, SoftmaxLayer, steps)
from .training import TrainLog

SCHEMA_VERSION = 5


@dataclass
class Checkpoint:
    net: Network
    logs: list = field(default_factory=list)   # TrainLog per completed phase


def _out(value):
    """JSON form of a layer field: an array as a typed array and the LUT
    block as a dict of its fields."""
    if isinstance(value, LutData):
        return {f.name: _out(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value, value.dtype.newbyteorder("<"))
        return {"dtype": a.dtype.str, "shape": list(a.shape), "data": base64.b64encode(a).decode()}
    return value


def _layer_out(layer):
    return {"kind": layer.kind, **{f.name: _out(getattr(layer, f.name)) for f in fields(layer)}}


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


def _size(raw, what):
    """A size field: a JSON integer of at least 1."""
    if _int(raw, what) < 1:
        raise SchemaError(f"{what} must be >= 1, got {raw}")
    return raw


def _float(raw, what):
    """A finite JSON number, not a bool or a string, which float() would
    take, nor an integer past the float range."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or not abs(raw) <= sys.float_info.max:
        raise SchemaError(f"{what} must be a finite number, got {raw!r}")
    return float(raw)


def _typed(raw, kind, what):
    """A JSON value of the Python type kind (list, dict or bool), not
    coerced: a loop over a string or an object as a list would read its
    characters or keys as entries."""
    if not isinstance(raw, kind):
        raise SchemaError(f"{what} must be a {kind.__name__}, got {type(raw).__name__}")
    return raw


def _name(raw):
    """A network name, which names the emitted Verilog modules and files, so
    it must be a Verilog identifier."""
    if not isinstance(raw, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", raw):
        raise SchemaError(f"name must match [A-Za-z_][A-Za-z0-9_]*, got {raw!r}")
    return raw


def _array(raw, dtype, shape, what, optional=False):
    """A typed array of dtype and exactly the given shape, as a writable
    native array; None stays None if the field is optional."""
    if raw is None and optional:
        return None
    wire = np.dtype(dtype).newbyteorder("<")
    if _typed(raw, dict, what)["dtype"] != wire.str:
        raise SchemaError(f"{what} has dtype {raw['dtype']!r}, expected {wire.str!r}")
    dims = _typed(raw["shape"], list, f"{what}.shape")
    if any(type(d) is not int for d in dims) or dims != list(shape):   # True == 1
        raise SchemaError(f"{what} has shape {dims!r}, expected {list(shape)}")
    try:
        data = base64.b64decode(raw["data"], validate=True)
    except (TypeError, ValueError) as e:   # not a string, or not strict base64
        raise SchemaError(f"{what}.data must be a base64 string: {e}") from e
    size = math.prod(shape) * wire.itemsize
    if len(data) != size:
        raise SchemaError(f"{what}.data holds {len(data)} bytes, expected {size}")
    a = np.frombuffer(data, wire).reshape(shape)
    if wire.kind == "b" and np.any(a.view(np.uint8) > 1):   # astype(bool) would take any
        raise SchemaError(f"{what} must hold only 0 and 1")
    if wire.kind == "f" and not np.all(np.isfinite(a)):
        raise SchemaError(f"{what} holds non-finite values")
    return a.astype(dtype)


def _lut_in(raw, prune_mask, b_levels, what):
    """The LUT block, checked against the layer's prune mask: channel c owns
    one node per unpruned weight of row c, and node n's first input is that
    weight's column."""
    if raw is None:
        return None
    k = _int(_typed(raw, dict, what)["k"], f"{what}.k")
    if not 1 <= k <= FABRIC_K:
        raise SchemaError(f"{what}.k must be in [1, {FABRIC_K}], got {k}")
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
    gammas = _array(raw["gammas"], np.float64, (b_levels,), f"{what}.gammas")
    coeffs = _array(raw["coeffs"], np.float64, (b_levels, n, 1 << k), f"{what}.coeffs")
    return LutData(k=k, gammas=gammas, offsets=offsets, indices=indices, coeffs=coeffs)


def _compute_in(raw, b_levels, what):
    size = lambda name: _size(raw[name], f"{what}.{name}")
    if raw["kind"] == "dense":
        layer = DenseLayer(size("in_features"), size("out_features"))
        n_out = layer.out_features
    else:
        layer = ConvLayer(size("in_channels"), size("out_channels"), size("kernel"),
                          size("stride"))
        n_out = layer.out_channels
    layer.unrolled = _typed(raw["unrolled"], bool, f"{what}.unrolled")
    matrix = (n_out, layer.window_size)
    for name, dtype, optional in (("weights", np.float64, False), ("prune_mask", bool, False),
                                  ("phase1_weights", np.float64, True)):
        setattr(layer, name, _array(raw[name], dtype, matrix, f"{what}.{name}", optional))
    layer.lut = _lut_in(raw["lut"], layer.prune_mask, b_levels, f"{what}.lut")
    return layer


def _layer_in(raw: dict, b_levels: int, what: str):
    kind = _typed(raw, dict, what).get("kind")
    if kind == "dense" or kind == "conv":
        return _compute_in(raw, b_levels, what)
    if kind == "batchnorm":
        layer = BatchNormLayer(_size(raw["num_features"], f"{what}.num_features"))
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(layer, name, _array(raw[name], np.float64, (layer.num_features,),
                                        f"{what}.{name}"))
        layer.eps = _float(raw["eps"], f"{what}.eps")
        if layer.eps <= 0.0:
            raise SchemaError(f"{what}.eps must be finite and positive, got {layer.eps}")
        if np.any(layer.running_var < 0.0):
            raise SchemaError(f"{what}.running_var must not be negative")
        return layer
    if kind == "maxpool":
        return MaxPoolLayer(_size(raw["size"], f"{what}.size"))
    if kind == "softmax":
        return SoftmaxLayer()
    raise SchemaError(f"unknown layer kind {kind!r}")


def _log_in(raw) -> TrainLog:
    """One phase's training log: rows of an integer epoch and a finite loss,
    error and omega."""
    log = TrainLog(phase=_int(_typed(raw, dict, "logs entry")["phase"], "logs.phase"))
    if log.phase not in (1, 2, 3):
        raise SchemaError(f"logs.phase must be 1, 2 or 3, got {log.phase}")
    for row in _typed(raw["rows"], list, "logs.rows"):
        if len(_typed(row, list, "logs row")) != 4:
            raise SchemaError(f"logs row must be [epoch, loss, err, omega], got {row!r}")
        log.append(_int(row[0], "logs epoch"), *(_float(v, "logs value") for v in row[1:]))
    return log


def _checkpoint_in(raw: dict) -> Checkpoint:
    if not isinstance(raw, dict) or "schema_version" not in raw:
        raise SchemaError("not a checkpoint: missing schema_version")
    version = _int(raw["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"checkpoint schema {version} is not the supported {SCHEMA_VERSION}; "
                          f"re-run the stage that wrote it")
    stage, b_levels = raw["stage"], _size(raw["b_levels"], "b_levels")
    if stage not in STAGES:
        raise SchemaError(f"unknown stage {stage!r}")
    hardened = stage == "hardened"
    layers = [_layer_in(l, b_levels, f"l{i}")
              for i, l in enumerate(_typed(raw["layers"], list, "layers"))]
    if not layers:
        raise SchemaError("checkpoint has an empty layer list")
    net = Network(name=_name(raw["name"]), layers=layers, b_levels=b_levels,
                  input_shape=tuple(_size(d, "input_shape")
                                    for d in _typed(raw["input_shape"], list, "input_shape")),
                  seed=_int(raw["seed"], "seed"),
                  stage="expanded" if hardened else stage)
    try:
        steps(net)
    except DimensionError as e:
        raise SchemaError(f"the stored layers do not fit: {e}") from e
    if hardened:
        frac_bits = _int(raw["frac_bits"], "frac_bits")
        try:
            harden_network(net, frac_bits)
        except LutNetError as e:
            raise SchemaError(f"cannot harden the stored network: {e}") from e
    return Checkpoint(net=net, logs=[_log_in(lg) for lg in _typed(raw["logs"], list, "logs")])


def from_dict(raw: dict) -> Checkpoint:
    try:
        return _checkpoint_in(raw)
    except SchemaError:   # itself a ValueError
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed checkpoint: {e!r}") from e


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as f:
        json.dump(to_dict(ckpt), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = json.loads(data.decode("ascii"))
    except (ValueError, RecursionError) as e:   # bad bytes or JSON, too deep, too many digits
        raise SchemaError(f"{path}: corrupt checkpoint: {e}") from e
    return from_dict(raw)
