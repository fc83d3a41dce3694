"""Checkpoints: a schema-1 file keeps loading to the same hardware, a
save -> load -> save round trip is byte-identical at every pipeline stage,
schema 2 stores nothing derivable, and malformed input raises SchemaError."""

import hashlib
import json
import os

import numpy as np
import pytest

from lutnet import checkpoint as ck
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet.errors import SchemaError
from lutnet.training import TrainLog

from conftest import exhaustive_pm1, tiny_stages

V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v1.json")

# forward_hardened_bits of the fixture on exhaustive_pm1(8), one digit per
# input: bit j of the digit is output j's bit (+1 -> 1)
V1_BITS = ("0200023022222222020022322222222230303020322322223020222322222222"
           "0000300032303220000002006230222230303330333333233030302033232222"
           "0230223222622222223222322222222230202223636222222223222322622262"
           "3000322063662362620032303262236233303323666663623020232363666266")
V1_VERILOG_SHA256 = "f69162c880fcd136c161a88e9f8b790354d313286a643ec4c9e15eda861f0098"


def bits_digits(bits):
    codes = (hw.encode_pm1(bits).astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1)
    return "".join(str(int(c)) for c in codes)


def verilog_sha256(net):
    files = hw.emit_verilog(hw.lower(net))
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("ascii") + b"\0" + files[name].encode("ascii") + b"\0")
    return h.hexdigest()


def test_v1_fixture_reproduces_its_hardware():
    net = ck.load_checkpoint(V1_FIXTURE).net
    assert net.stage == "hardened"
    x = exhaustive_pm1(8)
    assert bits_digits(md.forward_hardened_bits(net, x)) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256
    fresh = tiny_stages()[-1][1]
    assert np.array_equal(md.forward_hardened_bits(fresh, x), md.forward_hardened_bits(net, x))


def _stage_forward(net, x):
    if net.stage in ("real", "pruned"):
        return [md.forward_real(net, x)]
    if net.stage == "binarised":
        return [md.forward_binary(net, x)]
    if net.stage == "expanded":
        return [md.forward_lut(net, x)]
    return [md.forward_hardened_logits(net, x), md.forward_hardened_bits(net, x)]


@pytest.mark.parametrize("stage", md.STAGES)
def test_save_load_save_is_byte_identical(stage, tmp_path):
    net = dict(tiny_stages())[stage]
    log = TrainLog(phase=1)
    log.append(0, 1.25, 50.0, 1e-3)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    ck.save_checkpoint(ck.Checkpoint(net, [log]), str(first))
    loaded = ck.load_checkpoint(str(first))
    ck.save_checkpoint(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert loaded.net.stage == stage
    assert loaded.logs[0].rows == log.rows
    x = exhaustive_pm1(8)
    for got, want in zip(_stage_forward(loaded.net, x), _stage_forward(net, x)):
        assert np.array_equal(got, want)


def test_schema2_stores_nothing_derivable():
    stages = dict(tiny_stages())
    pruned = ck.to_dict(ck.Checkpoint(stages["pruned"]))
    assert pruned["layers"][2]["phase1_weights"] is not None
    for stage in ("expanded", "hardened"):
        raw = ck.to_dict(ck.Checkpoint(stages[stage]))
        assert raw["schema_version"] == 2
        for layer in raw["layers"]:
            assert "levels" not in layer
            assert layer.get("phase1_weights") is None
        assert sorted(raw["layers"][2]["lut"]) == ["coeffs", "gammas", "indices", "k",
                                                   "masks", "offsets"]


def _hardened_dict():
    return json.loads(json.dumps(ck.to_dict(ck.Checkpoint(tiny_stages()[-1][1]))))


def _set(path, value):
    """Tamper: set the field at path (keys and list indices) to value."""
    def tamper(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return tamper


LUT = ("layers", 2, "lut")
TAMPERED = {
    # the tiny net: l0 dense 8 -> 4 (time-multiplexed), l2 dense 4 -> 3 expanded
    # at K=3 with 9 nodes, offsets [0, 3, 7, 9], 2 planes
    "unknown stage": _set(("stage",), "quantised"),
    "weights not (out, window)": _set(("layers", 0, "weights"), lambda w: [r[:-1] for r in w]),
    "prune_mask not (out, window)": _set(("layers", 2, "prune_mask"), lambda m: m[:-1]),
    "offsets not from 0": _set(LUT + ("offsets",), [1, 3, 7, 9]),
    "offsets decreasing": _set(LUT + ("offsets",), [0, 4, 3, 9]),
    "offsets not C+1 long": _set(LUT + ("offsets",), [0, 3, 9]),
    "offsets past N": _set(LUT + ("offsets",), [0, 3, 7, 10]),
    "indices not (N, K)": _set(LUT + ("indices",), lambda ix: [r[:-1] for r in ix]),
    "index past window": _set(LUT + ("indices", 0, 1), 4),
    "negative index": _set(LUT + ("indices", 0, 1), -1),
    "coeffs not (B, N, 2^K)": _set(LUT + ("coeffs",), lambda c: c[:1]),
    "masks not (B, N, 2^K)": _set(LUT + ("masks",), lambda m: [p[:-1] for p in m]),
    "mask value not +-1": _set(LUT + ("masks", 0, 0, 0), 0),
    "gammas not (B,)": _set(LUT + ("gammas",), lambda g: g + [0.5]),
    "hardened without masks": _set(LUT + ("masks",), None),
    "hardened without tau": _set(("layers", 0, "tau"), None),
    "tau not C long": _set(("layers", 2, "tau"), lambda t: t[:-1]),
    "flip not C long": _set(("layers", 0, "flip"), lambda f: f + [0]),
    "ragged array": _set(("layers", 0, "weights", 1), lambda r: r[:-1]),
    "non-numeric array": _set(LUT + ("coeffs", 0, 0, 0), "x"),
    "null in array": _set(("layers", 1, "gamma", 0), None),
    "missing field": lambda raw: raw["layers"][0].pop("alpha"),
}


def test_untampered_dict_loads():
    ck.from_dict(_hardened_dict())


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_checkpoint_raises_schema_error(case):
    raw = _hardened_dict()
    TAMPERED[case](raw)
    with pytest.raises(SchemaError):
        ck.from_dict(raw)
