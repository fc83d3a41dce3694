"""Checkpoints: schema-1 and schema-3 files keep loading to the same hardware
and a schema-2 file to the same function, a save -> load -> save round trip
is byte-identical at every pipeline stage, the current schema stores nothing
derivable, malformed input raises SchemaError, and no malformed input ends
in a traceback of the command line."""

import hashlib
import json
import os

import numpy as np
import pytest

from lutnet import checkpoint as ck
from lutnet import cli
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet.errors import SchemaError
from lutnet.training import TrainLog

from conftest import exhaustive_pm1, tiny_stages

V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v1.json")
# the expanded stage of tiny_stages(), saved as schema 2
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_expanded_v2.json")
# the hardened stage of tiny_stages(), saved as schema 3
V3_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v3.json")

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


def test_v2_fixture_computes_what_the_fresh_net_computes():
    net = ck.load_checkpoint(V2_FIXTURE).net
    assert net.stage == "expanded"
    x = exhaustive_pm1(8)
    fresh = dict(tiny_stages())["expanded"]
    assert np.array_equal(md.forward_lut(net, x), md.forward_lut(fresh, x))


def test_v3_fixture_reproduces_the_fresh_hardware():
    net = ck.load_checkpoint(V3_FIXTURE).net
    assert net.stage == "hardened"
    x = exhaustive_pm1(8)
    fresh = tiny_stages()[-1][1]
    assert np.array_equal(md.forward_hardened_bits(net, x), md.forward_hardened_bits(fresh, x))
    assert verilog_sha256(net) == verilog_sha256(fresh)


def test_v3_fixture_ignores_its_stored_derived_fields():
    with open(V3_FIXTURE, encoding="ascii") as f:
        raw = json.load(f)
    want = ck.to_dict(ck.from_dict(raw))
    for layer in raw["layers"]:
        if layer["kind"] in ("dense", "conv"):
            layer["tau"] = [t + 100.0 for t in layer["tau"]]
            layer["flip"] = [1 - f for f in layer["flip"]]
            if layer["lut"] is not None:
                layer["lut"]["masks"] = [[[-m for m in node] for node in plane]
                                         for plane in layer["lut"]["masks"]]
        elif layer["kind"] == "batchnorm":
            layer["momentum"] = 0.5
    net = ck.from_dict(raw).net
    assert ck.to_dict(ck.Checkpoint(net)) == want
    x = exhaustive_pm1(8)
    fresh = tiny_stages()[-1][1]
    assert np.array_equal(md.forward_hardened_bits(net, x), md.forward_hardened_bits(fresh, x))
    assert verilog_sha256(net) == verilog_sha256(fresh)


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
    for stage, net in stages.items():
        raw = ck.to_dict(ck.Checkpoint(net))
        assert raw["schema_version"] == ck.SCHEMA_VERSION == 4
        assert "fx" not in raw
        assert raw["frac_bits"] == (8 if stage == "hardened" else None)
        for layer in raw["layers"]:
            for derived in ("levels", "alpha", "tau", "flip", "momentum"):
                assert derived not in layer
        if stage in ("expanded", "hardened"):
            assert all(layer.get("phase1_weights") is None for layer in raw["layers"])
            assert sorted(raw["layers"][2]["lut"]) == ["coeffs", "gammas", "indices", "k",
                                                       "offsets"]
    expanded = ck.to_dict(ck.Checkpoint(stages["expanded"]))
    hardened = ck.to_dict(ck.Checkpoint(stages["hardened"]))
    assert hardened == dict(expanded, stage="hardened", frac_bits=8)


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
    "gammas not (B,)": _set(LUT + ("gammas",), lambda g: g + [0.5]),
    "ragged array": _set(("layers", 0, "weights", 1), lambda r: r[:-1]),
    "non-numeric array": _set(LUT + ("coeffs", 0, 0, 0), "x"),
    "null in array": _set(("layers", 1, "gamma", 0), None),
    "missing field": lambda raw: raw["layers"][0].pop("unrolled"),
    "infinite weight": _set(("layers", 0, "weights", 0, 0), float("inf")),
    "NaN coefficient": _set(LUT + ("coeffs", 1, 2, 3), float("nan")),
    "eps negative": _set(("layers", 1, "eps"), -1.0),
    "eps zero": _set(("layers", 3, "eps"), 0.0),
    "eps NaN": _set(("layers", 1, "eps"), float("nan")),
    "running_var negative": _set(("layers", 3, "running_var", 1), -0.5),
    "offsets disagree with prune_mask": _set(LUT + ("offsets",), [0, 1, 5, 9]),
    "prune_mask disagrees with offsets": _set(("layers", 2, "prune_mask"),
                                              lambda m: [[1] * len(r) for r in m]),
    "indices[:, 0] not the unpruned columns": _set(LUT + ("indices", 0, 0),
                                                   lambda i: (i + 1) % 4),
    "hardened without frac_bits": _set(("frac_bits",), None),
    # rejected by harden_network, which loading runs
    "frac_bits negative": _set(("frac_bits",), -1),
    "frac_bits past 24": _set(("frac_bits",), 80),
    "gamma folds to an infinite tau": _set(("layers", 1, "gamma", 0), 1e-320),
    # integer fields take JSON integers only: int() would truncate the rest
    "frac_bits not an integer": _set(("frac_bits",), 8.7),
    "frac_bits a bool": _set(("frac_bits",), True),
    "seed not an integer": _set(("seed",), 7.9),
    "b_levels not an integer": _set(("b_levels",), 2.5),
    "schema_version not an integer": _set(("schema_version",), 4.0),
    "k not an integer": _set(LUT + ("k",), 3.0),
    "layer size not an integer": _set(("layers", 0, "in_features"), 8.0),
    "batch-norm size a string": _set(("layers", 1, "num_features"), "4"),
    "input size not an integer": _set(("input_shape", 0), 8.5),
    "log phase not an integer": lambda raw: raw["logs"].append({"phase": 1.5, "rows": []}),
}


def test_untampered_dict_loads():
    ck.from_dict(_hardened_dict())


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_checkpoint_raises_schema_error(case):
    raw = _hardened_dict()
    TAMPERED[case](raw)
    with pytest.raises(SchemaError):
        ck.from_dict(raw)


EMIT_FAILURES = dict(
    TAMPERED,
    # loads, but its threshold does not fit the accumulator at lowering
    **{"gamma folds to a tau past the accumulator": _set(("layers", 1, "gamma", 0), 1e-300),
       "weights scale the accumulator past int64": _set(
           ("layers", 0, "weights"), lambda w: [[v * 2.0 ** 53 for v in r] for r in w])})


@pytest.mark.parametrize("case", sorted(EMIT_FAILURES))
def test_bad_checkpoint_is_an_operational_failure_of_emit(case, tmp_path, capsys):
    raw = _hardened_dict()
    EMIT_FAILURES[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="ascii")
    assert cli.main(["emit", "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


def _v2_dict():
    with open(V2_FIXTURE, encoding="ascii") as f:
        return json.load(f)


TAMPERED_V2 = {
    # schema 2 still stores alpha, which loading moves into the batch norm
    # after the layer
    "alpha zero": (_set(("layers", 0, "alpha"), 0.0), "alpha must be finite and positive"),
    "alpha negative": (_set(("layers", 2, "alpha"), -0.3), "alpha must be finite and positive"),
    "alpha infinite": (_set(("layers", 0, "alpha"), float("inf")),
                       "alpha must be finite and positive"),
    "no batch norm after the layer": (lambda raw: raw["layers"].pop(3), "no batch norm after"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_V2))
def test_tampered_v2_checkpoint_raises_schema_error(case):
    raw = _v2_dict()
    tamper, message = TAMPERED_V2[case]
    tamper(raw)
    with pytest.raises(SchemaError, match=message):
        ck.from_dict(raw)
