"""Checkpoints: a stored schema-5 file keeps loading to the same hardware,
and its expanded form hardens to it; a save -> load -> save round trip is
byte-identical at every pipeline stage; the schema stores nothing
derivable; a file of any other schema, an array in any form but a typed
array, and any malformed input raise SchemaError, and none ends in a
traceback of the command line."""

import base64
import copy
import hashlib
import json
import os

import numpy as np
import pytest

from lutnet import checkpoint as ck
from lutnet import cli
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import prune as pr
from lutnet.errors import SchemaError
from lutnet.training import TrainLog

from conftest import (byte_mutants, decode_array, edit_array, exhaustive_pm1, make_tiny_net,
                      netlist_pin, run_netlist_text, tiny_stages)

# the hardened net of tiny_stages() as it was when expansion drew each
# channel's wiring with a generator of its own, saved as schema 4 by the
# writer that still held masks and thresholds as layer fields, then loaded
# by the schema-4 reader and saved as schema 5
V5_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v5.json")

# forward_hardened_bits of the fixture on exhaustive_pm1(8), one digit per
# input: bit j of the digit is output j's bit (+1 -> 1); named for the
# schema-1 file of the same net they were first recorded from
V1_BITS = ("0200023022222222020022322222222230303020322322223020222322222222"
           "0000300032303220000002006230222230303330333333233030302033232222"
           "0230223222622222223222322222222230202223636222222223222322622262"
           "3000322063662362620032303262236233303323666663623020232363666266")
# re-recorded when the time-multiplexed l0 became an engine block
V1_VERILOG_SHA256 = "36b57ee4ef0a6e4794d344b2993d4b05439d13155aa3dafab2183f1e7f659475"


def bits_digits(bits):
    codes = (hw.encode_pm1(bits).astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1)
    return "".join(str(int(c)) for c in codes)


def verilog_sha256(net):
    files = hw.emit_verilog(hw.lower(net))
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("ascii") + b"\0" + files[name].encode("ascii") + b"\0")
    return h.hexdigest()


def _v5_dict():
    with open(V5_FIXTURE, encoding="ascii") as f:
        return json.load(f)


def test_v5_fixture_round_trips_and_reproduces_its_hardware():
    raw = _v5_dict()
    loaded = ck.load_checkpoint(V5_FIXTURE)
    assert ck.to_dict(loaded) == raw
    net = loaded.net
    assert net.stage == "hardened"
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


def test_v5_fixture_engine_verilog_runs_as_simulated():
    nl = hw.lower(ck.load_checkpoint(V5_FIXTURE).net)
    bits = hw.encode_pm1(exhaustive_pm1(8))
    assert np.array_equal(run_netlist_text(nl, hw.emit_verilog(nl), bits), hw.simulate(nl, bits))


def test_v5_fixture_expanded_hardens_to_its_hardware():
    # a hardened checkpoint is its expanded checkpoint plus frac_bits
    net = ck.from_dict(dict(_v5_dict(), stage="expanded", frac_bits=None)).net
    assert net.stage == "expanded"
    ex.harden_network(net, frac_bits=8)
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


@pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6])
def test_other_schema_raises_schema_error(version):
    with pytest.raises(SchemaError, match=f"checkpoint schema {version} is not the supported 5"):
        ck.from_dict(dict(_v5_dict(), schema_version=version))


def _as_lists(raw):
    """raw with every typed array written as schema 4 wrote it: nested JSON
    lists, a mask as 0s and 1s."""
    def lists(node):
        if isinstance(node, dict) and sorted(node) == ["data", "dtype", "shape"]:
            a = decode_array(node)
            return (a.astype(int) if a.dtype == bool else a).tolist()
        if isinstance(node, dict):
            return {key: lists(value) for key, value in node.items()}
        return [lists(value) for value in node] if isinstance(node, list) else node
    return dict(raw, layers=lists(raw["layers"]))


@pytest.mark.parametrize("version, message", [
    (4, "checkpoint schema 4 is not the supported 5"),
    (5, "l0.weights must be a dict, got list")], ids=["schema 4", "lists"])
def test_list_arrays_are_an_operational_failure(version, message, tmp_path, capsys):
    # the fixture in the form schema 4 stored it, under its own schema
    # number and under the current one
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(dict(_as_lists(_v5_dict()), schema_version=version)),
                    encoding="ascii")
    with pytest.raises(SchemaError, match=message):
        ck.load_checkpoint(str(path))
    assert cli.main(["emit", "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and message in out.err
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("text", [b"[" * 200000 + b"]" * 200000,
                                  b'{"schema_version": 5, "seed": 1' + b"0" * 5000 + b"}"],
                         ids=["nested 200000 deep", "integer of 5001 digits"])
def test_undecodable_json_is_an_operational_failure(text, tmp_path, capsys):
    # json raises RecursionError and ValueError for these, not JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(SchemaError, match=f"{path}: corrupt checkpoint"):
        ck.load_checkpoint(str(path))
    assert cli.main(["emit", "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and str(path) in out.err
    assert "Traceback" not in out.out + out.err


def _stage_forward(net, x):
    if net.stage != "hardened":
        return [md.forward(net, x)]
    return [md.forward(net, x), md.forward_hardened_bits(net, x)]


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


def _scale_tm_weights(net):
    # the time-multiplexed layer's residual levels
    net.layers[0].weights *= 3.0


def _negate_coeffs(net):
    # the expanded layer's extension and hardened truth tables
    net.layers[2].lut.coeffs *= -1.0


def _raise_beta(net):
    # the folded thresholds of the layer before the batch norm
    net.layers[1].beta += 3.0


@pytest.mark.parametrize("stage, change", [
    ("binarised", _scale_tm_weights), ("expanded", _scale_tm_weights),
    ("hardened", _scale_tm_weights), ("expanded", _negate_coeffs),
    ("hardened", _negate_coeffs), ("hardened", _raise_beta)],
    ids=["binarised", "expanded", "hardened", "expanded-coeffs", "hardened-coeffs",
         "hardened-beta"])
def test_engines_follow_a_weight_change(stage, change):
    # an in-place change to a stored field changes what is derived from it:
    # every engine must compute what the net loaded from the changed fields
    # computes
    net = dict(tiny_stages())[stage]
    x = exhaustive_pm1(8)
    before = _stage_forward(net, x)
    change(net)
    fresh = ck.from_dict(ck.to_dict(ck.Checkpoint(net))).net
    assert any(not np.array_equal(a, b) for a, b in zip(_stage_forward(fresh, x), before))
    for got, want in zip(_stage_forward(net, x), _stage_forward(fresh, x)):
        assert np.array_equal(got, want)
    if stage == "hardened":
        assert netlist_pin(hw.lower(net)) == netlist_pin(hw.lower(fresh))


def _fully_pruned_stages():
    """{stage: net} of make_tiny_net() with every weight of l2 pruned,
    expanded at K=3 and hardened: l2 has no LUT node."""
    net = make_tiny_net()
    pr.prune_threshold(net, 0.0)
    net.layers[2].prune_mask[:] = False
    net.layers[2].weights[:] = 0.0
    pr.binarise_network(net)
    ex.expand_network(net, k=3, seed=11)
    expanded = copy.deepcopy(net)
    return {"expanded": expanded, "hardened": ex.harden_network(net)}


@pytest.mark.parametrize("stage", ["expanded", "hardened"])
def test_fully_pruned_layer_round_trips(stage, tmp_path):
    # the (0, K) indices hold no bytes: their shape alone has the K
    net = _fully_pruned_stages()[stage]
    assert net.layers[2].lut.indices.shape == (0, 3)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    ck.save_checkpoint(ck.Checkpoint(net), str(first))
    loaded = ck.load_checkpoint(str(first)).net
    ck.save_checkpoint(ck.Checkpoint(loaded), str(second))
    assert first.read_bytes() == second.read_bytes()
    x = exhaustive_pm1(8)
    for got, want in zip(_stage_forward(loaded, x), _stage_forward(net, x)):
        assert np.array_equal(got, want)
    if stage == "hardened":
        assert np.array_equal(hw.simulate(hw.lower(loaded), hw.encode_pm1(x)),
                              hw.encode_pm1(md.forward_hardened_bits(loaded, x)))


def _prune_all_of_l2(k):
    """Tamper: prune every weight of the tiny net's expanded l2 and store its
    empty LUT block at K = k."""
    def tamper(raw):
        layer = raw["layers"][2]
        layer["prune_mask"] = edit_array(layer["prune_mask"], np.zeros_like)
        lut = layer["lut"]
        lut.update(k=k, offsets=edit_array(lut["offsets"], np.zeros_like),
                   indices=edit_array(lut["indices"], lambda ix: np.zeros((0, k), np.int64)),
                   coeffs=edit_array(lut["coeffs"], lambda c: np.zeros((2, 0, 1 << k))))
    return tamper


def test_loader_bounds_k_at_the_fabric_lut():
    # an empty layer holds no coefficient to size, so only the bound stops a
    # K whose 2**K vertices would not fit in memory
    raw = _hardened_dict()
    _prune_all_of_l2(6)(raw)
    assert ck.from_dict(raw).net.layers[2].lut.k == 6
    _prune_all_of_l2(7)(raw)
    with pytest.raises(SchemaError, match=r"l2.lut.k must be in \[1, 6\], got 7"):
        ck.from_dict(raw)


def test_schema2_stores_nothing_derivable():
    stages = dict(tiny_stages())
    pruned = ck.to_dict(ck.Checkpoint(stages["pruned"]))
    assert pruned["layers"][2]["phase1_weights"] is not None
    for stage, net in stages.items():
        raw = ck.to_dict(ck.Checkpoint(net))
        assert raw["schema_version"] == ck.SCHEMA_VERSION == 5
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


def _edit(path, change):
    """Tamper: replace the typed array at path by change(array), encoded in
    its own dtype and shape."""
    return _set(path, lambda field: edit_array(field, change))


def _entry(path, index, value):
    """Tamper: set entry index of the typed array at path to value, or to
    value(entry) if it is callable."""
    def change(a):
        a[index] = value(a[index]) if callable(value) else value
        return a
    return _edit(path, change)


def _values(path, values):
    """Tamper: the typed array at path holds values, in its dtype."""
    return _edit(path, lambda a: np.array(values, a.dtype))


def _bytes(path, change):
    """Tamper: replace the data of the typed array at path by change(bytes),
    base64-encoded."""
    return _set(path + ("data",),
                lambda data: base64.b64encode(change(base64.b64decode(data))).decode("ascii"))


def _bn_features(n):
    """Tamper: l1, the batch norm after the 4 channels of l0, gets n features."""
    def tamper(raw):
        bn = raw["layers"][1]
        bn["num_features"] = n
        for name in ("gamma", "beta", "running_mean", "running_var"):
            bn[name] = edit_array(bn[name], lambda v: np.tile(v, 2)[:n])
    return tamper


def _expanded_without_lut(raw):
    """Tamper: the expanded checkpoint of the hardened one, without l2's LUT
    block."""
    raw.update(stage="expanded", frac_bits=None)
    raw["layers"][2]["lut"] = None


def _log_row(*row, phase=1):
    """Tamper: append the log of one phase, holding the one row given."""
    return lambda raw: raw["logs"].append({"phase": phase, "rows": [list(row)]})


LUT = ("layers", 2, "lut")
# the commands that load a hardened checkpoint
HARDENED_COMMANDS = sorted(name for name, (loads, *_) in cli.COMMANDS.items()
                           if loads == "hardened")
# loaded fields that fit each other, but layers that do not fit together
UNFIT = {
    "batch norm wider than its layer": _bn_features(5),
    "batch norm of one feature": _bn_features(1),
    "no dense or conv layer": _set(("layers",), [{"kind": "softmax"}]),
    "softmax before the last layer": lambda raw: raw["layers"].insert(2, {"kind": "softmax"}),
    # K-LUT nodes sit in exactly the unrolled layers of an expanded or hardened net
    "binarised with a LUT block": _set(("stage",), "binarised"),
    "LUT block on a time-multiplexed layer": _set(("layers", 2, "unrolled"), False),
    "expanded without a LUT block": _expanded_without_lut,
}
# layers that are no list of JSON objects
NOT_OBJECTS = {
    "layers a string": _set(("layers",), "abc"),
    "layers an object": _set(("layers",), {"a": 1}),
    "layer a number": _set(("layers", 0), 5),
}
TAMPERED = {
    # the tiny net: l0 dense 8 -> 4 (time-multiplexed), l2 dense 4 -> 3 expanded
    # at K=3 with 9 nodes, offsets [0, 3, 7, 9], 2 planes
    **UNFIT,
    **NOT_OBJECTS,
    "unknown stage": _set(("stage",), "quantised"),
    "weights not (out, window)": _edit(("layers", 0, "weights"), lambda w: w[:, :-1]),
    "prune_mask not (out, window)": _edit(("layers", 2, "prune_mask"), lambda m: m[:-1]),
    "offsets not from 0": _values(LUT + ("offsets",), [1, 3, 7, 9]),
    "offsets decreasing": _values(LUT + ("offsets",), [0, 4, 3, 9]),
    "offsets not C+1 long": _values(LUT + ("offsets",), [0, 3, 9]),
    "offsets past N": _values(LUT + ("offsets",), [0, 3, 7, 10]),
    "indices not (N, K)": _edit(LUT + ("indices",), lambda ix: ix[:, :-1]),
    "index past window": _entry(LUT + ("indices",), (0, 1), 4),
    "negative index": _entry(LUT + ("indices",), (0, 1), -1),
    "coeffs not (B, N, 2^K)": _edit(LUT + ("coeffs",), lambda c: c[:1]),
    "gammas not (B,)": _edit(LUT + ("gammas",), lambda g: np.append(g, 0.5)),
    # a typed array holds no ragged rows: a JSON list of them is no typed array
    "ragged array": _set(("layers", 0, "weights"),
                         lambda w: [r[:-1] if i == 1 else r
                                    for i, r in enumerate(decode_array(w).tolist())]),
    "non-numeric array": _edit(LUT + ("coeffs",), lambda c: c.astype(str)),
    "null in array": _set(("layers", 1, "gamma", "data"), None),
    "missing field": lambda raw: raw["layers"][0].pop("unrolled"),
    "infinite weight": _entry(("layers", 0, "weights"), (0, 0), np.inf),
    "NaN coefficient": _entry(LUT + ("coeffs",), (1, 2, 3), np.nan),
    "eps negative": _set(("layers", 1, "eps"), -1.0),
    "eps zero": _set(("layers", 3, "eps"), 0.0),
    "eps NaN": _set(("layers", 1, "eps"), float("nan")),
    "eps past the float range": _set(("layers", 1, "eps"), 10**400),
    "running_var negative": _entry(("layers", 3, "running_var"), 1, -0.5),
    "offsets disagree with prune_mask": _values(LUT + ("offsets",), [0, 1, 5, 9]),
    "prune_mask disagrees with offsets": _edit(("layers", 2, "prune_mask"), np.ones_like),
    "indices[:, 0] not the unpruned columns": _entry(LUT + ("indices",), (0, 0),
                                                     lambda i: (i + 1) % 4),
    "hardened without frac_bits": _set(("frac_bits",), None),
    # rejected by harden_network, which loading runs
    "no batch norm after the layer": lambda raw: raw["layers"].pop(3),
    "frac_bits negative": _set(("frac_bits",), -1),
    "frac_bits past 24": _set(("frac_bits",), 80),
    "gamma folds to an infinite tau": _entry(("layers", 1, "gamma"), 0, 1e-320),
    # integer fields take JSON integers only: int() would truncate the rest
    "frac_bits not an integer": _set(("frac_bits",), 8.7),
    "frac_bits a bool": _set(("frac_bits",), True),
    "seed not an integer": _set(("seed",), 7.9),
    "b_levels not an integer": _set(("b_levels",), 2.5),
    "schema_version not an integer": _set(("schema_version",), 4.0),
    "schema_version older": _set(("schema_version",), 2),
    "k not an integer": _set(LUT + ("k",), 3.0),
    "k past the fabric's 6 on a fully pruned layer": _prune_all_of_l2(7),
    "layer size not an integer": _set(("layers", 0, "in_features"), 8.0),
    "batch-norm size a string": _set(("layers", 1, "num_features"), "4"),
    "input size not an integer": _set(("input_shape", 0), 8.5),
    # every size is at least 1: [-1, -8] has the 8 inputs the net reads
    "input size zero": _set(("input_shape", 0), 0),
    "input sizes negative": _set(("input_shape",), [-1, -8]),
    # astype(bool) would read any other byte as True
    "prune_mask entry 2": _bytes(("layers", 0, "prune_mask"), lambda data: b"\2" + data[1:]),
    "prune_mask entry -1": _bytes(("layers", 2, "prune_mask"), lambda data: b"\xff" + data[1:]),
    # each array has the one dtype of its field: a bool is no number, a
    # mask no integer, and a float64 no float32
    "gamma all true": _edit(("layers", 1, "gamma"), lambda g: np.ones_like(g, bool)),
    "weights all true": _edit(("layers", 0, "weights"), lambda w: np.ones_like(w, bool)),
    "coeffs all true": _edit(LUT + ("coeffs",), lambda c: np.ones_like(c, bool)),
    "prune_mask of booleans": _set(("layers", 2, "prune_mask"),
                                   lambda m: decode_array(m).tolist()),
    "prune_mask of integers": _edit(("layers", 2, "prune_mask"), lambda m: m.astype(np.int64)),
    "weights as float32": _edit(("layers", 0, "weights"), lambda w: w.astype("<f4")),
    # the shape is JSON integers equal to the field's, and the data strict
    # base64 of exactly its bytes
    "weights shape off by one": _set(("layers", 0, "weights", "shape"),
                                     lambda shape: [shape[0], shape[1] + 1]),
    "weights shape of floats": _set(("layers", 0, "weights", "shape"),
                                    lambda shape: [float(d) for d in shape]),
    "coeffs data with a non-base64 character": _set(LUT + ("coeffs", "data"),
                                                    lambda data: data[:4] + "*" + data[4:]),
    "beta data one byte short": _bytes(("layers", 1, "beta"), lambda data: data[:-1]),
    "coeffs holding the bytes of +inf": _entry(LUT + ("coeffs",), (0, 0, 0), np.inf),
    "log phase not an integer": lambda raw: raw["logs"].append({"phase": 1.5, "rows": []}),
    # a log row is an integer epoch, then the loss, error and omega as finite
    # numbers, and the phase is one of the three
    "log epoch a string": _log_row("3", 1.0, 2.0, 3.0),
    "log epoch a fraction": _log_row(2.7, 1.0, 2.0, 3.0),
    "log loss a bool": _log_row(0, True, 2.0, 3.0),
    "log loss NaN": _log_row(0, float("nan"), 2.0, 3.0),
    "log err infinite": _log_row(0, 1.0, float("inf"), 3.0),
    "log omega a string": _log_row(0, 1.0, 2.0, "3"),
    "log phase -1": _log_row(0, 1.0, 2.0, 3.0, phase=-1),
    "log phase 4": _log_row(0, 1.0, 2.0, 3.0, phase=4),
    "log row of 3 values": _log_row(0, 1.0, 2.0),
    "log row of 5 values": _log_row(0, 1.0, 2.0, 3.0, 4.0),
    "log row a string": lambda raw: raw["logs"].append({"phase": 1, "rows": ["0123"]}),
    "log rows an object": lambda raw: raw["logs"].append({"phase": 1, "rows": {}}),
    "log a list": lambda raw: raw["logs"].append([1, []]),
    "logs an object": _set(("logs",), {}),
    # nor does any other scalar: bool() and float() would take strings
    "unrolled a string": _set(("layers", 0, "unrolled"), "false"),
    "unrolled an integer": _set(("layers", 2, "unrolled"), 1),
    "eps a string": _set(("layers", 1, "eps"), "1e-5"),
    "eps a bool": _set(("layers", 3, "eps"), True),
    # the name names the Verilog modules and files
    "name with a space": _set(("name",), "my net"),
    "name not a string": _set(("name",), 5),
    "name starting with a digit": _set(("name",), "5net"),
    "empty name": _set(("name",), ""),
}


@pytest.mark.parametrize("frac_bits", [np.int64(8), np.uint8(8)], ids=["int64", "uint8"])
def test_numpy_integer_frac_bits_save_and_load(frac_bits, tmp_path):
    net = ex.harden_network(dict(tiny_stages())["expanded"], frac_bits=frac_bits)
    assert type(net.frac_bits) is int
    path = str(tmp_path / "hardened.json")
    ck.save_checkpoint(ck.Checkpoint(net), path)
    assert ck.load_checkpoint(path).net.frac_bits == 8


def test_untampered_dict_loads():
    ck.from_dict(_hardened_dict())


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_checkpoint_raises_schema_error(case):
    raw = _hardened_dict()
    TAMPERED[case](raw)
    with pytest.raises(SchemaError):
        ck.from_dict(raw)


# the error names the layer and field, and says what the value must be
NAMED_IN_THE_ERROR = {
    "eps a string": "l1.eps must be a finite number",
    "eps a bool": "l3.eps must be a finite number",
    "unrolled a string": "l0.unrolled must be a bool",
    "schema_version not an integer": "schema_version must be an integer",
    "prune_mask of booleans": "l2.prune_mask must be a dict, got list",
    "eps past the float range": "l1.eps must be a finite number",
    "prune_mask of integers": "l2.prune_mask has dtype '<i8', expected '|b1'",
    "weights as float32": "l0.weights has dtype '<f4', expected '<f8'",
    "weights shape off by one": r"l0.weights has shape \[4, 9\], expected \[4, 8\]",
    "weights shape of floats": r"l0.weights has shape \[4.0, 8.0\], expected \[4, 8\]",
    "coeffs data with a non-base64 character": "l2.lut.coeffs.data must be a base64 string",
    "beta data one byte short": "l1.beta.data holds 31 bytes, expected 32",
    "prune_mask entry 2": "l0.prune_mask must hold only 0 and 1",
    "coeffs holding the bytes of +inf": "l2.lut.coeffs holds non-finite values",
    "no dense or conv layer": "tiny has no dense or conv layer",
    "softmax before the last layer": "softmax l2 is not the last layer",
}


@pytest.mark.parametrize("case", sorted(NAMED_IN_THE_ERROR))
def test_tampered_field_is_named_in_the_schema_error(case):
    raw = _hardened_dict()
    TAMPERED[case](raw)
    with pytest.raises(SchemaError, match=NAMED_IN_THE_ERROR[case]):
        ck.from_dict(raw)


EMIT_FAILURES = dict(
    TAMPERED,
    # loads, but its threshold does not fit the accumulator at lowering
    **{"gamma folds to a tau past the accumulator": _entry(("layers", 1, "gamma"), 0, 1e-300),
       "weights scale the accumulator past int64": _edit(("layers", 0, "weights"),
                                                         lambda w: w * 2.0 ** 53)})


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


@pytest.mark.parametrize("case", sorted(UNFIT))
@pytest.mark.parametrize("command", HARDENED_COMMANDS)
def test_unfit_layers_are_an_operational_failure(case, command, tmp_path, capsys):
    raw = _hardened_dict()
    UNFIT[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="ascii")
    assert cli.main([command, "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "the stored layers do not fit" in out.err
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(NOT_OBJECTS))
@pytest.mark.parametrize("command", HARDENED_COMMANDS)
def test_layers_not_objects_are_an_operational_failure(case, command, tmp_path, capsys):
    raw = _hardened_dict()
    NOT_OBJECTS[case](raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="ascii")
    assert cli.main([command, "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


def _field_paths(node, path=()):
    """Every field path of a checkpoint dict: each key of the top level, of
    each layer, of the lut block, of each typed array (dtype, shape and
    data) and of the logs, and each entry of a list other than an array's
    shape (the layers, input_shape, logs, rows and the values of each
    row)."""
    for key in (node if isinstance(node, dict) else range(len(node))):
        yield path + (key,)
        child = node[key]
        if isinstance(child, dict) or (isinstance(child, list) and path[:1] != ("layers",)):
            yield from _field_paths(child, path + (key,))


# every JSON type, and an integer past int64
SWEEP_VALUES = ({}, [], "x", 1.5, True, None, 5, -1, 2**63, [[1]], {"a": 1})


def test_any_json_value_in_any_field_loads_or_raises_schema_error():
    base = _v5_dict()
    _log_row(0, 1.25, 50.0, 1e-3)(base)
    paths = list(_field_paths(base))
    assert ("layers", 2, "lut", "k") in paths and ("logs", 0, "rows", 0, 3) in paths
    for key in ("dtype", "shape", "data"):
        assert ("layers", 2, "lut", "coeffs", key) in paths
        assert ("layers", 0, "prune_mask", key) in paths
    wrong = []
    for path in paths:
        for value in SWEEP_VALUES:
            raw = copy.deepcopy(base)
            _set(path, copy.deepcopy(value))(raw)
            try:
                ck.from_dict(raw)
            except SchemaError:
                pass
            except Exception as e:   # any other type is the failure
                wrong.append(f"{path} = {value!r}: {e!r}")
    assert not wrong, f"{len(wrong)} of {len(paths) * len(SWEEP_VALUES)} cases:\n" + "\n".join(wrong)


def _conv_pool_dict():
    """conv(1->2, k2) on 1x5x5 -> bn -> maxpool 2 -> dense(8->3) -> bn ->
    softmax, expanded at K=2 and hardened, as a checkpoint dict."""
    layers = [md.ConvLayer(1, 2, 2, 1), md.BatchNormLayer(2), md.MaxPoolLayer(2),
              md.DenseLayer(8, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("convpool", layers, 2, (1, 5, 5), 65))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=2, seed=66)
    ex.harden_network(net, frac_bits=6)
    return json.loads(json.dumps(ck.to_dict(ck.Checkpoint(net))))


@pytest.mark.parametrize("field, value", [("l2.size", 0), ("l2.size", -2), ("l0.stride", 0)])
@pytest.mark.parametrize("command", HARDENED_COMMANDS)
def test_non_positive_geometry_is_an_operational_failure(field, value, command, tmp_path,
                                                         capsys):
    raw = _conv_pool_dict()
    layer, name = field.split(".")
    raw["layers"][int(layer[1:])][name] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="ascii")
    assert cli.main([command, "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and f"{field} must be >= 1" in out.err
    assert "Traceback" not in out.out + out.err


def test_a_mutated_checkpoint_simulates_exactly_or_is_an_operational_failure(tmp_path, capsys):
    path = tmp_path / "ckpt.json"
    argv = ["simulate", "--ckpt", str(path), "--vectors", "256", "--out", str(tmp_path / "out")]
    wrong, loaded = [], 0
    with open(V5_FIXTURE, "rb") as f:
        mutants = byte_mutants(f.read(), np.random.default_rng(13), 100, 40)
    for case, content in mutants.items():
        path.write_bytes(content)
        try:
            code = cli.main(argv)
        except Exception as e:   # any exception out of main is the failure
            wrong.append(f"{case}: {e!r}")
            continue
        out = capsys.readouterr()
        errors = sum(line.startswith("error: ") for line in out.err.splitlines())
        if code == 0 and "256 vectors, 0 mismatching outputs" in out.out:
            loaded += 1
        elif not (code == 1 and out.err.startswith("error: ") and errors == 1):
            wrong.append(f"{case}: exit {code}, {out.out!r}, {out.err!r}")
    assert not wrong, "\n".join(wrong)
    assert loaded > 0, loaded

