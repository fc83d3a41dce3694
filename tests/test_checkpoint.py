"""Checkpoints: schema-1, -3 and -4 files keep loading to the same hardware
and a schema-2 file to the same function, a save -> load -> save round trip
is byte-identical at every pipeline stage, the current schema stores nothing
derivable, malformed input raises SchemaError, and no malformed input ends
in a traceback of the command line."""

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

from conftest import exhaustive_pm1, make_tiny_net, netlist_pin, run_netlist_text, tiny_stages

# the fixtures hold the nets of tiny_stages() as they were when expansion drew
# each channel's wiring with a generator of its own: the hardened one here,
# schema 1
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v1.json")
# the expanded one, saved as schema 2
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_expanded_v2.json")
# the hardened one, saved as schema 3
V3_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v3.json")
# the hardened one, saved as schema 4 by the writer that still held masks and
# thresholds as layer fields
V4_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v4.json")

# forward_hardened_bits of the fixture on exhaustive_pm1(8), one digit per
# input: bit j of the digit is output j's bit (+1 -> 1)
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


def test_v1_fixture_reproduces_its_hardware():
    net = ck.load_checkpoint(V1_FIXTURE).net
    assert net.stage == "hardened"
    x = exhaustive_pm1(8)
    assert bits_digits(md.forward_hardened_bits(net, x)) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


def test_v1_fixture_engine_verilog_runs_as_simulated():
    nl = hw.lower(ck.load_checkpoint(V1_FIXTURE).net)
    bits = hw.encode_pm1(exhaustive_pm1(8))
    assert np.array_equal(run_netlist_text(nl, hw.emit_verilog(nl), bits), hw.simulate(nl, bits))


def test_v2_fixture_hardens_to_the_v1_hardware():
    # the v1 fixture holds this net hardened at 8 fractional bits
    net = ck.load_checkpoint(V2_FIXTURE).net
    assert net.stage == "expanded"
    ex.harden_network(net, frac_bits=8)
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


def test_v3_fixture_reproduces_the_v1_hardware():
    net = ck.load_checkpoint(V3_FIXTURE).net
    assert net.stage == "hardened"
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


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
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


def test_v4_fixture_round_trips_and_reproduces_its_hardware():
    # the v1 fixture holds the same net, so the same bits and Verilog
    with open(V4_FIXTURE, encoding="ascii") as f:
        raw = json.load(f)
    loaded = ck.load_checkpoint(V4_FIXTURE)
    assert ck.to_dict(loaded) == raw
    net = loaded.net
    assert net.stage == "hardened"
    assert bits_digits(md.forward_hardened_bits(net, exhaustive_pm1(8))) == V1_BITS
    assert verilog_sha256(net) == V1_VERILOG_SHA256


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
    # tolist() of the (0, K) indices is [], which numpy reads as float64
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
        layer["prune_mask"] = [[0] * len(r) for r in layer["prune_mask"]]
        layer["lut"].update(k=k, offsets=[0, 0, 0, 0], indices=[], coeffs=[[], []])
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


def _bn_features(n):
    """Tamper: l1, the batch norm after the 4 channels of l0, gets n features."""
    def tamper(raw):
        bn = raw["layers"][1]
        bn["num_features"] = n
        for name in ("gamma", "beta", "running_mean", "running_var"):
            bn[name] = (bn[name] * 2)[:n]
    return tamper


def _expanded_without_lut(raw):
    """Tamper: the expanded checkpoint of the hardened one, without l2's LUT
    block."""
    raw.update(stage="expanded", frac_bits=None)
    raw["layers"][2]["lut"] = None


LUT = ("layers", 2, "lut")
# loaded fields that fit each other, but layers that do not fit together
UNFIT = {
    "batch norm wider than its layer": _bn_features(5),
    "batch norm of one feature": _bn_features(1),
    "no dense or conv layer": _set(("layers",), [{"kind": "softmax"}]),
    # K-LUT nodes sit in exactly the unrolled layers of an expanded or hardened net
    "binarised with a LUT block": _set(("stage",), "binarised"),
    "LUT block on a time-multiplexed layer": _set(("layers", 2, "unrolled"), False),
    "expanded without a LUT block": _expanded_without_lut,
}
TAMPERED = {
    # the tiny net: l0 dense 8 -> 4 (time-multiplexed), l2 dense 4 -> 3 expanded
    # at K=3 with 9 nodes, offsets [0, 3, 7, 9], 2 planes
    **UNFIT,
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
    "k past the fabric's 6 on a fully pruned layer": _prune_all_of_l2(7),
    "layer size not an integer": _set(("layers", 0, "in_features"), 8.0),
    "batch-norm size a string": _set(("layers", 1, "num_features"), "4"),
    "input size not an integer": _set(("input_shape", 0), 8.5),
    # every size is at least 1: [-1, -8] has the 8 inputs the net reads
    "input size zero": _set(("input_shape", 0), 0),
    "input sizes negative": _set(("input_shape",), [-1, -8]),
    # astype(bool) would read any other integer as True
    "prune_mask entry 2": _set(("layers", 0, "prune_mask", 0, 0), 2),
    "prune_mask entry -1": _set(("layers", 2, "prune_mask", 0, 0), -1),
    "log phase not an integer": lambda raw: raw["logs"].append({"phase": 1.5, "rows": []}),
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


@pytest.mark.parametrize("case", sorted(UNFIT))
@pytest.mark.parametrize("command", sorted(cli.HARDWARE))
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
@pytest.mark.parametrize("command", sorted(cli.HARDWARE))
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
    "alpha a string": (_set(("layers", 0, "alpha"), "0.5"), "l0.alpha must be a number"),
    "alpha a bool": (_set(("layers", 2, "alpha"), True), "l2.alpha must be a number"),
    "eps a string": (_set(("layers", 1, "eps"), "1e-5"), "l1.eps must be a number"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_V2))
def test_tampered_v2_checkpoint_raises_schema_error(case):
    raw = _v2_dict()
    tamper, message = TAMPERED_V2[case]
    tamper(raw)
    with pytest.raises(SchemaError, match=message):
        ck.from_dict(raw)
