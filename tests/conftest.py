import copy
import hashlib
import re

import numpy as np
import pytest

from lutnet import data as dataio
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import prune as pr


@pytest.fixture(scope="session")
def toy_data(tmp_path_factory):
    """Small slice of the bundled digit set, shared across training tests."""
    root = tmp_path_factory.mktemp("toy")
    dataio.generate_toy_dataset(root, n_train=1500, n_test=400, seed=123)
    return dataio.load_dataset(root)


def fold_initial_scale(net):
    """Move the mean |w| of each compute layer's initial weights into the
    batch norm after it, as the schema-2 checkpoint migration moves a
    layer's scale: the running mean is divided by it, the running variance
    and eps by its square.  Nets built with it compute what they computed
    when each layer multiplied its dot product by that scale, so the pins
    recorded then hold."""
    for i, layer in net.compute_layers():
        bn = net.layers[i + 1]
        a = float(np.mean(np.abs(layer.weights)))
        sq = a * a
        bn.running_mean = bn.running_mean / a
        bn.running_var = bn.running_var / sq
        bn.eps = bn.eps / sq


def make_tiny_net(seed=7, b_levels=2, in_bits=8, hidden=4, classes=3,
                  randomize_bn=True):
    """8 -> 4 -> 3 dense stack; input space small enough for exhaustive checks."""
    layers = [
        md.DenseLayer(in_bits, hidden, unrolled=False),
        md.BatchNormLayer(hidden),
        md.DenseLayer(hidden, classes, unrolled=True),
        md.BatchNormLayer(classes),
        md.SoftmaxLayer(),
    ]
    net = md.init_network(md.Network("tiny", layers, b_levels, (in_bits,), seed))
    if randomize_bn:
        rng = np.random.default_rng(seed + 17)
        for layer in net.layers:
            if layer.kind == "batchnorm":
                n = layer.num_features
                layer.running_mean = rng.standard_normal(n) * 0.2
                layer.running_var = rng.uniform(0.5, 2.0, n)
                layer.gamma = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
                layer.beta = rng.standard_normal(n) * 0.2
        fold_initial_scale(net)
    return net


def tiny_stages():
    """(stage, network) after each pipeline step of make_tiny_net(): prune,
    binarise, expand at K=3 with perturbed coefficients, harden.  The
    checkpoints under data/ hold these nets as they were wired before
    expansion drew one wiring plan per layer, so they compute other
    functions."""
    net = make_tiny_net()
    out = [("real", copy.deepcopy(net))]
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.75, tol=0.3))
    out.append(("pruned", copy.deepcopy(net)))
    pr.binarise_network(net)
    out.append(("binarised", copy.deepcopy(net)))
    ex.expand_network(net, k=3, seed=11)
    rng = np.random.default_rng(12)
    for _i, layer in net.compute_layers():
        if layer.lut is not None:
            for ch in layer.lut.channels:
                ch.coeffs += rng.normal(0.0, 0.3, ch.coeffs.shape)
    out.append(("expanded", copy.deepcopy(net)))
    ex.harden_network(net)
    out.append(("hardened", net))
    return out


def untiled_pool_net():
    """conv(1->2, k1) on 1x6x6, maxpool 4, dense(2->3), expanded at K=1 and
    set to the hardened stage at 6 fractional bits, which harden_network
    would refuse: the pool size does not tile 6x6, so the net has no
    reference function."""
    layers = [md.ConvLayer(1, 2, 1, 1), md.BatchNormLayer(2), md.MaxPoolLayer(4),
              md.DenseLayer(2, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("untiled", layers, 2, (1, 6, 6), 61))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=62)
    net.stage, net.frac_bits = "hardened", 6
    return net


def exhaustive_pm1(n_bits):
    idx = np.arange(1 << n_bits)
    return ((idx[:, None] >> np.arange(n_bits)[None, :]) & 1) * 2.0 - 1.0


def rel_err(got, want, floor=1e-12):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.linalg.norm(want)), floor)
    return float(np.linalg.norm(got - want)) / denom


def netlist_pin(nl):
    """(sha256 of the behavioral Verilog, sha256 of the vendor-primitive
    Verilog, {lut, add, threshold} cell counts) of a netlist.  Files are
    hashed in name order, as bench/workloads.py hashes them."""
    shas = []
    for style in ("behavioral", "vendor-primitive"):
        files = hw.emit_verilog(nl, style=style)
        h = hashlib.sha256()
        for name in sorted(files):
            h.update(name.encode("ascii") + b"\0" + files[name].encode("ascii") + b"\0")
        shas.append(h.hexdigest())
    counts = {"lut": 0, "add": 0, "threshold": 0}
    for cell in nl.cells:
        kind = ("lut" if isinstance(cell, hw.LutCell) else
                "add" if isinstance(cell, hw.AddCell) else "threshold")
        counts[kind] += 1
    return shas[0], shas[1], counts


def area_sha(net):
    """sha256 of area_report(net).to_csv()."""
    return hashlib.sha256(hw.area_report(net).to_csv().encode("ascii")).hexdigest()


# A reader of the emitted engine modules (verilog._engine_lines) that runs
# them under Verilog-2001 sizing, independent of the netlist's arrays: it
# knows only the text, and every line of a module must match one of these
# forms.
_PORT = re.compile(r"    (input|output) wire (\w+),?$")
_ROM = re.compile(r"localparam \[(\d+):0\] (\w+) = (\d+)'b([01]+);$")
_WIRE = re.compile(r"wire (signed )?(?:\[(\d+):0\] )?(\w+);$")
_FUNC_OUT = re.compile(r"function \[(\d+):0\] popcount;$")
_FUNC_IN = re.compile(r"    input \[(\d+):0\] v;$")
_FUNC_LOOP = re.compile(r"        for \(i = 0; i < (\d+); i = i \+ 1\)$")
_FUNC_BODY = ("    integer i;", "    begin", "        popcount = 0;",
              "            popcount = popcount + v[i];", "    end", "endfunction")
_CONCAT = re.compile(r"assign (\w+) = \{(.*)\};$")
_POP = re.compile(r"assign (\w+) = popcount\(~\((\w+) \^ (\w+)\) & (\w+)\);$")
_COMPARE = re.compile(r"assign (\w+) = \((\w+) (>=|<=) (-?\d+'sd\d+)\);$")
_SUM = re.compile(r"assign (\w+) = (.*);$")
_TERM = re.compile(r"\((\d+'sd\d+) \* \$signed\(\{1'b0, (\w+)\[(\d+):(\d+)\]\}\)\)$")
_LITERAL = re.compile(r"-?(\d+)'sd(\d+)$")


def _signed(value, width):
    """value modulo 2**width read as a width-bit two's-complement number."""
    value %= 1 << width
    return value - (1 << width) if value >> (width - 1) else value


def _literal(text, width):
    """A [-]A'sdV literal in an expression of width bits: V wrapped to A
    bits and sign-extended, then negated at the expression width."""
    size, value = (int(g) for g in _LITERAL.match(text).groups())
    value = _signed(value, size)
    return _signed(-value if text.startswith("-") else value, max(width, size))


def _sum(expr, target, widths, env):
    """A threshold cell's accumulator sum, evaluated at its context width:
    the widest of the target wire and the operands, every operand signed."""
    terms = [(_TERM.match(t), t) for t in expr.split(" + ")]
    width = widths[target]
    for term, text in terms:
        width = max(width, int(_LITERAL.match(term[1] if term else text)[1]),
                    int(term[3]) - int(term[4]) + 2 if term else 0)
    total = 0
    for term, text in terms:
        if term:
            pop, hi, lo = env[term[2]], int(term[3]), int(term[4])
            assert hi < widths[term[2]], text
            total = total + _literal(term[1], width) * ((pop >> lo) % (1 << (hi - lo + 1)))
        else:
            total = total + _literal(text, width)
    return total


def run_engine_text(text, inputs, n):
    """{threshold output: (n,) 0/1} of an engine module's text on n vectors,
    inputs {name: (n,) 0/1} holding every input port.  Vectors are (n, W)
    bit arrays, bit j in column j; popcounts and sums are Python integers,
    each wrapped to the width Verilog-2001 gives its target."""
    env, widths, fires, ports = {}, {}, {}, []
    lines = text.split("\n")
    for line in lines[next(i for i, l in enumerate(lines) if l.startswith("module ")) + 1:]:
        if line in (");", "endmodule", "") or line in _FUNC_BODY:
            continue
        if m := _PORT.match(line):
            if m[1] == "input":
                env[m[2]] = np.asarray(inputs[m[2]], np.uint8)
            else:
                ports.append(m[2])
        elif m := _ROM.match(line):
            assert int(m[1]) + 1 == int(m[3]) == len(m[4]), line
            env[m[2]] = np.frombuffer(m[4].encode()[::-1], np.uint8) - ord("0")
        elif m := _FUNC_OUT.match(line):
            func_out = int(m[1]) + 1
        elif m := _FUNC_IN.match(line):
            func_in = int(m[1]) + 1
        elif m := _FUNC_LOOP.match(line):
            assert int(m[1]) == func_in, line
        elif m := _WIRE.match(line):
            widths[m[3]] = int(m[2]) + 1 if m[2] else 1
        elif m := _CONCAT.match(line):
            parts = [np.zeros(n, np.uint8) if p == "1'b0" else env[p] for p in m[2].split(", ")]
            assert len(parts) == widths[m[1]], line
            env[m[1]] = np.stack(parts[::-1], axis=1)
        elif m := _POP.match(line):
            window, rom, mask = env[m[2]], env[m[3]], env[m[4]]
            assert window.shape[1] == len(rom) == len(mask) == func_in, line
            count = (((window ^ rom) ^ 1) & mask).sum(axis=1).astype(object)
            env[m[1]] = count % (1 << func_out) % (1 << widths[m[1]])
        elif m := _COMPARE.match(line):
            acc = env[m[2]]
            bound = _literal(m[4], widths[m[2]])
            fires[m[1]] = np.array([a >= bound if m[3] == ">=" else a <= bound for a in acc],
                                   np.uint8)
        elif m := _SUM.match(line):
            total = np.broadcast_to(_sum(m[2], m[1], widths, env), n)
            env[m[1]] = np.array([_signed(int(v), widths[m[1]]) for v in total], object)
        else:
            raise AssertionError(f"not an engine module line: {line!r}")
    assert set(ports) <= set(fires), "an output port is never assigned"
    return fires


def run_netlist_text(nl, files, bits):
    """Output bits of a netlist on input bits (V, n_inputs): each engine
    block run from its module text by run_engine_text, every other block by
    its evaluator.  Each engine's outputs must equal its
    EngineBlock.evaluator on the same bits."""
    for block, in_names, out_names, _exported in nl.walk():
        want = block.evaluator()(bits)
        if isinstance(block, hw.EngineBlock):
            text = files[f"{nl.name}_l{block.layer}.v"]
            got = run_engine_text(text, dict(zip(in_names, bits.T)), len(bits))
            assert np.array_equal(np.stack([got[name] for name in out_names], axis=1), want), \
                f"engine l{block.layer}"
        bits = want
    return bits
