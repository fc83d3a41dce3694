import copy
import re
import tracemalloc

import numpy as np
import pytest

from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import numerics as nm
from lutnet import prune as pr
from lutnet.config import FABRIC_K
from lutnet.errors import ConfigError, LoweringError, PackingError, PortError
from lutnet.expand import reduce_dont_cares
from lutnet.hwgen import area
from lutnet.hwgen.netlist import ComputeBlock

from conftest import (area_sha, exhaustive_pm1, fold_initial_scale, netlist_pin, run_netlist_text,
                      table_sha, tiny_stages)


def _bits(v, k):
    return [(v >> j) & 1 for j in range(k)]


def _brute_dont_cares(table, k):
    """Kept inputs by definition: input j matters iff flipping it changes the
    output at some vertex."""
    return [j for j in range(k)
            if any(table[v] != table[v ^ (1 << j)] for v in range(1 << k))]


def detect_dont_cares(table, k):
    """(kept inputs, reduced table) of one table, through reduce_dont_cares."""
    kept, reduced = _reduce_each(np.asarray(table)[None], k)[0]
    return kept, reduced


def _reduce_each(tables, k):
    """[(kept inputs, reduced table)] of a stack of tables, reduced in one
    reduce_dont_cares call; both arrays must be zero past k_eff."""
    k_eff, kept, reduced = reduce_dont_cares(tables, k)
    assert k_eff.shape == tables.shape[:-1]
    assert kept.shape == tables.shape[:-1] + (k,) and reduced.shape == tables.shape
    out = []
    for ke, ins, table in zip(k_eff.reshape(-1).tolist(), kept.reshape(-1, k),
                              reduced.reshape(-1, 1 << k)):
        assert not ins[ke:].any() and not table[1 << ke:].any()
        out.append((ins[:ke].tolist(), table[:1 << ke]))
    return out


def _assert_reduction(tables, k):
    for table, (kept, reduced) in zip(tables, _reduce_each(tables, k)):
        assert kept == _brute_dont_cares(table, k)
        assert reduced.shape == (1 << len(kept),)
        for v in range(1 << k):
            bits = _bits(v, k)
            sub = sum(bits[j] << i for i, j in enumerate(kept))
            assert reduced[sub] == table[v], (v, kept)


def _planted(rng, k, depends_on):
    """Random 0/1 table over k inputs that reads only the inputs depends_on."""
    f = rng.integers(0, 2, 1 << len(depends_on), dtype=np.uint8)
    table = np.empty(1 << k, dtype=np.uint8)
    for v in range(1 << k):
        bits = _bits(v, k)
        table[v] = f[sum(bits[j] << i for i, j in enumerate(depends_on))]
    return table


class TestDetectDontCares:
    def test_xor_of_two_of_four(self):
        table = np.array([_bits(v, 4)[0] ^ _bits(v, 4)[1] for v in range(16)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 4)
        assert kept == [0, 1]
        assert reduced.tolist() == [0, 1, 1, 0]

    def test_and_of_inputs_0_and_2(self):
        table = np.array([_bits(v, 4)[0] & _bits(v, 4)[2] for v in range(16)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 4)
        assert kept == [0, 2]
        assert reduced.tolist() == [0, 0, 0, 1]

    def test_two_dont_cares_of_three(self):
        table = np.array([_bits(v, 3)[1] for v in range(8)], dtype=np.uint8)
        kept, reduced = detect_dont_cares(table, 3)
        assert kept == [1]
        assert reduced.tolist() == [0, 1]

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant(self, value):
        kept, reduced = detect_dont_cares(np.full(4, value, dtype=np.uint8), 2)
        assert kept == []
        assert reduced.tolist() == [value]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(60 + k)
        tables = []
        for _ in range(40):
            depends_on = sorted(rng.choice(k, size=rng.integers(0, k + 1), replace=False).tolist())
            tables.append(_planted(rng, k, depends_on))
        _assert_reduction(np.stack(tables), k)
        # one call over a (planes, nodes, 2**k) stack reduces each table alike
        stacked = _reduce_each(np.stack(tables).reshape(4, 10, 1 << k), k)
        flat = _reduce_each(np.stack(tables), k)
        assert all(a[0] == b[0] and np.array_equal(a[1], b[1]) for a, b in zip(stacked, flat))

    def test_pm1_tables(self):
        rng = np.random.default_rng(67)
        table = _planted(rng, 5, [1, 3, 4]).astype(np.int8) * 2 - 1
        _assert_reduction(table[None], 5)


def _coeffs_for_tables(tables):
    """Interpolation coefficients whose hardened masks are exactly the given
    {-1,+1} tables (..., 2**K): c at the complement of vertex v is
    t(v) / (2**K * prod v)."""
    n = tables.shape[-1]
    k = n.bit_length() - 1
    scale = n * ex.vertices(k).prod(axis=-1)
    coeffs = np.empty(tables.shape)
    coeffs[..., np.arange(n) ^ (n - 1)] = tables / scale
    return coeffs


def _planted_net(k):
    """8 -> 6 -> 3, both layers expanded at K, channel 2 of the first layer
    fully pruned; every node table is planted: constants, functions of a
    random subset of the node's inputs, and full random functions."""
    n_in, hidden, classes = 8, 6, 3
    layers = [md.DenseLayer(n_in, hidden, unrolled=True), md.BatchNormLayer(hidden),
              md.DenseLayer(hidden, classes, unrolled=True), md.BatchNormLayer(classes),
              md.SoftmaxLayer()]
    net = md.init_network(md.Network("planted", layers, 2, (n_in,), 80 + k))
    rng = np.random.default_rng(90 + k)
    for layer in net.layers:
        if layer.kind == "batchnorm":
            n = layer.num_features
            layer.running_mean = rng.standard_normal(n) * 0.02
            layer.running_var = rng.uniform(0.5, 2.0, n)
            layer.gamma = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
            layer.beta = rng.standard_normal(n) * 0.02
    fold_initial_scale(net)
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.8, tol=0.3))
    first = net.layers[0]
    first.prune_mask[2] = False
    first.weights[2] = 0.0
    pr.binarise_network(net)
    ex.expand_network(net, k=k, seed=100 + k)
    for _i, layer in net.compute_layers():
        for ch in layer.lut.channels:
            for b in range(ch.coeffs.shape[0]):
                for n in range(ch.n_nodes):
                    kind = (b + n) % 3
                    if kind == 0:
                        table = np.full(1 << k, rng.choice([-1, 1]))
                    else:
                        depends_on = list(range(k)) if kind == 2 else sorted(
                            rng.choice(k, size=rng.integers(1, k + 1), replace=False).tolist())
                        table = _planted(rng, k, depends_on).astype(np.int64) * 2 - 1
                    ch.coeffs[b, n] = _coeffs_for_tables(table)
    ex.harden_network(net, frac_bits=6)
    return net


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_netlist_equals_hardened_bits_exhaustively(k):
    net = _planted_net(k)
    assert net.layers[0].lut.channels[2].n_nodes == 0
    first = copy.copy(net)
    first.layers = net.layers[:2] + [md.SoftmaxLayer()]   # the first layer's bits are outputs
    x = exhaustive_pm1(8)
    for n in (first, net):
        want = hw.encode_pm1(md.forward_hardened_bits(n, x))
        assert np.array_equal(hw.simulate(hw.lower(n), hw.encode_pm1(x)), want)


@pytest.mark.parametrize("bad", [-1, 2, 0.5])
def test_simulate_rejects_inputs_that_are_not_bits(bad):
    nl = hw.lower(_planted_net(2))
    bits = np.zeros((3, 8))
    bits[1, 4] = bad
    with pytest.raises(PortError, match="0 or 1"):
        hw.simulate(nl, bits)


def test_simulate_of_no_vectors_has_the_output_width():
    out = hw.simulate(hw.lower(_planted_net(2)), np.zeros((0, 8), np.uint8))
    assert out.dtype == np.uint8 and out.shape == (0, 3)


def test_forward_of_no_vectors_has_the_output_width():
    net = _planted_net(2)
    x = np.zeros((0, 8))
    assert md.forward_hardened_bits(net, x).shape == (0, 3)
    assert md.forward(net, x).shape == (0, 3)
    assert hw.simulate(hw.lower(net), hw.encode_pm1(x)).shape == (0, 3)


def test_simulate_names_the_rank_of_a_3d_input():
    with pytest.raises(PortError, match="rank 3"):
        hw.simulate(hw.lower(_planted_net(2)), np.zeros((2, 3, 8), np.uint8))


def interpret_cells(nl, bits):
    """Output bits of a netlist computed from its cell views (Netlist.cells)
    alone: every net a (vectors,) array looked up by name.  A LutCell reads
    its table at the vertex index of its input nets, an AddCell adds two
    nets and a ScaleThresholdCell compares sum_b q_b * (2*pop_b - N~) with
    q_tau, or the reverse when flipped."""
    values = dict(zip(nl.input_names(), bits.T.astype(np.int64)))
    for cell in nl.cells:
        if isinstance(cell, hw.LutCell):
            vertex = np.zeros(len(bits), np.int64)
            for j, name in enumerate(cell.inputs):
                vertex |= values[name] << j
            values[cell.out] = cell.table[vertex].astype(np.int64)
        elif isinstance(cell, hw.AddCell):
            values[cell.out] = values[cell.a] + values[cell.b]
        else:
            acc = sum(q * (2 * values[pop] - cell.n_tilde)
                      for q, pop in zip(cell.q_gammas, cell.pops))
            fire = acc <= cell.q_tau if cell.flip else acc >= cell.q_tau
            values[cell.out] = np.broadcast_to(fire, len(bits)).astype(np.int64)
    return np.stack([values[name] for name in nl.output_names()], axis=1).astype(np.uint8)


def _hand_block(planes):
    """One block over 8 bits at P = 3 overlapping windows of 6 slots, K = 6.
    Channel 0 holds nodes of k_eff 0..6 in each plane, channel 1 a buffer
    and an inverter of slot 2 and a 3-input node, channel 2 no node, and
    channel 3 two 2-input nodes; channels 1 and 3 fire at or below q_tau."""
    rng = np.random.default_rng(40 + planes)
    k = 6
    k_rows = [[0, 1, 2, 3, 4, 5, 6, 1, 1, 3, 2, 2], [6, 5, 4, 3, 2, 1, 0, 1, 1, 3, 2, 2]]
    k_eff = np.array(k_rows[:planes])
    tables = np.zeros(k_eff.shape + (1 << k,), np.uint8)
    inputs = np.zeros(k_eff.shape + (k,), np.int64)
    for b, n in np.ndindex(k_eff.shape):
        ke = k_eff[b, n]
        tables[b, n, :1 << ke] = rng.integers(0, 2, 1 << ke)
        inputs[b, n, :ke] = rng.permutation(k)[:ke]
    tables[:, 7, :2], tables[:, 8, :2] = [0, 1], [1, 0]
    inputs[:, 7:9, 0] = 2
    block = ComputeBlock(
        layer=0, index_map=np.arange(3)[:, None] + np.arange(6),
        offsets=np.array([0, 7, 10, 10, 12]), tables=tables, inputs=inputs, k_eff=k_eff,
        q_gammas=np.array([3, 2][:planes]), q_tau=np.array([1, 0, 0, -1]),
        flip=np.array([False, True, False, True]), acc_width=np.full(4, 8))
    return hw.Netlist("hand", 8, [block])


def _single_block(k, k_eff, offsets, seed):
    """One dense block over 8 bits, K = k: channel c owns nodes
    offsets[c]:offsets[c+1], node n of plane b has k_eff[b][n] random
    inputs and a random table; channel 1 fires at or below q_tau."""
    rng = np.random.default_rng(seed)
    k_eff = np.array(k_eff)
    tables = np.zeros(k_eff.shape + (1 << k,), np.uint8)
    inputs = np.zeros(k_eff.shape + (k,), np.int64)
    for b, n in np.ndindex(k_eff.shape):
        ke = k_eff[b, n]
        tables[b, n, :1 << ke] = rng.integers(0, 2, 1 << ke)
        inputs[b, n, :ke] = rng.permutation(8)[:ke]
    n_ch = len(offsets) - 1
    block = ComputeBlock(
        layer=1, index_map=np.arange(8)[None], offsets=np.array(offsets), tables=tables,
        inputs=inputs, k_eff=k_eff, q_gammas=np.array([3, 2][:len(k_eff)]),
        q_tau=np.arange(n_ch) - 1, flip=np.arange(n_ch) == 1, acc_width=np.full(n_ch, 8))
    return hw.Netlist("single", 8, [block])


def _one_node_block():
    """Two planes; channel 0 holds one 2-input node, so no adder runs and its
    pop is the leaf, channel 1 one constant and channel 2 three nodes."""
    return _single_block(4, [[2, 0, 1, 3, 2], [4, 0, 2, 1, 0]], [0, 1, 2, 5], seed=45)


def _seven_input_block():
    """One plane of one channel: a 7-input node and a 2-input node."""
    return _single_block(7, [[7, 2]], [0, 2], seed=46)


@pytest.mark.parametrize("planes", [1, 2])
def test_simulate_equals_cell_interpreter_on_a_hand_built_block(planes):
    nl = _hand_block(planes)
    bits = hw.encode_pm1(exhaustive_pm1(8))
    got = hw.simulate(nl, bits)
    assert got.shape == (256, 12) and 0 < got.mean() < 1
    assert np.array_equal(got, interpret_cells(nl, bits))


@pytest.mark.parametrize("make", [_one_node_block, _seven_input_block],
                         ids=["one-node", "seven-input"])
def test_simulate_equals_cell_interpreter_on_a_dense_block(make):
    nl = make()
    bits = hw.encode_pm1(exhaustive_pm1(8))
    got = hw.simulate(nl, bits)
    assert 0 < got.mean() < 1
    assert np.array_equal(got, interpret_cells(nl, bits))


# 1 entry makes every block of the node sums one row, 7 blocks of one row of
# up to 7 nodes, 1000 blocks of several rows whose last block is short
@pytest.mark.parametrize("entries", [1, 7, 1000])
def test_blocks_change_no_simulate_output(monkeypatch, entries):
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", entries)
    for planes in (1, 2):
        test_simulate_equals_cell_interpreter_on_a_hand_built_block(planes)
    for make in (_one_node_block, _seven_input_block):
        test_simulate_equals_cell_interpreter_on_a_dense_block(make)
    for k in range(1, 7):
        test_netlist_equals_hardened_bits_exhaustively(k)


def test_simulate_of_a_wide_block_runs_in_bounded_memory():
    # 256 channels of 25 K=4 nodes in 2 planes on one INFER_BATCH of vectors:
    # the node sums hold a few copies of one plane's uint8 vertex codes
    # (3.2 MB each), where a whole-plane gather of int64 entries takes 25.6 MB
    rng = np.random.default_rng(48)
    nl = _single_block(4, rng.integers(0, 5, (2, 256 * 25)), np.arange(257) * 25, seed=48)
    bits = rng.integers(0, 2, (md.INFER_BATCH, 8), dtype=np.uint8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = hw.simulate(nl, bits)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got.shape == (md.INFER_BATCH, 256) and 0 < got.mean() < 1
    assert peak < 16e6, peak


# netlist_pin of _hand_block(planes) and of _one_node_block(), recorded from
# the emitter that rendered compute blocks cell by cell
HAND_PINS = {
    1: ("43955f72b9aaf685726834c3ce4c8657955e17341f4e24fc60cf65f027fa05a5",
        "23c83b5f032d0a3de5ecaa15542d032cc03a8844a40e87bb829c3d515874a683",
        {"lut": 36, "add": 27, "threshold": 12}),
    2: ("1e605ef550ca72a35204c13a2f12b56e12389fa2facfa626ea0fe4ee62df71a0",
        "7a63cb57e2ff65f3f63fbfb70eef589e21287863e6104308b56e0ea2524391c4",
        {"lut": 72, "add": 54, "threshold": 12}),
    "one-node": ("a2f5169a1ea473eab46684ac19359c754fc6b975ce0f65bfeea3f7a165fd545e",
                 "cd6cff48affc7ad74f5aa8e46eccceabc8da6f8b3feaabbfc98200921cd1cc86",
                 {"lut": 10, "add": 4, "threshold": 3}),
}


@pytest.mark.parametrize("name", list(HAND_PINS))
def test_hand_built_netlist_matches_pin(name):
    nl = _one_node_block() if name == "one-node" else _hand_block(name)
    assert netlist_pin(nl) == HAND_PINS[name]
    if name == "one-node":   # the one leaf is the pop
        assert "{1'b0, lut_l1_c0_n0_b0[0:0]}" in hw.emit_verilog(nl)["single_l1.v"]


def test_vendor_style_rejects_a_seven_input_lut():
    nl = _seven_input_block()
    text = hw.emit_verilog(nl)["single_l1.v"]
    assert "(128'b" in text and "(4'b" in text
    with pytest.raises(PackingError, match="7-input.*max 6"):
        hw.emit_verilog(nl, style="vendor-primitive")


def test_area_rejects_a_seven_input_lut():
    block = _seven_input_block().blocks[0]
    hist, _logical = area._histogram(block)
    assert hist == {2: 1, 7: 1}
    with pytest.raises(PackingError, match=r"wider than 6 inputs \(K=7\)"):
        area.pack_estimate(block)


def test_area_rejects_a_maxpool_wider_than_the_fabric():
    # a 3x3 maxpool ORs 9 bits per output, more than a 6-LUT takes, which
    # the vendor style refuses to instantiate as well
    layers = [md.ConvLayer(1, 2, 1, 1), md.BatchNormLayer(2), md.MaxPoolLayer(3),
              md.DenseLayer(8, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("wide_pool", layers, 2, (1, 6, 6), 61))
    pr.prune_threshold(net, 0.0)
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=62)
    ex.harden_network(net, frac_bits=6)
    with pytest.raises(PackingError, match=r"l2: maxpool LUT wider than 6 inputs \(K=9\)"):
        hw.area_report(net)
    with pytest.raises(PackingError, match="9-input.*max 6"):
        hw.emit_verilog(hw.lower(net), style="vendor-primitive")


def test_lut_heads_tell_table_lengths_apart():
    # a constant, a k_eff = 1 table [0, 1] (stored padded as [0, 1, 0, 0])
    # and a k_eff = 2 table [0, 1, 0, 0]: the same leading entries, so each
    # table is rendered from its own 2**k_eff entries
    block = ComputeBlock(
        layer=0, index_map=np.arange(2)[None], offsets=np.array([0, 3]),
        tables=np.array([[[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]]], np.uint8),
        inputs=np.array([[[0, 0], [1, 0], [0, 1]]]), k_eff=np.array([[0, 1, 2]]),
        q_gammas=np.array([1]), q_tau=np.array([0]), flip=np.array([False]),
        acc_width=np.array([8]))
    nl = hw.Netlist("heads", 2, [block])
    behavioral = hw.emit_verilog(nl)["heads_l0.v"].splitlines()
    assert "assign lut_l0_c0_n0_b0 = 1'b1;" in behavioral
    assert "assign lut_l0_c0_n1_b0 = (2'b10 >> {x1}) & 1'b1;" in behavioral
    assert "assign lut_l0_c0_n2_b0 = (4'b0010 >> {x1, x0}) & 1'b1;" in behavioral
    vendor = hw.emit_verilog(nl, style="vendor-primitive")["heads_l0.v"].splitlines()
    assert "assign lut_l0_c0_n0_b0 = 1'b1;" in vendor
    assert ("LUT1 #(.INIT(2'h2)) lut_l0_c0_n1_b0_i (.I0(x1), .O(lut_l0_c0_n1_b0));"
            in vendor)
    assert ("LUT2 #(.INIT(4'h2)) lut_l0_c0_n2_b0_i (.I0(x0), .I1(x1), .O(lut_l0_c0_n2_b0));"
            in vendor)


# The packer that area.pack_estimate replaced, kept unchanged as its
# reference: one greedy largest-first pass over every logical LUT of a block,
# each identified by its input ids (channel, position, window slot).
def reference_can_pack(k1: int, inputs1: frozenset, k2: int, inputs2: frozenset) -> bool:
    if k1 == 6 or k2 == 6:
        return False
    return len(inputs1 | inputs2) <= 5


def reference_pack_estimate(luts: list) -> int:
    """Greedy largest-first pairing of logical LUTs [(k_eff, input net set)]
    into physical 6-LUTs; unpaired LUTs cost one each."""
    items = sorted(((int(k), frozenset(ins)) for k, ins in luts),
                   key=lambda t: -t[0])
    for k, _ins in items:
        if k > FABRIC_K:
            raise PackingError(f"logical LUT wider than {FABRIC_K} inputs (K={k})")
    used = [False] * len(items)
    physical = 0
    for i, (k1, in1) in enumerate(items):
        if used[i]:
            continue
        used[i] = True
        physical += 1
        if k1 == 6:
            continue
        for j in range(i + 1, len(items)):
            if used[j]:
                continue
            k2, in2 = items[j]
            if reference_can_pack(k1, in1, k2, in2):
                used[j] = True
                break
    return physical


def reference_logical_luts(block):
    """Logical LUTs of one compute block as [(k_eff, input ids)], with the
    histogram over reduced widths.  Input ids are (channel, position, window
    slot) so sharing within one neuron instance is visible to the packer;
    buffers/inverters/constants are zero-cost and excluded."""
    k_eff, positions = block.k_eff, block.positions
    widths, counts = np.unique(k_eff, return_counts=True)
    hist = {int(k): int(n) * positions for k, n in zip(widths, counts)}
    logical = int((k_eff <= 1).sum()) * positions
    luts = []
    channel = np.repeat(np.arange(len(block.offsets) - 1), np.diff(block.offsets))
    wide = sorted((int(channel[n]), int(b), int(n)) for b, n in zip(*np.nonzero(k_eff > 1)))
    for ci, b, n in wide:
        keff = int(k_eff[b, n])
        ins = block.inputs[b, n, :keff].tolist()
        for p in range(positions):
            luts.append((keff, frozenset((ci, p, i) for i in ins)))
        logical += positions
    return luts, hist, logical


def _packing_block(rng):
    """A compute block for the packer only (tables, thresholds and scales are
    zeros): P = 1..3 positions of a window of at most 8 slots, so that LUTs
    share inputs often, B = 1..3 planes, K = 2..6 and 1..5 channels of 0..5
    nodes, each reading k_eff = 0..K distinct slots."""
    positions, planes, n_ch = rng.integers(1, 4, 2).tolist() + [rng.integers(1, 6)]
    k = rng.integers(2, 7)
    slots = rng.integers(k, 9)
    offsets = np.concatenate([[0], np.cumsum(rng.integers(0, 6, n_ch))])
    k_eff = rng.integers(0, k + 1, (planes, offsets[-1]))
    inputs = np.zeros(k_eff.shape + (k,), np.int64)
    for b, n in np.ndindex(k_eff.shape):
        inputs[b, n, :k_eff[b, n]] = rng.permutation(slots)[:k_eff[b, n]]
    return ComputeBlock(
        layer=0, index_map=np.arange(positions)[:, None] + np.arange(slots), offsets=offsets,
        tables=np.zeros(k_eff.shape + (1 << k,), np.uint8), inputs=inputs, k_eff=k_eff,
        q_gammas=np.zeros(planes, np.int64), q_tau=np.zeros(n_ch, np.int64),
        flip=np.zeros(n_ch, bool), acc_width=np.full(n_ch, 8))


def test_pack_estimate_equals_the_global_greedy():
    rng = np.random.default_rng(48)
    for _ in range(300):
        block = _packing_block(rng)
        luts, hist, logical = reference_logical_luts(block)
        assert area.pack_estimate(block) == reference_pack_estimate(luts)
        assert area._histogram(block) == (hist, logical)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, None])   # None: the unread-column net
def test_simulate_equals_cell_interpreter_exhaustively(k):
    # the unread-column net's first layer is an engine, which has no LUT
    # cells to interpret, so its Verilog text is run instead
    net = _planted_net(k) if k else _unread_column_net()
    nl = hw.lower(net)
    bits = hw.encode_pm1(exhaustive_pm1(net.input_shape[0]))
    want = interpret_cells(nl, bits) if k else run_netlist_text(nl, hw.emit_verilog(nl), bits)
    assert np.array_equal(hw.simulate(nl, bits), want)
    # the netlist keeps no reference to the weights it was lowered from
    for _i, layer in net.compute_layers():
        layer.weights[...] = 0.0
        layer.prune_mask[...] = False
        if layer.lut is not None:
            for field in (layer.lut.coeffs, layer.lut.gammas):
                field[...] = 0
    assert np.array_equal(hw.simulate(nl, bits), want)


@pytest.mark.parametrize("k", [2, 5])
def test_verilog_tables_equal_netlist_tables(k):
    nl = hw.lower(_planted_net(k))
    tables = {}
    for text in hw.emit_verilog(nl).values():
        tables.update(hw.parse_tables(text))
    luts = [c for c in nl.cells if isinstance(c, hw.LutCell) and c.inputs]
    assert luts and len(tables) == len(luts)
    for cell in luts:
        assert np.array_equal(tables[nl.nets[cell.out].name], cell.table)


# netlist_pin of lower(_planted_net(k)): Verilog sha256 in the behavioral and
# vendor-primitive styles and the cell counts, recorded from the object-per-bit
# netlist that the per-layer arrays replaced; K >= 2 re-recorded when
# expansion drew one wiring plan per layer
PLANTED_PINS = {
    1: ("d4323e0f0e29585391806f6de0275a1d628c3927228caab57ab3d5215953e857",
        "3186ebf7ec6521116af70bc25f337e6ec53419af7bfc2f4d7b5a02f871f8226d",
        {"lut": 96, "add": 80, "threshold": 9}),
    2: ("7d27fb420d1d3ef03d3ac47d31e50e7d37bcc5c9a7d26c32a2b86533d2e46253",
        "103db21481f9d9baa820d6aecd9bb2c5f42e368f878d5fc937effa60acfa9efe",
        {"lut": 92, "add": 76, "threshold": 9}),
    3: ("75b12d0594b715ea071b3e7c0d8cdd7e907d9bb8808a31d84552a9942351ba98",
        "c6515eca90e26341c094b068e8e7ab2b100a0c6eb1e7c33e2cb581053f30a4d6",
        {"lut": 92, "add": 76, "threshold": 9}),
    4: ("761665365a2fbe127f91fd4ff9c4d31e6ac60b9521e71fcd790cd3fa2d45ad77",
        "741178444aa7328d6b986be94063489329983078d1d4119d0eb88e9a84dd310d",
        {"lut": 96, "add": 80, "threshold": 9}),
    5: ("19ac51db8a61c3b18d5d8e231dc0e7c381e6f43d8478373b53d11ca4f8c79695",
        "f305933fc0158c4401e860e44e13c4ab2da78f8745d91740f10c1ace4dc51e6f",
        {"lut": 90, "add": 74, "threshold": 9}),
    6: ("1a418088173617b0cf4191665ca55aad4c71abc4bc94ad60b0e823a2a16fb309",
        "765e6084326a9797006d433560723c7d1c145161db78d2c9967a77de1aa8df90",
        {"lut": 92, "add": 76, "threshold": 9}),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_planted_netlist_matches_pin(k):
    assert netlist_pin(hw.lower(_planted_net(k))) == PLANTED_PINS[k]


def _unread_column_net():
    """6 -> 4 (time-multiplexed) -> 3 (expanded at K=1) with column 1 of the
    second layer pruned in every channel, so no node reads activation 1 of
    the first layer."""
    layers = [md.DenseLayer(6, 4, unrolled=False), md.BatchNormLayer(4),
              md.DenseLayer(4, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("unread", layers, 2, (6,), 21))
    pr.prune_threshold(net, 0.0)
    net.layers[2].prune_mask[:, 1] = False
    net.layers[2].weights[:, 1] = 0.0
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=22)
    ex.harden_network(net, frac_bits=6)
    return net


# netlist_pin of the unread-column net, re-recorded when its time-multiplexed
# l0 became an engine block
UNREAD_PIN = ("9989b24e0bb5de5f698830d4dcae407288d2cc65359c23aa1e18c804c2619d6e",
              "88e79ee2582f67e3ac5240783ab693e5cb4796a155d45872ba987da5f0787f16",
              {"lut": 18, "add": 12, "threshold": 7})


def test_unread_activation_is_an_internal_wire():
    net = _unread_column_net()
    nl = hw.lower(net)
    files = hw.emit_verilog(nl)
    assert "act_l0_c1" not in files["unread_top.v"]
    assert "\nwire act_l0_c1;\n" in files["unread_l0.v"]
    assert "act_l0_c1" not in files["unread_l2.v"]
    assert netlist_pin(nl) == UNREAD_PIN
    x = exhaustive_pm1(6)
    assert np.array_equal(hw.simulate(nl, hw.encode_pm1(x)),
                          hw.encode_pm1(md.forward_hardened_bits(net, x)))


def test_unread_lut_output_is_an_internal_wire():
    # the unread-column net with both layers unrolled: l0 is a compute
    # block, and no node of l2 reads its channel 1
    layers = [md.DenseLayer(6, 4, unrolled=True), md.BatchNormLayer(4),
              md.DenseLayer(4, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("unreadlut", layers, 2, (6,), 21))
    pr.prune_threshold(net, 0.0)
    net.layers[2].prune_mask[:, 1] = False
    net.layers[2].weights[:, 1] = 0.0
    pr.binarise_network(net)
    ex.expand_network(net, k=1, seed=22)
    ex.harden_network(net, frac_bits=6)
    nl = hw.lower(net)
    assert isinstance(nl.blocks[0], ComputeBlock)
    files = hw.emit_verilog(nl)
    assert "\nwire act_l0_c1;\n" in files["unreadlut_l0.v"]
    assert "output wire act_l0_c1" not in files["unreadlut_l0.v"]
    assert "act_l0_c1" not in files["unreadlut_top.v"] + files["unreadlut_l2.v"]
    bits = hw.encode_pm1(exhaustive_pm1(6))
    assert np.array_equal(run_netlist_text(nl, files, bits), hw.simulate(nl, bits))


def test_an_unknown_emission_style_is_a_config_error():
    nl = hw.lower(dict(tiny_stages())["hardened"])
    with pytest.raises(ConfigError, match="unknown emission style 'foo'"):
        hw.emit_verilog(nl, style="foo")


# sha256 of area_report(...).to_csv(), recorded from the area estimate that
# walked the network itself, before it priced lower's blocks; K = 5
# re-recorded when expansion drew one wiring plan per layer; the
# unread-column net's re-recorded when its l0 became an engine block, a row
# of 0 LUTs with the engine columns
PLANTED_AREA = {
    1: "6d31a1226fe630a3a1296d7a29ff9ac8600d480619f86e4d44284e5a3f86c74a",
    2: "20a7e8dae8982a658b16b6231bf45d82247eb73a0fc9c337f767084f23882ae0",
    3: "13661eb0163aac3e29a53fc2bd4dd9788f4fd76d8f27992814e413e3d62d1ffd",
    4: "319e3fdafe6fc1a2e930e2247c6bc6efc36e287b90ea4567464829ec3071513f",
    5: "39ce2e8c70a9acb67453593bbf6b23423366c887194bebfb8daf5df635d2fd86",
    6: "bb2d3fa3663d38de6454ee78cd60c1654412abe3d67f8e2ad22f180d8830ffad",
}
UNREAD_AREA = "053cb2caa754c936d73cd9f2236c78424db09df2e5d076411d3301d2546149c5"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_planted_area_matches_pin(k):
    assert area_sha(_planted_net(k)) == PLANTED_AREA[k]


def test_unread_column_area_matches_pin():
    assert area_sha(_unread_column_net()) == UNREAD_AREA


# sha256 of area_report(...).to_table(), recorded when to_csv and to_table
# each wrote their own columns: the tiny net has an engine row, so the
# engine columns, and the planted nets none
AREA_TABLES = {
    "tiny": "7e638ba50368c52a5804f6787d2a2e0f8bb23c5204942a006985d29c9ee4e5c7",
    "planted-1": "5b1dc5487b490e36213e8a45f76d6aa01e09d48054a2cdf52895af6cce1e8714",
    "planted-2": "afd29ee3380998236978da1fbbc37c552b65e881e990f4f2d673de8acee7f001",
    "planted-6": "82e028aa587f94fe7f305b27245045f9e2be5fe689b061dd0845c108849ae369",
}


@pytest.mark.parametrize("case", sorted(AREA_TABLES))
def test_area_table_matches_pin(case):
    net = (dict(tiny_stages())["hardened"] if case == "tiny"
           else _planted_net(int(case.split("-")[1])))
    assert table_sha(net) == AREA_TABLES[case]


def test_lower_rejects_node_inputs_outside_the_window():
    net = _planted_net(2)
    net.layers[2].lut.indices[0, 1] = net.layers[2].window_size
    with pytest.raises(LoweringError, match="outside the window"):
        hw.lower(net)


@pytest.mark.parametrize("build", [lambda: dict(tiny_stages())["hardened"], _unread_column_net],
                         ids=["tiny", "unread"])
def test_engine_verilog_runs_as_simulated(build):
    # a time-multiplexed layer is one engine module, the same text in both
    # styles, whose ROMs, windows, popcounts and thresholds compute what the
    # engine block and simulate compute, on every input
    nl = hw.lower(build())
    files = hw.emit_verilog(nl)
    engine = f"{nl.name}_l0.v"
    assert isinstance(nl.blocks[0], hw.EngineBlock)
    assert hw.emit_verilog(nl, style="vendor-primitive")[engine] == files[engine]
    bits = hw.encode_pm1(exhaustive_pm1(nl.n_inputs))
    assert np.array_equal(run_netlist_text(nl, files, bits), hw.simulate(nl, bits))


def _engine_fault(nl, pattern, fault):
    """Run nl's text with fault applied to the first match of pattern in its
    engine module l0; an AssertionError means the fault was caught."""
    files = hw.emit_verilog(nl)
    text = files[f"{nl.name}_l0.v"]
    found = re.search(pattern, text)
    files[f"{nl.name}_l0.v"] = text[:found.start()] + fault(found) + text[found.end():]
    run_netlist_text(nl, files, hw.encode_pm1(exhaustive_pm1(nl.n_inputs)))


def test_engine_text_reader_catches_a_flipped_rom_bit():
    nl = hw.lower(dict(tiny_stages())["hardened"])
    with pytest.raises(AssertionError, match="engine l0"):
        _engine_fault(nl, r"w_l0_c0_b0 = 8'b([01])",
                      lambda m: m[0][:-1] + "10"[int(m[1])])


def test_engine_text_reader_catches_an_accumulator_one_bit_narrower():
    # channel 0 of the unread-column net reaches the edge of its accumulator
    nl = hw.lower(_unread_column_net())
    with pytest.raises(AssertionError, match="engine l0"):
        _engine_fault(nl, r"wire signed \[(\d+):0\] th_l0_c0_acc;",
                      lambda m: f"wire signed [{int(m[1]) - 1}:0] th_l0_c0_acc;")


def test_a_layer_without_nodes_emits_constant_thresholds():
    # every unrolled weight pruned: l2 has no node, so each of its channels
    # compares the constant 0 with its threshold
    net = md.build_preset("lfc-small", 3, 2)
    pr.prune_threshold(net, 1e9)
    pr.binarise_network(net)
    ex.expand_network(net, k=2, seed=4)
    ex.harden_network(net)
    nl = hw.lower(net)
    assert nl.blocks[1].offsets[-1] == 0
    x = np.random.default_rng(5).choice([-1.0, 1.0], size=(200, 784))
    bits = hw.encode_pm1(x)
    assert np.array_equal(hw.simulate(nl, bits), hw.encode_pm1(md.forward_hardened_bits(net, x)))
    for style in ("behavioral", "vendor-primitive"):
        files = hw.emit_verilog(nl, style=style)
        text = files["lfc_small_l2.v"]
        assert "lut_" not in text and "input wire" not in text
        assert text.count("_acc = 2'sd0;") == 10
    assert np.array_equal(run_netlist_text(nl, files, bits), hw.simulate(nl, bits))


def test_each_time_multiplexed_layer_is_binarised_once_per_use(monkeypatch):
    # the quantised reference and lower quantise the plane scales that they
    # derive with the layer's residual levels, and the inference forward sums
    # those levels; each inference walk derives them once per call, before
    # its blocks of rows
    net = tiny_stages()[-1][1]
    calls = []

    def counted(*args, _binarise=pr.residual_binarise):
        calls.append(args)
        return _binarise(*args)
    monkeypatch.setattr(pr, "residual_binarise", counted)
    md.forward_hardened_bits(net, np.ones((1200, 8)))
    assert len(calls) == 1   # l0, once for the 3 blocks of INFER_BATCH rows
    hw.lower(net)
    assert len(calls) == 2
    md.forward(net, np.ones((1200, 8)))
    assert len(calls) == 3
