import copy

import numpy as np
import pytest

from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import prune as pr
from lutnet.expand import detect_dont_cares, shannon_decompose

from conftest import exhaustive_pm1


def _bits(v, k):
    return [(v >> j) & 1 for j in range(k)]


def _brute_dont_cares(table, k):
    """Kept inputs by definition: input j matters iff flipping it changes the
    output at some vertex."""
    return [j for j in range(k)
            if any(table[v] != table[v ^ (1 << j)] for v in range(1 << k))]


def _assert_reduction(table, k):
    kept, reduced = detect_dont_cares(table, k)
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
        for _ in range(40):
            depends_on = sorted(rng.choice(k, size=rng.integers(0, k + 1), replace=False).tolist())
            _assert_reduction(_planted(rng, k, depends_on), k)

    def test_pm1_tables(self):
        rng = np.random.default_rng(67)
        table = _planted(rng, 5, [1, 3, 4]).astype(np.int8) * 2 - 1
        _assert_reduction(table, 5)


def eval_cells(cells, assignment: dict) -> int:
    """Evaluate a shannon_decompose cell list on a {-1,+1} input assignment."""
    values = {}
    for j, (tbl, ids) in enumerate(cells):
        coords = [values[i[1]] if isinstance(i, tuple) and i[0] == "cell" else assignment[i]
                  for i in ids]
        values[j] = int(tbl[sum(1 << i for i, c in enumerate(coords) if c > 0)])
    return values[len(cells) - 1]


@pytest.mark.parametrize("k", [7, 8])
def test_shannon_decompose_matches_table(k):
    rng = np.random.default_rng(70 + k)
    table = rng.choice(np.array([-1, 1], dtype=np.int8), size=1 << k)
    ids = [f"x{j}" for j in range(k)]
    cells = shannon_decompose(table, ids)
    assert all(len(ins) <= 6 for _tbl, ins in cells)
    for v in range(1 << k):
        assignment = {ids[j]: 2 * b - 1 for j, b in enumerate(_bits(v, k))}
        assert eval_cells(cells, assignment) == table[v]


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
    layers = [md.DenseLayer(8, 6, unrolled=True), md.BatchNormLayer(6),
              md.DenseLayer(6, 3, unrolled=True), md.BatchNormLayer(3), md.SoftmaxLayer()]
    net = md.init_network(md.Network("planted", layers, 2, (8,), 80 + k))
    rng = np.random.default_rng(90 + k)
    for layer in net.layers:
        if layer.kind == "batchnorm":
            n = layer.num_features
            layer.running_mean = rng.standard_normal(n) * 0.02
            layer.running_var = rng.uniform(0.5, 2.0, n)
            layer.gamma = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
            layer.beta = rng.standard_normal(n) * 0.02
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
        for reduce_dc in (True, False):
            nl = hw.lower(n, reduce_dont_cares=reduce_dc)
            assert np.array_equal(hw.simulate(nl, hw.encode_pm1(x)), want)


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
