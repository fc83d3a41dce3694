"""The netlist as per-layer array blocks, their cells and their simulation.

A Netlist is the network's input width plus one block per compute or
maxpool layer, in layer order.  Each block reads only the previous block's
output bit vector (the network input for the first), so the netlist is
acyclic and every net has one driver by construction.

- A ComputeBlock is one compute layer.  Output bit c*P + p is the neuron of
  channel c at window position p (P = 1 for dense), the order
  model.windows(...).outputs uses.  Window position p reads the previous
  bits index_map[p].  Channel c owns nodes offsets[c]:offsets[c+1]; node n
  of plane b is the truth table tables[b, n, :2**k_eff[b, n]] over window
  slots inputs[b, n, :k_eff[b, n]], its don't-care inputs already dropped
  (both arrays are zero past k_eff).  Per channel and position, each plane's
  node outputs are added up by a balanced popcount tree and one threshold
  cell compares sum_b q_gammas[b] * (2*pop_b - N~) with q_tau[c], or the
  reverse where flip[c].
- A PoolBlock is a maxpool over bits: one OR LUT per output window.

Nothing is stored per wire or per cell.  The cells and net names of a block
are generated, in emission order, by its `cells` method, and the names of
its output bits by `out_names`: this module is the one place that defines
them, and verilog.emit_verilog renders what they yield.  `Netlist.cells` and
`Netlist.nets` exist only for the benchmark (bench/workloads.py), which
counts cells by type and matches Verilog tables by net name; both are views
that store nothing.

`simulate` evaluates the same arrays the cells are generated from, and
nothing else: it never reads the network, so comparing it with
model.forward_hardened_bits checks `lower`.  A node with k_eff <= 1 is a
constant, a buffer or an inverter, an affine function of one window bit, so
per plane all such nodes of a block add up to one integer matrix product
over the window rows (every node of a time-multiplexed layer is one); only
the nodes with k_eff >= 2 are looked up in their tables.

Bit convention throughout the hardware path: +1 maps to 1, -1 maps to 0.
LUT tables are 0/1 bit vectors indexed by the shared vertex encoding (bit k
of the index = input k's bit value)."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from ..errors import PortError

# Cell views.  Nets are named by strings: `out` is the output net's name and
# `inputs`, `a`, `b` and `pops` hold the names of the nets read.
LutCell = namedtuple("LutCell", "table inputs out")
AddCell = namedtuple("AddCell", "a b out width")
ScaleThresholdCell = namedtuple(
    "ScaleThresholdCell", "pops pop_width n_tilde q_gammas q_tau flip acc_width out name")

CHUNK = 16   # vectors per pass: keeps the (vectors, positions, nodes) temporaries near cache size


def _width(count: int) -> int:
    """Bits of an unsigned net that counts up to count."""
    return max(1, count.bit_length())


@lru_cache(maxsize=None)
def _adder_tree(n: int) -> tuple:
    """Balanced popcount tree over n leaves in post order: one (a, b, width)
    per adder, where an operand >= 0 is leaf a and one < 0 is adder -a-1.
    The left half takes the extra leaf."""
    adders = []

    def build(lo, hi):
        if hi - lo <= 1:
            return lo
        mid = lo + (hi - lo + 1) // 2
        a, b = build(lo, mid), build(mid, hi)
        adders.append((a, b, _width(hi - lo)))
        return -len(adders)

    build(0, n)
    return tuple(adders)


@dataclass
class ComputeBlock:
    layer: int                 # index of the layer in the network
    index_map: np.ndarray      # (P, W) int64 previous-block bit read by each window slot
    offsets: np.ndarray        # (C+1,) int64 node range of each channel
    tables: np.ndarray         # (B, N, 2**K) uint8 reduced truth tables, 0 past 2**k_eff
    inputs: np.ndarray         # (B, N, K) int64 window slot of each kept input, 0 past k_eff
    k_eff: np.ndarray          # (B, N) int64 inputs each table depends on
    q_gammas: np.ndarray       # (B,) int64 fixed-point plane scales
    q_tau: np.ndarray          # (C,) int64 fixed-point thresholds
    flip: np.ndarray           # (C,) bool: fire when the sum is <= q_tau instead of >=
    acc_width: np.ndarray      # (C,) int64 two's-complement accumulator bits

    @property
    def positions(self) -> int:
        return self.index_map.shape[0]

    def _cname(self, c: int, p: int) -> str:
        return f"c{c}" if self.positions == 1 else f"c{c}_p{p}"

    def out_names(self) -> list:
        return [f"act_l{self.layer}_{self._cname(c, p)}"
                for c in range(len(self.offsets) - 1) for p in range(self.positions)]

    def reads(self) -> np.ndarray:
        """Indices of the previous block's bits that some table depends on."""
        live = np.arange(self.inputs.shape[2]) < self.k_eff[..., None]
        return np.unique(self.index_map[:, np.unique(self.inputs[live])])

    def cells(self, in_names: list, out_names: list):
        """Per channel and position: per plane the node LUTs, then the
        post-order adder tree; then the threshold."""
        li = self.layer
        k_eff, inputs = self.k_eff.tolist(), self.inputs.tolist()
        q_gammas, q_tau, flip = self.q_gammas.tolist(), self.q_tau.tolist(), self.flip.tolist()
        acc_width, offsets = self.acc_width.tolist(), self.offsets.tolist()
        planes = range(len(q_gammas))
        slot_names = [[in_names[i] for i in window].__getitem__   # per position
                      for window in self.index_map.tolist()]
        for c in range(len(offsets) - 1):
            a, n_tilde = offsets[c], offsets[c + 1] - offsets[c]
            adders = _adder_tree(n_tilde)
            for p, slot_name in enumerate(slot_names):
                cname = self._cname(c, p)
                pops = []
                for b in planes if n_tilde else ():
                    leaves = [f"lut_l{li}_{cname}_n{n}_b{b}" for n in range(n_tilde)]
                    tables, k_b, inputs_b = self.tables[b], k_eff[b], inputs[b]
                    for n, out in enumerate(leaves, a):
                        ke = k_b[n]
                        yield LutCell(tables[n, :1 << ke],
                                      list(map(slot_name, inputs_b[n][:ke])), out)
                    sums = []
                    for x, y, width in adders:
                        sums.append(f"pop_l{li}_{cname}_b{b}_s{len(sums)}")
                        yield AddCell(leaves[x] if x >= 0 else sums[-x - 1],
                                      leaves[y] if y >= 0 else sums[-y - 1], sums[-1], width)
                    pops.append(sums[-1] if sums else leaves[0])
                yield ScaleThresholdCell(pops, _width(n_tilde), n_tilde, q_gammas, q_tau[c],
                                         flip[c], acc_width[c],
                                         out_names[c * self.positions + p], f"th_l{li}_{cname}")

    def evaluator(self):
        """A function (V, previous bits) uint8 -> (V, C*P) uint8.

        Node n of plane b at position p reads bit index_map[p, inputs[b, n, j]]
        for j < k_eff[b, n].  A node with k_eff <= 1 is the affine function
        t[0] + bit * (t[1] - t[0]) of its table t and its one input bit (t[0]
        alone when k_eff = 0), so each plane's such nodes add up to
        const[b] + rows @ m[b], with rows = bits[:, index_map]: m[b] (W, C)
        holds per window slot and channel the summed t[1] - t[0] of the nodes
        reading that slot, const[b] (C,) the summed t[0].  The product is
        taken in float64, exact because every sum is an integer far below
        2**53.  The nodes with k_eff >= 2 are looked up by vertex index and
        added per channel as differences of an int64 cumulative sum; their
        slots past k_eff read bit -1, a constant 0 the function appends, so
        they add nothing to the vertex index."""
        n_planes, _nodes, k = self.inputs.shape
        n_tilde = np.diff(self.offsets)
        n_ch = len(n_tilde)
        channel = np.repeat(np.arange(n_ch), n_tilde)                      # (N,) of each node
        t0 = self.tables[..., 0].astype(np.int64)
        t1 = self.tables[..., 1].astype(np.int64)

        const = np.zeros((n_planes, n_ch), np.int64)
        b, n = np.nonzero(self.k_eff <= 1)
        np.add.at(const, (b, channel[n]), t0[b, n])
        m = np.zeros((n_planes, self.index_map.shape[1], n_ch))
        b, n = np.nonzero(self.k_eff == 1)
        np.add.at(m, (b, self.inputs[b, n, 0], channel[n]), t1[b, n] - t0[b, n])

        lookups = []
        for b in range(n_planes):
            nodes = np.flatnonzero(self.k_eff[b] >= 2)
            live = np.arange(k) < self.k_eff[b, nodes, None]               # (L, K)
            source = np.where(live.T[:, None], self.index_map[:, self.inputs[b, nodes]]
                              .transpose(2, 0, 1), -1)                      # (K, P, L)
            lookups.append((source, nodes << k, self.tables[b].reshape(-1),
                            np.searchsorted(nodes, self.offsets)))          # channel offsets in L

        def evaluate(bits):
            v, (positions, width) = bits.shape[0], self.index_map.shape
            rows = bits[:, self.index_map].reshape(v * positions, width).astype(np.float64)
            bits = np.concatenate([bits, np.zeros((v, 1), np.uint8)], axis=1)
            acc = 0
            for b, q in enumerate(self.q_gammas.tolist()):
                source, base, entries, bounds = lookups[b]
                vertex = bits[:, source[0]]                                 # (V, P, L)
                for j in range(1, k):
                    vertex |= bits[:, source[j]] << j
                cum = np.zeros(vertex.shape[:2] + (vertex.shape[2] + 1,), np.int64)
                np.cumsum(entries[vertex + base], axis=2, out=cum[..., 1:])
                pop = (rows @ m[b]).astype(np.int64).reshape(v, positions, n_ch) + const[b]
                pop += cum[..., bounds[1:]] - cum[..., bounds[:-1]]
                acc = acc + q * (2 * pop - n_tilde)
            fire = np.where(self.flip, acc <= self.q_tau, acc >= self.q_tau)
            return np.swapaxes(fire, 1, 2).reshape(v, n_ch * positions).astype(np.uint8)

        return evaluate


@dataclass
class PoolBlock:
    layer: int
    in_shape: tuple            # (C, H, W) of the previous block's bits
    size: int

    def _grid(self):
        c, h, w = self.in_shape
        s = self.size
        return c, h // s, w // s, s

    def out_names(self) -> list:
        c, oh, ow, _s = self._grid()
        return [f"pool_l{self.layer}_c{ci}_p{p}" for ci in range(c) for p in range(oh * ow)]

    def _windows(self) -> np.ndarray:
        """(C*OH*OW, s*s) previous-block bit of each window input, row-major."""
        c, oh, ow, s = self._grid()
        idx = np.arange(int(np.prod(self.in_shape))).reshape(c, oh, s, ow, s)
        return idx.transpose(0, 1, 3, 2, 4).reshape(c * oh * ow, s * s)

    def reads(self) -> np.ndarray:
        return np.unique(self._windows())

    def cells(self, in_names: list, out_names: list):
        or_table = np.ones(1 << (self.size * self.size), dtype=np.uint8)
        or_table[0] = 0
        for out, window in zip(out_names, self._windows().tolist()):
            yield LutCell(or_table, [in_names[i] for i in window], out)

    def evaluator(self):
        windows = self._windows()
        return lambda bits: bits[:, windows].max(axis=2)


class Netlist:
    def __init__(self, name: str, n_inputs: int, blocks: list):
        self.name = name
        self.n_inputs = n_inputs
        self.blocks = blocks

    def input_names(self) -> list:
        return [f"x{i}" for i in range(self.n_inputs)]

    def walk(self):
        """Per block, in order: (layer index, its cells in emission order,
        names of its output bits that leave its module).  Those are all of
        the last block's bits, and the bits the next block reads."""
        in_names = self.input_names()
        for i, block in enumerate(self.blocks):
            out_names = block.out_names()
            if i + 1 < len(self.blocks):
                exported = [out_names[j] for j in self.blocks[i + 1].reads()]
            else:
                exported = out_names
            yield block.layer, block.cells(in_names, out_names), exported
            in_names = out_names

    def output_names(self) -> list:
        return self.blocks[-1].out_names()

    @property
    def cells(self):
        """Every cell view, block by block (benchmark only; stores nothing)."""
        for _layer, cells, _exported in self.walk():
            yield from cells

    @property
    def nets(self):
        """nets[cell.out].name is the Verilog name of a cell's output net,
        which is cell.out itself (benchmark only; stores nothing)."""
        return _NetNames()


class _NetNames:
    def __getitem__(self, name: str):
        return SimpleNamespace(name=name)


def encode_pm1(x: np.ndarray) -> np.ndarray:
    """{-1,+1} (or real, via sign with sign(0)=+1) -> 0/1 bits."""
    return (np.asarray(x) >= 0).astype(np.uint8)


def simulate(netlist: Netlist, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the netlist on a batch of input-bit vectors.

    inputs: one vector or (n_vectors, input bits) of 0/1; any other rank,
    width or value is a PortError.  Returns (n_vectors, output bits) of 0/1.
    Each compute block gathers its window bits and takes per-channel
    popcounts from exactly the tables and kept inputs the emitted Verilog
    holds: the nodes with at most one kept input (a constant, buffer or
    inverter, such as every weight of a time-multiplexed layer) as one
    float64 matrix product per plane, exact on these integer sums, the
    others by table lookup.  It then applies the integer threshold.  Vectors
    are processed CHUNK at a time."""
    inputs = np.asarray(inputs)
    if inputs.ndim == 1:
        inputs = inputs[None, :]
    if inputs.ndim != 2:
        raise PortError(f"inputs must be a vector or a 2-D batch, not rank {inputs.ndim}")
    if inputs.shape[1] != netlist.n_inputs:
        raise PortError(f"input width {inputs.shape[1]} != port width {netlist.n_inputs}")
    if not np.all((inputs == 0) | (inputs == 1)):
        raise PortError("input bits must be 0 or 1; encode_pm1 maps +-1 vectors to bits")
    stages = [block.evaluator() for block in netlist.blocks]
    chunks = []
    # at least one pass, so that no vectors still give (0, output bits)
    for start in range(0, max(inputs.shape[0], 1), CHUNK):
        bits = inputs[start:start + CHUNK].astype(np.uint8)
        for evaluate in stages:
            bits = evaluate(bits)
        chunks.append(bits)
    return np.concatenate(chunks)
