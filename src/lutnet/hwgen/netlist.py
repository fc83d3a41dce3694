"""The netlist as per-layer array blocks, their cells and their simulation.

A Netlist is the network's input width plus one block per compute or
maxpool layer, in layer order.  Each block reads only the previous block's
output bit vector (the network input for the first), so the netlist is
acyclic and every net has one driver by construction.

Every dense or conv layer ends in threshold neurons, one per channel c and
window position p (P = 1 for dense): output bit c*P + p, the order
model.windows(...).outputs uses.  Window position p reads the previous bits
index_map[p].  Per channel and position, one threshold cell compares
sum_b q_gammas[b] * (2*pop_b - N~) with q_tau[c], or the reverse where
flip[c], where pop_b is plane b's popcount over the channel's N~ inputs.

- A ComputeBlock is an unrolled (expanded) layer.  Channel c owns nodes
  offsets[c]:offsets[c+1]; node n of plane b is the truth table
  tables[b, n, :2**k_eff[b, n]] over window slots inputs[b, n, :k_eff[b, n]],
  its don't-care inputs already dropped (both arrays are zero past k_eff).
  Each plane's node outputs are added up by a balanced popcount tree.
- An EngineBlock is a time-multiplexed layer on the XNOR-popcount engine
  (the matrix-vector-threshold unit of FINN and ReBNet): plane b's popcount
  of channel c at position p counts the window slots j of mask[c] whose bit
  equals the weight bit of weights[b, c, j], one XNOR per weight.
- A PoolBlock is a maxpool over bits, one OR LUT per channel and window
  position, in the order the other blocks' outputs use.  Its index_map is
  the layer's model.windows map, each window's slots split per channel:
  output bit c*P + p ORs the previous bits index_map[p, c].

Nothing is stored per wire or per cell, and this module is the one place
that defines cell order and net names.  A block's cells come in groups, one
per channel and position, in the order of `groups`: for a compute block per
plane the node LUTs, then the adders of their popcount tree, then one
threshold cell; an engine block's cells are its threshold cells alone, its
popcounts being the engine.  `plane_nets` names the nets of one plane of a
compute group, `EngineBlock.pops` an engine group's popcounts, `threshold`
builds a group's threshold cell and `out_names` names the output bits;
`port_reads` lists the previous bits a block reads, in order of first use.
`cells` generates the cell views from these, and verilog.emit_verilog
renders the same groups straight from the arrays.  `Netlist.cells` and
`Netlist.nets` exist only for the benchmark (bench/workloads.py), which
counts cells by type and matches Verilog tables by net name; both are views
that store nothing.

`simulate` evaluates the same arrays the cells and the engines are
generated from, and nothing else: it never reads the network, so comparing
it with model.forward_hardened_bits checks `lower`.  Every node, whatever
its k_eff, is looked up in its table at its vertex code and the entries
added per channel by numerics' node-sum kernel (vertex_codes and
channel_sums), the one the model's plane-sum engine runs; an engine's
XNORs with constant weights are affine in the window bits, so per plane
they add up to one integer matrix product over the window rows.

Bit convention throughout the hardware path: +1 maps to 1, -1 maps to 0.
LUT tables are 0/1 bit vectors indexed by the shared vertex encoding (bit k
of the index = input k's bit value)."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .. import numerics as nm
from ..errors import PortError
from ..model import INFER_BATCH

# Cell views.  Nets are named by strings: `out` is the output net's name and
# `inputs`, `a`, `b` and `pops` hold the names of the nets read.
LutCell = namedtuple("LutCell", "table inputs out")
AddCell = namedtuple("AddCell", "a b out width")
ScaleThresholdCell = namedtuple(
    "ScaleThresholdCell", "pops pop_width n_tilde q_gammas q_tau flip acc_width out name")

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


def plane_nets(stem: str, n_tilde: int, plane) -> tuple:
    """Names of the nets of one plane of the cell group `stem`, which adds up
    n_tilde >= 1 node outputs: (the node LUTs' output names in node order,
    the adders as (a, b, out, width) in post order, the popcount net, which
    is the last adder's output or, for one node, the node's)."""
    leaves = [f"lut_{stem}_n{n}_b{plane}" for n in range(n_tilde)]
    adders = []
    for x, y, width in _adder_tree(n_tilde):
        adders.append((leaves[x] if x >= 0 else adders[-x - 1][2],
                       leaves[y] if y >= 0 else adders[-y - 1][2],
                       f"pop_{stem}_b{plane}_s{len(adders)}", width))
    return leaves, adders, adders[-1][2] if adders else leaves[0]


def _first_use(reads: np.ndarray) -> np.ndarray:
    """The distinct values of reads in order of first occurrence."""
    _values, first = np.unique(reads, return_index=True)
    return reads[np.sort(first)]


class _Neurons:
    """The threshold neurons a compute or engine block ends in, one per
    channel c and window position p: output bit c*P + p, cell group stem
    l{layer}_c{c}[_p{p}], and one threshold cell over the group's per-plane
    popcounts of n_tilde[c] inputs."""

    @property
    def positions(self) -> int:
        return self.index_map.shape[0]

    def groups(self):
        """(channel, position, stem) of each cell group, in emission order:
        per channel c and position p."""
        cname = "c{}" if self.positions == 1 else "c{}_p{}"
        for c in range(len(self.q_tau)):
            for p in range(self.positions):
                yield c, p, f"l{self.layer}_" + cname.format(c, p)

    def out_names(self) -> list:
        return [f"act_{stem}" for _c, _p, stem in self.groups()]

    def threshold(self, c: int, stem: str, pops: list, out: str) -> ScaleThresholdCell:
        """The threshold cell of group stem of channel c, reading pops."""
        n_tilde = int(self.n_tilde[c])
        return ScaleThresholdCell(pops, _width(n_tilde), n_tilde, self.q_gammas.tolist(),
                                  int(self.q_tau[c]), bool(self.flip[c]),
                                  int(self.acc_width[c]), out, f"th_{stem}")

    def _evaluator(self, pops):
        """A function (V, previous bits) uint8 -> (V, C*P) uint8 of a block
        whose per-plane popcounts (V*P, C) int64 on the window rows
        bits[:, index_map], row v*P + p, are pops(rows)."""
        def evaluate(bits):
            v, (positions, width), n_ch = bits.shape[0], self.index_map.shape, len(self.q_tau)
            rows = bits[:, self.index_map].reshape(v * positions, width)
            acc = sum(q * (2 * pop - self.n_tilde)
                      for q, pop in zip(self.q_gammas.tolist(), pops(rows)))
            fire = np.where(self.flip, acc <= self.q_tau, acc >= self.q_tau)
            fire = np.swapaxes(fire.reshape(v, positions, n_ch), 1, 2)
            return fire.reshape(v, n_ch * positions).astype(np.uint8)

        return evaluate


@dataclass
class ComputeBlock(_Neurons):
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

    @cached_property
    def n_tilde(self) -> np.ndarray:
        """(C,) nodes of each channel."""
        return np.diff(self.offsets)

    def port_reads(self) -> np.ndarray:
        """The previous block's bits that some table depends on, in order of
        first use by the cells."""
        live = np.arange(self.inputs.shape[2]) < self.k_eff[..., None]
        offsets = self.offsets.tolist()
        slots = [self.inputs[:, a:e][live[:, a:e]] for a, e in zip(offsets, offsets[1:])]
        return _first_use(np.concatenate(
            [self.index_map[p, slots[c]] for c, p, _stem in self.groups()]))

    def cells(self, in_names: list, out_names: list):
        """The cell views of each group of groups(), in emission order: per
        plane the LUTs of nodes offsets[c]:offsets[c+1] and the adders that
        plane_nets(stem, n_tilde, b) names, then one threshold cell."""
        k_eff, inputs, offsets = self.k_eff.tolist(), self.inputs.tolist(), self.offsets.tolist()
        planes = range(self.inputs.shape[0])
        slot_names = [[in_names[i] for i in window].__getitem__   # per position
                      for window in self.index_map.tolist()]
        for c, p, stem in self.groups():
            a, n_tilde = offsets[c], offsets[c + 1] - offsets[c]
            slot_name, pops = slot_names[p], []
            for b in planes if n_tilde else ():
                leaves, adders, pop = plane_nets(stem, n_tilde, b)
                tables, k_b, inputs_b = self.tables[b], k_eff[b], inputs[b]
                for n, out in enumerate(leaves, a):
                    ke = k_b[n]
                    yield LutCell(tables[n, :1 << ke], list(map(slot_name, inputs_b[n][:ke])), out)
                for adder in adders:
                    yield AddCell(*adder)
                pops.append(pop)
            yield self.threshold(c, stem, pops, out_names[c * self.positions + p])

    def evaluator(self):
        """A function (V, previous bits) uint8 -> (V, C*P) uint8.

        Node n of plane b at position p reads bit index_map[p, inputs[b, n, j]]
        for j < k_eff[b, n], and every node, whatever its k_eff, is looked
        up in its table by numerics' node-sum kernel, as the model's
        plane-sum engine looks up its terms.  Each window row gets a
        constant-0 bit as slot W, which a node's slots past k_eff read, so
        they add nothing to its vertex code.  The 0/1 sums are exact in
        float64."""
        n_planes, _nodes, k = self.inputs.shape
        width = self.index_map.shape[1]
        sources = np.where(np.arange(k) < self.k_eff[..., None], self.inputs, width)
        tables = self.tables.reshape(n_planes, -1)

        def pops(rows):
            cols = np.concatenate([rows.T, np.zeros((1, len(rows)), np.uint8)])
            return [nm.channel_sums(nm.vertex_codes(cols, s), k, self.n_tilde, [t])[0]
                    .astype(np.int64) for s, t in zip(sources, tables)]

        return self._evaluator(pops)


@dataclass
class EngineBlock(_Neurons):
    layer: int                 # index of the layer in the network
    index_map: np.ndarray      # (P, W) int64 previous-block bit read by each window slot
    weights: np.ndarray        # (B, C, W) int8 +-1 weight sign of each plane, channel and slot
    mask: np.ndarray           # (C, W) bool: the slots each channel counts
    q_gammas: np.ndarray       # (B,) int64 fixed-point plane scales
    q_tau: np.ndarray          # (C,) int64 fixed-point thresholds
    flip: np.ndarray           # (C,) bool: fire when the sum is <= q_tau instead of >=
    acc_width: np.ndarray      # (C,) int64 two's-complement accumulator bits

    @cached_property
    def n_tilde(self) -> np.ndarray:
        """(C,) weights each channel counts."""
        return self.mask.sum(axis=1)

    @property
    def pop_width(self) -> int:
        """Bits of the widest channel's popcount, 0 if no channel counts a
        weight."""
        return int(self.n_tilde.max(initial=0)).bit_length()

    def pops(self, c: int, stem: str) -> list:
        """The per-plane popcount nets of group stem of channel c, none for
        a channel that counts no weight."""
        return [f"pop_{stem}_b{b}" for b in range(len(self.q_gammas))] if self.n_tilde[c] else []

    def port_reads(self) -> np.ndarray:
        """The previous block's bits some channel counts, in order of first
        use by the groups: group (c, p) reads index_map[p, j] for each slot j
        of mask[c], so a bit is first read by the first channel that counts
        one of its slots, at the first such position and slot."""
        live = np.broadcast_to(self.mask.any(axis=0), self.index_map.shape)
        p, j = np.nonzero(live)                                            # position-major
        order = np.argsort(self.mask.argmax(axis=0)[j], kind="stable")
        return _first_use(self.index_map[p, j][order])

    def cells(self, in_names: list, out_names: list):
        """The threshold cell of each group of groups(), in emission order;
        the engine itself is one module, not cells."""
        for c, p, stem in self.groups():
            yield self.threshold(c, stem, self.pops(c, stem), out_names[c * self.positions + p])

    def evaluator(self):
        """A function (V, previous bits) uint8 -> (V, C*P) uint8.  Plane b's
        popcount of XNORs is const[b] + rows @ m[b]: a weight +1 counts its
        bit, a weight -1 counts 1 - bit, so const[b] (C,) counts the masked
        -1 weights and m[b] (W, C) is the masked weights, transposed.  The
        product is taken in float64, exact because every sum is an integer
        far below 2**53."""
        const = ((self.weights < 0) & self.mask).sum(axis=2)
        m = np.transpose(self.weights * self.mask, (0, 2, 1)).astype(np.float64)

        def pops(rows):
            rows = rows.astype(np.float64)
            return [(rows @ m_b).astype(np.int64) + c_b for c_b, m_b in zip(const, m)]

        return self._evaluator(pops)


@dataclass
class PoolBlock:
    layer: int
    index_map: np.ndarray      # (P, C, s*s) int64 previous-block bit read by each window slot

    def out_names(self) -> list:
        positions, channels, _area = self.index_map.shape
        return [f"pool_l{self.layer}_c{c}_p{p}" for c in range(channels) for p in range(positions)]

    def windows(self) -> np.ndarray:
        """(C*P, s*s) the previous-block bits each output ORs, in output order."""
        return np.swapaxes(self.index_map, 0, 1).reshape(-1, self.index_map.shape[2])

    def table(self) -> np.ndarray:
        """The OR truth table of every output's LUT."""
        return (np.arange(1 << self.index_map.shape[2]) > 0).astype(np.uint8)

    def port_reads(self) -> np.ndarray:
        return _first_use(self.windows().reshape(-1))

    def cells(self, in_names: list, out_names: list):
        table = self.table()
        for out, window in zip(out_names, self.windows().tolist()):
            yield LutCell(table, [in_names[i] for i in window], out)

    def evaluator(self):
        windows = self.windows()
        return lambda bits: bits[:, windows].max(axis=2)


class Netlist:
    def __init__(self, name: str, n_inputs: int, blocks: list):
        self.name = name
        self.n_inputs = n_inputs
        self.blocks = blocks

    def input_names(self) -> list:
        return [f"x{i}" for i in range(self.n_inputs)]

    def walk(self):
        """Per block, in order: (the block, the names of the bits it reads,
        the names of its output bits, those of them that leave its module).
        The last are all of the last block's bits, and the bits the next
        block reads."""
        in_names = self.input_names()
        for i, block in enumerate(self.blocks):
            out_names = block.out_names()
            if i + 1 < len(self.blocks):
                exported = [out_names[j] for j in np.sort(self.blocks[i + 1].port_reads())]
            else:
                exported = out_names
            yield block, in_names, out_names, exported
            in_names = out_names

    def output_names(self) -> list:
        return self.blocks[-1].out_names()

    @property
    def cells(self):
        """Every cell view, block by block (benchmark only; stores nothing)."""
        for block, in_names, out_names, _exported in self.walk():
            yield from block.cells(in_names, out_names)

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
    Each compute or engine block gathers its window bits and takes
    per-channel popcounts from exactly the tables, kept inputs, weights and
    masks the emitted Verilog holds: a compute block's nodes by table lookup
    in numerics.channel_sums, an engine's XNORs as one float64 matrix
    product per plane, exact on these integer sums.  It then applies the
    integer threshold.  Vectors are processed model.INFER_BATCH at a time,
    as forward_hardened_bits walks them."""
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
    for start in range(0, max(inputs.shape[0], 1), INFER_BATCH):
        bits = inputs[start:start + INFER_BATCH].astype(np.uint8)
        for evaluate in stages:
            bits = evaluate(bits)
        chunks.append(bits)
    return np.concatenate(chunks)
