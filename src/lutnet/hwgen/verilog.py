"""Verilog-2001 emission: one module per layer plus a chaining top module.

The netlist is stored as per-layer array blocks, and netlist.py defines the
cell order and every net name.  Each layer module declares its internal
nets, then writes its cells in that order; its input ports are the previous
layer's bits its cells read, in order of first use, and its output ports the
bits it exports.

A compute block is rendered a cell group (channel, position) at a time,
straight from its arrays; no cell object is built.  Each distinct
(k_eff, table) of a block is rendered once, and each LUT line is one
f-string over that text and the names of its inputs, the window's slot
names at that position.  The declarations and adder lines of a group depend
only on its node count: they are built once per count from
netlist.plane_nets with the placeholder STEM for the group's stem, and
filled in with str.replace.  A maxpool block's OR LUTs go through the same
per-LUT formatter.

Behavioral style renders every LUT as a shift-and-mask constant lookup

    assign <name> = (<2**K>'b<table MSB..LSB> >> {in_{K-1}, ..., in_0}) & 1'b1;

so the table literal reads bit 2**K-1 down to bit 0 and the concatenation puts
input 0 in the low index bit, matching the vertex encoding used everywhere
else.  Vendor-primitive style instead instantiates generic LUT<K> cells with
the same bits as INIT masks; a LUT wider than the fabric's 6 inputs is a
PackingError.  In both styles a LUT over no input is a constant assign.
Output is a deterministic function of the netlist (stable names, no
timestamps)."""

from __future__ import annotations

import re

import numpy as np

from ..config import FABRIC_K
from ..errors import PackingError
from .netlist import ComputeBlock, Netlist, PoolBlock, ScaleThresholdCell, plane_nets

HEADER = """\
// {title}
// Generated structural inference logic.
// Bit convention: +1 -> 1, -1 -> 0.
// LUT tables: bit i of the INIT/table literal is the output for the input
// vertex whose index is i, where index bit k carries input k (input 0 is the
// least significant index bit).  Table literals are written MSB first.
"""


STEM = "\0"   # stands for a group's stem in the text cached per group size


def _sdec(width: int, value: int) -> str:
    if value < 0:
        return f"-{width}'sd{-value}"
    return f"{width}'sd{value}"


def _table_head(table: np.ndarray, vendor: bool) -> str:
    """What a LUT line writes before its inputs: a constant for a table over
    no input, else the table as a literal, MSB first, or as an INIT mask."""
    k = len(table).bit_length() - 1
    if not k:
        return f"1'b{table[0]}"
    if vendor:
        if k > FABRIC_K:
            raise PackingError(f"vendor mode cannot instantiate a {k}-input LUT (max {FABRIC_K})")
        value = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
        return f"LUT{k} #(.INIT({len(table)}'h{value:0{(len(table) + 3) // 4}X})) "
    return f"({len(table)}'b{(table[::-1] + ord('0')).tobytes().decode()} >> {{"


def _lut_lines(vendor: bool, outs: list, heads: list, ins: list) -> list:
    """One line per LUT from its output net, _table_head and _input_texts."""
    if vendor:
        return [f"{h}{o}_i ({i}, .O({o}));" if i else f"assign {o} = {h};"
                for o, h, i in zip(outs, heads, ins)]
    return [f"assign {o} = {h}{i}}}) & 1'b1;" if i else f"assign {o} = {h};"
            for o, h, i in zip(outs, heads, ins)]


def _sources(names: list, k: int, vendor: bool) -> list:
    """The texts a LUT writes for its inputs: the names themselves
    (behavioral), or pin j reading name i at j * len(names) + i (vendor)."""
    return [f".I{j}({n})" for j in range(k) for n in names] if vendor else names


def _input_texts(inputs: np.ndarray, k_eff: np.ndarray, sources: list, vendor: bool) -> list:
    """Per LUT the text of its inputs, '' for none: inputs (L, K) index the
    names of _sources, k_eff (L,) of them live.  A behavioral concatenation
    lists input 0 last.  Most LUTs have one input, whose text is a source."""
    texts = list(map(sources.__getitem__, inputs[:, 0].tolist()))
    width = len(sources) // inputs.shape[1] if vendor else 0
    for n in np.flatnonzero(k_eff != 1).tolist():
        row = inputs[n, :k_eff[n]].tolist()
        texts[n] = ", ".join([sources[j * width + i] for j, i in enumerate(row)] if vendor else
                             [sources[i] for i in reversed(row)])
    return texts


def _heads(tables: np.ndarray, k_eff: np.ndarray, vendor: bool) -> list:
    """_table_head of every node of tables (L, 2**K) and k_eff (L,), each
    distinct (k_eff, table) rendered once.  A node with k_eff <= 1 is keyed
    by (k_eff, t0, t1) alone, the others by their packed tables."""
    key = 4 * k_eff + tables[:, 0] + 2 * tables[:, 1]   # (k_eff, t0, t1) -> 0..7
    wide = np.flatnonzero(k_eff > 1)
    rows = np.concatenate([k_eff[wide, None].astype(np.uint8),
                           np.packbits(tables[wide], axis=1, bitorder="little")], axis=1)
    _rows, inverse = np.unique(rows, axis=0, return_inverse=True)
    key[wide] = 8 + inverse.reshape(-1)
    node = np.full(key.max(initial=7) + 1, -1)
    node[key] = np.arange(len(key))                    # a node of each key
    texts = [None if n < 0 else _table_head(tables[n, :1 << k_eff[n]], vendor)
             for n in node.tolist()]
    return [texts[k] for k in key.tolist()]


def _threshold_lines(cell: ScaleThresholdCell) -> str:
    w = cell.acc_width
    acc_name = f"{cell.name}_acc"
    pw = cell.pop_width
    # 2*q*pop - q*n_tilde, constant-folded per plane
    terms = [f"({_sdec(w, 2 * q)} * $signed({{1'b0, {pop}[{pw - 1}:0]}}))"
             for q, pop in zip(cell.q_gammas, cell.pops)]
    terms.append(_sdec(w, -cell.n_tilde * sum(cell.q_gammas)))
    cmp_op = "<=" if cell.flip else ">="
    return (f"wire signed [{w - 1}:0] {acc_name};\n"
            f"assign {acc_name} = {' + '.join(terms)};\n"
            f"assign {cell.out} = ({acc_name} {cmp_op} {_sdec(w, cell.q_tau)});")


def _group_text(n_tilde: int, planes: range) -> tuple:
    """The parts of a cell group of n_tilde >= 1 nodes that depend on n_tilde
    alone, with STEM for its stem: (its LUT and adder declarations, per plane
    the LUT outputs, the adder lines and the popcount net)."""
    nets = [plane_nets(STEM, n_tilde, b) for b in planes]
    decls = []
    for leaves, adders, _pop in nets:
        decls += [f"wire {out};" for out in leaves]
        decls += [f"wire [{width - 1}:0] {out};" for _a, _b, out, width in adders]
    adds = ["\n".join(f"assign {out} = {a} + {b};" for a, b, out, _width in adders)
            for _leaves, adders, _pop in nets]
    return "\n".join(decls), [leaves for leaves, *_x in nets], adds, [pop for *_x, pop in nets]


def _compute_lines(block: ComputeBlock, in_names: list, out_names: list, internal: set,
                   vendor: bool) -> tuple:
    """(declarations, body) of a compute block, a string per cell group.
    Every LUT line of a group is one f-string over its node's rendered table
    and its inputs' names, which per position are the window's slot names;
    the declarations and adders come from _group_text by one replace of
    STEM."""
    n_planes, n_nodes, k = block.inputs.shape
    planes = range(n_planes)
    heads = _heads(block.tables.reshape(n_planes * n_nodes, -1), block.k_eff.reshape(-1), vendor)
    sources = [_sources([in_names[i] for i in window], k, vendor)
               for window in block.index_map.tolist()]
    offsets = block.offsets.tolist()
    texts, decls, body = {}, [], []
    for c, p, stem in block.groups():
        a, e = offsets[c], offsets[c + 1]
        pops, lines = [], []
        if e > a:
            if e - a not in texts:
                texts[e - a] = _group_text(e - a, planes)
            group_decls, leaves, adds, pops = texts[e - a]
            decls.append(group_decls.replace(STEM, stem))
            for b in planes:
                ins = _input_texts(block.inputs[b, a:e], block.k_eff[b, a:e], sources[p], vendor)
                lines += _lut_lines(vendor, leaves[b], heads[b * n_nodes + a:b * n_nodes + e], ins)
                if adds[b]:
                    lines.append(adds[b])
            pops = [pop.replace(STEM, stem) for pop in pops]
        cell = block.threshold(c, stem, pops, out_names[c * block.positions + p])
        if cell.out in internal:
            decls.append(f"wire {cell.out};")
        lines.append(_threshold_lines(cell))
        body.append("\n".join(lines).replace(STEM, stem))
    return decls, body


def _pool_lines(block: PoolBlock, in_names: list, out_names: list, internal: set,
                vendor: bool) -> tuple:
    """(declarations, body) of a maxpool block: one OR LUT per window."""
    windows = block.windows()
    heads = [_table_head(block.table(), vendor)] * len(windows)
    ins = _input_texts(windows, np.full(len(windows), windows.shape[1]),
                       _sources(in_names, windows.shape[1], vendor), vendor)
    decls = [f"wire {out};" for out in out_names if out in internal]
    return decls, _lut_lines(vendor, out_names, heads, ins)


def emit_verilog(netlist: Netlist, style: str = "behavioral") -> dict:
    """Render the netlist as {filename: text}: one module per layer plus a top
    module instantiating them in order.  Cells, their order and their net
    names are those netlist.py defines; a module's input ports are the nets
    its cells read, in order of first use, and its output ports the nets it
    exports, in cell order."""
    if style not in ("behavioral", "vendor-primitive"):
        raise ValueError(f"unknown emission style '{style}'")
    vendor = style == "vendor-primitive"
    files = {}
    top_wires = []
    top_insts = []
    out_ports = netlist.output_names()
    out_set = set(out_ports)

    for block, in_names, out_names, exported in netlist.walk():
        internal = set(out_names).difference(exported)
        lines = _compute_lines if isinstance(block, ComputeBlock) else _pool_lines
        decls, body = lines(block, in_names, out_names, internal, vendor)
        ext_in = [in_names[i] for i in block.port_reads().tolist()]
        mod = f"{netlist.name}_l{block.layer}"
        files[f"{mod}.v"] = _module(mod, ext_in, exported, decls + body)
        inst_ports = [f".{n}({n})" for n in ext_in + exported]
        top_insts.append(f"{mod} {mod}_i ({', '.join(inst_ports)});")
        top_wires += [f"wire {n};" for n in exported if n not in out_set]

    top = f"{netlist.name}_top"
    files[f"{top}.v"] = _module(top, netlist.input_names(), out_ports, top_wires + top_insts)
    return files


def _module(name: str, inputs, outputs, body: list) -> str:
    ports = [f"    input wire {n}" for n in inputs] + [f"    output wire {n}" for n in outputs]
    lines = [HEADER.format(title=f"module {name}"), f"module {name} (", ",\n".join(ports), ");"]
    return "\n".join(lines + body + ["endmodule"]) + "\n"


def parse_tables(text: str) -> dict:
    """Recover truth tables from behavioral LUT assigns: {lut name: bit array}.
    The table literal is MSB-first, so it is reversed back to index order."""
    out = {}
    for m in re.finditer(r"assign (\w+) = \((\d+)'b([01]+) >>", text):
        name, nbits, bits = m.group(1), int(m.group(2)), m.group(3)
        if len(bits) != nbits:
            continue
        out[name] = np.frombuffer(bits.encode()[::-1], np.uint8) - ord("0")
    return out
