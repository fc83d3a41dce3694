"""Verilog-2001 emission: one module per layer plus a chaining top module.

The netlist is stored as per-layer array blocks, and netlist.py defines the
cell order and every net name.  Each layer module declares its internal
nets, then writes its logic in that order; its input ports are the previous
layer's bits it reads, in order of first use, and its output ports the bits
it exports.

A compute block is rendered straight from its arrays, a cell group
(channel, position) at a time; no cell object is built.  The blocks' cell
views are a separate walk, which tests and the benchmark check this text
against.  Per plane, a group's LUT and adder declarations and its adder
lines come from netlist.plane_nets.  Every LUT line, of a compute or a
maxpool block, comes from _lut_line: the output net, the table cut to its
2**k_eff entries and the names of its inputs, a node's being the window's
slot names at its position.  _table_head renders each distinct table of a
block once, memoised by the table's bytes; as the table is cut first, a
1-input [0, 1] and a 2-input [0, 1, 0, 0] stay apart.

Behavioral style renders every LUT as a shift-and-mask constant lookup

    assign <name> = (<2**K>'b<table MSB..LSB> >> {in_{K-1}, ..., in_0}) & 1'b1;

so the table literal reads bit 2**K-1 down to bit 0 and the concatenation puts
input 0 in the low index bit, matching the truth tables' vertex encoding
(expand.py).  Vendor-primitive style instead instantiates generic LUT<K>
cells with the same bits as INIT masks; a LUT wider than the fabric's 6
inputs is a PackingError.  In both styles a LUT over no input is a constant
assign.

An engine block (a time-multiplexed layer) is one behavioural XNOR-popcount
module in both styles: per position a W-bit window of its slot bits, per
channel and plane a W-bit ROM literal of the weight bits and per channel a
W-bit literal of the mask, both MSB first with slot j at bit j, one popcount
function, per group and plane a popcount of ~(window ^ weights) & mask, and
per group the same threshold lines as a compute block.  Output is a
deterministic function of the netlist (stable names, no timestamps)."""

from __future__ import annotations

import re

import numpy as np

from ..config import FABRIC_K, STYLES
from ..errors import ConfigError, PackingError
from .netlist import (ComputeBlock, EngineBlock, Netlist, PoolBlock, ScaleThresholdCell,
                      plane_nets)

HEADER = """\
// {title}
// Generated structural inference logic.
// Bit convention: +1 -> 1, -1 -> 0.
// LUT tables: bit i of the INIT/table literal is the output for the input
// vertex whose index is i, where index bit k carries input k (input 0 is the
// least significant index bit).  Table literals are written MSB first.
"""


def _sdec(width: int, value: int) -> str:
    if value < 0:
        return f"-{width}'sd{-value}"
    return f"{width}'sd{value}"


def _bit_literal(bits: np.ndarray) -> str:
    """A W-bit binary literal of 0/1 bits, bit j at index j, MSB first."""
    return f"{len(bits)}'b{(bits[::-1].astype(np.uint8) + ord('0')).tobytes().decode()}"


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
    return f"({_bit_literal(table)} >> {{"


def _lut_line(out: str, table: np.ndarray, names: list, vendor: bool, heads: dict) -> str:
    """The line of one LUT: output net out, table (2**k,) over the nets
    names (k,), input 0 first.  heads memoises _table_head per table bytes."""
    key = table.tobytes()
    head = heads.get(key)
    if head is None:
        head = heads[key] = _table_head(table, vendor)
    if not names:
        return f"assign {out} = {head};"
    if vendor:
        pins = ", ".join([f".I{j}({name})" for j, name in enumerate(names)])
        return f"{head}{out}_i ({pins}, .O({out}));"
    return f"assign {out} = {head}{', '.join(reversed(names))}}}) & 1'b1;"


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


def _compute_lines(block: ComputeBlock, in_names: list, out_names: list, internal: set,
                   vendor: bool) -> tuple:
    """(declarations, body) of a compute block, group by group: per plane
    the nets plane_nets names, its node LUTs and its adders, then the
    group's threshold cell."""
    k_eff, inputs, offsets = block.k_eff.tolist(), block.inputs.tolist(), block.offsets.tolist()
    windows = [[in_names[i] for i in window] for window in block.index_map.tolist()]
    heads, decls, body = {}, [], []
    for c, p, stem in block.groups():
        a, n_tilde = offsets[c], offsets[c + 1] - offsets[c]
        window, pops = windows[p], []
        for b in range(block.inputs.shape[0]) if n_tilde else ():
            leaves, adders, pop = plane_nets(stem, n_tilde, b)
            decls += [f"wire {out};" for out in leaves]
            decls += [f"wire [{width - 1}:0] {out};" for _x, _y, out, width in adders]
            tables, k_b, inputs_b = block.tables[b], k_eff[b], inputs[b]
            for n, out in enumerate(leaves, a):
                ke = k_b[n]
                names = [window[i] for i in inputs_b[n][:ke]]
                body.append(_lut_line(out, tables[n, :1 << ke], names, vendor, heads))
            body += [f"assign {out} = {x} + {y};" for x, y, out, _width in adders]
            pops.append(pop)
        cell = block.threshold(c, stem, pops, out_names[c * block.positions + p])
        if cell.out in internal:
            decls.append(f"wire {cell.out};")
        body.append(_threshold_lines(cell))
    return decls, body


def _engine_lines(block: EngineBlock, in_names: list, out_names: list, internal: set,
                  vendor: bool) -> tuple:
    """(declarations, body) of an engine block, the same in both styles: per
    position a W-bit window of its slots' bits (1'b0 for a slot no channel
    counts), per channel and plane a ROM literal of the weight bits and per
    channel one of the mask, one popcount function, and per group and plane
    a popcount of ~(window ^ weights) & mask feeding the group's threshold
    cell."""
    n_planes, n_ch, width = block.weights.shape
    stem = f"l{block.layer}"
    live = block.mask.any(axis=0).tolist()
    decls, body = [], []
    for c in range(n_ch):
        for b in range(n_planes):
            decls.append(f"localparam [{width - 1}:0] w_{stem}_c{c}_b{b} = "
                         f"{_bit_literal(block.weights[b, c] > 0)};")
        decls.append(f"localparam [{width - 1}:0] m_{stem}_c{c} = {_bit_literal(block.mask[c])};")
    for p, window in enumerate(block.index_map.tolist()):
        decls.append(f"wire [{width - 1}:0] win_{stem}_p{p};")
        names = [in_names[i] if read else "1'b0" for i, read in zip(window, live)]
        body.append(f"assign win_{stem}_p{p} = {{{', '.join(reversed(names))}}};")
    if block.pop_width:
        decls += [f"function [{block.pop_width - 1}:0] popcount;", f"    input [{width - 1}:0] v;",
                  "    integer i;", "    begin", "        popcount = 0;",
                  f"        for (i = 0; i < {width}; i = i + 1)",
                  "            popcount = popcount + v[i];", "    end", "endfunction"]
    for c, p, group in block.groups():
        cell = block.threshold(c, group, block.pops(c, group), out_names[c * block.positions + p])
        for b, pop in enumerate(cell.pops):
            decls.append(f"wire [{cell.pop_width - 1}:0] {pop};")
            body.append(f"assign {pop} = popcount(~(win_{stem}_p{p} ^ w_{stem}_c{c}_b{b}) "
                        f"& m_{stem}_c{c});")
        if cell.out in internal:
            decls.append(f"wire {cell.out};")
        body.append(_threshold_lines(cell))
    return decls, body


def _pool_lines(block: PoolBlock, in_names: list, out_names: list, internal: set,
                vendor: bool) -> tuple:
    """(declarations, body) of a maxpool block: one OR LUT per window."""
    table, heads = block.table(), {}
    decls = [f"wire {out};" for out in out_names if out in internal]
    return decls, [_lut_line(out, table, [in_names[i] for i in window], vendor, heads)
                   for out, window in zip(out_names, block.windows().tolist())]


_LINES = {ComputeBlock: _compute_lines, EngineBlock: _engine_lines, PoolBlock: _pool_lines}


def emit_verilog(netlist: Netlist, style: str = "behavioral") -> dict:
    """Render the netlist as {filename: text}: one module per layer plus a top
    module instantiating them in order.  Cells, their order and their net
    names are those netlist.py defines; a module's input ports are the nets
    its cells read, in order of first use, and its output ports the nets it
    exports, in cell order."""
    if style not in STYLES:
        raise ConfigError(f"unknown emission style '{style}'")
    vendor = style == "vendor-primitive"
    files = {}
    top_wires = []
    top_insts = []
    out_ports = netlist.output_names()
    out_set = set(out_ports)

    for block, in_names, out_names, exported in netlist.walk():
        internal = set(out_names).difference(exported)
        lines = _LINES[type(block)]
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
