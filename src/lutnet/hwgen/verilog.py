"""Verilog-2001 emission: one module per layer plus a chaining top module.

The netlist is stored as per-layer array blocks (netlist.py); this module
only renders the cell views Netlist.walk generates from them, which define
the cell order and every net name.  Each layer module declares its internal
nets, then writes its cells in that order; its ports are the previous
layer's bits its cells read (in order of first use) and the bits it exports.

Behavioral style renders every LUT as a shift-and-mask constant lookup

    assign <name> = (<2**K>'b<table MSB..LSB> >> {in_{K-1}, ..., in_0}) & 1'b1;

so the table literal reads bit 2**K-1 down to bit 0 and the concatenation puts
input 0 in the low index bit, matching the vertex encoding used everywhere
else.  Vendor-primitive style additionally instantiates generic LUT<K> cells
with the same bits as INIT masks.  Output is a deterministic function of the
netlist (stable names, no timestamps)."""

from __future__ import annotations

import numpy as np

from ..errors import PackingError
from .netlist import AddCell, LutCell, Netlist, ScaleThresholdCell

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


def _table_literal(table: np.ndarray) -> str:
    bits = "".join(str(int(b)) for b in reversed(table))
    return f"{len(table)}'b{bits}"


def _init_mask(table: np.ndarray) -> str:
    nbits = len(table)
    value = 0
    for i, b in enumerate(table):
        value |= int(b) << i
    return f"{nbits}'h{value:0{(nbits + 3) // 4}X}"


def _lut_assign(cell: LutCell, literal) -> str:
    if not cell.inputs:
        return f"assign {cell.out} = 1'b{int(cell.table[0])};"
    ins = ", ".join(reversed(cell.inputs))
    return f"assign {cell.out} = ({literal(cell.table)} >> {{{ins}}}) & 1'b1;"


def _lut_primitive(cell: LutCell, init) -> str:
    k = len(cell.inputs)
    if k == 0:
        return _lut_assign(cell, init)
    if k > 6:
        raise PackingError(f"vendor mode cannot instantiate a {k}-input LUT (max 6)")
    pins = ", ".join(f".I{j}({name})" for j, name in enumerate(cell.inputs))
    return f"LUT{k} #(.INIT({init(cell.table)})) {cell.out}_i ({pins}, .O({cell.out}));"


def _threshold_lines(cell: ScaleThresholdCell) -> list:
    w = cell.acc_width
    acc_name = f"{cell.name}_acc"
    pw = cell.pop_width
    # 2*q*pop - q*n_tilde, constant-folded per plane
    terms = [f"({_sdec(w, 2 * q)} * $signed({{1'b0, {pop}[{pw - 1}:0]}}))"
             for q, pop in zip(cell.q_gammas, cell.pops)]
    terms.append(_sdec(w, -cell.n_tilde * sum(cell.q_gammas)))
    cmp_op = "<=" if cell.flip else ">="
    return [
        f"wire signed [{w - 1}:0] {acc_name};",
        f"assign {acc_name} = {' + '.join(terms)};",
        f"assign {cell.out} = ({acc_name} {cmp_op} {_sdec(w, cell.q_tau)});",
    ]


def emit_verilog(netlist: Netlist, style: str = "behavioral") -> dict:
    """Render the netlist as {filename: text}: one module per layer plus a top
    module instantiating them in order.  Cells, their order and their net
    names come from Netlist.walk; a module's input ports are the nets its
    cells read, in order of first use, and its output ports the nets it
    exports, in cell order."""
    if style not in ("behavioral", "vendor-primitive"):
        raise ValueError(f"unknown emission style '{style}'")
    vendor = style == "vendor-primitive"
    lut_line = _lut_primitive if vendor else _lut_assign
    render = _init_mask if vendor else _table_literal
    rendered = {}   # table bytes -> its literal or INIT mask: few distinct tables recur

    def table_text(table):
        key = table.tobytes()
        text = rendered.get(key)
        if text is None:
            text = rendered[key] = render(table)
        return text

    files = {}
    top_wires = []
    top_insts = []
    out_ports = netlist.output_names()
    out_set = set(out_ports)

    for li, cells, exported in netlist.walk():
        ext_out = set(exported)
        ext_in = {}
        decls, body = [], []
        for cell in cells:
            kind = type(cell)
            if kind is LutCell:
                ext_in.update(dict.fromkeys(cell.inputs))
                body.append(lut_line(cell, table_text))
                decl = f"wire {cell.out};"
            elif kind is AddCell:   # adds two or more bits, so at least 2 wide
                body.append(f"assign {cell.out} = {cell.a} + {cell.b};")
                decl = f"wire [{cell.width - 1}:0] {cell.out};"
            else:
                body.extend(_threshold_lines(cell))
                decl = f"wire {cell.out};"
            if cell.out not in ext_out:
                decls.append(decl)
        mod = f"{netlist.name}_l{li}"
        files[f"{mod}.v"] = _module(mod, ext_in, exported, decls + body)
        inst_ports = [f".{n}({n})" for n in list(ext_in) + exported]
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
    import re

    out = {}
    for m in re.finditer(r"assign (\w+) = \((\d+)'b([01]+) >>", text):
        name, nbits, bits = m.group(1), int(m.group(2)), m.group(3)
        if len(bits) != nbits:
            continue
        out[name] = np.array([int(b) for b in reversed(bits)], dtype=np.uint8)
    return out
