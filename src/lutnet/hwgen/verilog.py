"""Verilog-2001 emission: one module per layer plus a chaining top module.

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


def _lut_assign(nl: Netlist, cell: LutCell) -> str:
    name = nl.nets[cell.out].name
    k = len(cell.inputs)
    if k == 0:
        return f"assign {name} = 1'b{int(cell.table[0])};"
    ins = ", ".join(nl.nets[i].name for i in reversed(cell.inputs))
    return f"assign {name} = ({_table_literal(cell.table)} >> {{{ins}}}) & 1'b1;"


def _lut_primitive(nl: Netlist, cell: LutCell) -> str:
    k = len(cell.inputs)
    if k == 0:
        return _lut_assign(nl, cell)
    if k > 6:
        raise PackingError(f"vendor mode cannot instantiate a {k}-input LUT (max 6)")
    nbits = 1 << k
    hexdigits = (nbits + 3) // 4
    value = 0
    for i, b in enumerate(cell.table):
        value |= int(b) << i
    init = f"{nbits}'h{value:0{hexdigits}X}"
    pins = ", ".join(f".I{j}({nl.nets[nid].name})" for j, nid in enumerate(cell.inputs))
    return (f"LUT{k} #(.INIT({init})) {cell.name}_i ({pins}, "
            f".O({nl.nets[cell.out].name}));")


def _decl(nl: Netlist, nid: int, signed: bool = False) -> str:
    net = nl.nets[nid]
    s = " signed" if signed else ""
    if net.width == 1 and not signed:
        return f"wire {net.name};"
    return f"wire{s} [{net.width - 1}:0] {net.name};"


def _threshold_lines(nl: Netlist, cell: ScaleThresholdCell) -> list:
    w = cell.acc_width
    acc_name = f"{cell.name}_acc"
    terms = []
    for q, pid in zip(cell.q_gammas, cell.pops):
        pop = nl.nets[pid].name
        pw = nl.nets[pid].width
        # 2*q*pop - q*n_tilde, constant-folded per plane
        terms.append(f"({_sdec(w, 2 * q)} * $signed({{1'b0, {pop}[{pw - 1}:0]}}))")
    const = -cell.n_tilde * sum(cell.q_gammas)
    terms.append(_sdec(w, const))
    expr = " + ".join(terms)
    cmp_op = "<=" if cell.flip else ">="
    out = nl.nets[cell.out].name
    return [
        f"wire signed [{w - 1}:0] {acc_name};",
        f"assign {acc_name} = {expr};",
        f"assign {out} = ({acc_name} {cmp_op} {_sdec(w, cell.q_tau)});",
    ]


def emit_verilog(netlist: Netlist, style: str = "behavioral") -> dict:
    """Render the netlist as {filename: text}: one module per layer plus a top
    module instantiating them in order."""
    if style not in ("behavioral", "vendor-primitive"):
        raise ValueError(f"unknown emission style '{style}'")
    layers = sorted({c.layer for c in netlist.cells})
    files = {}
    top_wires = []
    top_insts = []

    in_port_nets = [nid for _p, nids in netlist.input_ports for nid in nids]
    out_port_list = [nid for _p, nids in netlist.output_ports for nid in nids]
    out_port_nets = set(out_port_list)

    consumer_layers: dict = {}
    for cell in netlist.cells:
        for nid in netlist.cell_inputs(cell):
            consumer_layers.setdefault(nid, set()).add(cell.layer)

    cells_by_layer: dict = {li: [] for li in layers}
    for cell in netlist.cells:
        cells_by_layer[cell.layer].append(cell)

    for li in layers:
        cells = cells_by_layer[li]
        driven = {c.out for c in cells}
        ext_in, seen = [], set()
        for cell in cells:
            for nid in netlist.cell_inputs(cell):
                if nid not in driven and nid not in seen:
                    ext_in.append(nid)
                    seen.add(nid)
        ext_out = [c.out for c in cells
                   if c.out in out_port_nets or (consumer_layers.get(c.out, set()) - {li})]
        mod = f"{netlist.name}_l{li}"
        lines = [HEADER.format(title=f"module {mod}"), f"module {mod} ("]
        ports = [f"    input wire {netlist.nets[n].name}" for n in ext_in]
        ports += [f"    output wire {netlist.nets[n].name}" for n in ext_out]
        lines.append(",\n".join(ports))
        lines.append(");")
        for cell in cells:
            if isinstance(cell, AddCell) or cell.out not in ext_out:
                lines.append(_decl(netlist, cell.out))
        for cell in cells:
            if isinstance(cell, LutCell):
                if style == "vendor-primitive":
                    lines.append(_lut_primitive(netlist, cell))
                else:
                    lines.append(_lut_assign(netlist, cell))
            elif isinstance(cell, AddCell):
                a, b = netlist.nets[cell.a], netlist.nets[cell.b]
                lines.append(f"assign {netlist.nets[cell.out].name} = "
                             f"{a.name} + {b.name};")
            else:
                lines.extend(_threshold_lines(netlist, cell))
        lines.append("endmodule")
        files[f"{mod}.v"] = "\n".join(lines) + "\n"

        inst_ports = [f".{netlist.nets[n].name}({netlist.nets[n].name})"
                      for n in ext_in + ext_out]
        top_insts.append(f"{mod} {mod}_i ({', '.join(inst_ports)});")
        for n in ext_out:
            if n not in out_port_nets:
                top_wires.append(f"wire {netlist.nets[n].name};")

    top = f"{netlist.name}_top"
    lines = [HEADER.format(title=f"module {top}"), f"module {top} ("]
    ports = [f"    input wire {netlist.nets[n].name}" for n in in_port_nets]
    ports += [f"    output wire {netlist.nets[n].name}" for n in out_port_list]
    lines.append(",\n".join(ports))
    lines.append(");")
    lines.extend(top_wires)
    lines.extend(top_insts)
    lines.append("endmodule")
    files[f"{top}.v"] = "\n".join(lines) + "\n"
    return files


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
