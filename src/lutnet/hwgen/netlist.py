"""Structural netlist: LUT cells, popcount adders and scale/threshold cells
over single-driver nets, with structural validation and bit-exact simulation.

Bit convention throughout the hardware path: +1 maps to 1, -1 maps to 0.
LUT tables are stored as 0/1 bit vectors indexed by the shared vertex
encoding (bit k of the index = input k's bit value)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PortError


@dataclass
class Net:
    nid: int
    width: int
    name: str
    max_count: int = 1      # largest value the net can carry (popcount bookkeeping)
    layer: int = -1


@dataclass
class LutCell:
    table: np.ndarray       # uint8 bits, length 2**K
    inputs: list            # net ids, input k = index bit k
    out: int
    name: str
    layer: int
    role: str = "op"        # "op" (inference operator) or "pool"


@dataclass
class AddCell:
    a: int
    b: int
    out: int
    name: str
    layer: int


@dataclass
class ScaleThresholdCell:
    pops: list              # per-plane popcount net ids
    n_tilde: int
    q_gammas: list          # per-plane scales, fixed-point integers
    q_tau: int
    flip: bool
    frac_bits: int
    acc_width: int
    out: int
    name: str
    layer: int


class Netlist:
    def __init__(self, name: str):
        self.name = name
        self.nets: list[Net] = []
        self.cells: list = []
        self.input_ports: list = []   # (port name, [net ids])
        self.output_ports: list = []

    def new_net(self, width: int, name: str, layer: int = -1, max_count: int = 1) -> int:
        nid = len(self.nets)
        self.nets.append(Net(nid, width, name, max_count, layer))
        return nid

    def add_cell(self, cell) -> None:
        self.cells.append(cell)

    def cell_inputs(self, cell) -> list:
        if isinstance(cell, LutCell):
            return list(cell.inputs)
        if isinstance(cell, AddCell):
            return [cell.a, cell.b]
        return list(cell.pops)

    def validate(self) -> None:
        """Single driver per net, all cell inputs driven, acyclic."""
        driver = {}
        for pname, nids in self.input_ports:
            for nid in nids:
                if nid in driver:
                    raise PortError(f"net {nid} driven twice (port {pname})")
                driver[nid] = "port"
        for ci, cell in enumerate(self.cells):
            if cell.out in driver:
                raise PortError(f"net {cell.out} has multiple drivers (cell {cell.name})")
            driver[cell.out] = ci
        for cell in self.cells:
            for nid in self.cell_inputs(cell):
                if nid not in driver:
                    raise PortError(f"cell {cell.name} reads undriven net {nid}")
        self.topo_order(driver)

    def topo_order(self, driver=None):
        """Kahn topological order of cells; raises on combinational cycles."""
        if driver is None:
            driver = {}
            for _p, nids in self.input_ports:
                for nid in nids:
                    driver[nid] = "port"
            for ci, cell in enumerate(self.cells):
                driver[cell.out] = ci
        indeg = [0] * len(self.cells)
        consumers = [[] for _ in self.cells]
        for ci, cell in enumerate(self.cells):
            for nid in self.cell_inputs(cell):
                d = driver.get(nid)
                if isinstance(d, int):
                    indeg[ci] += 1
                    consumers[d].append(ci)
        order = [ci for ci, d in enumerate(indeg) if d == 0]
        head = 0
        while head < len(order):
            for nxt in consumers[order[head]]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
            head += 1
        if len(order) != len(self.cells):
            raise PortError("netlist contains a combinational cycle")
        return order


def encode_pm1(x: np.ndarray) -> np.ndarray:
    """{-1,+1} (or real, via sign with sign(0)=+1) -> 0/1 bits."""
    return (np.asarray(x) >= 0).astype(np.uint8)


def simulate(netlist: Netlist, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the netlist on a batch of input-bit vectors.

    inputs: (n_vectors, total_input_bits) of 0/1 in input-port order.
    Returns (n_vectors, total_output_bits) of 0/1 in output-port order.
    Evaluation is exact integer arithmetic in topological order.
    """
    inputs = np.asarray(inputs)
    if inputs.ndim == 1:
        inputs = inputs[None, :]
    port_bits = sum(len(nids) for _p, nids in netlist.input_ports)
    if inputs.shape[1] != port_bits:
        raise PortError(f"input width {inputs.shape[1]} != port width {port_bits}")
    values: dict[int, np.ndarray] = {}
    col = 0
    for _pname, nids in netlist.input_ports:
        for nid in nids:
            values[nid] = inputs[:, col].astype(np.int64)
            col += 1

    # reference counts so intermediate arrays can be freed as soon as possible
    refcount: dict[int, int] = {}
    for cell in netlist.cells:
        for nid in netlist.cell_inputs(cell):
            refcount[nid] = refcount.get(nid, 0) + 1
    for _pname, nids in netlist.output_ports:
        for nid in nids:
            refcount[nid] = refcount.get(nid, 0) + 1

    order = netlist.topo_order()
    for ci in order:
        cell = netlist.cells[ci]
        if isinstance(cell, LutCell):
            k = len(cell.inputs)
            if k == 0:
                out = np.full(inputs.shape[0], int(cell.table[0]), dtype=np.int64)
            elif k == 1 and cell.table[0] == 0 and cell.table[1] == 1:
                out = values[cell.inputs[0]]
            elif k == 1 and cell.table[0] == 1 and cell.table[1] == 0:
                out = 1 - values[cell.inputs[0]]
            else:
                idx = values[cell.inputs[0]].copy()
                for b in range(1, k):
                    idx += values[cell.inputs[b]] << b
                out = cell.table.astype(np.int64)[idx]
        elif isinstance(cell, AddCell):
            out = values[cell.a] + values[cell.b]
        else:
            acc = np.zeros(inputs.shape[0], dtype=np.int64)
            for q, pid in zip(cell.q_gammas, cell.pops):
                acc += q * (2 * values[pid] - cell.n_tilde)
            if cell.flip:
                out = (acc <= cell.q_tau).astype(np.int64)
            else:
                out = (acc >= cell.q_tau).astype(np.int64)
        values[cell.out] = out
        for nid in netlist.cell_inputs(cell):
            refcount[nid] -= 1
            if refcount[nid] == 0:
                del values[nid]

    outs = []
    for _pname, nids in netlist.output_ports:
        for nid in nids:
            outs.append(values[nid].astype(np.uint8))
    return np.stack(outs, axis=1)
