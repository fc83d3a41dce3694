"""Lower a hardened network to a structural netlist.

Every compute layer becomes, per output channel and window position (a dense
layer is one position whose window is the whole input, see model.windows):
one LUT cell per surviving node and residual plane, a balanced popcount adder
tree per plane, and one scale/threshold cell folding the level scales, the
layer scaling factor and the following batch norm.  Expanded layers use their
hardened truth tables; time-multiplexed binary layers lower to
buffer/inverter 1-LUTs (the unrolled equivalent of XNORs with constant
weights).  Maxpool over bits is an OR LUT."""

from __future__ import annotations

import numpy as np

from .. import model as md
from ..errors import LoweringError
from ..expand import detect_dont_cares
from .netlist import AddCell, LutCell, Netlist, ScaleThresholdCell

ACC_WIDTH_CAP = 62   # exact int64 simulation bound


def _popcount_tree(nl: Netlist, leaf_nets: list, name: str, layer: int) -> int:
    """Balanced adder tree over 1-bit nets; returns the root popcount net.
    Widths track the exact maximum count, ceil(log2(count+1)) bits."""
    counter = [0]

    def build(nets_counts):
        if len(nets_counts) == 1:
            return nets_counts[0]
        mid = (len(nets_counts) + 1) // 2
        a_net, a_cnt = build(nets_counts[:mid])
        b_net, b_cnt = build(nets_counts[mid:])
        total = a_cnt + b_cnt
        width = max(1, int(np.ceil(np.log2(total + 1))))
        out = nl.new_net(width, f"{name}_s{counter[0]}", layer, max_count=total)
        nl.add_cell(AddCell(a_net, b_net, out, f"{name}_add{counter[0]}", layer))
        counter[0] += 1
        return out, total

    root, _cnt = build([(n, 1) for n in leaf_nets])
    return root


def _node_tables(layer):
    """(tables (B, N, 2**K) of 0/1, inputs (N, K), channel spans) of a layer's
    node LUTs.  Expanded layers read hardened masks; a time-multiplexed
    layer's node for each unpruned weight is a buffer or an inverter after
    the sign of its level-b binary weight."""
    if layer.lut is not None:
        lut = layer.lut
        return ((lut.masks + 1) // 2).astype(np.uint8), lut.indices, lut.spans()
    rows, cols = np.nonzero(layer.prune_mask)
    positive = np.stack([w_b[rows, cols] > 0 for w_b, _g in layer.levels])
    tables = np.where(positive[..., None], np.array([0, 1], np.uint8), np.array([1, 0], np.uint8))
    offsets = np.concatenate(([0], np.cumsum(layer.prune_mask.sum(axis=1)))).tolist()
    return tables, cols[:, None], list(zip(offsets[:-1], offsets[1:]))


def _quantised_scales(layer, frac_bits: int):
    gammas = [g for _w, g in layer.levels] if layer.lut is None else layer.lut.gammas
    return [md.quantise(float(g), frac_bits) for g in gammas]


def _check_acc_width(q_gammas, n_tilde, q_tau, layer_name):
    max_abs = sum(abs(q) for q in q_gammas) * n_tilde + abs(q_tau)
    width = max(1, int(np.ceil(np.log2(max_abs + 1)))) + 1   # two's complement
    if width > ACC_WIDTH_CAP:
        raise LoweringError(
            f"{layer_name}: accumulator needs {width} bits (> {ACC_WIDTH_CAP}); "
            f"reduce fixed-point fractional bits")
    return width


def _lower_channel(nl, li, cname, window_nets, tables, indices,
                   q_gammas, q_tau, flip, frac_bits, reduce_dc):
    """Cells for one output neuron (channel or channel-position) from its
    node tables (B, N~, 2**K) and inputs (N~, K): node LUTs per plane,
    per-plane popcount trees, one threshold cell.  Returns the output bit net."""
    pops = []
    n_tilde = indices.shape[0]
    for b in range(tables.shape[0]):
        if n_tilde == 0:
            break   # fully pruned channel: threshold cell sees an empty sum
        leaves = []
        for n in range(n_tilde):
            table = tables[b, n]
            ins = [window_nets[i] for i in indices[n]]
            if reduce_dc:
                kept, reduced = detect_dont_cares(table, len(ins))
                table = reduced
                ins = [ins[j] for j in kept]
            name = f"lut_l{li}_{cname}_n{n}_b{b}"
            out = nl.new_net(1, name, li)
            nl.add_cell(LutCell(np.asarray(table, dtype=np.uint8), ins, out, name, li))
            leaves.append(out)
        pops.append(_popcount_tree(nl, leaves, f"pop_l{li}_{cname}_b{b}", li))
    acc_width = _check_acc_width(q_gammas, n_tilde, q_tau, f"l{li}_{cname}")
    out = nl.new_net(1, f"act_l{li}_{cname}", li)
    nl.add_cell(ScaleThresholdCell(pops, n_tilde, q_gammas, q_tau, bool(flip),
                                   frac_bits, acc_width, out,
                                   f"th_l{li}_{cname}", li))
    return out


def lower(net: md.Network, fx: md.FixedPointSpec = None, reduce_dont_cares: bool = True) -> Netlist:
    """Hardened network -> structural netlist.  The +1->1 / -1->0 bit encoding
    and the threshold form sum_b q_b*(2*pop_b - N~) vs q_tau make the datapath
    an unsigned popcount per plane."""
    md.require_stage(net, "hardened")
    fx = fx or net.fx or md.FixedPointSpec()
    frac_bits = fx.frac_bits
    nl = Netlist(net.name)

    n_in = int(np.prod(net.input_shape))
    in_nets = [nl.new_net(1, f"x{i}", -1) for i in range(n_in)]
    nl.input_ports.append(("x", in_nets))
    current = in_nets
    shape = tuple(net.input_shape)

    for li, layer in enumerate(net.layers):
        if layer.kind in ("batchnorm", "softmax"):
            continue
        if layer.kind == "maxpool":
            c, h, w = shape
            s = layer.size
            oh, ow = h // s, w // s
            grid = np.array(current).reshape(c, h, w)
            new = []
            or_table = np.zeros(1 << (s * s), dtype=np.uint8)
            or_table[1:] = 1
            for ci in range(c):
                for i in range(oh):
                    for j in range(ow):
                        ins = grid[ci, i * s:(i + 1) * s, j * s:(j + 1) * s].reshape(-1)
                        name = f"pool_l{li}_c{ci}_p{i * ow + j}"
                        out = nl.new_net(1, name, li)
                        nl.add_cell(LutCell(or_table.copy(), [int(x) for x in ins],
                                            out, name, li, role="pool"))
                        new.append(out)
            current = new
            shape = (c, oh, ow)
            continue

        win = md.windows(layer, shape)
        window_nets = [[current[i] for i in row] for row in win.index_map()]
        q_gammas = _quantised_scales(layer, frac_bits)
        tables, indices, spans = _node_tables(layer)
        q_taus = [md.quantise(float(t), frac_bits) for t in layer.tau]
        outs = []
        for c, (a, e) in enumerate(spans):
            for p in range(win.positions):
                cname = f"c{c}" if win.positions == 1 else f"c{c}_p{p}"
                outs.append(_lower_channel(nl, li, cname, window_nets[p], tables[:, a:e],
                                           indices[a:e], q_gammas, q_taus[c], layer.flip[c],
                                           frac_bits, reduce_dont_cares))
        current = outs
        shape = win.out_shape

    nl.output_ports.append(("y", current))
    nl.validate()
    return nl
