"""Lower a hardened network to its per-layer array blocks (see netlist.py).

Every compute layer becomes one ComputeBlock: its window map
(model.windows(...).index_map; a dense layer is one position whose window
is the whole input), its channel offsets, the don't-care-reduced truth
table and kept inputs of every node and plane, and the quantised plane
scales, thresholds and accumulator widths that fold the level scales and
the following batch norm.  Expanded layers use the truth tables
expand.harden_masks reads from their coefficients; time-multiplexed binary
layers become the same block at K=1 with buffer/inverter tables (the
unrolled equivalent of XNORs with constant weights).  A maxpool layer
becomes a PoolBlock; its size must tile its input (model.pool_out_shape),
as in every engine.  No per-wire or per-cell
object is built: cell order and net names are defined by the blocks
themselves, in netlist.py.  area.area_report prices the same blocks."""

from __future__ import annotations

import numpy as np

from .. import model as md
from ..errors import LoweringError
from ..expand import harden_masks, reduce_dont_cares
from ..model import levels
from .netlist import ComputeBlock, Netlist, PoolBlock


def _node_tables(layer, b):
    """(tables (B, N, 2**K) of 0/1, inputs (N, K), offsets (C+1,)) of a
    layer's node LUTs.  Expanded layers harden their coefficients; a
    time-multiplexed layer's node for each unpruned weight is a buffer or an
    inverter after the sign of its level-b binary weight, of the b levels."""
    if layer.lut is not None:
        lut = layer.lut
        return ((harden_masks(lut.coeffs) + 1) // 2).astype(np.uint8), lut.indices, lut.offsets
    rows, cols = np.nonzero(layer.prune_mask)
    positive = np.stack([w_b[rows, cols] > 0 for w_b, _g in levels(layer, b)])
    tables = np.where(positive[..., None], np.array([0, 1], np.uint8), np.array([1, 0], np.uint8))
    offsets = np.concatenate(([0], np.cumsum(layer.prune_mask.sum(axis=1))))
    return tables, cols[:, None], offsets


def _compute_block(net, li, win):
    layer = net.layers[li]
    tables, indices, offsets = _node_tables(layer, net.b_levels)
    if indices.size and (indices.min() < 0 or indices.max() >= layer.window_size):
        raise LoweringError(f"l{li}: node inputs outside the window of {layer.window_size}")
    k_eff, kept, tables = reduce_dont_cares(tables, indices.shape[1])
    live = np.arange(indices.shape[1]) < k_eff[..., None]
    inputs = np.where(live, np.take_along_axis(indices[None], kept, axis=2), 0)

    q_gammas, q_tau, flip, acc_width = md.quantise_layer(net, li)
    return ComputeBlock(layer=li, index_map=win.index_map, offsets=np.asarray(offsets, np.int64),
                        tables=tables.astype(np.uint8), inputs=inputs, k_eff=k_eff,
                        q_gammas=q_gammas, q_tau=q_tau, flip=flip, acc_width=acc_width)


def lower(net: md.Network) -> Netlist:
    """Hardened network -> netlist of array blocks.  The +1->1 / -1->0 bit
    encoding and the threshold form sum_b q_b*(2*pop_b - N~) vs q_tau make
    the datapath an unsigned popcount per plane."""
    md.require_stage(net, "hardened")
    blocks = []
    shape = tuple(net.input_shape)
    for li, layer in enumerate(net.layers):
        if layer.kind == "maxpool":
            blocks.append(PoolBlock(li, shape, layer.size))
            shape = md.pool_out_shape(shape, layer.size)
        elif layer.kind in ("dense", "conv"):
            win = md.windows(layer, shape)
            blocks.append(_compute_block(net, li, win))
            shape = win.out_shape
    return Netlist(net.name, int(np.prod(net.input_shape)), blocks)
