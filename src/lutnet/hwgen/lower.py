"""Lower a hardened network to its per-layer array blocks (see netlist.py).

The blocks follow model.steps, the network's checked layer plan.  An
unrolled compute layer becomes a ComputeBlock: its window map
(model.windows(...).index_map; a dense layer is one position whose window
is the whole input), its channel offsets, and the don't-care-reduced truth
table and kept inputs of every node and plane, the tables that
expand.harden_masks reads from its coefficients.  A time-multiplexed layer
becomes an EngineBlock on the same window map: the signs of its residual
levels' binary weights per plane and its prune mask.  Both carry the
quantised plane scales, thresholds and accumulator widths of
model.quantise_layer, which fold the level scales and the following batch
norm, and copy what they read, so a later change to the network changes no
block.  A maxpool layer becomes a PoolBlock of its model.windows index map,
whose size must tile its input as in every engine.  No per-wire or per-cell
object is built: cell order and net names are defined by the blocks
themselves, in netlist.py.  area.area_report prices the same blocks."""

from __future__ import annotations

import numpy as np

from .. import model as md
from ..errors import LoweringError
from ..expand import harden_masks, reduce_dont_cares
from ..model import levels
from .netlist import ComputeBlock, EngineBlock, Netlist, PoolBlock


def _engine_block(net, step):
    """The XNOR-popcount engine of a time-multiplexed layer."""
    lv = levels(step.layer, net.b_levels)
    q_gammas, q_tau, flip, acc_width = md.quantise_layer(net, step, [g for _w, g in lv])
    return EngineBlock(layer=step.idx, index_map=step.win.index_map,
                       weights=np.stack([w_b for w_b, _g in lv]).astype(np.int8),
                       mask=np.array(step.layer.prune_mask, bool),
                       q_gammas=q_gammas, q_tau=q_tau, flip=flip, acc_width=acc_width)


def _compute_block(net, step):
    """The node LUTs of an unrolled layer, hardened from its coefficients."""
    li, lut = step.idx, step.layer.lut
    indices = lut.indices
    if indices.size and (indices.min() < 0 or indices.max() >= step.layer.window_size):
        raise LoweringError(f"l{li}: node inputs outside the window of {step.layer.window_size}")
    k_eff, kept, tables = reduce_dont_cares((harden_masks(lut.coeffs) + 1) // 2, lut.k)
    live = np.arange(lut.k) < k_eff[..., None]
    inputs = np.where(live, np.take_along_axis(indices[None], kept, axis=2), 0)

    q_gammas, q_tau, flip, acc_width = md.quantise_layer(net, step, lut.gammas)
    return ComputeBlock(layer=li, index_map=step.win.index_map,
                        offsets=np.array(lut.offsets, np.int64), tables=tables.astype(np.uint8),
                        inputs=inputs, k_eff=k_eff, q_gammas=q_gammas, q_tau=q_tau, flip=flip,
                        acc_width=acc_width)


def lower(net: md.Network) -> Netlist:
    """Hardened network -> netlist of array blocks.  The +1->1 / -1->0 bit
    encoding and the threshold form sum_b q_b*(2*pop_b - N~) vs q_tau make
    the datapath an unsigned popcount per plane."""
    md.require_stage(net, "hardened")
    blocks = []
    for s in md.steps(net):
        if s.layer.kind == "maxpool":
            blocks.append(PoolBlock(s.idx, s.win.index_map.reshape(s.win.positions,
                                                                   s.win.out_shape[0], -1)))
        else:
            blocks.append(_engine_block(net, s) if s.layer.lut is None else _compute_block(net, s))
    return Netlist(net.name, int(np.prod(net.input_shape)), blocks)
