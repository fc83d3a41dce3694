"""Physical-LUT area estimation of the netlist's blocks: logical-to-physical
6-LUT packing, popcount adder cost and the per-layer breakdown report.

Packing: a fabric 6-LUT hosts one logical 6-LUT, or two smaller logical LUTs
whose distinct inputs fit in 5.  Buffers, inverters and constants cost
nothing: they are absorbed into the downstream adder logic.  No table is
wider than the fabric's LUT (config.FABRIC_K); pack_estimate rejects one.

pack_estimate counts what a greedy gives that visits a block's LUTs with
k_eff >= 2 largest first and pairs each with the first unused later LUT it
fits with.  LUTs of different neurons (channel, position) share no input, so
they fit only when k1 + k2 <= 5: a 3- with a 2-input LUT, or two 2-input
ones.  LUTs of 3 or more inputs come first, so each pairs within its neuron
if it can; each of a channel's P positions holds the same LUTs, so that is
done once per channel and counts P times.  The rest is counts: each 3-input LUT
left single (need3) takes an unused 2-input LUT (spare2) while any is left,
and the other 2-input LUTs pair up, so physical = P*wide +
ceil(max(P*(spare2 - need3), 0) / 2).  A 3-input LUT paired with a 2-input
LUT of its own neuron takes one off both need3 and spare2: the same count."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .. import model as md
from ..config import FABRIC_K
from ..errors import PackingError
from .lower import lower
from .netlist import PoolBlock, _adder_tree, _width


@lru_cache(maxsize=None)
def popcount_cost(n: int) -> int:
    """Physical LUTs of the netlist's balanced popcount tree over n bits,
    counting each addition as the width of its wider, left operand.  An
    estimate: monotone in n and asymptotically linear."""
    if n < 1:
        raise ValueError(f"popcount over {n} bits")
    tree = _adder_tree(n)
    return sum(1 if a >= 0 else tree[-a - 1][2] for a, _b, _w in tree)


def threshold_cost(n_tilde: int, n_planes: int, frac_bits: int) -> int:
    """Crude scale/threshold cell estimate: one shift-add constant multiply per
    plane plus the final compare, each costed at the accumulator width."""
    acc_bits = _width(n_tilde) + frac_bits + 1
    return (n_planes + 1) * acc_bits


def _pack_channel(k_eff: np.ndarray, inputs: np.ndarray) -> tuple:
    """(wide, need3, spare2) of the module docstring for one neuron of a
    channel whose planes hold k_eff (B, m) and inputs (B, m, K).  LUTs go
    largest first, then by plane, then by node."""
    b, n = np.nonzero(k_eff > 1)
    order = np.argsort(-k_eff[b, n], kind="stable")
    ks = k_eff[b, n][order].tolist()
    masks = [sum(1 << s for s in row[:k]) for row, k in zip(inputs[b, n][order].tolist(), ks)]
    wide = need3 = 0
    while ks and ks[0] > 2:
        k, mask = ks.pop(0), masks.pop(0)
        wide += 1
        j = next((j for j, other in enumerate(masks) if (mask | other).bit_count() <= 5), None)
        if j is None:
            need3 += k == 3
        else:
            del ks[j], masks[j]
    return wide, need3, len(ks)


def pack_estimate(block) -> int:
    """Physical 6-LUTs of the logical LUTs with k_eff >= 2 of one compute
    block, paired channel by channel as the module docstring says."""
    k_max = int(block.k_eff.max(initial=0))
    if k_max > FABRIC_K:
        raise PackingError(f"logical LUT wider than {FABRIC_K} inputs (K={k_max})")
    offsets = block.offsets.tolist()
    counts = np.array([_pack_channel(block.k_eff[:, a:e], block.inputs[:, a:e])
                       for a, e in zip(offsets, offsets[1:])]).reshape(-1, 3).sum(0)
    wide, need3, spare2 = (block.positions * counts).tolist()
    return wide + (max(spare2 - need3, 0) + 1) // 2


def _histogram(block) -> tuple:
    """({k_eff: logical LUTs}, logical LUTs) of one compute block over all its
    positions; buffers, inverters and constants count here but cost nothing."""
    widths, counts = np.unique(block.k_eff, return_counts=True)
    hist = {int(k): int(n) * block.positions for k, n in zip(widths, counts)}
    return hist, block.positions * block.k_eff.size


@dataclass
class AreaReport:
    rows: list = field(default_factory=list)
    # each row: dict(layer, kind, unrolled, density, n_tilde, keff_hist,
    #                logical, inference, popcount, other, total)

    def totals(self) -> dict:
        keys = ("logical", "inference", "popcount", "other", "total")
        return {k: sum(r[k] for r in self.rows) for k in keys}

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("layer,kind,unrolled,density,n_tilde,keff_hist,logical,"
                  "inference,popcount,other,total\n")
        for r in self.rows:
            hist = ";".join(f"{k}:{v}" for k, v in sorted(r["keff_hist"].items()))
            out.write(f"{r['layer']},{r['kind']},{int(r['unrolled'])},"
                      f"{r['density']:.6f},{r['n_tilde']},{hist},{r['logical']},"
                      f"{r['inference']},{r['popcount']},{r['other']},{r['total']}\n")
        t = self.totals()
        out.write(f"total,,,,,,{t['logical']},{t['inference']},{t['popcount']},"
                  f"{t['other']},{t['total']}\n")
        return out.getvalue()

    def to_table(self) -> str:
        lines = [f"{'layer':<12}{'density':>9}{'logical':>9}{'infer':>7}"
                 f"{'popcnt':>8}{'other':>7}{'total':>8}"]
        for r in self.rows:
            lines.append(f"{r['layer']:<12}{r['density']:>9.3f}{r['logical']:>9}"
                         f"{r['inference']:>7}{r['popcount']:>8}{r['other']:>7}{r['total']:>8}")
        t = self.totals()
        lines.append(f"{'total':<12}{'':>9}{t['logical']:>9}{t['inference']:>7}"
                     f"{t['popcount']:>8}{t['other']:>7}{t['total']:>8}")
        return "\n".join(lines)


def area_report(net: md.Network) -> AreaReport:
    """Physical 6-LUT estimate of a hardened network, split into popcount
    operators, inference operators and other logic (thresholds, pooling).
    It prices the blocks of lower(net): the tables, kept inputs and node
    counts the netlist holds."""
    md.require_stage(net, "hardened")
    frac_bits = net.frac_bits
    report = AreaReport()
    for block in lower(net).blocks:
        li = block.layer
        if isinstance(block, PoolBlock):
            n_pool = block.index_map.shape[0] * block.index_map.shape[1]
            report.rows.append(dict(layer=f"l{li}", kind="maxpool", unrolled=False,
                                    density=1.0, n_tilde=0, keff_hist={},
                                    logical=n_pool, inference=0, popcount=0,
                                    other=n_pool, total=n_pool))
            continue
        layer = net.layers[li]
        positions = block.positions
        hist, logical = _histogram(block)
        inference = pack_estimate(block)

        n_planes = len(block.q_gammas)
        nodes = [int(n) for n in np.diff(block.offsets) if n]   # a fully pruned channel costs no logic
        popcount = sum(positions * n_planes * popcount_cost(n) for n in nodes)
        other = sum(positions * threshold_cost(n, n_planes, frac_bits) for n in nodes)
        density = float(layer.prune_mask.mean())
        report.rows.append(dict(layer=f"l{li}", kind=layer.kind, unrolled=layer.unrolled,
                                density=density, n_tilde=sum(nodes), keff_hist=hist,
                                logical=logical, inference=inference, popcount=popcount,
                                other=other, total=inference + popcount + other))
    return report
