"""Physical-LUT area estimation of the netlist's blocks: logical-to-physical
6-LUT packing, popcount adder cost and the per-layer breakdown report.

The LUTs priced are LUTNet's: those of the unrolled layers and the
maxpools.  A time-multiplexed layer runs on the shared XNOR-popcount engine
of the designs LUTNet is compared against, so its row costs 0 LUTs and
reports the engine's weight bits and popcount width instead.

Packing: a fabric 6-LUT hosts one logical 6-LUT, or two smaller logical LUTs
whose distinct inputs fit in 5.  Buffers, inverters and constants cost
nothing: they are absorbed into the downstream adder logic.  No LUT may be
wider than the fabric's (config.FABRIC_K): pack_estimate rejects a wider
node table, and area_report a maxpool window of more inputs.

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
from .netlist import EngineBlock, PoolBlock, _adder_tree, _width


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


def _is_engine(row: dict) -> bool:
    return row["kind"] != "maxpool" and not row["unrolled"]


@dataclass
class AreaReport:
    rows: list = field(default_factory=list)
    # each row: dict(layer, kind, unrolled, density, n_tilde, keff_hist,
    #                logical, inference, popcount, other, total,
    #                engine_bits, engine_popcount)

    def totals(self) -> dict:
        keys = ("logical", "inference", "popcount", "other", "total")
        return {k: sum(r[k] for r in self.rows) for k in keys}

    def to_csv(self) -> str:
        """One line per row and a total line; the engine columns only when
        some row is an engine."""
        engines = any(map(_is_engine, self.rows))
        out = io.StringIO()
        out.write("layer,kind,unrolled,density,n_tilde,keff_hist,logical,"
                  "inference,popcount,other,total"
                  + (",engine_bits,engine_popcount\n" if engines else "\n"))
        for r in self.rows:
            hist = ";".join(f"{k}:{v}" for k, v in sorted(r["keff_hist"].items()))
            out.write(f"{r['layer']},{r['kind']},{int(r['unrolled'])},"
                      f"{r['density']:.6f},{r['n_tilde']},{hist},{r['logical']},"
                      f"{r['inference']},{r['popcount']},{r['other']},{r['total']}"
                      + (f",{r['engine_bits']},{r['engine_popcount']}\n" if engines else "\n"))
        t = self.totals()
        out.write(f"total,,,,,,{t['logical']},{t['inference']},{t['popcount']},"
                  f"{t['other']},{t['total']}"
                  + (f",{sum(r['engine_bits'] for r in self.rows)},\n" if engines else "\n"))
        return out.getvalue()

    def to_table(self) -> str:
        """The rows as aligned columns; the engine columns only when some
        row is an engine."""
        engines = any(map(_is_engine, self.rows))
        lines = [f"{'layer':<12}{'density':>9}{'logical':>9}{'infer':>7}"
                 f"{'popcnt':>8}{'other':>7}{'total':>8}"
                 + (f"{'eng_bits':>10}{'eng_pop':>9}" if engines else "")]
        for r in self.rows:
            lines.append(f"{r['layer']:<12}{r['density']:>9.3f}{r['logical']:>9}"
                         f"{r['inference']:>7}{r['popcount']:>8}{r['other']:>7}{r['total']:>8}"
                         + (f"{r['engine_bits']:>10}{r['engine_popcount']:>9}" if engines else ""))
        t = self.totals()
        lines.append(f"{'total':<12}{'':>9}{t['logical']:>9}{t['inference']:>7}"
                     f"{t['popcount']:>8}{t['other']:>7}{t['total']:>8}"
                     + (f"{sum(r['engine_bits'] for r in self.rows):>10}" if engines else ""))
        return "\n".join(lines)


def area_report(net: md.Network) -> AreaReport:
    """Physical 6-LUT estimate of a hardened network's LUTNet logic, split
    into popcount operators, inference operators and other logic
    (thresholds, pooling).  It prices the blocks of lower(net): the tables,
    kept inputs and node counts the netlist holds.  A time-multiplexed layer
    runs on the shared XNOR-popcount engine, which is not LUTNet logic: its
    row costs 0 LUTs and records instead the weight bits the engine stores,
    B * sum(mask), and the bits of its widest channel's popcount."""
    md.require_stage(net, "hardened")
    frac_bits = net.frac_bits
    report = AreaReport()
    for block in lower(net).blocks:
        li = block.layer
        row = dict(layer=f"l{li}", unrolled=False, keff_hist={}, logical=0, inference=0,
                   popcount=0, other=0, total=0, engine_bits=0, engine_popcount=0)
        if isinstance(block, PoolBlock):
            positions, channels, window = block.index_map.shape
            if window > FABRIC_K:
                raise PackingError(f"l{li}: maxpool LUT wider than {FABRIC_K} inputs (K={window})")
            n_pool = positions * channels
            report.rows.append(dict(row, kind="maxpool", density=1.0, n_tilde=0,
                                    logical=n_pool, other=n_pool, total=n_pool))
            continue
        layer = net.layers[li]
        row.update(kind=layer.kind, density=float(layer.prune_mask.mean()),
                   n_tilde=int(block.n_tilde.sum()))
        if isinstance(block, EngineBlock):
            report.rows.append(dict(row, engine_bits=len(block.q_gammas) * row["n_tilde"],
                                    engine_popcount=block.pop_width))
            continue
        positions = block.positions
        hist, logical = _histogram(block)
        inference = pack_estimate(block)

        n_planes = len(block.q_gammas)
        nodes = [int(n) for n in block.n_tilde if n]   # a fully pruned channel costs no logic
        popcount = sum(positions * n_planes * popcount_cost(n) for n in nodes)
        other = sum(positions * threshold_cost(n, n_planes, frac_bits) for n in nodes)
        report.rows.append(dict(row, unrolled=layer.unrolled, keff_hist=hist, logical=logical,
                                inference=inference, popcount=popcount, other=other,
                                total=inference + popcount + other))
    return report
