"""Physical-LUT area estimation of the netlist's blocks: logical-to-physical
6-LUT packing, popcount adder cost and the per-layer breakdown report.

Packing rules: a fabric 6-LUT hosts one logical 6-LUT, or two smaller logical
LUTs whose combined distinct inputs fit in 5 (equivalently: 5-LUT pairs need
>= 5 shared inputs, 4-LUT pairs >= 3, 3-LUT pairs >= 1, 1-/2-LUT pairs pack
unconditionally).  Buffers, inverters and constants cost nothing: they are
absorbed into the downstream adder logic.  Tables wider than 6 inputs are
split by Shannon expansion before packing."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .. import model as md
from ..errors import PackingError
from ..expand import shannon_decompose
from .lower import lower
from .netlist import PoolBlock


@lru_cache(maxsize=None)
def popcount_cost(n: int) -> int:
    """Physical LUTs of a balanced popcount tree over n bits, counting a w-bit
    addition as w LUTs.  An estimate: monotone in n and asymptotically linear."""
    if n < 1:
        raise ValueError(f"popcount over {n} bits")
    if n == 1:
        return 0
    a = (n + 1) // 2
    b = n // 2
    width = lambda m: max(1, int(np.ceil(np.log2(m + 1))))
    return popcount_cost(a) + popcount_cost(b) + max(width(a), width(b))


def threshold_cost(n_tilde: int, n_planes: int, frac_bits: int) -> int:
    """Crude scale/threshold cell estimate: one shift-add constant multiply per
    plane plus the final compare, each costed at the accumulator width."""
    acc_bits = max(1, int(np.ceil(np.log2(n_tilde + 1)))) + frac_bits + 1
    return (n_planes + 1) * acc_bits


def can_pack(k1: int, inputs1: frozenset, k2: int, inputs2: frozenset) -> bool:
    if k1 > 6 or k2 > 6:
        raise PackingError(f"logical LUT wider than 6 inputs (K={max(k1, k2)})")
    if k1 == 6 or k2 == 6:
        return False
    return len(inputs1 | inputs2) <= 5


def pack_estimate(luts: list) -> int:
    """Greedy largest-first pairing of logical LUTs [(k_eff, input net set)]
    into physical 6-LUTs; unpaired LUTs cost one each."""
    items = sorted(((int(k), frozenset(ins)) for k, ins in luts),
                   key=lambda t: -t[0])
    for k, _ins in items:
        if k > 6:
            raise PackingError(f"logical LUT wider than 6 inputs (K={k})")
    used = [False] * len(items)
    physical = 0
    for i, (k1, in1) in enumerate(items):
        if used[i]:
            continue
        used[i] = True
        physical += 1
        if k1 == 6:
            continue
        for j in range(i + 1, len(items)):
            if used[j]:
                continue
            k2, in2 = items[j]
            if can_pack(k1, in1, k2, in2):
                used[j] = True
                break
    return physical


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


def _block_logical_luts(block):
    """Logical LUTs of one compute block as [(k_eff, input ids)], with the
    histogram over reduced widths.  Input ids are (channel, position, window
    slot) so sharing within one neuron instance is visible to the packer;
    buffers/inverters/constants are zero-cost and excluded."""
    k_eff, positions = block.k_eff, block.positions
    widths, counts = np.unique(k_eff, return_counts=True)
    hist = {int(k): int(n) * positions for k, n in zip(widths, counts)}
    logical = int((k_eff <= 1).sum()) * positions
    luts = []
    channel = np.repeat(np.arange(len(block.offsets) - 1), np.diff(block.offsets))
    wide = sorted((int(channel[n]), int(b), int(n)) for b, n in zip(*np.nonzero(k_eff > 1)))
    for ci, b, n in wide:
        keff = int(k_eff[b, n])
        ins = block.inputs[b, n, :keff].tolist()
        if keff > 6:
            cells = shannon_decompose(block.tables[b, n, :1 << keff], ins)
            for p in range(positions):
                for _tbl, ids in cells:
                    uniq = frozenset((ci, b, n, p, "cell", i[1]) if isinstance(i, tuple)
                                     else (ci, p, i) for i in ids)
                    luts.append((len(ids), uniq))
                logical += len(cells)
        else:
            for p in range(positions):
                luts.append((keff, frozenset((ci, p, i) for i in ins)))
            logical += positions
    return luts, hist, logical


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
            n_pool = int(np.prod(block.in_shape)) // block.size ** 2
            report.rows.append(dict(layer=f"l{li}", kind="maxpool", unrolled=False,
                                    density=1.0, n_tilde=0, keff_hist={},
                                    logical=n_pool, inference=0, popcount=0,
                                    other=n_pool, total=n_pool))
            continue
        layer = net.layers[li]
        positions = block.positions
        luts, hist, logical = _block_logical_luts(block)
        inference = pack_estimate(luts)

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
