"""Magnitude pruning, threshold search, density accounting and residual
binarisation of layer weights."""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from . import numerics as nm
from .errors import ConfigError


@dataclass
class DensityReport:
    """One row per unrolled layer, the layers pruning applies to; the model
    row is over those rows, so it is density_of(net)."""

    theta: float
    rows: list = field(default_factory=list)   # (layer label, total, nonzero, density)

    @property
    def model_density(self) -> float:
        total = sum(r[1] for r in self.rows)
        nonzero = sum(r[2] for r in self.rows)
        return nonzero / total if total else 1.0

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("layer,total,nonzero,density,theta\n")
        for label, total, nonzero, density in self.rows:
            out.write(f"{label},{total},{nonzero},{density:.6f},{self.theta!r}\n")
        out.write(f"model,{sum(r[1] for r in self.rows)},{sum(r[2] for r in self.rows)},"
                  f"{self.model_density:.6f},{self.theta!r}\n")
        return out.getvalue()


def prunable_layers(net: md.Network):
    """Pruning applies to the unrolled layers only; time-multiplexed layers keep
    dense binary weights."""
    return [(i, l) for i, l in net.compute_layers() if l.unrolled]


def prune_threshold(net: md.Network, theta: float) -> DensityReport:
    """Zero every unrolled-layer weight with |w| <= theta (strict > survives) and
    update the prune masks in place.  Idempotent for a fixed theta."""
    md.require_stage(net, "real", "pruned")
    if theta < 0:
        raise ConfigError(f"pruning threshold must be >= 0, got {theta}")
    report = DensityReport(theta=float(theta))
    for i, layer in prunable_layers(net):
        if layer.phase1_weights is None:
            layer.phase1_weights = layer.weights.copy()
        keep = np.abs(layer.weights) > theta
        layer.prune_mask = keep
        layer.weights = layer.weights * keep
        nonzero = int(np.count_nonzero(keep))
        report.rows.append((f"l{i}_{layer.kind}", keep.size, nonzero, nonzero / keep.size))
    net.stage = "pruned"
    return report


def density_of(net: md.Network) -> float:
    total = nonzero = 0
    for _i, layer in prunable_layers(net):
        total += layer.prune_mask.size
        nonzero += int(np.count_nonzero(layer.prune_mask))
    return nonzero / total if total else 1.0


def solve_theta_for_density(net: md.Network, target: float, tol: float = 0.0) -> float:
    """Quantile threshold over the unrolled layers' |w| hitting the target
    density; ties are broken by keeping all equal-magnitude weights.  If the
    target is unreachable because of ties, returns the nearest achievable
    density's threshold with a warning."""
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target density must be in (0, 1], got {target}")
    mags = np.concatenate([np.abs(l.weights).ravel() for _i, l in prunable_layers(net)])
    total = mags.size
    if total == 0:
        raise ConfigError("network has no prunable (unrolled) layers")
    # candidate thresholds: 0 plus every distinct magnitude
    sorted_mags = np.sort(mags)
    candidates = np.concatenate(([0.0], np.unique(mags)))
    densities = (total - np.searchsorted(sorted_mags, candidates, side="right")) / total
    err = np.abs(densities - target)
    best_err = err.min()
    # among the closest, prefer the larger density ("keep" tie-break)
    close = np.flatnonzero(err == best_err)
    pick = close[np.argmax(densities[close])]
    theta = float(candidates[pick])
    if best_err > tol:
        warnings.warn(
            f"target density {target} unreachable due to magnitude ties; "
            f"nearest achievable is {densities[pick]:.6f} (theta={theta})")
    return theta


def residual_binarise(weights: np.ndarray, mask: np.ndarray, b_levels: int):
    """Greedy residual binarisation of one layer's weights.

    eps_1 = w;  w_b = sign(eps_b);  gamma_b = mean |eps_b| over unpruned
    positions;  eps_{b+1} = eps_b - gamma_b * w_b.  Pruned positions stay 0 at
    every level (w_b is reported as +1 there and masked out at use sites).
    Returns (levels, final_residual) where levels = [(w_b, gamma_b), ...].
    """
    if b_levels < 1:
        raise ConfigError(f"residual depth must be >= 1, got {b_levels}")
    w = nm.as_tensor(weights)
    mask = np.asarray(mask, dtype=bool)
    kept = np.flatnonzero(mask)   # the unpruned entries, in the order mask selects them
    eps = w * mask
    levels = []
    for _b in range(b_levels):
        w_b = nm.sign_pm1(eps)
        gamma = float(np.abs(eps.reshape(-1).take(kept)).mean()) if kept.size else 0.0
        levels.append((w_b, gamma))
        eps = (eps - gamma * w_b) * mask
    return levels, eps


def binarise_network(net: md.Network) -> md.Network:
    """From here on every compute layer computes with the residual levels of
    its latent weights, which `levels` in model.py derives wherever they are
    read.
    Stage: pruned -> binarised."""
    md.require_stage(net, "pruned")
    net.stage = "binarised"
    return net
