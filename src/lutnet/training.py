"""Three-phase training schedule: high-precision training, post-pruning
retraining with binarised forwards, and post-expansion retraining of the LUT
coefficients."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from . import numerics as nm
from . import prune as pr
from .config import RunConfig
from .errors import DimensionError, FormatError, TrainingDivergedError

# the name the benchmark constructs a phase's settings by; _train reads its
# epochs, batch size, rates, lambda and seed from the RunConfig it is given
PhaseConfig = RunConfig


@dataclass
class TrainLog:
    phase: int
    rows: list = field(default_factory=list)   # (epoch, loss, err_percent, omega)

    def append(self, epoch, loss, err, omega):
        self.rows.append((int(epoch), float(loss), float(err), float(omega)))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("epoch,loss,err,omega\n")
        for epoch, loss, err, omega in self.rows:
            out.write(f"{epoch},{loss!r},{err!r},{omega!r}\n")
        return out.getvalue()

    @property
    def final_err(self):
        return self.rows[-1][2] if self.rows else None


def _group_norm(net: md.Network) -> float:
    """sqrt(sum of squared weights over the prunable layers)."""
    sq = 0.0
    for _i, layer in pr.prunable_layers(net):
        w = layer.weights * layer.prune_mask
        sq += float(np.sum(w * w))
    return np.sqrt(sq)


def l2_group_regulariser(net: md.Network, lam: float):
    """Omega = lam * _group_norm(net) and its gradient lam * w / (Omega / lam);
    the all-zero case maps to zero gradient."""
    norm = _group_norm(net)
    grads = {}
    for i, layer in pr.prunable_layers(net):
        w = layer.weights * layer.prune_mask
        grads[f"l{i}.weights"] = np.zeros_like(w) if norm == 0.0 else lam * w / norm
    return lam * norm, grads


def check_labels(net, x, y):
    """Samples x and labels y must pair one to one, at least one pair, the
    labels must be a 1-D integer array, and they must index the head's
    outputs, one logit per class, so the head must write one position."""
    y = np.asarray(y)
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise FormatError(f"labels must be a 1-D array of integers; got shape {y.shape} "
                          f"of {y.dtype}")
    if len(x) != len(y) or not len(y):
        raise FormatError(f"a data set needs as many labels as samples, at least one; got "
                          f"{len(x)} samples and {len(y)} labels")
    head = md.steps(net)[-1].win
    if head.positions != 1:
        raise DimensionError(f"the head of {net.name} writes {head.positions} positions per "
                             f"class; a classifier's head writes one")
    classes = head.out_shape[0]
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise FormatError(f"labels must lie in [0, {classes}), the classes of the head of "
                          f"{net.name}; got {y.min()} to {y.max()}")


# phase -> (the stage it trains, its forward and backward in model).  The
# three backwards are one model.backward under three names, and all six are
# looked up by name at each call, so that the benchmark's tracer times each
# phase's passes
_PHASES = {1: ("real", "forward_real_train", "backward_real"),
           2: ("binarised", "forward_binary_train", "backward_binary"),
           3: ("expanded", "forward_lut_train", "backward_lut")}


def _train(net: md.Network, data, cfg: RunConfig, phase: int) -> TrainLog:
    """One training phase: Adam over shuffled minibatches with a divergence
    guard.  Layers without LUTs train their latent weights, which keep their
    pruned positions at zero; expanded layers train their plane scales and
    coefficients; batch norms train everywhere.  Phase 1 adds the
    sparsification regulariser to the loss; in phases 2 and 3 each forward
    binarises the latent weights in closed form; phase 3 trains at
    lr * lr3_factor."""
    stage, forward, backward = _PHASES[phase]
    md.require_stage(net, stage)
    forward, backward = getattr(md, forward), getattr(md, backward)
    x, y = data
    check_labels(net, x, y)
    n = x.shape[0]
    params = {}
    for i, layer in net.compute_layers():
        if layer.lut is None:
            params[f"l{i}.weights"] = layer.weights
        else:
            params[f"l{i}.lut.gammas"] = layer.lut.gammas
            params[f"l{i}.lut.coeffs"] = layer.lut.coeffs
    for i, layer in enumerate(net.layers):
        if layer.kind == "batchnorm":
            params[f"l{i}.gamma"] = layer.gamma
            params[f"l{i}.beta"] = layer.beta
    epochs = (cfg.epochs1, cfg.epochs2, cfg.epochs3)[phase - 1]
    lr = cfg.lr * cfg.lr3_factor if phase == 3 else cfg.lr
    rng = np.random.default_rng(cfg.seed + phase - 1)
    state = nm.AdamState()
    log = TrainLog(phase=phase)
    for epoch in range(epochs):
        tot_loss = tot_omega = 0.0
        correct = batches = 0
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            logits, caches = forward(net, x[idx])
            loss, dlogits = nm.softmax_xent(logits, y[idx])
            grads = backward(net, caches, dlogits)
            if phase == 1:
                omega, omega_grads = l2_group_regulariser(net, cfg.lam)
                loss = loss + omega
                for name, g in omega_grads.items():
                    grads[name] = grads[name] + g
            else:   # logged only
                omega = cfg.lam * _group_norm(net)
            if not np.isfinite(loss):   # before the step, which would apply it
                raise TrainingDivergedError(
                    f"phase {phase} loss became non-finite at epoch {epoch}")
            nm.adam_step(params, grads, state, lr=lr)
            for _i, layer in net.compute_layers():
                if layer.lut is None:
                    layer.weights *= layer.prune_mask
            tot_loss += loss
            tot_omega += omega
            correct += int(np.sum(np.argmax(logits, axis=1) == y[idx]))
            batches += 1
        log.append(epoch, tot_loss / batches, 100.0 * (1.0 - correct / n), tot_omega / batches)
    return log


def run_phase1(net: md.Network, data, cfg: RunConfig) -> TrainLog:
    """High-precision training of weights and batch norms, with the
    sparsification regulariser added to the loss.  A compute layer's
    pre-activation is its plain dot product: the batch norm after every
    compute layer carries its scale."""
    return _train(net, data, cfg, 1)


def run_phase2_retrain(net: md.Network, data, cfg: RunConfig) -> TrainLog:
    """Retraining after pruning + residual binarisation.  Forward uses the
    binary reconstruction; latent weights receive STE gradients; level scales
    follow from the latent weights in closed form; pruned positions stay zero."""
    return _train(net, data, cfg, 2)


def run_phase3_retrain(net: md.Network, data, cfg: RunConfig) -> TrainLog:
    """Post-expansion retraining: LUT coefficients and plane scales train by
    gradient through the interpolating extension; time-multiplexed layers keep
    training their latent binary weights."""
    return _train(net, data, cfg, 3)


def evaluate(net: md.Network, x, y) -> float:
    """Test accuracy in percent from md.forward's logits (a hardened network
    is scored with real plane scales and batch norms)."""
    check_labels(net, x, y)
    correct = int(np.sum(np.argmax(md.forward(net, x), axis=1) == y))
    return 100.0 * correct / x.shape[0]
