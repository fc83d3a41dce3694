"""Three-phase training schedule: high-precision training, post-pruning
retraining with binarised forwards, and post-expansion retraining of the LUT
coefficients."""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field

import numpy as np

from . import model as md
from . import numerics as nm
from . import prune as pr
from .errors import FormatError, TrainingDivergedError


@dataclass
class PhaseConfig:
    epochs1: int = 200
    epochs2: int = 50
    epochs3: int = 200
    batch_size: int = 100
    lr: float = 1e-3
    lr3_factor: float = 0.1     # binarised-forward training wants lower rates
    lam: float = 5e-7           # sparsification regulariser factor
    seed: int = 0


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


def l2_group_regulariser(net: md.Network, lam: float):
    """Omega = lam * sqrt(sum of squared weights over the prunable layers) and
    its gradient lam * w / (Omega / lam); the all-zero case maps to zero
    gradient."""
    sq = 0.0
    for _i, layer in pr.prunable_layers(net):
        w = layer.weights * layer.prune_mask
        sq += float(np.sum(w * w))
    norm = np.sqrt(sq)
    omega = lam * norm
    grads = {}
    for i, layer in pr.prunable_layers(net):
        w = layer.weights * layer.prune_mask
        grads[f"l{i}.weights"] = np.zeros_like(w) if norm == 0.0 else lam * w / norm
    return omega, grads


def _bn_params(net, params):
    for i, layer in enumerate(net.layers):
        if layer.kind == "batchnorm":
            params[f"l{i}.gamma"] = layer.gamma
            params[f"l{i}.beta"] = layer.beta


def _batches(n, batch_size, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _check_labels(net, y):
    """Labels must index the head's outputs."""
    head = net.compute_layers()[-1][1]
    classes = head.out_features if head.kind == "dense" else head.out_channels
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise FormatError(f"labels must lie in [0, {classes}), the classes of the head of "
                          f"{net.name}; got {y.min()} to {y.max()}")


def _run_epochs(net, data, epochs, batch_size, lr, seed, step_fn, phase):
    """Shared epoch loop: shuffling, logging, divergence guard.  step_fn runs
    one optimisation step and returns (loss, omega, n_correct)."""
    x, y = data
    _check_labels(net, y)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    log = TrainLog(phase=phase)
    last_good = copy.deepcopy(net)
    for epoch in range(epochs):
        tot_loss = 0.0
        tot_omega = 0.0
        correct = 0
        batches = 0
        for idx in _batches(n, batch_size, rng):
            loss, omega, n_correct = step_fn(x[idx], y[idx], lr)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"phase {phase} loss became non-finite at epoch {epoch}",
                    last_good=last_good, log=log)
            tot_loss += loss
            tot_omega += omega
            correct += n_correct
            batches += 1
        err = 100.0 * (1.0 - correct / n)
        log.append(epoch, tot_loss / batches, err, tot_omega / batches)
        last_good = copy.deepcopy(net)
    return log


def run_phase1(net: md.Network, data, cfg: PhaseConfig) -> TrainLog:
    """High-precision training of weights and batch norms, with the
    sparsification regulariser added to the loss.  Each layer's scaling
    factor alpha stays at its initial value: every compute layer feeds a
    batch norm, which makes the network's function independent of it."""
    md.require_stage(net, "real")
    state = nm.AdamState()

    def step(xb, yb, lr):
        logits, caches = md.forward_real_train(net, xb)
        loss, dlogits = nm.softmax_xent(logits, yb)
        grads = md.backward_real(net, caches, dlogits)
        omega, omega_grads = l2_group_regulariser(net, cfg.lam)
        for name, g in omega_grads.items():
            grads[name] = grads[name] + g
        params = {f"l{i}.weights": layer.weights for i, layer in net.compute_layers()}
        _bn_params(net, params)
        nm.adam_step(params, grads, state, lr=lr)
        for _i, layer in net.compute_layers():
            layer.weights *= layer.prune_mask
        correct = int(np.sum(np.argmax(logits, axis=1) == yb))
        return loss + omega, omega, correct

    return _run_epochs(net, data, cfg.epochs1, cfg.batch_size, cfg.lr, cfg.seed, step, phase=1)


def run_phase2_retrain(net: md.Network, data, cfg: PhaseConfig) -> TrainLog:
    """Retraining after pruning + residual binarisation.  Forward uses the
    binary reconstruction; latent weights receive STE gradients; level scales
    are refreshed in closed form every step; pruned positions stay zero."""
    md.require_stage(net, "binarised")
    state = nm.AdamState()

    def step(xb, yb, lr):
        pr.refresh_levels(net)
        logits, caches = md.forward_binary_train(net, xb)
        loss, dlogits = nm.softmax_xent(logits, yb)
        grads = md.backward_binary(net, caches, dlogits)
        omega, _ = l2_group_regulariser(net, cfg.lam)
        params = {f"l{i}.weights": layer.weights for i, layer in net.compute_layers()}
        _bn_params(net, params)
        nm.adam_step(params, grads, state, lr=lr)
        for _i, layer in net.compute_layers():
            layer.weights *= layer.prune_mask
        correct = int(np.sum(np.argmax(logits, axis=1) == yb))
        return loss, omega, correct

    log = _run_epochs(net, data, cfg.epochs2, cfg.batch_size, cfg.lr, cfg.seed + 1, step, phase=2)
    pr.refresh_levels(net)
    return log


def run_phase3_retrain(net: md.Network, data, cfg: PhaseConfig) -> TrainLog:
    """Post-expansion retraining: LUT coefficients and plane scales train by
    gradient through the interpolating extension; time-multiplexed layers keep
    training their latent binary weights; alpha stays at its initial value."""
    md.require_stage(net, "expanded")
    state = nm.AdamState()
    lr3 = cfg.lr * cfg.lr3_factor

    def step(xb, yb, lr):
        pr.refresh_levels(net)
        logits, caches = md.forward_lut_train(net, xb)
        loss, dlogits = nm.softmax_xent(logits, yb)
        grads = md.backward_lut(net, caches, dlogits)
        omega, _ = l2_group_regulariser(net, cfg.lam)
        params = {}
        for i, layer in net.compute_layers():
            if layer.lut is None:
                params[f"l{i}.weights"] = layer.weights
            else:
                params[f"l{i}.lut.gammas"] = layer.lut.gammas
                params[f"l{i}.lut.coeffs"] = layer.lut.coeffs
        _bn_params(net, params)
        nm.adam_step(params, grads, state, lr=lr)
        for _i, layer in net.compute_layers():
            if layer.lut is None:
                layer.weights *= layer.prune_mask
        correct = int(np.sum(np.argmax(logits, axis=1) == yb))
        return loss, omega, correct

    log = _run_epochs(net, data, cfg.epochs3, cfg.batch_size, lr3, cfg.seed + 2, step, phase=3)
    pr.refresh_levels(net)
    return log


def evaluate(net: md.Network, x, y, batch_size: int = 500) -> float:
    """Test accuracy in percent, using the stage-appropriate inference forward
    (hardened networks are scored with real thresholds and head affine)."""
    _check_labels(net, y)
    n = x.shape[0]
    correct = 0
    for start in range(0, n, batch_size):
        xb = x[start:start + batch_size]
        if net.stage in ("real", "pruned"):
            logits = md.forward_real(net, xb)
        elif net.stage == "binarised":
            logits = md.forward_binary(net, xb)
        elif net.stage == "expanded":
            logits = md.forward_lut(net, xb)
        else:
            logits = md.forward_hardened_logits(net, xb)
        correct += int(np.sum(np.argmax(logits, axis=1) == y[start:start + batch_size]))
    return 100.0 * correct / n
