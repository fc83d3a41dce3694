"""Pipeline command line: train / prune / expand / harden / simulate / emit /
area / pipeline, all driven by a config file plus flag overrides.

Exit codes: 0 success, 1 operational failure (including a failed differential
check), 2 usage errors, 3 pipeline-stage violations."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as dataio
from . import expand as ex
from . import hwgen as hw
from . import model as md
from . import prune as pr
from . import training as tr
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .errors import ConfigError, LutNetError, StageError


def _build_parser():
    p = argparse.ArgumentParser(prog="lutnet",
                                description="K-LUT network training and hardware generation")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in [
            ("train", "phase-1 high-precision training"),
            ("prune", "threshold pruning, binarisation and phase-2 retraining"),
            ("expand", "logic expansion and phase-3 retraining"),
            ("harden", "check batch norms fold to thresholds, attach fixed point"),
            ("simulate", "model-vs-netlist differential check"),
            ("emit", "write Verilog for the lowered netlist"),
            ("area", "physical LUT area report"),
            ("pipeline", "run every stage end to end"),
    ]:
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", default=None, help="config file (key=value sections)")
        sp.add_argument("--ckpt", default=None, help="input checkpoint path override")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--data", default=None, help="dataset directory override")
        sp.add_argument("--preset", default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--b", type=int, default=None)
        sp.add_argument("--theta", type=float, default=None)
        sp.add_argument("--density", type=float, default=None)
        sp.add_argument("--lambda", dest="lam", type=float, default=None)
        sp.add_argument("--epochs", default=None, help="E1,E2,E3")
        sp.add_argument("--batch", type=int, default=None)
        sp.add_argument("--lr", type=float, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--frac-bits", type=int, default=None)
        sp.add_argument("--style", default=None,
                        choices=["behavioral", "vendor-primitive"])
        sp.add_argument("--vectors", type=int, default=None)
    return p


def _config_from_args(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    simple = {"preset": "preset", "k": "k", "b": "b", "lam": "lam", "batch": "batch_size",
              "lr": "lr", "seed": "seed", "frac_bits": "frac_bits", "style": "style",
              "vectors": "vectors", "out": "out_dir", "data": "data_dir"}
    for arg_name, cfg_name in simple.items():
        value = getattr(args, arg_name)
        if value is not None:
            setattr(cfg, cfg_name, value)
    if args.theta is not None:
        cfg.theta, cfg.target_density = args.theta, None
    if args.density is not None:
        cfg.target_density, cfg.theta = args.density, None
    if args.epochs is not None:
        try:
            cfg.epochs1, cfg.epochs2, cfg.epochs3 = (int(x) for x in args.epochs.split(","))
        except ValueError as e:
            raise ConfigError(f"--epochs must be three integers E1,E2,E3, got {args.epochs!r}") from e
    cfg.validate()
    return cfg


def _phase_cfg(cfg: RunConfig) -> tr.PhaseConfig:
    return tr.PhaseConfig(epochs1=cfg.epochs1, epochs2=cfg.epochs2, epochs3=cfg.epochs3,
                          batch_size=cfg.batch_size, lr=cfg.lr, lr3_factor=cfg.lr3_factor,
                          lam=cfg.lam, seed=cfg.seed)


def _ckpt_path(cfg, stage):
    return os.path.join(cfg.out_dir, f"ckpt_{stage}.json")


def _load_stage(cfg, args, stage):
    path = args.ckpt or _ckpt_path(cfg, stage)
    if not os.path.exists(path):
        raise StageError(f"no {stage} checkpoint at {path}; run the earlier stages first")
    return load_checkpoint(path)


def _train_data(cfg):
    dataio.ensure_dataset(cfg.data_dir, cfg.n_train, cfg.n_test, seed=123)
    return dataio.load_dataset(cfg.data_dir)


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def cmd_train(cfg, args):
    xtr, ytr, xte, yte = _train_data(cfg)
    net = md.build_preset(cfg.preset, cfg.seed, cfg.b)
    log = tr.run_phase1(net, (xtr, ytr), _phase_cfg(cfg))
    save_checkpoint(Checkpoint(net, [log]), _ckpt_path(cfg, "real"))
    _write(os.path.join(cfg.out_dir, "train_log_phase1.csv"), log.to_csv())
    acc = tr.evaluate(net, xte, yte)
    print(f"train: phase 1 done, train err {log.final_err:.2f}%, test acc {acc:.2f}%")
    return 0


def _require_one_prune_setting(cfg):
    if (cfg.theta is None) == (cfg.target_density is None):
        raise ConfigError("exactly one of theta / target_density must be set")


def cmd_prune(cfg, args):
    _require_one_prune_setting(cfg)
    ckpt = _load_stage(cfg, args, "real")
    net = ckpt.net
    xtr, ytr, xte, yte = _train_data(cfg)
    if cfg.theta is not None:
        theta = cfg.theta
    else:
        theta = pr.solve_theta_for_density(net, cfg.target_density, tol=0.02)
    report = pr.prune_threshold(net, theta)
    pr.binarise_network(net)
    log = tr.run_phase2_retrain(net, (xtr, ytr), _phase_cfg(cfg))
    save_checkpoint(Checkpoint(net, ckpt.logs + [log]), _ckpt_path(cfg, "binarised"))
    _write(os.path.join(cfg.out_dir, "density.csv"), report.to_csv())
    _write(os.path.join(cfg.out_dir, "train_log_phase2.csv"), log.to_csv())
    acc = tr.evaluate(net, xte, yte)
    print(f"prune: theta={theta:.6g}, density={pr.density_of(net):.4f}, "
          f"test acc {acc:.2f}%")
    return 0


def cmd_expand(cfg, args):
    ckpt = _load_stage(cfg, args, "binarised")
    net = ckpt.net
    ex.expand_network(net, cfg.k, seed=cfg.seed)
    xtr, ytr, xte, yte = _train_data(cfg)
    log = tr.run_phase3_retrain(net, (xtr, ytr), _phase_cfg(cfg))
    save_checkpoint(Checkpoint(net, ckpt.logs + [log]), _ckpt_path(cfg, "expanded"))
    _write(os.path.join(cfg.out_dir, "train_log_phase3.csv"), log.to_csv())
    acc = tr.evaluate(net, xte, yte)
    print(f"expand: K={cfg.k}, phase 3 done, test acc {acc:.2f}%")
    return 0


def cmd_harden(cfg, args):
    ckpt = _load_stage(cfg, args, "expanded")
    net = ckpt.net
    ex.harden_network(net, frac_bits=cfg.frac_bits)
    save_checkpoint(ckpt, _ckpt_path(cfg, "hardened"))
    print(f"harden: batch norms fold, fixed point F={cfg.frac_bits}")
    return 0


def _differential(net, cfg):
    nl = hw.lower(net)
    rng = np.random.default_rng(cfg.seed + 9999)
    n_in = int(np.prod(net.input_shape))
    x = rng.choice([-1.0, 1.0], size=(cfg.vectors, n_in))
    want = hw.encode_pm1(md.forward_hardened_bits(net, x))
    got = hw.simulate(nl, hw.encode_pm1(x))
    mismatches = int(np.sum(np.any(want != got, axis=1)))
    return nl, mismatches


def cmd_simulate(cfg, args):
    ckpt = _load_stage(cfg, args, "hardened")
    _nl, mismatches = _differential(ckpt.net, cfg)
    print(f"simulate: {cfg.vectors} vectors, {mismatches} mismatching outputs")
    return 0 if mismatches == 0 else 1


def cmd_emit(cfg, args):
    ckpt = _load_stage(cfg, args, "hardened")
    nl = hw.lower(ckpt.net)
    files = hw.emit_verilog(nl, style=cfg.style)
    vdir = os.path.join(cfg.out_dir, "verilog")
    for name, text in sorted(files.items()):
        _write(os.path.join(vdir, name), text)
    print(f"emit: {len(files)} Verilog files in {vdir}")
    return 0


def cmd_area(cfg, args):
    ckpt = _load_stage(cfg, args, "hardened")
    report = hw.area_report(ckpt.net)
    _write(os.path.join(cfg.out_dir, "area.csv"), report.to_csv())
    print(report.to_table())
    return 0


def cmd_pipeline(cfg, args):
    _require_one_prune_setting(cfg)   # fail before phase 1, not after it
    for step in (cmd_train, cmd_prune, cmd_expand, cmd_harden, cmd_emit, cmd_area):
        code = step(cfg, args)
        if code:
            return code
        args.ckpt = None   # subsequent stages read the files just written
    code = cmd_simulate(cfg, args)
    if code:
        print("pipeline: differential check FAILED")
        return code
    print("pipeline: all stages complete, differential check passed")
    return 0


COMMANDS = {
    "train": cmd_train, "prune": cmd_prune, "expand": cmd_expand,
    "harden": cmd_harden, "simulate": cmd_simulate, "emit": cmd_emit,
    "area": cmd_area, "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except LutNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
