"""Pipeline command line: train / prune / expand / harden / simulate / emit /
area / pipeline, all driven by a config file plus flag overrides.

COMMANDS declares each command once: the stage of the checkpoint it loads,
its function and its help; config.SETTINGS declares each setting's flag.
train, prune, expand and harden map the checkpoint they load to the one they
save; simulate, emit and area take the hardened network and its netlist.
`pipeline` calls them all on one network in memory: it loads the data set
once, lowers the hardened network once, and writes what the commands write
(ckpt_{real,binarised,expanded,hardened}.json, train_log_phase{1,2,3}.csv,
density.csv, verilog/, area.csv) but reads none of it back.

Exit codes: 0 success, 1 operational failure (including a failed differential
check and a file-system error on a given path), 2 usage errors, 3
pipeline-stage violations."""

from __future__ import annotations

import argparse
import os
import sys
import typing

import numpy as np

from . import data as dataio
from . import expand as ex
from . import hwgen as hw
from . import model as md
from . import prune as pr
from . import training as tr
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import SETTINGS, STYLES, RunConfig, parse_config
from .errors import ConfigError, LutNetError, StageError


def _build_parser():
    p = argparse.ArgumentParser(prog="lutnet",
                                description="K-LUT network training and hardware generation")
    sub = p.add_subparsers(dest="command", required=True)
    types = typing.get_type_hints(RunConfig)
    for name, (loads, _command, doc) in COMMANDS.items():
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", default=None, help="config file (key=value sections)")
        if loads is not None:
            sp.add_argument("--ckpt", default=None, help="input checkpoint path override")
        prune_by = sp.add_mutually_exclusive_group()   # a run prunes by theta or by density
        for section, key, field, flag in SETTINGS:
            if flag is not None:
                (prune_by if section == "prune" else sp).add_argument(
                    flag, dest=field, type=types[field], help=f"[{section}] {key}",
                    choices=STYLES if field == "style" else None)
        sp.add_argument("--epochs", default=None, help="E1,E2,E3")
    return p


def _config_from_args(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    for section, _key, field, flag in SETTINGS:
        if flag is not None and getattr(args, field) is not None:
            if section == "prune":   # a prune flag clears the other prune setting
                cfg.theta = cfg.target_density = None
            setattr(cfg, field, getattr(args, field))
    if args.epochs is not None:
        try:
            cfg.epochs1, cfg.epochs2, cfg.epochs3 = (int(x) for x in args.epochs.split(","))
        except ValueError as e:
            raise ConfigError(f"--epochs must be three integers E1,E2,E3, got {args.epochs!r}") from e
    cfg.validate()
    return cfg


def _ckpt_path(cfg, stage):
    return os.path.join(cfg.out_dir, f"ckpt_{stage}.json")


def _load_stage(cfg, args, stage):
    path = args.ckpt or _ckpt_path(cfg, stage)
    if not os.path.exists(path):
        raise StageError(f"no {stage} checkpoint at {path}; run the earlier stages first")
    return load_checkpoint(path)


def _train_data(cfg):
    dataio.ensure_dataset(cfg.data_dir, cfg.n_train, cfg.n_test)
    return dataio.load_dataset(cfg.data_dir)


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def _trained(cfg, net, logs, data, run_phase):
    """Train one phase of net on data, save the checkpoint of the net's stage
    and the phase's log; returns (checkpoint, log, test accuracy).  The
    test labels are checked before the phase trains, so that a bad one
    leaves no file behind."""
    xtr, ytr, xte, yte = data
    tr.check_labels(net, xte, yte)
    log = run_phase(net, (xtr, ytr), cfg)
    ckpt = Checkpoint(net, logs + [log])
    save_checkpoint(ckpt, _ckpt_path(cfg, net.stage))
    _write(os.path.join(cfg.out_dir, f"train_log_phase{log.phase}.csv"), log.to_csv())
    return ckpt, log, tr.evaluate(net, xte, yte)


# Stage functions: the checkpoint a stage starts from -> the one it saves.

def train(cfg, _ckpt, load_data):
    data = load_data()
    net = md.build_preset(cfg.preset, cfg.seed, cfg.b)
    ckpt, log, acc = _trained(cfg, net, [], data, tr.run_phase1)
    print(f"train: phase 1 done, train err {log.final_err:.2f}%, test acc {acc:.2f}%")
    return ckpt


def prune(cfg, ckpt, load_data):
    net = ckpt.net
    data = load_data()
    theta = cfg.theta
    if theta is None:
        theta = pr.solve_theta_for_density(net, cfg.target_density, tol=0.02)
    report = pr.prune_threshold(net, theta)
    pr.binarise_network(net)
    ckpt, _log, acc = _trained(cfg, net, ckpt.logs, data, tr.run_phase2_retrain)
    _write(os.path.join(cfg.out_dir, "density.csv"), report.to_csv())
    print(f"prune: theta={theta:.6g}, density={pr.density_of(net):.4f}, "
          f"test acc {acc:.2f}%")
    return ckpt


def expand(cfg, ckpt, load_data):
    ex.expand_network(ckpt.net, cfg.k, seed=cfg.seed)   # checks K before the data loads
    ckpt, _log, acc = _trained(cfg, ckpt.net, ckpt.logs, load_data(), tr.run_phase3_retrain)
    print(f"expand: K={cfg.k}, phase 3 done, test acc {acc:.2f}%")
    return ckpt


def harden(cfg, ckpt, _load_data):
    ex.harden_network(ckpt.net, frac_bits=cfg.frac_bits)
    save_checkpoint(ckpt, _ckpt_path(cfg, "hardened"))
    print(f"harden: batch norms fold, fixed point F={cfg.frac_bits}")
    return ckpt


# Hardware functions of the hardened net and its netlist -> exit code.

def simulate(cfg, net, nl):
    """Netlist against the quantised reference on cfg.vectors seeded +-1
    vectors, drawn and checked one md.INFER_BATCH block at a time, so that
    memory holds one block of vectors whatever their number.  Each block is
    2d - 1 of a 0/1 draw d, and the blocks concatenate to
    default_rng(seed + 9999).choice([-1.0, 1.0], size=(vectors, width)),
    which draws the same integers."""
    rng = np.random.default_rng(cfg.seed + 9999)
    width = int(np.prod(net.input_shape))
    mismatches = 0
    for start in range(0, cfg.vectors, md.INFER_BATCH):
        x = 2.0 * rng.integers(0, 2, size=(min(md.INFER_BATCH, cfg.vectors - start), width)) - 1.0
        want = hw.encode_pm1(md.forward_hardened_bits(net, x))
        got = hw.simulate(nl, hw.encode_pm1(x))
        mismatches += int(np.sum(np.any(want != got, axis=1)))
    print(f"simulate: {cfg.vectors} vectors, {mismatches} mismatching outputs")
    return 0 if mismatches == 0 else 1


def emit(cfg, _net, nl):
    files = hw.emit_verilog(nl, style=cfg.style)
    vdir = os.path.join(cfg.out_dir, "verilog")
    for name, text in sorted(files.items()):
        _write(os.path.join(vdir, name), text)
    print(f"emit: {len(files)} Verilog files in {vdir}")
    return 0


def area(cfg, net, _nl):
    report = hw.area_report(net)   # prices a netlist it lowers itself
    _write(os.path.join(cfg.out_dir, "area.csv"), report.to_csv())
    print(report.to_table())
    return 0


def pipeline(cfg):
    data, ckpt = _train_data(cfg), None
    for stage in (train, prune, expand):
        ckpt = stage(cfg, ckpt, lambda: data)
    del data   # frees the data set before the hardware stages
    net = harden(cfg, ckpt, None).net
    nl = hw.lower(net)
    emit(cfg, net, nl)
    area(cfg, net, nl)
    if simulate(cfg, net, nl):
        print("pipeline: differential check FAILED")
        return 1
    print("pipeline: all stages complete, differential check passed")
    return 0


# command -> (the stage of the checkpoint it starts from or None, its function, its help)
COMMANDS = {
    "train": (None, train, "phase-1 high-precision training"),
    "prune": ("real", prune, "threshold pruning, binarisation and phase-2 retraining"),
    "expand": ("binarised", expand, "logic expansion and phase-3 retraining"),
    "harden": ("expanded", harden, "check batch norms fold to thresholds, attach fixed point"),
    "simulate": ("hardened", simulate, "model-vs-netlist differential check"),
    "emit": ("hardened", emit, "write Verilog for the lowered netlist"),
    "area": ("hardened", area, "physical LUT area report"),
    "pipeline": (None, pipeline, "run every stage end to end"),
}


def _run(cfg, args):
    if args.command in ("prune", "pipeline") and \
            (cfg.theta is None) == (cfg.target_density is None):   # before phase 1 runs
        raise ConfigError("exactly one of theta / target_density must be set")
    loads, command, _doc = COMMANDS[args.command]
    if command is pipeline:
        return pipeline(cfg)
    ckpt = None if loads is None else _load_stage(cfg, args, loads)
    if loads == "hardened":
        nl = None if command is area else hw.lower(ckpt.net)   # area_report lowers its own
        return command(cfg, ckpt.net, nl)
    command(cfg, ckpt, lambda: _train_data(cfg))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(_config_from_args(args), args)
    except (LutNetError, OSError) as e:   # OSError: a given path the run cannot use
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 3 if isinstance(e, StageError) else 1


if __name__ == "__main__":
    sys.exit(main())
