"""Time one phase-3 epoch of lfc at K=4 and density 0.1 on the toy digit set.

    PYTHONPATH=src python experiments/phase3_epoch.py [--samples 10000]

The net is built as the benchmark's lfc-k4 net is: the lfc preset pruned
to density 0.1, binarised with B=2 and expanded at K=4 (phase 1 is not run,
and an epoch's cost does not depend on the weights' values).  It retrains
for one epoch on --samples digits of the toy set, written to a temporary
directory, with the seed, batch size and rates of configs/toy.cfg.
Before the epoch, one cold step is timed as the benchmark's lfc-k4-train
iteration times it: one batch on a copy of the net with a fresh optimiser.
The script prints the cold step's time and minor page faults, then the
epoch's wall time, samples per second, the process's peak RSS (ru_maxrss)
and the minor page faults per optimisation step, each as
`name value unit`.  Set OPENBLAS_NUM_THREADS=1 to compare with the
benchmark, which runs one BLAS thread.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import math
import os
import resource
import tempfile
import time

from lutnet import config
from lutnet import data
from lutnet import expand as ex
from lutnet import model as md
from lutnet import prune as pr
from lutnet import training as tr

TOY_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                          "toy.cfg")


def lfc_k4(seed):
    """The lfc preset pruned to density 0.1, binarised and expanded at K=4."""
    net = md.build_preset("lfc", seed, 2)
    pr.prune_threshold(net, pr.solve_theta_for_density(net, 0.1, tol=0.02))
    pr.binarise_network(net)
    ex.expand_network(net, 4, seed=seed)
    return net


def _timed(fn, *args):
    """(seconds, minor page faults) of fn(*args)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10000)
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    cfg = dataclasses.replace(config.parse_config(TOY_CONFIG), epochs3=1)
    with tempfile.TemporaryDirectory() as tmp:
        data.generate_toy_dataset(tmp, n_train=args.samples, n_test=1)
        x, y, _x_test, _y_test = data.load_dataset(tmp)
    net = lfc_k4(cfg.seed)
    steps = math.ceil(args.samples / cfg.batch_size)
    batch = (x[:cfg.batch_size], y[:cfg.batch_size])
    cold_seconds, cold_faults = _timed(tr.run_phase3_retrain, copy.deepcopy(net), batch, cfg)
    seconds, faults = _timed(tr.run_phase3_retrain, net, (x, y), cfg)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"phase3_epoch: lfc K=4 density 0.1, {args.samples} toy samples, "
          f"batch {cfg.batch_size}, {steps} steps")
    print(f"cold_step_ms {cold_seconds * 1e3:.1f} ms")
    print(f"cold_step_faults {cold_faults} faults")
    print(f"seconds {seconds:.3f} s")
    print(f"samples_per_s {args.samples / seconds:.1f} samples/s")
    print(f"ru_maxrss_mb {usage.ru_maxrss / 1024:.1f} MB")   # Linux reports KiB
    print(f"minor_faults_per_step {faults / steps:.0f} faults")


if __name__ == "__main__":
    main()
