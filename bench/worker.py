"""One benchmark run in its own process: set-up, timed iterations, checks.

Started by run.py, which measures this process's peak RSS from outside and
prints the result.  Usage:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

import lutnet
import metrics
from ops import DEPENDENCY, Ops
from tracing import ITERATION, SETUP, Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_SETUPS = 3
# No iteration starts after this many seconds of the process's life, so that a
# run ends well inside the three minutes it is allowed.
LAST_START_S = 120.0


@dataclass
class Iteration:
    wall_s: float
    traced: bool
    seconds: dict
    attempted: int
    failures: list
    fingerprint: dict
    checks: dict
    vectors: int = 0      # differential vectors attempted
    checked: int = 0      # of which reference and netlist were compared
    mismatched: int = 0   # of which disagreed or could not be compared


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree, read without running git
    (git would search the parent directories)."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return "unknown"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "processes": 1,
        "seed": seed,
        "git_commit": _git_commit(ROOT),
    }


def _iterate(workload, state, tracer, traced, deep):
    prepared = workload.prepare(state)
    ops = Ops()
    start = time.perf_counter()
    if traced:
        tracer.section = ITERATION
        out = tracer.span("bench.iteration", workload.run, state, prepared, ops)
    else:
        out = workload.run(state, prepared, ops)
    wall = time.perf_counter() - start
    fingerprint, checks = workload.inspect(state, out, deep)
    hwout = out.get("hw")
    it = Iteration(wall, traced, ops.seconds, ops.attempted, ops.failures, fingerprint, checks)
    if hwout is not None:
        it.vectors = hwout["vectors"]
        if hwout["mismatches"] is not None:
            it.checked = it.vectors
            it.mismatched = hwout["mismatches"]
        else:
            it.mismatched = it.vectors
    return it


def measure(workload, seed, seconds, trace, workdir):
    tracer = Tracer()
    process_start = time.perf_counter()
    restore = tracer.install() if trace else None
    setup_s = []
    state = None
    for _ in range(N_SETUPS):
        state = None   # release the previous set-up before building the next
        tracer.section = SETUP
        start = time.perf_counter()
        if trace:
            state = tracer.span("bench.setup", workload.setup, seed, workdir)
        else:
            state = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)
    if trace:
        restore()

    iterations = []
    timed_start = time.perf_counter()
    while True:
        # A traced run starts traced, so that the RSS high-water mark after each
        # stage shows how memory grows, then alternates untraced and traced
        # iterations to measure the tracing overhead on the same inputs.
        traced = trace and len(iterations) % 2 == 0
        if traced:
            restore = tracer.install()
        try:
            iterations.append(_iterate(workload, state, tracer, traced, not iterations))
        finally:
            if traced:
                restore()
        now = time.perf_counter()
        needed = 3 if trace else 1
        enough = now - timed_start >= seconds and len(iterations) >= needed
        if enough or (now - process_start > LAST_START_S and len(iterations) >= needed):
            break
    return tracer, setup_s, iterations


def summarise(workload, seed, seconds, trace, tracer, setup_s, iterations):
    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    vectors = sum(it.vectors for it in iterations)
    mismatched = sum(it.mismatched for it in iterations)
    prints = [json.dumps(it.fingerprint, sort_keys=True) for it in iterations]
    checks = dict(iterations[0].checks)
    for it in iterations[1:]:
        for name, ok in it.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["repeatable"] = all(p == prints[0] for p in prints)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "setup_s": setup_s,
        "iterations": [{"wall_s": it.wall_s, "traced": it.traced, "ops_s": it.seconds}
                       for it in iterations],
        "attempted": attempted,
        "failed": len(failures),
        "failures": _distinct(failures),
        "checks": checks,
        "correct": all(checks.values()),
        "fingerprint": iterations[0].fingerprint,
    }
    if trace:
        traced = [it for it in iterations if it.traced]
        plain = [it for it in iterations if not it.traced]
        # the first iteration also warms the process up, so it is left out
        overhead = median(it.wall_s for it in traced[1:]) - median(it.wall_s for it in plain)
        # failures the tracer did not see: operations never called, and
        # operations that are not traced functions
        skipped = [f["op"] for it in traced for f in it.failures
                   if f["error"] == DEPENDENCY or f["op"] not in tracer.layer_of]
        layer = metrics.per_layer(tracer, len(setup_s), len(traced), record["fingerprint"],
                                  traced[0].vectors, skipped, overhead)
        if failures:
            layer = {k: v for k, v in layer.items() if k.endswith(".failed")}
        record["per_layer"] = layer
        record["tracer_errors"] = sorted(set(tracer.errors))
    else:
        if failures:
            e2e = {}
        else:
            # set-ups are few and alike, so their median; iterations over
            # their total, like the other times (see workloads._seconds)
            e2e = {"setup_s": median(setup_s),
                   "wall_s": sum(it.wall_s for it in iterations) / len(iterations)}
            e2e.update(workload.end_to_end(iterations))
        e2e["mismatch_frac"] = mismatched / vectors if vectors else 0.0
        e2e["failed_frac"] = len(failures) / attempted
        record["end_to_end"] = {name: (e2e[name], metrics.REPORTED[name])
                                for name in metrics.REPORTED if name in e2e}
        record["not_measured"] = {
            name: workload.NOT_MEASURED.get(name, "an operation failed")
            for name in metrics.REPORTED if name not in e2e and name != "peak_rss_mb"}
    record["vectors_checked"] = sum(it.checked for it in iterations)
    return record


def _distinct(failures):
    """Failures grouped by (operation, exception type) with a count."""
    grouped = {}
    for f in failures:
        key = (f["op"], f["error"])
        if key not in grouped:
            grouped[key] = dict(f, count=0)
        grouped[key]["count"] += 1
    return list(grouped.values())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(lutnet.__file__).startswith(src):
        raise SystemExit(f"lutnet was imported from {lutnet.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".benchrun", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer, setup_s, iterations = measure(workload, args.seed, args.seconds,
                                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = summarise(workload, args.seed, args.seconds, bool(args.trace), tracer,
                       setup_s, iterations)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
