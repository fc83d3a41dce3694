"""Benchmark of the lutnet toolchain: training, hardware generation and checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from the
checkout's src/.  The workload runs in a child process (bench/worker.py) with
one BLAS thread, so that its peak RSS can be read from outside.  The run's
full record (environment, fingerprints, checks, failures, every metric) is
written to .benchrun/ and summarised on standard output.  The last line is
one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the END_TO_END metrics of metrics.py for --trace 0 and the PER_LAYER
metrics for --trace 1.  setup_s is the median of three set-ups; the other
times are per iteration and the rates are work over time, both taken over all
the iterations of the run.  A run in which an operation failed reports only
the failure metrics.  Exit status: 0 with a result, 1 if the worker failed or ran
out of time, 2 if the checkout holds no lutnet sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1          # at most nproc; one thread keeps timings steady
CHILD_TIMEOUT_S = 170.0   # a run must end within 180 s


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def _final_metrics(record):
    if record["failed"]:
        table = record.get("end_to_end") or record.get("per_layer")
        return {name: table[name] for name in table
                if name in metrics.ON_FAILURE or name.endswith(".failed")}
    if record["trace"]:
        wanted, table = [name for name, _u, _b in metrics.PER_LAYER], record["per_layer"]
    else:
        wanted, table = [name for name, _b, _bound in metrics.END_TO_END], record["end_to_end"]
    missing = [name for name in wanted if name not in table]
    if missing:
        print(f"warning: {record['workload']} does not measure {', '.join(missing)}",
              file=sys.stderr)
    return {name: table[name] for name in wanted if name in table}


def _print_report(record, path):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {int(record['trace'])}  record {path}")
    print("  why: " + record["why"])
    print("  environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    walls = ", ".join(f"{it['wall_s']:.3f}{'t' if it['traced'] else ''}"
                      for it in record["iterations"])
    print(f"  set-ups (s): {', '.join(f'{s:.3f}' for s in record['setup_s'])}")
    print(f"  iterations (s, t = traced): {walls}")
    table = record.get("end_to_end") or record.get("per_layer") or {}
    print("  metrics:")
    for name, (value, unit) in table.items():
        print(f"    {name:<40} {value!r} {unit}")
    for name, why in record.get("not_measured", {}).items():
        print(f"    {name:<40} not measured: {why}")
    if record["trace"]:
        print("  what each layer should move:")
        for layer, moves in metrics.LAYER_MOVES.items():
            print(f"    {layer:<14} {moves}")
    print("  checks: " + "  ".join(f"{k}={'ok' if v else 'FAILED'}"
                                   for k, v in record["checks"].items()))
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed, "
          f"{record['vectors_checked']} differential vectors checked")
    for f in record["failures"]:
        print(f"    {f['op']}: {f['error']} x{f['count']}: {f['message']}")
    if record.get("tracer_errors"):
        print("  traced calls that raised: " + ", ".join(
            f"{name} ({error})" for name, error in record["tracer_errors"]))
    print("  fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))


def main(argv=None):
    p = argparse.ArgumentParser(description="lutnet toolchain benchmark")
    p.add_argument("--workload", required=True, help="toy-k2, lfc-k4-train or lfc-k4-hw")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "lutnet", "__init__.py")):
        print(f"error: no lutnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".benchrun")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", path]
    # the worker's standard output goes to our standard error, so that the
    # last line of ours is the result
    child = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        print(f"error: worker exited with status {code}", file=sys.stderr)
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open(path) as f:
        record = json.load(f)
    if not record["trace"] and not record["failed"]:
        record["end_to_end"]["peak_rss_mb"] = [peak_mb, "MB"]
        with open(path, "w") as f:
            json.dump(record, f, indent=1)

    _print_report(record, os.path.relpath(path, ROOT))
    final = {name: {"value": value, "unit": unit}
             for name, (value, unit) in _final_metrics(record).items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
