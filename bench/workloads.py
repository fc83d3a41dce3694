"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, copies whatever an
iteration mutates in `prepare` (untimed), runs the timed operations in `run`,
derives exact fingerprints and correctness checks from the outputs in
`inspect` (untimed), and turns the iterations of a run into its own
end-to-end metrics in `end_to_end`.  Every library call goes through a module
attribute (`tr.run_phase1`, `hw.lower`, ...) so that the tracer's wrappers
see it.
"""

from __future__ import annotations

import copy
import hashlib
import os

import numpy as np

from lutnet import checkpoint as ck
from lutnet import data as dataio
from lutnet import expand as ex
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet import prune as pr
from lutnet import training as tr

B_LEVELS = 2
FRAC_BITS = 8
BATCH = 100


def _file_facts(path):
    with open(path, "rb") as f:
        raw = f.read()
    return len(raw), hashlib.sha256(raw).hexdigest()


def _verilog_facts(files):
    h = hashlib.sha256()
    size = 0
    for name in sorted(files):
        raw = files[name].encode("ascii")
        h.update(name.encode("ascii") + b"\0" + raw + b"\0")
        size += len(raw)
    return {"files": len(files), "bytes": size, "sha256": h.hexdigest()}


def _cell_counts(nl):
    counts = {"lut": 0, "add": 0, "threshold": 0}
    for cell in nl.cells:
        if isinstance(cell, hw.LutCell):
            counts["lut"] += 1
        elif isinstance(cell, hw.AddCell):
            counts["add"] += 1
        else:
            counts["threshold"] += 1
    return counts


def _area_rows(report):
    return [{"layer": r["layer"], "logical": r["logical"], "inference": r["inference"],
             "popcount": r["popcount"], "other": r["other"], "total": r["total"],
             "keff_hist": {str(k): v for k, v in sorted(r["keff_hist"].items())}}
            for r in report.rows]


def _verilog_tables_match(nl, files):
    """Every LUT table in the emitted Verilog equals the netlist cell's table."""
    tables = {}
    for text in files.values():
        tables.update(hw.parse_tables(text))
    for cell in nl.cells:
        if isinstance(cell, hw.LutCell) and len(cell.inputs) > 0:
            name = nl.nets[cell.out].name
            if name not in tables or not np.array_equal(tables[name], cell.table):
                return False
    return True


def _pm1_vectors(seed, n, width):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9999,)))
    return rng.choice([-1.0, 1.0], size=(n, width))


def _hardware_path(ops, net, path, vectors, done, test=None):
    """harden -> save/load -> [hardened test accuracy] -> lower -> differential
    -> emit -> area, as operations.  done lists the operations every step here
    depends on; the accuracy is measured only when a test set is given."""
    ops.run("expand.harden_network", ex.harden_network, net, frac_bits=FRAC_BITS, needs=done)
    done = done + ["expand.harden_network"]
    ops.run("checkpoint.save_checkpoint", ck.save_checkpoint, ck.Checkpoint(net), path,
            needs=done)
    done = done + ["checkpoint.save_checkpoint"]
    loaded = ops.run("checkpoint.load_checkpoint", ck.load_checkpoint, path, needs=done)
    done = done + ["checkpoint.load_checkpoint"]
    hnet = loaded.net if loaded is not None else None
    acc = None
    if test is not None:
        acc = ops.run("training.evaluate", tr.evaluate, hnet, *test, needs=done)
    nl = ops.run("hwgen.lower", hw.lower, hnet, needs=done)
    ref = ops.run("model.forward_hardened_bits", md.forward_hardened_bits, hnet, vectors,
                  needs=done)
    got = ops.run("hwgen.simulate", hw.simulate, nl, hw.encode_pm1(vectors),
                  needs=done + ["hwgen.lower"])
    mismatches = ops.run("bench.compare", _count_mismatches, ref, got,
                         needs=["model.forward_hardened_bits", "hwgen.simulate"])
    files = ops.run("hwgen.emit_verilog", hw.emit_verilog, nl, needs=done + ["hwgen.lower"])
    report = ops.run("hwgen.area_report", hw.area_report, hnet, needs=done)
    return {"acc": acc, "netlist": nl, "mismatches": mismatches, "files": files,
            "area": report, "vectors": vectors.shape[0]}


def _count_mismatches(ref, got):
    return int(np.sum(np.any(hw.encode_pm1(ref) != got, axis=1)))


def _hardware_facts(hwout, path, deep):
    """Fingerprint and checks of the hardware outputs that exist."""
    facts, checks = {}, {}
    if os.path.exists(path):
        facts["checkpoint_bytes"], facts["checkpoint_sha256"] = _file_facts(path)
        os.remove(path)   # so that the next iteration cannot read a stale file
    if hwout["netlist"] is not None:
        facts["cells"] = _cell_counts(hwout["netlist"])
    if hwout["files"] is not None:
        facts["verilog"] = _verilog_facts(hwout["files"])
    if hwout["area"] is not None:
        facts["area_rows"] = _area_rows(hwout["area"])
        facts["area_luts"] = hwout["area"].totals()["total"]
    checks["differential"] = hwout["mismatches"] == 0
    if deep:
        checks["verilog_tables"] = (hwout["netlist"] is not None and hwout["files"] is not None
                                    and _verilog_tables_match(hwout["netlist"], hwout["files"]))
    return facts, checks


def _seconds(results, *ops):
    """Seconds spent in the named operations over every iteration of a run.

    Times and rates are taken over the whole run, not as the median of its
    few iterations: on a shared machine whose speed changes from second to
    second, the total is the steadier figure; medians belong across runs."""
    return sum(r.seconds[op] for r in results for op in ops)


def _hardware_e2e(results, vectors):
    """hw_build_s, verify_vectors_per_s, area_luts and verilog_mb."""
    n = len(results)
    build = _seconds(results, "expand.harden_network", "hwgen.lower", "hwgen.emit_verilog",
                     "hwgen.area_report")
    verify = _seconds(results, "model.forward_hardened_bits", "hwgen.simulate",
                      "bench.compare")
    fp = results[0].fingerprint
    return {
        "hw_build_s": build / n,
        "verify_vectors_per_s": n * vectors / verify,
        "area_luts": fp["area_luts"],
        "verilog_mb": fp["verilog"]["bytes"] / 1e6,
    }


class ToyK2:
    """lfc-small (784-64-10) on the bundled toy digits, K=2, through the same
    library calls as `lutnet pipeline` with one epoch per phase."""

    name = "toy-k2"
    why = ("only workload on real data, so the only one with accuracy: lfc-small K=2 through "
           "every pipeline stage; mostly phase-1/2 dense training and lowering a "
           "time-multiplexed layer")
    N_TRAIN, N_TEST, VECTORS = 10000, 2000, 2000
    K, DENSITY = 2, 0.3
    NOT_MEASURED = {}

    def setup(self, seed, workdir):
        data_dir = os.path.join(workdir, "toy")
        dataio.generate_toy_dataset(data_dir, self.N_TRAIN, self.N_TEST, seed=seed)
        xtr, ytr, xte, yte = dataio.load_dataset(data_dir)
        return {"seed": seed, "train": (xtr, ytr), "test": (xte, yte),
                "vectors": _pm1_vectors(seed, self.VECTORS, xtr.shape[1]),
                "path": os.path.join(workdir, "toy_hardened.json")}

    def prepare(self, state):
        return None

    def run(self, state, _prepared, ops):
        seed = state["seed"]
        cfg = tr.PhaseConfig(epochs1=1, epochs2=1, epochs3=1, batch_size=BATCH, lr=0.002,
                             lr3_factor=0.1, lam=5e-7, seed=seed)
        done = []

        def step(name, fn, *args, **kwargs):
            result = ops.run(name, fn, *args, needs=list(done), **kwargs)
            done.append(name)
            return result

        net = step("model.build_preset", md.build_preset, "lfc-small", seed, B_LEVELS)
        logs = [step("training.run_phase1", tr.run_phase1, net, state["train"], cfg)]
        theta = step("prune.solve_theta_for_density", pr.solve_theta_for_density, net,
                     self.DENSITY, tol=0.02)
        step("prune.prune_threshold", pr.prune_threshold, net, theta)
        step("prune.binarise_network", pr.binarise_network, net)
        logs.append(step("training.run_phase2", tr.run_phase2_retrain, net, state["train"], cfg))
        step("expand.expand_network", ex.expand_network, net, self.K, seed=seed)
        logs.append(step("training.run_phase3", tr.run_phase3_retrain, net, state["train"], cfg))
        hwout = _hardware_path(ops, net, state["path"], state["vectors"], done, state["test"])
        return {"logs": logs, "hw": hwout}

    def inspect(self, state, out, deep):
        facts, checks = _hardware_facts(out["hw"], state["path"], deep)
        losses = [None if lg is None else lg.rows[-1][1] for lg in out["logs"]]
        facts["final_loss"] = losses
        acc = out["hw"]["acc"]
        facts["acc_hw_pct"] = acc
        checks["losses_finite"] = all(v is not None and np.isfinite(v) for v in losses)
        # ten classes: a pipeline that learned nothing scores about 10 %
        checks["acc_above_chance"] = acc is not None and acc >= 50.0
        return facts, checks

    def end_to_end(self, results):
        e2e = {}
        for phase in (1, 2, 3):
            t = _seconds(results, f"training.run_phase{phase}")
            e2e[f"phase{phase}_samples_per_s"] = len(results) * self.N_TRAIN / t
        e2e.update(_hardware_e2e(results, self.VECTORS))
        e2e["acc_hw_pct"] = results[0].fingerprint["acc_hw_pct"]
        return e2e


def _lfc_k4(seed):
    """lfc with a seeded Glorot init, unrolled layers pruned to density 0.1,
    binarised with B=2 and expanded at K=4."""
    net = md.build_preset("lfc", seed, B_LEVELS)
    theta = pr.solve_theta_for_density(net, 0.1, tol=0.02)
    pr.prune_threshold(net, theta)
    pr.binarise_network(net)
    ex.expand_network(net, 4, seed=seed)
    return net


def _lut_bytes(net):
    h = hashlib.sha256()
    for _i, layer in net.compute_layers():
        if layer.lut is not None:
            h.update(layer.lut.gammas.tobytes())
            for ch in layer.lut.channels:
                h.update(ch.coeffs.tobytes())
    return h.hexdigest()


class LfcK4Train:
    """Phase-3 retraining of the K=4 lfc net on seeded +-1 inputs."""

    name = "lfc-k4-train"
    why = ("the paper's K=4 LUT training at full lfc width (19,917 nodes): nearly all "
           "backward_lut, interp_dx_partial and per-channel Adam; no hardware path")
    SAMPLES = BATCH   # one optimisation step per iteration
    NOT_MEASURED = dict(
        {m: "the timed part is phase 3 only" for m in
         ("phase1_samples_per_s", "phase2_samples_per_s")},
        **{m: "no hardware path in this workload" for m in
           ("hw_build_s", "verify_vectors_per_s", "area_luts", "verilog_mb")},
        acc_hw_pct="random labels and no hardened net: there is no accuracy to report")

    def setup(self, seed, workdir):
        net = _lfc_k4(seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        x = rng.choice([-1.0, 1.0], size=(self.SAMPLES, 784))
        y = rng.integers(0, 10, size=self.SAMPLES)
        return {"seed": seed, "net": net, "data": (x, y), "initial": _lut_bytes(net)}

    def prepare(self, state):
        return copy.deepcopy(state["net"])

    def run(self, state, net, ops):
        cfg = tr.PhaseConfig(epochs3=1, batch_size=BATCH, lr=0.002, lr3_factor=0.1,
                             lam=5e-7, seed=state["seed"])
        log = ops.run("training.run_phase3", tr.run_phase3_retrain, net, state["data"], cfg)
        return {"log": log, "net": net}

    def inspect(self, state, out, deep):
        log = out["log"]
        loss = None if log is None else log.rows[-1][1]
        trained = _lut_bytes(out["net"])
        facts = {"final_loss": [loss], "lut_sha256": trained,
                 "nodes": sum(ch.n_nodes for _i, layer in out["net"].compute_layers()
                              if layer.lut is not None for ch in layer.lut.channels)}
        checks = {"losses_finite": loss is not None and bool(np.isfinite(loss)),
                  "coefficients_trained": log is not None and trained != state["initial"]}
        return facts, checks

    def end_to_end(self, results):
        t = _seconds(results, "training.run_phase3")
        return {"phase3_samples_per_s": len(results) * self.SAMPLES / t}


class LfcK4Hw:
    """The hardware path of the K=4 lfc net at paper scale."""

    name = "lfc-k4-hw"
    why = ("the hardware path at paper scale: lower and emit build the netlist, simulate "
           "reads it, and the packer gets ~20k inference LUTs; fails in lower and area "
           "until detect_dont_cares is fixed")
    VECTORS = 500
    NOT_MEASURED = dict(
        {m: "no training in this workload" for m in
         ("phase1_samples_per_s", "phase2_samples_per_s", "phase3_samples_per_s")},
        acc_hw_pct="synthetic inputs and untrained weights: accuracy means nothing")

    def setup(self, seed, workdir):
        net = _lfc_k4(seed)
        # perturbed coefficients, so that the hardened tables are not trivial
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        for _i, layer in net.compute_layers():
            if layer.lut is not None:
                for ch in layer.lut.channels:
                    ch.coeffs += rng.normal(0.0, 0.05, size=ch.coeffs.shape)
        return {"seed": seed, "net": net, "vectors": _pm1_vectors(seed, self.VECTORS, 784),
                "path": os.path.join(workdir, "lfc_k4_hardened.json")}

    def prepare(self, state):
        return copy.deepcopy(state["net"])

    def run(self, state, net, ops):
        return {"hw": _hardware_path(ops, net, state["path"], state["vectors"], [])}

    def inspect(self, state, out, deep):
        return _hardware_facts(out["hw"], state["path"], deep)

    def end_to_end(self, results):
        return _hardware_e2e(results, self.VECTORS)


WORKLOADS = {w.name: w for w in (ToyK2(), LfcK4Train(), LfcK4Hw())}
