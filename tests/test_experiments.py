"""Smoke tests of the scripts under experiments/."""

import importlib.util
import os

EXPERIMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "experiments")


def _script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(EXPERIMENTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase3_epoch_reports_its_epoch(capsys):
    _script("phase3_epoch").main(["--samples", "250"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "phase3_epoch: lfc K=4 density 0.1, 250 toy samples, batch 100, 3 steps"
    report = {name: (float(value), unit) for name, value, unit in
              (line.split(" ", 2) for line in lines[1:])}
    assert list(report) == ["cold_step_ms", "cold_step_faults", "seconds", "samples_per_s",
                            "ru_maxrss_mb", "minor_faults_per_step"]
    assert [unit for _value, unit in report.values()] == ["ms", "faults", "s", "samples/s", "MB",
                                                          "faults"]
    assert min(value for value, _unit in report.values()) >= 0
    assert report["cold_step_ms"][0] > 0 and report["seconds"][0] > 0
