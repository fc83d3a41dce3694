import json
import os

import numpy as np
import pytest

from lutnet import cli
from lutnet import data as dataio
from lutnet.checkpoint import Checkpoint, save_checkpoint, to_dict

from conftest import tiny_stages, untiled_pool_net


@pytest.mark.parametrize("epochs", ["1,2", "1,x,1"])
def test_malformed_epochs_is_a_usage_error(epochs, capsys):
    assert cli.main(["train", "--epochs", epochs]) == 2
    assert "--epochs" in capsys.readouterr().err


@pytest.mark.parametrize("argv, sizes, message", [
    (["train", "--batch", "0"], {}, "batch_size must be >= 1, got 0"),
    (["train"], {"n_train": 0}, "n_train must be >= 1, got 0"),
    (["train"], {"n_test": 0}, "n_test must be >= 1, got 0"),
    (["simulate", "--vectors", "0"], {}, "vectors must be >= 1, got 0"),
    (["simulate", "--vectors", "-3"], {}, "vectors must be >= 1, got -3"),
])
def test_zero_sized_run_is_a_usage_error(argv, sizes, message, tmp_path, capsys):
    data = {"data_dir": tmp_path / "data", "n_train": 20, "n_test": 10, **sizes}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[data]\n" + "".join(f"{k} = {v}\n" for k, v in data.items()))
    argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out"), "--epochs", "1,1,1"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def _exit_code(argv):
    """cli.main's exit code, also where argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def _small_run(tmp_path, extra=""):
    """argv tail of a config for a 20-sample toy run under tmp_path."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[data]\ndata_dir = {tmp_path / 'data'}\nn_train = 20\nn_test = 10\n{extra}")
    return ["--config", str(cfg), "--out", str(tmp_path / "out"), "--epochs", "1,1,1",
            "--vectors", "10"]


@pytest.mark.parametrize("argv, extra, message", [
    (["prune", "--theta", "nan"], "", "theta must be finite and >= 0, got nan"),
    (["prune", "--theta", "inf"], "", "theta must be finite and >= 0, got inf"),
    (["train", "--lr", "-1"], "", "lr must be finite and > 0, got -1.0"),
    (["train", "--lr", "0"], "", "lr must be finite and > 0, got 0.0"),
    (["train", "--lr", "nan"], "", "lr must be finite and > 0, got nan"),
    (["train"], "[train]\nlr3_factor = -1\n", "lr3_factor must be finite and > 0, got -1.0"),
    (["train", "--lambda", "nan"], "", "lambda must be finite and >= 0, got nan"),
    (["train", "--lambda", "inf"], "", "lambda must be finite and >= 0, got inf"),
])
def test_non_finite_or_non_positive_number_is_a_usage_error(argv, extra, message, tmp_path,
                                                             capsys):
    assert cli.main(argv + _small_run(tmp_path, extra)) == 2
    assert message in capsys.readouterr().err


def test_theta_and_density_together_are_a_usage_error(tmp_path, capsys):
    argv = ["pipeline", "--theta", "0.1", "--density", "0.5"] + _small_run(tmp_path)
    assert _exit_code(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_commands_that_load_no_checkpoint_reject_ckpt(command, tmp_path, capsys):
    argv = [command, "--ckpt", "x", "--density", "0.5"] + _small_run(tmp_path)
    assert _exit_code(argv) == 2
    assert "unrecognized arguments: --ckpt x" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"[data]\nn_train = 20\nn_train = 30\n", "option 'n_train' in section 'data' already exists"),
    (b"n_train = 20\n[data]\nn_test = 10\n", "no section headers"),
    (b"[data]\nn_train = 20\n# \xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"[data]\nn_train = 20\n[modle]\nk = 9\n", "unknown section [modle]"),
    (b"[data]\nn_train = 2%0\n", "bad value for data.n_train: '%' must be followed by"),
    (None, "Is a directory"),
], ids=["duplicate_key", "no_section_header", "not_utf8", "unknown_section",
        "bad_interpolation", "directory"])
def test_malformed_config_is_a_usage_error(content, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "out"), "--epochs", "1,1,1"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def tiny_ckpts(tmp_path):
    """{stage: path} of the tiny network's checkpoints, written in tmp_path."""
    paths = {}
    for stage, net in tiny_stages():
        paths[stage] = str(tmp_path / f"{stage}.json")
        save_checkpoint(Checkpoint(net), paths[stage])
    return paths


@pytest.mark.parametrize("argv", [
    ["harden", "--ckpt", "expanded"],
    ["simulate", "--vectors", "50", "--ckpt", "hardened"],
    ["emit", "--ckpt", "hardened"],
    ["area", "--ckpt", "hardened"],
])
def test_hardware_commands_run_without_prune_settings(argv, tiny_ckpts, tmp_path):
    argv = [tiny_ckpts.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0


def test_prune_without_a_setting_is_a_usage_error(tiny_ckpts, tmp_path, capsys):
    assert cli.main(["prune", "--ckpt", tiny_ckpts["real"], "--out", str(tmp_path)]) == 2
    assert "theta / target_density" in capsys.readouterr().err


def test_expand_past_the_fabric_lut_is_a_usage_error(tiny_ckpts, tmp_path, capsys):
    argv = ["expand", "--k", "7", "--ckpt", tiny_ckpts["binarised"], "--out", str(tmp_path),
            "--data", str(tmp_path / "data")]
    assert cli.main(argv) == 2
    assert "K must be in [1, 6], got 7" in capsys.readouterr().err


def test_expand_checks_k_before_it_loads_the_data(tiny_ckpts, tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["expand", "--k", "5", "--ckpt", tiny_ckpts["binarised"], "--out", str(tmp_path),
            "--data", str(data)]
    assert cli.main(argv) == 1
    assert "cannot feed a 5-LUT" in capsys.readouterr().err
    assert not data.exists()


def _bad_offsets():
    raw = to_dict(Checkpoint(tiny_stages()[-1][1]))
    raw["layers"][2]["lut"]["offsets"] = [0, 9, 7, 9]
    return json.dumps(raw).encode("ascii")


@pytest.mark.parametrize("content, message", [
    (_bad_offsets, "offsets"),
    (lambda: b'{"schema_version":', "corrupt"),
    (lambda: b"\xff\xfe{}", "corrupt"),
])
def test_malformed_checkpoint_is_an_operational_failure(content, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content())
    assert cli.main(["area", "--ckpt", str(bad), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_invalid_batch_norm_is_an_operational_failure(tiny_ckpts, tmp_path, capsys):
    # harden would fold this eps into NaN thresholds
    with open(tiny_ckpts["expanded"], encoding="ascii") as f:
        raw = json.load(f)
    raw["layers"][1]["eps"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="ascii")
    assert cli.main(["harden", "--ckpt", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "eps must be finite and positive" in capsys.readouterr().err


def test_infinite_threshold_is_an_operational_failure(tiny_ckpts, tmp_path, capsys):
    # beta * sigma / gamma overflows, so this batch norm folds to an infinite tau
    with open(tiny_ckpts["expanded"], encoding="ascii") as f:
        raw = json.load(f)
    raw["layers"][1]["gamma"][0] = 1e-320
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="ascii")
    out = tmp_path / "out"
    assert cli.main(["harden", "--ckpt", str(bad), "--out", str(out)]) == 1
    assert "non-finite threshold" in capsys.readouterr().err
    assert not (out / "ckpt_hardened.json").exists()


def _idx_set(root, n_images=300, n_labels=300, side=28, first_label=None):
    """IDX train and test files of random images and labels under root."""
    rng = np.random.default_rng(3)
    for images, labels in ((dataio.TRAIN_IMAGES, dataio.TRAIN_LABELS),
                           (dataio.TEST_IMAGES, dataio.TEST_LABELS)):
        dataio.save_idx_images(root / images, rng.integers(0, 256, (n_images, side, side)))
        y = rng.integers(0, 10, n_labels)
        if first_label is not None:
            y[0] = first_label
        dataio.save_idx_labels(root / labels, y)
    return str(root)


@pytest.mark.parametrize("malformed, message", [
    (dict(n_labels=200), "200 labels"),
    (dict(first_label=200), "labels must lie in [0, 10)"),
    (dict(side=10), "got 100"),
    (dict(n_images=0, n_labels=0), "holds no images"),
])
def test_malformed_dataset_is_an_operational_failure(malformed, message, tmp_path, capsys):
    data = _idx_set(tmp_path, **malformed)
    argv = ["train", "--data", data, "--out", str(tmp_path / "out"), "--epochs", "1,1,1"]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def test_pipeline_runs_end_to_end(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[data]\ndata_dir = {tmp_path / 'data'}\nn_train = 300\nn_test = 100\n"
                   f"[io]\nout_dir = {tmp_path / 'out'}\n")
    argv = ["pipeline", "--config", str(cfg), "--epochs", "1,1,1", "--k", "2",
            "--density", "0.3", "--vectors", "50"]
    assert cli.main(argv) == 0
    out = tmp_path / "out"
    for name in ["ckpt_real.json", "ckpt_binarised.json", "ckpt_expanded.json",
                 "ckpt_hardened.json", "area.csv", "density.csv",
                 "train_log_phase1.csv", "train_log_phase2.csv", "train_log_phase3.csv"]:
        assert (out / name).is_file(), name
    assert sorted(os.listdir(out / "verilog")) == ["lfc_small_l0.v", "lfc_small_l2.v",
                                                   "lfc_small_top.v"]


def test_emit_rejects_a_pool_that_does_not_tile(tmp_path, capsys):
    path = str(tmp_path / "untiled.json")
    save_checkpoint(Checkpoint(untiled_pool_net()), path)
    assert cli.main(["emit", "--ckpt", path, "--out", str(tmp_path / "out")]) == 1
    assert "does not tile" in capsys.readouterr().err
