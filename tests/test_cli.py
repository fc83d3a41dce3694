import json

import pytest

from lutnet import cli
from lutnet.checkpoint import Checkpoint, save_checkpoint, to_dict

from conftest import tiny_stages


@pytest.mark.parametrize("epochs", ["1,2", "1,x,1"])
def test_malformed_epochs_is_a_usage_error(epochs, capsys):
    assert cli.main(["train", "--epochs", epochs]) == 2
    assert "--epochs" in capsys.readouterr().err


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
