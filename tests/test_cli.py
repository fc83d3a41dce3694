import configparser
import hashlib
import json
import os
import re
import tracemalloc
import typing

import numpy as np
import pytest

from lutnet import cli
from lutnet import data as dataio
from lutnet import hwgen as hw
from lutnet import model as md
from lutnet.checkpoint import Checkpoint, save_checkpoint, to_dict
from lutnet.config import SETTINGS, RunConfig, parse_config
from lutnet.errors import ConfigError

from conftest import byte_mutants, edit_array, lfc_small_stages, tiny_stages, untiled_pool_net


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


@pytest.mark.parametrize("flags, message", [
    (["--preset", "foo"], "unknown preset 'foo'"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_unknown_preset_or_negative_seed_is_a_usage_error(flags, message, tmp_path, capsys):
    assert cli.main(["train"] + _small_run(tmp_path) + flags) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("argv, make, message", [
    (["area", "--ckpt"], "mkdir", "Is a directory"),
    (["train", "--data"], "touch", "File exists"),
    (["train", "--out"], "touch", "File exists"),
], ids=["area_ckpt_directory", "train_data_file", "train_out_file"])
def test_unusable_path_is_an_operational_failure(argv, make, message, tmp_path, capsys):
    given = tmp_path / "given"
    getattr(given, make)()
    assert cli.main(argv[:1] + _small_run(tmp_path) + argv[1:] + [str(given)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


@pytest.mark.parametrize("content, message", [
    ("[data]\nn_trian = 20\n", "unknown key 'n_trian' in [data]"),
    ("[data]\nn_train = abc\n", "bad value for data.n_train: abc"),
    ("[model]\nb = 0\n", "B must be >= 1, got 0"),
    ("[prune]\ntarget_density = 1.5\n", "target density must be in (0, 1], got 1.5"),
    ("[train]\nepochs1 = 0\n", "epochs must be >= 1 in every phase"),
    ("[hw]\nstyle = foo\n", "unknown emission style 'foo'"),
], ids=["unknown_key", "not_an_integer", "b_zero", "density_past_1", "epochs1_zero",
        "unknown_style"])
def test_invalid_config_value_is_a_usage_error(content, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


TINY_HARDENED = os.path.join(os.path.dirname(__file__), "data", "tiny_hardened_v5.json")
TOY_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "toy.cfg")


@pytest.mark.parametrize("content", [
    "[DEFAULT]\nk = 6\npreset = lfc\n",
    "[DEFAULT]\nk = 6\n[model]\nb = 3\n",
    "[DEFAULT]\nn_train = 20\n[model]\nk = 4\n",
], ids=["default_alone", "default_beside_its_section", "default_beside_another_section"])
def test_a_default_key_is_a_usage_error(content, tmp_path, capsys):
    # configparser would copy each [DEFAULT] key into every section
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content)
    argv = ["area", "--ckpt", TINY_HARDENED, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_each_setting_is_declared_once():
    fields = [field for _section, _key, field, _flag in SETTINGS]
    assert sorted(fields) == sorted(typing.get_type_hints(RunConfig))
    assert len({(section, key) for section, key, *_ in SETTINGS}) == len(SETTINGS)
    flags = [flag for *_, flag in SETTINGS if flag is not None]
    assert len(set(flags)) == len(flags)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_names_each_flag_with_its_config_key(command, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for section, key, _field, flag in SETTINGS:
        if flag is not None:
            assert re.search(rf"\n  {flag} \S+\s+\[{section}\] {key}\n", out), flag
    assert ("--ckpt" in out) == (cli.COMMANDS[command][0] is not None)


def _settings_as_written(path):
    """{(section, key): raw value} of a config file read with every section
    as written, [DEFAULT] too."""
    parser = configparser.ConfigParser(default_section="\0")
    with open(path, encoding="utf-8") as f:
        parser.read_file(f)
    return {(section, key): parser.get(section, key)
            for section in parser.sections() for key in parser[section]}


BAD_VALUES = ("", "-1", "1e400", "nan", "%", "\u00e9t\u00e9")


def _config_mutants():
    """{case: bytes} of configs/toy.cfg with each header and key line
    deleted; each key given a seeded other key's value and three seeded bad
    values; a [DEFAULT] line before each line with the file cut at the next
    header, where no later section can reject the [DEFAULT] keys, and
    before a seeded sample of lines of the whole file; and seeded cuts and
    printable byte overwrites."""
    with open(TOY_CFG, "rb") as f:
        raw = f.read()
    rng = np.random.default_rng(11)
    lines = raw.decode("utf-8").splitlines(keepends=True)
    keyed = [(i, line.split("=")[0].strip()) for i, line in enumerate(lines) if "=" in line]
    values = sorted({lines[i].split("=")[1].strip() for i, _key in keyed})
    cases = {}
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith("#"):
            cases[f"delete line {i + 1}"] = lines[:i] + lines[i + 1:]
    for i, key in keyed:
        for value in [str(v) for v in rng.choice(values, 1)] + \
                [str(v) for v in rng.choice(BAD_VALUES, 3, replace=False)]:
            cases[f"{key} = {value!r}"] = lines[:i] + [f"{key} = {value}\n"] + lines[i + 1:]
    for i in range(len(lines) + 1):
        text = lines[:i] + ["[DEFAULT]\n"] + lines[i:]
        end = next((j for j in range(i + 1, len(text)) if text[j].startswith("[")), len(text))
        cases[f"[DEFAULT] before line {i + 1}, cut at the next header"] = text[:end]
    for i in rng.choice(len(lines), 6, replace=False):
        cases[f"[DEFAULT] before line {i + 1}"] = lines[:i] + ["[DEFAULT]\n"] + lines[i:]
    cases = {case: "".join(text).encode("utf-8") for case, text in cases.items()}
    return {**cases, **byte_mutants(raw, rng, 15, 15)}


def test_a_mutated_config_runs_or_is_a_usage_error_and_sets_what_it_says(tmp_path, capsys):
    path, types = tmp_path / "run.cfg", typing.get_type_hints(RunConfig)
    fields = {(section, key): field for section, key, field, _flag in SETTINGS}
    argv = ["area", "--ckpt", TINY_HARDENED, "--config", str(path), "--out", str(tmp_path / "out")]
    wrong = []
    for case, content in _config_mutants().items():
        path.write_bytes(content)
        try:
            code = cli.main(argv)
        except Exception as e:   # any exception out of main is the failure
            wrong.append(f"{case}: {e!r}")
            continue
        err = capsys.readouterr().err
        if not (code == 0 or code == 2 and err.startswith("error: ")
                and sum(line.startswith("error: ") for line in err.splitlines()) == 1):
            wrong.append(f"{case}: exit {code}, {err!r}")
        try:
            cfg = parse_config(str(path))
        except ConfigError:
            continue
        for (section, key), value in _settings_as_written(path).items():
            field = fields.get((section, key))
            if field is None:
                wrong.append(f"{case}: [{section}] {key} is no setting, yet the file parsed")
            elif str(getattr(cfg, field)) != str(types[field](value)):
                wrong.append(f"{case}: [{section}] {key} = {value!r}, the run holds "
                             f"{getattr(cfg, field)!r}")
    assert not wrong, "\n".join(wrong)


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert cli.main(["train", "--config", str(cfg), "--data", str(tmp_path / "data")]) == 2
    assert f"config file not found: {cfg}" in capsys.readouterr().err


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


def test_prune_without_a_real_checkpoint_is_a_stage_violation(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["prune", "--theta", "0", "--out", str(out)]) == 3
    assert (f"no real checkpoint at {out / 'ckpt_real.json'}; run the earlier stages first"
            in capsys.readouterr().err)


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


def test_prune_rejects_a_real_checkpoint_carrying_k_luts(tmp_path, capsys):
    # phase 2 would train the LUT coefficients in place of the latent weights
    raw = dict(to_dict(Checkpoint(dict(tiny_stages())["expanded"])), stage="real")
    path = tmp_path / "real.json"
    path.write_text(json.dumps(raw), encoding="ascii")
    out, data = tmp_path / "out", tmp_path / "data"
    argv = ["prune", "--ckpt", str(path), "--theta", "0", "--epochs", "1,1,1",
            "--out", str(out), "--data", str(data)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "l2 carries K-LUT nodes" in err
    assert not out.exists() and not data.exists()


def _bad_offsets():
    raw = to_dict(Checkpoint(tiny_stages()[-1][1]))
    lut = raw["layers"][2]["lut"]
    lut["offsets"] = edit_array(lut["offsets"], lambda o: np.array([0, 9, 7, 9], o.dtype))
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
    raw["layers"][1]["gamma"] = edit_array(raw["layers"][1]["gamma"],
                                           lambda g: np.concatenate(([1e-320], g[1:])))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="ascii")
    out = tmp_path / "out"
    assert cli.main(["harden", "--ckpt", str(bad), "--out", str(out)]) == 1
    assert "non-finite threshold" in capsys.readouterr().err
    assert not (out / "ckpt_hardened.json").exists()


def test_batch_norm_wider_than_its_layer_is_not_hardened(tiny_ckpts, tmp_path, capsys):
    # l1 follows the 4 channels of l0
    with open(tiny_ckpts["expanded"], encoding="ascii") as f:
        raw = json.load(f)
    bn = raw["layers"][1]
    bn["num_features"] = 5
    for name in ("gamma", "beta", "running_mean", "running_var"):
        bn[name] = edit_array(bn[name], lambda v: np.append(v, v[0]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="ascii")
    out = tmp_path / "out"
    assert cli.main(["harden", "--ckpt", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "batch norm l1 has 5 features, l0 has 4 channels" in err
    assert not (out / "ckpt_hardened.json").exists()


def _idx_set(root, n_images=300, n_labels=300, side=28, first_label=None, test_label=None):
    """IDX train and test files of random images and labels under root;
    first_label replaces the first label of both sets, test_label the
    fourth of the test set."""
    rng = np.random.default_rng(3)
    for images, labels in ((dataio.TRAIN_IMAGES, dataio.TRAIN_LABELS),
                           (dataio.TEST_IMAGES, dataio.TEST_LABELS)):
        dataio.save_idx_images(root / images, rng.integers(0, 256, (n_images, side, side)))
        y = rng.integers(0, 10, n_labels)
        if first_label is not None:
            y[0] = first_label
        if test_label is not None and labels == dataio.TEST_LABELS:
            y[3] = test_label
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


def test_bad_test_label_fails_before_training(tmp_path, capsys):
    data = _idx_set(tmp_path, test_label=12)
    out = tmp_path / "out"
    assert cli.main(["train", "--data", data, "--out", str(out), "--epochs", "1,1,1"]) == 1
    assert "labels must lie in [0, 10)" in capsys.readouterr().err
    assert not any(out.rglob("*"))


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


def _tree(root):
    """sha256 of every file under root, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_pipeline_equals_the_commands_one_by_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[data]\ndata_dir = {tmp_path / 'data'}\nn_train = 300\nn_test = 100\n")
    flags = ["--config", str(cfg), "--epochs", "1,1,1", "--k", "2", "--density", "0.3",
             "--vectors", "50"]
    assert cli.main(["pipeline", "--out", str(tmp_path / "pipeline")] + flags) == 0
    lines = capsys.readouterr().out.replace(str(tmp_path / "pipeline"), "OUT").splitlines()
    files, one_by_one = _tree(tmp_path / "pipeline"), {}
    steps = [("train", None), ("prune", "train/ckpt_real.json"),
             ("expand", "prune/ckpt_binarised.json"), ("harden", "expand/ckpt_expanded.json"),
             ("emit", "harden/ckpt_hardened.json"), ("area", "harden/ckpt_hardened.json"),
             ("simulate", "harden/ckpt_hardened.json")]
    for command, ckpt in steps:
        argv = [command, "--out", str(tmp_path / command)] + flags
        assert cli.main(argv + (["--ckpt", str(tmp_path / ckpt)] if ckpt else [])) == 0, command
        one_by_one.update(_tree(tmp_path / command))
        lines_now = capsys.readouterr().out.replace(str(tmp_path / command), "OUT").splitlines()
        assert lines[:len(lines_now)] == lines_now, command
        lines = lines[len(lines_now):]
    assert lines == ["pipeline: all stages complete, differential check passed"]
    assert len(files) == 12
    assert files == one_by_one


def test_pipeline_reads_no_file_back(tmp_path, monkeypatch):
    calls = []
    for module, name in ((cli, "load_checkpoint"), (dataio, "load_dataset")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    assert cli.main(["pipeline", "--density", "0.5"] + _small_run(tmp_path)) == 0
    assert calls == ["load_dataset"]


def test_failed_differential_exits_1(tiny_ckpts, tmp_path, monkeypatch, capsys):
    def one_bit_flipped(nl, bits, _simulate=hw.simulate):
        out = _simulate(nl, bits)
        out[0, 0] ^= 1
        return out
    monkeypatch.setattr(hw, "simulate", one_bit_flipped)
    argv = ["simulate", "--ckpt", tiny_ckpts["hardened"], "--vectors", "20",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "simulate: 20 vectors, 1 mismatching outputs" in capsys.readouterr().out
    assert cli.main(["pipeline", "--density", "0.5"] + _small_run(tmp_path)) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "pipeline: differential check FAILED"


@pytest.fixture(scope="module")
def lfc_small_hardened(tmp_path_factory):
    """Path of the hardened lfc_small_stages() network's checkpoint."""
    path = str(tmp_path_factory.mktemp("lfc_small") / "hardened.json")
    save_checkpoint(Checkpoint(dict(lfc_small_stages())["hardened"]), path)
    return path


def test_the_differential_checks_one_seeded_draw_block_by_block(lfc_small_hardened, tmp_path,
                                                                 monkeypatch, capsys):
    # 1,234 vectors are no multiple of INFER_BATCH: the last block is short
    seen = []

    def recorded(net, x, _forward=md.forward_hardened_bits):
        seen.append(x.copy())
        return _forward(net, x)
    monkeypatch.setattr(md, "forward_hardened_bits", recorded)
    argv = ["simulate", "--ckpt", lfc_small_hardened, "--vectors", "1234", "--seed", "5",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "simulate: 1234 vectors, 0 mismatching outputs" in capsys.readouterr().out
    assert len(seen) == 3 and all(len(x) <= md.INFER_BATCH for x in seen)
    want = np.random.default_rng(5 + 9999).choice([-1.0, 1.0], size=(1234, 784))
    assert np.array_equal(np.concatenate(seen), want)


def test_a_mismatch_in_the_last_block_exits_1(tiny_ckpts, tmp_path, monkeypatch, capsys):
    checked = []

    def last_bit_flipped(nl, bits, _simulate=hw.simulate):
        out = _simulate(nl, bits)
        checked.append(len(bits))
        if sum(checked) == 1234:
            out[-1, 0] ^= 1
        return out
    monkeypatch.setattr(hw, "simulate", last_bit_flipped)
    argv = ["simulate", "--ckpt", tiny_ckpts["hardened"], "--vectors", "1234",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert len(checked) > 1
    assert "simulate: 1234 vectors, 1 mismatching outputs" in capsys.readouterr().out


def test_the_differential_holds_one_block_of_vectors():
    # 4,000 vectors of 784 inputs: eight blocks, 25 MB as float64 all at once
    net = dict(lfc_small_stages())["hardened"]
    nl = hw.lower(net)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert cli.simulate(RunConfig(vectors=4000), net, nl) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = md.INFER_BATCH * 784 * 8
    assert peak < 5 * block, peak / block


def test_emit_rejects_a_pool_that_does_not_tile(tmp_path, capsys):
    path = str(tmp_path / "untiled.json")
    save_checkpoint(Checkpoint(untiled_pool_net()), path)
    assert cli.main(["emit", "--ckpt", path, "--out", str(tmp_path / "out")]) == 1
    assert "does not tile" in capsys.readouterr().err
