"""Run configuration: config files with flag overrides.  SETTINGS is the
one declaration of each setting, its [section] key, RunConfig field and
flag; the field's annotation is its type.  parse_config reads a file by
it, and cli adds and applies the flags from it."""

from __future__ import annotations

import configparser
import math
import numbers
import typing
from dataclasses import dataclass

from .errors import ConfigError

FABRIC_K = 6   # inputs of the fabric's LUT: the widest node K a network may have
PRESETS = ("lfc-small", "lfc", "cnv")   # the architectures model.build_preset builds
STYLES = ("behavioral", "vendor-primitive")   # the Verilog hwgen.emit_verilog writes


@dataclass
class RunConfig:
    preset: str = "lfc-small"
    data_dir: str = "data/toy"
    out_dir: str = "out"
    n_train: int = 10000
    n_test: int = 2000

    k: int = 2
    b: int = 2
    theta: float = None
    target_density: float = None

    epochs1: int = 200
    epochs2: int = 50
    epochs3: int = 200
    batch_size: int = 100
    lr: float = 1e-3
    lr3_factor: float = 0.1     # binarised-forward training wants lower rates
    lam: float = 5e-7           # sparsification regulariser factor
    seed: int = 0

    frac_bits: int = 8
    style: str = "behavioral"
    vectors: int = 10000

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {', '.join(PRESETS)}")
        if self.seed < 0:   # numpy seeds its generators from non-negative integers only
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.k <= FABRIC_K:
            raise ConfigError(f"K must be in [1, {FABRIC_K}], got {self.k}")
        if self.b < 1:
            raise ConfigError(f"B must be >= 1, got {self.b}")
        if self.target_density is not None and not 0.0 < self.target_density <= 1.0:
            raise ConfigError(f"target density must be in (0, 1], got {self.target_density}")
        if self.theta is not None and not 0 <= self.theta < math.inf:   # also catches NaN
            raise ConfigError(f"theta must be finite and >= 0, got {self.theta}")
        if min(self.epochs1, self.epochs2, self.epochs3) < 1:
            raise ConfigError("epochs must be >= 1 in every phase")
        for name in ("n_train", "n_test", "batch_size", "vectors"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        for name in ("lr", "lr3_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.style not in STYLES:
            raise ConfigError(f"unknown emission style {self.style!r}")
        check_frac_bits(self.frac_bits)
        return self


def check_frac_bits(frac_bits) -> int:
    """The fixed point's fractional bits, an integer in [0, 24] and no bool,
    as a Python int, which a checkpoint stores."""
    if isinstance(frac_bits, bool) or not isinstance(frac_bits, numbers.Integral):
        raise ConfigError(f"frac_bits must be an integer, got {frac_bits!r}")
    if not 0 <= frac_bits <= 24:
        raise ConfigError(f"frac_bits must be in [0, 24], got {frac_bits}")
    return int(frac_bits)


# (section, key, RunConfig field, flag or None) of every setting
SETTINGS = (
    ("model", "preset", "preset", "--preset"),
    ("model", "k", "k", "--k"),
    ("model", "b", "b", "--b"),
    ("data", "data_dir", "data_dir", "--data"),
    ("data", "n_train", "n_train", None),
    ("data", "n_test", "n_test", None),
    ("train", "epochs1", "epochs1", None),   # the three are --epochs E1,E2,E3
    ("train", "epochs2", "epochs2", None),
    ("train", "epochs3", "epochs3", None),
    ("train", "batch_size", "batch_size", "--batch"),
    ("train", "lr", "lr", "--lr"),
    ("train", "lr3_factor", "lr3_factor", None),
    ("train", "lambda", "lam", "--lambda"),
    ("train", "seed", "seed", "--seed"),
    ("prune", "theta", "theta", "--theta"),
    ("prune", "target_density", "target_density", "--density"),
    ("hw", "frac_bits", "frac_bits", "--frac-bits"),
    ("hw", "style", "style", "--style"),
    ("hw", "vectors", "vectors", "--vectors"),
    ("io", "out_dir", "out_dir", "--out"),
)


def parse_config(path: str) -> RunConfig:
    """RunConfig from a UTF-8 file of the sections and keys in SETTINGS; any
    other section or key, a key under [DEFAULT], or a file configparser
    cannot read, is a ConfigError."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (OSError, UnicodeDecodeError, configparser.Error) as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    if parser.defaults():   # configparser copies these keys into every section
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    fields = {(section, key): field for section, key, field, _flag in SETTINGS}
    for section in parser.sections():
        if section not in {s for s, _key in fields}:
            raise ConfigError(f"{path}: unknown section [{section}]")
    types = typing.get_type_hints(RunConfig)
    cfg = RunConfig()
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in fields:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
            try:
                raw = parser.get(section, key)
            except configparser.Error as e:   # a bad %-interpolation
                raise ConfigError(f"{path}: bad value for {section}.{key}: {e}") from e
            field = fields[section, key]
            try:
                setattr(cfg, field, types[field](raw))
            except ValueError as e:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw}") from e
    return cfg
