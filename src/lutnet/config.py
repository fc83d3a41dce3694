"""Run configuration: sectioned key=value config files with CLI overrides."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import ConfigError

FABRIC_K = 6   # inputs of the fabric's LUT: the widest node K a network may have


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
    lr3_factor: float = 0.1
    lam: float = 5e-7
    seed: int = 0

    frac_bits: int = 8
    style: str = "behavioral"
    vectors: int = 10000

    def validate(self):
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
        if self.style not in ("behavioral", "vendor-primitive"):
            raise ConfigError(f"unknown emission style {self.style!r}")
        check_frac_bits(self.frac_bits)
        return self


def check_frac_bits(frac_bits: int) -> None:
    """The fixed point's fractional bits lie in [0, 24]."""
    if not 0 <= frac_bits <= 24:
        raise ConfigError(f"frac_bits must be in [0, 24], got {frac_bits}")


_FIELDS = {
    "model": [("preset", str), ("k", int), ("b", int)],
    "data": [("data_dir", str), ("n_train", int), ("n_test", int)],
    "train": [("epochs1", int), ("epochs2", int), ("epochs3", int),
              ("batch_size", int), ("lr", float), ("lr3_factor", float),
              ("lambda", float), ("seed", int)],
    "prune": [("theta", float), ("target_density", float)],
    "hw": [("frac_bits", int), ("style", str), ("vectors", int)],
    "io": [("out_dir", str)],
}

_RENAME = {"lambda": "lam"}


def parse_config(path: str) -> RunConfig:
    """RunConfig from a UTF-8 file of the sections and keys in _FIELDS; any
    other section or key, or a file configparser cannot read, is a
    ConfigError."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except (OSError, UnicodeDecodeError, configparser.Error) as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e
    for section in parser.sections():
        if section not in _FIELDS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    cfg = RunConfig()
    for section, fields in _FIELDS.items():
        if not parser.has_section(section):
            continue
        known = {name for name, _t in fields}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
        for name, typ in fields:
            if parser.has_option(section, name):
                try:
                    raw = parser.get(section, name)
                except configparser.Error as e:   # a bad %-interpolation
                    raise ConfigError(f"{path}: bad value for {section}.{name}: {e}") from e
                try:
                    value = typ(raw)
                except ValueError as e:
                    raise ConfigError(f"{path}: bad value for {section}.{name}: {raw}") from e
                setattr(cfg, _RENAME.get(name, name), value)
    return cfg
