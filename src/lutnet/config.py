"""Run configuration: sectioned key=value config files with CLI overrides."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigError


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
        if not 1 <= self.k <= 8:
            raise ConfigError(f"K must be in [1, 8], got {self.k}")
        if self.b < 1:
            raise ConfigError(f"B must be >= 1, got {self.b}")
        if self.target_density is not None and not 0.0 < self.target_density <= 1.0:
            raise ConfigError(f"target density must be in (0, 1], got {self.target_density}")
        if self.theta is not None and self.theta < 0:
            raise ConfigError(f"theta must be >= 0, got {self.theta}")
        if min(self.epochs1, self.epochs2, self.epochs3) < 1:
            raise ConfigError("epochs must be >= 1 in every phase")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
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
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
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
                raw = parser.get(section, name)
                try:
                    value = typ(raw)
                except ValueError as e:
                    raise ConfigError(f"{path}: bad value for {section}.{name}: {raw}") from e
                setattr(cfg, _RENAME.get(name, name), value)
    return cfg


def apply_env(cfg: RunConfig) -> RunConfig:
    seed = os.environ.get("LUTNET_SEED")
    if seed is not None:
        try:
            cfg.seed = int(seed)
        except ValueError as e:
            raise ConfigError(f"LUTNET_SEED must be an integer, got {seed!r}") from e
    return cfg
