"""Flat key-value run configuration: file parsing, flag and env overrides."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigurationError
from .kernels import PERIODIC, BoundaryPolicy
from .layouts import (Clustering, Family, Geometry, LayoutDescriptor,
                      clustering_from_name, family_from_name)
from .model import ModelParams, builtin_model

ENV_OVERRIDES = {
    "LBHX_DEVICE_THROTTLE": "pool.device_throttle",
}

DEFAULTS: dict[str, str] = {
    "lattice.lx": "48",
    "lattice.ly": "64",
    "model": "d2q9",
    "layout": "caosoa",
    "vl": "4",
    "clustering": "interleaved",
    "tau": "0.8",
    "bc.y": PERIODIC,
    "hetero.m": "0",
    "hetero.autotune": "false",
    "pool.device_throttle": "1",
    "run.iterations": "10",
    "run.seed": "1",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path: str | None = None,
                overrides: dict[str, str] | None = None,
                use_env: bool = True) -> dict[str, str]:
    """Merge defaults, config file, environment and explicit overrides."""
    values = dict(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            file_values = parse_config_text(fh.read())
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    if use_env:
        for env, key in ENV_OVERRIDES.items():
            if env in os.environ:
                values[key] = os.environ[env]
    if overrides:
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        values.update(overrides)
    return values


def _as_int(values: dict[str, str], key: str) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigurationError(f"{key} must be an integer, got {values[key]!r}") \
            from None


def _as_float(values: dict[str, str], key: str) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigurationError(f"{key} must be a number, got {values[key]!r}") \
            from None


def _as_bool(values: dict[str, str], key: str) -> bool:
    v = values[key].lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"{key} must be a boolean, got {values[key]!r}")


@dataclass
class RunConfig:
    """Validated, typed view of a run configuration."""

    lx: int
    ly: int
    model_name: str
    layout: LayoutDescriptor
    tau: float
    policy: BoundaryPolicy
    m: int
    autotune_m: bool
    device_throttle: float
    iterations: int
    seed: int
    #: ranks sharing this host's CPUs; set by the rank driver, by no key
    ranks: int = 1

    @property
    def geometry(self) -> Geometry:
        """The X halo is as wide as the model's stencil reaches."""
        return Geometry(self.lx, self.ly,
                        halo=builtin_model(self.model_name).R)


def build_run_config(values: dict[str, str]) -> RunConfig:
    family = family_from_name(values["layout"])
    if family in (Family.CSOA, Family.CAOSOA):
        desc = LayoutDescriptor(family, _as_int(values, "vl"),
                                clustering_from_name(values["clustering"]))
    else:
        desc = LayoutDescriptor(family)
    model = builtin_model(values["model"])  # validates the model name
    geom = Geometry(_as_int(values, "lattice.lx"), _as_int(values, "lattice.ly"),
                    halo=model.R)
    geom.check_vl(desc)
    m = _as_int(values, "hetero.m")
    autotune_m = _as_bool(values, "hetero.autotune")
    if autotune_m and m != 0:
        raise ConfigurationError(
            "hetero.m and hetero.autotune are mutually exclusive")
    if 2 * m > geom.lx:
        raise ConfigurationError(f"hetero.m={m} exceeds LX/2")
    params = ModelParams(tau=_as_float(values, "tau"))  # validates tau
    throttle = _as_float(values, "pool.device_throttle")
    if not (math.isfinite(throttle) and throttle >= 1.0):
        raise ConfigurationError(
            f"pool.device_throttle must be a finite number >= 1, "
            f"got {values['pool.device_throttle']!r}")
    iterations = _as_int(values, "run.iterations")
    if iterations < 0:
        raise ConfigurationError("run.iterations must be >= 0")
    seed = _as_int(values, "run.seed")
    if seed < 0:
        raise ConfigurationError(f"run.seed must be >= 0, got {seed}")
    return RunConfig(
        lx=geom.lx, ly=geom.ly,
        model_name=values["model"],
        layout=desc,
        tau=params.tau,
        policy=BoundaryPolicy(values["bc.y"]),
        m=m,
        autotune_m=autotune_m,
        device_throttle=throttle,
        iterations=iterations,
        seed=seed,
    )
