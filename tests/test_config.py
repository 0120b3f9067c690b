"""Configuration parsing, precedence (defaults < file < env < flags) and
validation tests."""
import pytest

from lbhx.config import (DEFAULTS, build_run_config, load_config,
                         parse_config_text)
from lbhx.errors import ConfigurationError
from lbhx.kernels import WALL_BOUNCE_BACK
from lbhx.layouts import Clustering, Family
from lbhx.model import builtin_model


def test_defaults_build():
    cfg = build_run_config(dict(DEFAULTS))
    assert (cfg.lx, cfg.ly) == (48, 64)
    assert cfg.model_name == "d2q9"
    assert cfg.layout.family == Family.CAOSOA and cfg.layout.vl == 4
    assert cfg.layout.clustering == Clustering.INTERLEAVED
    assert cfg.geometry.halo == builtin_model(cfg.model_name).R == 1
    assert cfg.m == 0 and not cfg.autotune_m
    q37 = build_run_config({**DEFAULTS, "model": "d2q37"})
    assert q37.geometry.halo == 3


def test_parse_config_text():
    values = parse_config_text(
        "lattice.lx = 128  # comment\n\n# full-line comment\ntau=0.9\n")
    assert values == {"lattice.lx": "128", "tau": "0.9"}
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_config_text("tau = 0.9\nnot an assignment\n")


def test_precedence_file_env_overrides(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("pool.device_throttle = 2\ntau = 0.9\n")
    monkeypatch.setenv("LBHX_DEVICE_THROTTLE", "3")
    values = load_config(str(path), overrides={"tau": "0.7"})
    assert values["pool.device_throttle"] == "3"  # env beats file
    assert values["tau"] == "0.7"                 # explicit beats file
    monkeypatch.delenv("LBHX_DEVICE_THROTTLE")
    values = load_config(str(path))
    assert values["pool.device_throttle"] == "2"


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lattice.lz = 10\n")
    with pytest.raises(ConfigurationError, match="lattice.lz"):
        load_config(str(path))
    with pytest.raises(ConfigurationError):
        load_config(overrides={"warp": "9"})


def _build(**overrides):
    values = dict(DEFAULTS)
    values.update({k: str(v) for k, v in overrides.items()})
    return build_run_config(values)


def test_build_validation():
    with pytest.raises(ConfigurationError):
        _build(**{"model": "d3q19"})
    with pytest.raises(ConfigurationError):
        _build(**{"vl": "1"})                     # clustered layout needs >= 2
    with pytest.raises(ConfigurationError):
        _build(**{"lattice.ly": "63"})            # LY not a multiple of VL
    with pytest.raises(ConfigurationError):
        _build(**{"tau": "0.5"})                  # stability bound
    with pytest.raises(ConfigurationError):
        _build(**{"hetero.m": "25"})              # M > LX/2
    with pytest.raises(ConfigurationError):
        _build(**{"hetero.m": "4", "hetero.autotune": "true"})
    with pytest.raises(ConfigurationError):
        _build(**{"run.iterations": "-1"})
    with pytest.raises(ConfigurationError, match="run.seed"):
        _build(**{"run.seed": "-1"})
    assert _build(**{"run.seed": "0"}).seed == 0
    with pytest.raises(ConfigurationError):
        _build(**{"lattice.lx": "many"})
    for throttle in ("0.5", "nan", "inf"):
        with pytest.raises(ConfigurationError, match="device_throttle"):
            _build(**{"pool.device_throttle": throttle})
    cfg = _build(**{"bc.y": WALL_BOUNCE_BACK, "layout": "soa", "vl": "1"})
    assert cfg.policy.y_mode == WALL_BOUNCE_BACK
    assert cfg.layout.family == Family.SOA


#: a legal non-default value for every configuration key
KNOB_VALUES = {
    "lattice.lx": "64",
    "lattice.ly": "32",
    "model": "d2q37",
    "layout": "csoa",
    "vl": "8",
    "clustering": "consecutive",
    "tau": "0.9",
    "bc.y": WALL_BOUNCE_BACK,
    "hetero.m": "4",
    "hetero.autotune": "true",
    "pool.device_throttle": "2",
    "run.iterations": "3",
    "run.seed": "7",
}


def test_every_key_changes_the_run_config():
    """A key whose value never reaches the RunConfig has no effect; adding a
    key means giving it a test value here."""
    assert list(DEFAULTS) == list(KNOB_VALUES)
    base = build_run_config(dict(DEFAULTS))
    for key, value in KNOB_VALUES.items():
        assert value != DEFAULTS[key]
        assert build_run_config(dict(DEFAULTS, **{key: value})) != base, key
