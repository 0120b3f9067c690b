"""The benchmark's workloads: lbhx configurations and their seeded inputs.

Each workload is a set of flat config keys, given to lbhx's own config parser
with environment overrides switched off, so that `LBHX_*` variables cannot
change what a workload runs (they are still recorded in the fingerprint).
The benchmark draws the initial state from `--seed` with `random_state`; the
program under test receives only that state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from lbhx.config import build_run_config, load_config
from lbhx.hetero import random_state
from lbhx.model import builtin_model


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict = field(hash=False)
    ranks: int = 1
    # keys that shrink the workload to the size of the oracle comparison;
    # model, layout, boundary, M/LX ratio and rank count stay the same
    small_keys: dict = field(default_factory=dict, hash=False)

    @property
    def periodic_y(self) -> bool:
        return self.keys.get("bc.y", "periodic") == "periodic"

    def config(self, small: bool = False, iterations: int = 0):
        values = dict(self.keys, **(self.small_keys if small else {}))
        values["run.iterations"] = str(iterations)
        return build_run_config(load_config(overrides=values, use_env=False))

    def state(self, cfg, seed: int):
        model = builtin_model(cfg.model_name)
        return random_state(model, cfg.lx, cfg.ly, seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        "bulk-q37",
        "D2Q37 SoA 256x256 on 1 rank with M=0: the per-site kernel path, "
        "no transport and no host pool",
        {"model": "d2q37", "layout": "soa", "lattice.lx": "256",
         "lattice.ly": "256", "hetero.m": "0", "pool.device_throttle": "1"},
        small_keys={"lattice.lx": "24", "lattice.ly": "16"}),
    Workload(
        "ring2-q9-tcp",
        "D2Q9 CAoSoA VL4 64x2048, wall bounce-back, 2 ranks over TCP with "
        "M=0: the only transport, wall-BC and early-exchange path",
        {"model": "d2q9", "layout": "caosoa", "vl": "4",
         "clustering": "interleaved", "bc.y": "wall_bounce_back",
         "lattice.lx": "64", "lattice.ly": "2048", "hetero.m": "0",
         "pool.device_throttle": "1"},
        ranks=2,
        small_keys={"lattice.lx": "24", "lattice.ly": "16"}),
    Workload(
        "split-q37-thr2",
        "D2Q37 CAoSoA VL4 192x256, throttle 2, M=64 at the 2M=2LX/3 balance "
        "point: the paper's concurrent host+device split step",
        {"model": "d2q37", "layout": "caosoa", "vl": "4",
         "clustering": "interleaved", "lattice.lx": "192",
         "lattice.ly": "256", "hetero.m": "64", "pool.device_throttle": "2"},
        small_keys={"lattice.lx": "24", "lattice.ly": "16", "hetero.m": "8"}),
)}
