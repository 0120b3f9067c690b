"""Execution-time model for the host+accelerator split, and its auto-tuner.

The per-iteration time of one rank is modeled as

    t_exe  = max(t_acc, t_host + t_mpi) + t_swap
    t_acc  = (LX - 2M) * LY * tau_d
    t_host = (2M) * LY * tau_h
    t_mpi  = tau_c

with M the border width (columns computed on the host, per side).  t_exe is
minimized where accelerator and host+communication times balance; the
continuous optimum is

    M_opt = (LX * LY * tau_d - tau_c) / (2 * LY * (tau_d + tau_h)).

tau_c is modeled as M-independent.  One round loop, `sample`, times all
that `autotune`, `sweep-balance`, `bench` and `sweep-vl` measure, in seeded
shuffled rounds.  `measure_profile` recovers the four parameters from its
samples of mini-benchmarks, each estimate the mean of the three fastest
rounds: tau_h and tau_d are least-squares slopes of those estimates vs sites
processed, where one sample times all of a pool's sizes in turns; tau_c and
t_swap are the estimates of one exchange and one swap.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import ConfigurationError, TuningError


@dataclass(frozen=True)
class PerfProfile:
    """Per-site and per-iteration cost parameters, all in seconds."""

    tau_d: float
    tau_h: float
    tau_c: float = 0.0
    t_swap: float = 0.0
    meta: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.tau_d <= 0 or self.tau_h <= 0:
            raise ConfigurationError("tau_d and tau_h must be positive")
        if self.tau_c < 0 or self.t_swap < 0:
            raise ConfigurationError("tau_c and t_swap must be non-negative")


@dataclass(frozen=True)
class Prediction:
    m: int
    t_acc: float
    t_host: float
    t_mpi: float
    t_swap: float
    t_exe: float
    mlups: float


def mlups(lx: int, ly: int, seconds_per_iteration: float) -> float:
    """Million lattice-site updates per second."""
    if seconds_per_iteration <= 0:
        raise ConfigurationError("iteration time must be positive")
    return lx * ly / (seconds_per_iteration * 1e6)


def predict(profile: PerfProfile, lx: int, ly: int, m: int) -> Prediction:
    """Evaluate the time model for border width m."""
    if m < 0 or 2 * m > lx:
        raise ConfigurationError(f"border width M={m} outside [0, LX/2]")
    t_acc = (lx - 2 * m) * ly * profile.tau_d
    t_host = 2 * m * ly * profile.tau_h
    t_mpi = profile.tau_c
    t_exe = max(t_acc, t_host + t_mpi) + profile.t_swap
    return Prediction(m, t_acc, t_host, t_mpi, profile.t_swap, t_exe,
                      mlups(lx, ly, t_exe))


def optimal_m(profile: PerfProfile, lx: int, ly: int) -> int:
    """Integer border width minimizing t_exe; ties broken toward smaller M.

    Rounds the continuous balance point and compares against the clamp
    endpoints, which is exact because t_exe is unimodal in M.
    """
    m_cont = (lx * ly * profile.tau_d - profile.tau_c) / \
        (2 * ly * (profile.tau_d + profile.tau_h))
    m_cont = min(max(m_cont, 0.0), lx / 2)
    candidates = {0, lx // 2, int(math.floor(m_cont)), int(math.ceil(m_cont))}
    best_m, best_t = None, None
    for m in sorted(c for c in candidates if 0 <= 2 * c <= lx):
        t = predict(profile, lx, ly, m).t_exe
        if best_t is None or t < best_t:  # ascending order: ties keep smaller M
            best_m, best_t = m, t
    return best_m


def whatif(profile: PerfProfile, lx: int, ly: int,
           overrides: dict[str, float] | None = None,
           m_step: int = 1) -> list[Prediction]:
    """Prediction sweep over M in [0, LX/2] with substituted parameters.

    At M=0 the curve is independent of tau_h, so measured M=0 points from the
    current hardware remain valid anchors for a substituted host.
    """
    if m_step < 1:
        raise ConfigurationError(f"m_step must be >= 1, got {m_step}")
    overrides = overrides or {}
    for key in overrides:
        if key not in ("tau_d", "tau_h", "tau_c", "t_swap"):
            raise ConfigurationError(f"unknown profile parameter {key!r}")
        if overrides[key] < 0:
            raise ConfigurationError(f"override {key} must be non-negative")
    prof = replace(profile, **overrides)
    return [predict(prof, lx, ly, m) for m in range(0, lx // 2 + 1, m_step)]


class TuningRunner(Protocol):
    """Benchmark harness contract used by measure_profile."""

    def compute_sizes(self, pool: str) -> list[int]:
        """Region sizes (sites) to sample on the given pool (host/device)."""

    def time_compute(self, pool: str, sizes: list[int]) -> list[float]:
        """Seconds for one fused step of the pool at each of `sizes` (sites),
        in the pool's own seconds (t_acc on the device), timed together so
        that host noise reaches every size alike."""

    def time_comm(self) -> float:
        """Seconds for one inter-rank halo exchange."""

    def time_swap(self) -> float:
        """Seconds for one host<->device halo swap."""


def _fit_slope(sites: list[int], times: list[float]) -> float:
    """Least-squares slope of time vs sites (affine fit, intercept dropped)."""
    slope, _intercept = np.polyfit(np.asarray(sites, dtype=np.float64),
                                   np.asarray(times, dtype=np.float64), 1)
    return float(slope)


def sample(measurands: Sequence[Callable[[], object]], *, warmup: int,
           rounds: int) -> list[list]:
    """Every round's sample of each measurand (which returns the seconds it
    measured: a scalar, or a list per size), in the order given.  Each runs
    `warmup` untimed times, then once per round in an order reshuffled every
    round by a fixed seed, each timed sample after an untimed twin, so no
    sample runs in the cache and predictor state that another one left."""
    if rounds < 1:
        raise ConfigurationError(f"sampling needs at least 1 round, got {rounds}")
    for fn in measurands:
        for _ in range(warmup):
            fn()
    samples: list[list] = [[] for _ in measurands]
    order = list(range(len(measurands)))
    shuffler = random.Random(20240)
    for _ in range(rounds):
        shuffler.shuffle(order)
        for i in order:
            measurands[i]()  # the untimed twin
            samples[i].append(measurands[i]())
    return samples


def time_call(fn: Callable, *args) -> float:
    """Seconds that one call fn(*args) takes: a measurand's body."""
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def best3(samples: list) -> float | list[float]:
    """Mean of the three fastest rounds, per size for list samples: on a
    shared host interference only adds time (Chen & Revels,
    arXiv:1608.04295), so the fastest samples estimate the undisturbed cost."""
    return np.sort(samples, axis=0)[:3].mean(axis=0).tolist()


def paired_ratios(times: list, reference: list) -> dict[str, float]:
    """Median (`ratio`) and quartiles (`ratio_q1`, `ratio_q3`) of each
    round's time over the same round's `reference` time.  A host phase that
    slows a whole round slows both alike, so the ratio resolves differences
    that the drift between rounds hides in either time."""
    q1, med, q3 = np.percentile(np.divide(times, reference), [25, 50, 75])
    return {"ratio": float(med), "ratio_q1": float(q1), "ratio_q3": float(q3)}


def measure_profile(runner: TuningRunner, *, warmup: int, rounds: int,
                    extra: Sequence[Callable[[], float]] = ()
                    ) -> tuple[PerfProfile, list[float]]:
    """Measure a PerfProfile, and the best times of the `extra` measurands.

    The measurands are each pool's compute, timed at all of its
    `runner.compute_sizes` in one sample, the halo exchange, the halo swap
    and every `extra` callable (each returns the seconds it measured).
    `sample` runs them in `warmup` untimed calls and `rounds` shuffled
    rounds; each estimate (one per compute size) is the `best3` mean.

    Raises TuningError for degenerate inputs: fewer than 3 positive region
    sizes per pool, compute times that fall with size, or a non-positive
    fitted slope.
    """
    sizes = {pool: sorted(runner.compute_sizes(pool))
             for pool in ("device", "host")}
    for pool, pool_sizes in sizes.items():
        if len(pool_sizes) < 3 or any(s <= 0 for s in pool_sizes):
            raise TuningError(
                f"{pool} pool: need >= 3 positive region sizes, got {pool_sizes}")
    measurands = [partial(runner.time_compute, pool, pool_sizes)
                  for pool, pool_sizes in sizes.items()]
    measurands += [runner.time_comm, runner.time_swap, *extra]
    best = [best3(s) for s in sample(measurands, warmup=warmup, rounds=rounds)]

    slopes: dict[str, float] = {}
    for (pool, pool_sizes), times in zip(sizes.items(), best):
        # degenerate if the trend is not increasing overall, or any step
        # decreases by more than measurement jitter can explain
        if times[-1] <= times[0] or any(
                b < 0.8 * a for a, b in zip(times, times[1:])):
            raise TuningError(
                f"{pool} pool: non-monotone timings {times} for sizes "
                f"{pool_sizes}")
        slopes[pool] = _fit_slope(pool_sizes, times)
        if slopes[pool] <= 0:
            raise TuningError(
                f"{pool} pool: non-positive fitted slope {slopes[pool]}")
    tau_c, t_swap, *extra_best = best[len(sizes):]
    profile = PerfProfile(tau_d=slopes["device"], tau_h=slopes["host"],
                          tau_c=max(tau_c, 0.0), t_swap=max(t_swap, 0.0),
                          meta=(("source", "measure_profile"),))
    return profile, extra_best


def autotune(runner: TuningRunner, *, warmup: int = 5,
             iters: int = 20) -> PerfProfile:
    """`measure_profile` with no extra measurands and `iters` rounds."""
    profile, _ = measure_profile(runner, warmup=warmup, rounds=iters)
    return profile


# -- profile (de)serialization: flat key-value text --------------------------

_FIELDS = ("tau_d", "tau_h", "tau_c", "t_swap")


def format_profile(profile: PerfProfile) -> str:
    lines = [f"{k} = {getattr(profile, k)!r}" for k in _FIELDS]
    lines += [f"meta.{k} = {v}" for k, v in profile.meta]
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> PerfProfile:
    values: dict[str, float] = {}
    meta: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"profile line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("meta."):
            meta.append((key[5:], value))
        elif key in _FIELDS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"profile line {lineno}: bad float {value!r}") from None
        else:
            raise ConfigurationError(f"profile line {lineno}: unknown key {key!r}")
    missing = [k for k in ("tau_d", "tau_h") if k not in values]
    if missing:
        raise ConfigurationError(f"profile is missing {missing}")
    return PerfProfile(meta=tuple(meta), **values)


def save_profile(path, profile: PerfProfile) -> None:
    with open(path, "w") as fh:
        fh.write(format_profile(profile))


def load_profile(path) -> PerfProfile:
    with open(path) as fh:
        return parse_profile(fh.read())


#: Illustrative what-if profiles, derived from public peak-bandwidth figures
#: (e.g. 2x240 GB/s for a K80-class GPU, ~59 GB/s for a Haswell-class host)
#: assuming ~1.2 kB of memory traffic per site update at 37 populations.
#: These document the workflow; they are NOT measurements of this machine.
SAMPLE_PROFILES: dict[str, PerfProfile] = {
    "k80_like": PerfProfile(tau_d=2.5e-9, tau_h=2.0e-8, tau_c=2e-4, t_swap=8e-4,
                            meta=(("source", "illustrative registry"),)),
    "knc_like": PerfProfile(tau_d=3.4e-9, tau_h=2.0e-8, tau_c=2e-4, t_swap=8e-4,
                            meta=(("source", "illustrative registry"),)),
    "balanced": PerfProfile(tau_d=1.0e-8, tau_h=1.0e-8, tau_c=0.0, t_swap=1e-4,
                            meta=(("source", "illustrative registry"),)),
}
