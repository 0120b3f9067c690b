"""Time-model tests: closed-form predictions, optimal border width against
brute force, what-if substitution, profile round-trips and the auto-tuner on
a synthetic harness with known parameters.

Expected values were computed by hand from the model equations and frozen
here; e.g. for tau_d=1e-9, tau_h=3e-9, tau_c=2e-4, t_swap=5e-5 on a
1000x1000 lattice at M=100: t_acc=8e-4, t_host=6e-4, so
t_exe = max(8e-4, 6e-4 + 2e-4) + 5e-5 = 8.5e-4.
"""
import math
import random
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

from lbhx.errors import ConfigurationError, TuningError
from lbhx.perf_model import (SAMPLE_PROFILES, PerfProfile, autotune,
                             format_profile, load_profile, measure_profile,
                             mlups, optimal_m, paired_ratios, parse_profile,
                             predict, sample, save_profile, whatif)

REF = PerfProfile(tau_d=1e-9, tau_h=3e-9, tau_c=2e-4, t_swap=5e-5)


def test_predict_reference_point():
    p = predict(REF, 1000, 1000, 100)
    assert p.t_acc == pytest.approx(8e-4, rel=1e-15)
    assert p.t_host == pytest.approx(6e-4, rel=1e-15)
    assert p.t_mpi == 2e-4
    assert abs(p.t_exe - 8.5e-4) <= 2 * math.ulp(8.5e-4)
    assert p.mlups == pytest.approx(1e6 / (8.5e-4 * 1e6), rel=1e-12)


def test_predict_m_zero_ignores_host():
    a = predict(REF, 256, 128, 0)
    b = predict(replace(REF, tau_h=1.0), 256, 128, 0)
    assert a.t_exe == b.t_exe
    assert a.t_host == 0.0


def test_predict_domain_checks():
    with pytest.raises(ConfigurationError):
        predict(REF, 100, 100, -1)
    with pytest.raises(ConfigurationError):
        predict(REF, 100, 100, 51)
    with pytest.raises(ConfigurationError):
        PerfProfile(tau_d=0.0, tau_h=1e-9)
    with pytest.raises(ConfigurationError):
        PerfProfile(tau_d=1e-9, tau_h=1e-9, tau_c=-1.0)


def test_mlups_values():
    assert mlups(2160, 8192, 0.166) == pytest.approx(106.6, abs=0.1)
    assert mlups(1000, 1000, 1.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ConfigurationError):
        mlups(10, 10, 0.0)


def test_optimal_m_matches_brute_force():
    rng = random.Random(20)
    for _ in range(1000):
        profile = PerfProfile(
            tau_d=10 ** rng.uniform(-10, -7),
            tau_h=10 ** rng.uniform(-10, -7),
            tau_c=10 ** rng.uniform(-7, -3) if rng.random() < 0.8 else 0.0,
            t_swap=10 ** rng.uniform(-7, -3) if rng.random() < 0.8 else 0.0)
        lx = rng.randrange(8, 512)
        ly = rng.randrange(8, 512)
        best = min(range(lx // 2 + 1),
                   key=lambda m: (predict(profile, lx, ly, m).t_exe, m))
        assert abs(optimal_m(profile, lx, ly) - best) <= 1

    # symmetric device/host with free communication balances at 2M/LX = 1/2
    sym = PerfProfile(tau_d=2e-9, tau_h=2e-9, tau_c=0.0)
    for lx in (100, 256, 1000):
        m = optimal_m(sym, lx, 64)
        assert 2 * m / lx == pytest.approx(0.5, abs=2 / lx)


def test_whatif_overrides_and_guards():
    sweep = whatif(REF, 100, 100)
    assert [p.m for p in sweep] == list(range(51))
    faster_host = whatif(REF, 100, 100, {"tau_h": 1e-9})
    assert faster_host[0].t_exe == sweep[0].t_exe  # M=0 anchor unchanged
    assert min(p.t_exe for p in faster_host) <= min(p.t_exe for p in sweep)
    with pytest.raises(ConfigurationError):
        whatif(REF, 100, 100, {"tau_x": 1.0})
    with pytest.raises(ConfigurationError):
        whatif(REF, 100, 100, {"tau_h": -1.0})


def test_profile_roundtrip(tmp_path):
    prof = PerfProfile(tau_d=1.25e-9, tau_h=3.5e-9, tau_c=2e-4, t_swap=5e-5,
                       meta=(("source", "test"),))
    parsed = parse_profile(format_profile(prof))
    assert parsed == prof  # meta excluded from equality, numerics exact
    assert parsed.meta == prof.meta
    path = tmp_path / "p.txt"
    save_profile(path, prof)
    assert load_profile(path) == prof
    # profiles saved by the earlier median-based tuner may carry this line
    old = parse_profile(format_profile(prof)
                        + "meta.unstable = host@192:cv=0.071\n")
    assert old == prof
    assert old.meta == (("source", "test"), ("unstable", "host@192:cv=0.071"))


def test_parse_profile_errors_name_the_line():
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_profile("tau_d = 1e-9\nnot a key value pair\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_profile("tau_d = fast\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_profile("warp_factor = 9\n")
    with pytest.raises(ConfigurationError, match="missing"):
        parse_profile("tau_d = 1e-9\n")


def test_sample_profiles_are_usable():
    for name, prof in SAMPLE_PROFILES.items():
        p = predict(prof, 256, 256, 0)
        assert p.t_exe > 0, name


class SyntheticRunner:
    """TuningRunner with exact, noiseless-by-default linear costs, plus one
    extra measurand of known cost (`time_extra`).  `calls` logs every
    sample in the order taken."""

    def __init__(self, tau_d=2e-9, tau_h=8e-9, tau_c=1e-4, t_swap=2e-5,
                 t_extra=3e-4, noise=0.0, seed=99):
        self.p = PerfProfile(tau_d=tau_d, tau_h=tau_h, tau_c=tau_c,
                             t_swap=t_swap)
        self.t_extra = t_extra
        self.noise = noise
        self.rng = random.Random(seed)
        self.calls = []

    def _jitter(self, t):
        return t * (1 + self.noise * self.rng.uniform(-1, 1))

    def compute_sizes(self, pool):
        return [1000, 2000, 4000, 8000]

    def time_compute(self, pool, sizes):
        self.calls.append((pool, tuple(sizes)))
        tau = self.p.tau_d if pool == "device" else self.p.tau_h
        return [self._jitter(tau * sites) for sites in sizes]

    def time_comm(self):
        self.calls.append("comm")
        return self._jitter(self.p.tau_c)

    def time_swap(self):
        self.calls.append("swap")
        return self._jitter(self.p.t_swap)

    def time_extra(self):
        self.calls.append("extra")
        return self._jitter(self.t_extra)


def _autotune(runner, rounds):
    return autotune(runner, warmup=1, iters=rounds)


def _with_extra(runner, rounds):
    """measure_profile with one extra measurand; checks its best time."""
    prof, (t_extra,) = measure_profile(runner, warmup=1, rounds=rounds,
                                       extra=[runner.time_extra])
    assert t_extra == pytest.approx(runner.t_extra, rel=0.05)
    return prof


SAMPLERS = pytest.mark.parametrize("sample", [_autotune, _with_extra],
                                   ids=["autotune", "one_extra"])


@SAMPLERS
def test_autotune_recovers_synthetic_parameters(sample):
    runner = SyntheticRunner(noise=0.01)
    prof = sample(runner, 15)
    for key in ("tau_d", "tau_h", "tau_c", "t_swap"):
        assert getattr(prof, key) == pytest.approx(getattr(runner.p, key),
                                                   rel=0.05), key
    lx, ly = 2048, 1024
    assert abs(optimal_m(prof, lx, ly) - optimal_m(runner.p, lx, ly)) <= 1


@SAMPLERS
def test_autotune_rejects_degenerate_runners(sample):
    class TwoSizes(SyntheticRunner):
        def compute_sizes(self, pool):
            return [1000, 2000]

    with pytest.raises(TuningError, match="need >= 3"):
        sample(TwoSizes(), 3)

    class NonMonotone(SyntheticRunner):
        def time_compute(self, pool, sizes):
            return [self.p.tau_d * (10000 - sites) for sites in sizes]

    with pytest.raises(TuningError, match="non-monotone"):
        sample(NonMonotone(), 3)

    class NegativeSlope(SyntheticRunner):
        """No step falls by 20% or more, the last time exceeds
        the first, and yet the least-squares slope is negative."""

        def compute_sizes(self, pool):
            return [1000, 9000, 10000]

        def time_compute(self, pool, sizes):
            times = {1000: 1e-3, 9000: 0.85e-3, 10000: 1.0001e-3}
            return [times[sites] for sites in sizes]

    with pytest.raises(TuningError, match="non-positive fitted slope"):
        sample(NegativeSlope(), 3)

    with pytest.raises(ConfigurationError, match="at least 1 round"):
        sample(SyntheticRunner(), 0)


def _profile_calls(runner, warmup, rounds):
    measure_profile(runner, warmup=warmup, rounds=rounds,
                    extra=[runner.time_extra])


def _sample_calls(runner, warmup, rounds):
    """The same measurands as `_profile_calls`, given to `sample` directly."""
    measurands = [partial(runner.time_compute, pool, runner.compute_sizes(pool))
                  for pool in ("device", "host")]
    sample(measurands + [runner.time_comm, runner.time_swap, runner.time_extra],
           warmup=warmup, rounds=rounds)


@pytest.mark.parametrize("run", [_profile_calls, _sample_calls],
                         ids=["measure_profile", "sample"])
def test_measure_profile_samples_each_measurand_in_a_seeded_order(run):
    warmup, rounds = 2, 5
    logs = []
    for _ in range(2):
        runner = SyntheticRunner()
        run(runner, warmup, rounds)
        logs.append(runner.calls)
    assert logs[0] == logs[1]
    counts = Counter(logs[0])
    assert len(counts) == 2 + 3  # each pool's compute, comm, swap, extra
    assert set(counts.values()) == {warmup + 2 * rounds}
    timed = logs[0][warmup * len(counts):]
    assert timed[0::2] == timed[1::2]  # an untimed twin before each sample
    orders = {tuple(timed[i:i + 2 * len(counts):2])
              for i in range(0, len(timed), 2 * len(counts))}
    assert len(orders) > 1  # reshuffled between rounds


def test_paired_ratios_cancel_drift_between_rounds():
    """B takes exactly 2x A's time in every round while the rounds' absolute
    times drift 3x: the same-round ratio reads 2 with no spread."""
    warmup, rounds = 1, 9
    calls = Counter()

    def measurand(name, factor):
        def seconds():
            calls[name] += 1
            r = max(calls[name] - 1 - warmup, 0) // 2  # this call's round
            return factor * (1e-3 * (1 + 2 * r / (rounds - 1)))
        return seconds

    a, b = sample([measurand("a", 1.0), measurand("b", 2.0)],
                  warmup=warmup, rounds=rounds)
    assert max(a) == pytest.approx(3 * min(a))
    assert paired_ratios(b, a) == {"ratio": 2.0, "ratio_q1": 2.0,
                                   "ratio_q3": 2.0}
    assert paired_ratios(a, a) == {"ratio": 1.0, "ratio_q1": 1.0,
                                   "ratio_q3": 1.0}
