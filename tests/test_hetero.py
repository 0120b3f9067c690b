"""Host/device split-execution tests: partition bookkeeping, bit-exact
equivalence against the single-buffer reference for every border width, and
the choice of each rank's border width."""
import numpy as np
import pytest

from lbhx import hetero
from lbhx.config import DEFAULTS, build_run_config
from lbhx.errors import ConfigurationError, TuningError
from lbhx.hetero import (HeteroRuntime, HeteroTuningRunner,
                         balance_experiment, make_partition, random_state,
                         rank_border_widths)
from lbhx.kernels import (PERIODIC, WALL_BOUNCE_BACK, BoundaryPolicy,
                          run_steps)
from lbhx.layouts import Family, FieldBuffer, Geometry, LayoutDescriptor
from lbhx.model import ModelParams, builtin_model
from lbhx.validate import ALL_DESCRIPTORS

from helpers import rel_error

GEOM = Geometry(24, 32, halo=3)
DESC = LayoutDescriptor(Family.CAOSOA, 4)


def _cfg(**overrides):
    values = dict(DEFAULTS)
    values.update({k: str(v) for k, v in overrides.items()})
    return build_run_config(values)


def _reference_final(model, params, init, steps, geom=GEOM, desc=DESC,
                     policy=BoundaryPolicy()):
    buf = FieldBuffer(desc, geom, model.Q)
    buf.set_canonical(init)
    run_steps(model, params, buf, steps, policy)
    return buf.canonical("prv")


def test_make_partition_geometry():
    plan = make_partition(GEOM, 5)
    assert plan.left.x_begin == 3 and plan.left.x_end == 8
    assert plan.bulk.x_begin == 8 and plan.bulk.x_end == 22
    assert plan.right.x_begin == 22 and plan.right.x_end == 27
    assert make_partition(GEOM, 0).left is None
    assert make_partition(GEOM, 12).bulk is None
    with pytest.raises(ConfigurationError):
        make_partition(GEOM, 13)
    with pytest.raises(ConfigurationError):
        make_partition(GEOM, -1)


def test_device_throttle_guard():
    model = builtin_model("d2q9")
    for throttle in (0.5, float("nan")):
        with pytest.raises(ConfigurationError, match="device_throttle"):
            HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM,
                          device_throttle=throttle)


@pytest.mark.parametrize(
    "halo,m", [pytest.param(3, m, id=str(m)) for m in (0, 1, 2, 3, 5, 8, 12)]
    + [pytest.param(1, m, id=f"h1-{m}") for m in (0, 1, 2, 12)])
@pytest.mark.parametrize("y_mode", [PERIODIC, WALL_BOUNCE_BACK])
def test_split_matches_reference_every_m(halo, m, y_mode):
    """All widths, including M < halo (early-exchange path), M = halo (the
    first overlapped width) and bulk-free M = LX/2, reproduce the
    single-buffer run bit for bit, with periodic and with bounce-back walls
    in Y.  D2Q9 reaches one column, so a 1-column halo gives the same state
    as the 3-column reference."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    policy = BoundaryPolicy(y_mode)
    geom = Geometry(GEOM.lx, GEOM.ly, halo=halo)
    init = random_state(model, GEOM.lx, GEOM.ly, 17)
    expected = _reference_final(model, params, init, 8, policy=policy)
    with HeteroRuntime(model, params, DESC, geom, policy=policy) as rt:
        rt.load_state(init)
        plan = make_partition(geom, m)
        for _ in range(8):
            rt.run_timestep(plan)
        final = rt.state(plan)
    assert np.array_equal(final, expected)


def test_split_matches_reference_d2q37():
    model = builtin_model("d2q37")
    params = ModelParams(tau=0.7)
    init = random_state(model, GEOM.lx, GEOM.ly, 19)
    expected = _reference_final(model, params, init, 4)
    with HeteroRuntime(model, params, DESC, GEOM) as rt:
        rt.load_state(init)
        plan = make_partition(GEOM, 6)
        for _ in range(4):
            rt.run_timestep(plan)
        assert np.array_equal(rt.state(plan), expected)


def test_skipped_halo_swap_diverges():
    """The negative control: a step calls the swap through the instance, so
    a runtime whose swap is a no-op loses the bit-identity."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    init = random_state(model, GEOM.lx, GEOM.ly, 17)
    expected = _reference_final(model, params, init, 8)
    with HeteroRuntime(model, params, DESC, GEOM) as rt:
        rt.halo_swap_device_host = lambda plan: None
        rt.load_state(init)
        plan = make_partition(GEOM, 6)
        for _ in range(8):
            rt.run_timestep(plan)
        assert not np.array_equal(rt.state(plan), expected)


def test_timing_fields_populated():
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 1))
        timing = rt.run_timestep(make_partition(GEOM, 6))
    assert timing.t_acc > 0 and timing.t_host > 0
    assert timing.t_mpi >= 0 and timing.t_swap >= 0
    assert timing.t_exe >= max(timing.t_acc, timing.t_host)


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=str)
@pytest.mark.parametrize("y_mode", [PERIODIC, WALL_BOUNCE_BACK])
@pytest.mark.parametrize("model_name, tau", [("d2q9", 0.8), ("d2q37", 0.7)])
def test_plan_changes_keep_the_physics(model_name, tau, y_mode, desc):
    """A plan leaves its borders current only on the host, its bulk only on
    the device and the columns it does not compute stale in the scratch
    arena; switching M on one runtime every step, through bulk-free,
    early-exchange and overlapped widths, still reproduces the single-buffer
    run bit for bit, and no stale column reaches a stencil."""
    model = builtin_model(model_name)
    params = ModelParams(tau=tau)
    policy = BoundaryPolicy(y_mode)
    geom = Geometry(48, 32, halo=model.R)
    init = random_state(model, geom.lx, geom.ly, 5)
    ms = (0, 6, 1, 24, 2, 12, 0, 3)
    expected = _reference_final(model, params, init, len(ms), geom, desc,
                                policy)
    with HeteroRuntime(model, params, desc, geom, policy=policy) as rt:
        rt.load_state(init)
        with np.errstate(all="raise"):
            for m in ms:
                plan = make_partition(geom, m)
                rt.run_timestep(plan)
                assert np.isfinite(rt.state(plan)).all(), m
        assert np.array_equal(rt.state(plan), expected)


def test_halo_narrower_than_stencil_rejected():
    model = builtin_model("d2q37")  # reach 3
    with pytest.raises(ConfigurationError):
        HeteroRuntime(model, ModelParams(tau=0.8),
                      LayoutDescriptor(Family.SOA), Geometry(16, 16, halo=2))


def test_tuning_runner_surfaces():
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 2))
        runner = HeteroTuningRunner(rt)
        sizes = runner.compute_sizes("device")
        assert len(sizes) >= 3 and sizes == sorted(sizes)
        for pool in ("host", "device"):
            times = runner.time_compute(pool, sizes)
            assert len(times) == len(sizes) and min(times) > 0
        assert runner.time_comm() >= 0
        assert runner.time_swap() >= 0
        with pytest.raises(ConfigurationError):
            runner.time_compute("gpu", sizes)
        with pytest.raises(ConfigurationError):
            HeteroTuningRunner(rt, widths=[GEOM.lx + 1])


@pytest.mark.parametrize("pool", ["host", "device"])
def test_compute_samples_last_the_floor(monkeypatch, pool):
    """The sizes take turns until the sample lasts SAMPLE_FLOOR per size, in
    the seconds the pool's compute returns: wall time on the host, t_acc on
    the device.  Only the device's compute sleeps, at most once per step,
    and for no more than the part of t_acc its slowest lane did not run."""
    monkeypatch.setattr(hetero, "SAMPLE_FLOOR", 0.02)
    sleeps = []
    monkeypatch.setattr(hetero.time, "sleep", sleeps.append)
    throttle = 3.0
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM,
                       device_throttle=throttle) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 2))
        runner = HeteroTuningRunner(rt)
        widths, slept = [], []
        # a sample's step is one call of the pool's compute, as in a step
        name = f"_{pool}_compute"
        compute = getattr(rt, name)

        def logged(buf, regions):
            region = regions[0] if pool == "host" else regions
            widths.append(region.x_end - region.x_begin)
            before = len(sleeps)
            seconds = compute(buf, regions)
            slept.append(len(sleeps) - before)
            return seconds

        monkeypatch.setattr(rt, name, logged)
        per_call = runner.time_compute(pool, runner.compute_sizes(pool))
    turns = len(widths) // len(runner.widths)
    assert turns >= 2
    assert widths == runner.widths * turns  # the sizes take turns
    busy = sum(per_call) * turns
    assert busy >= 0.02 * len(runner.widths) * (1 - 1e-9)
    assert len(sleeps) == sum(slept)  # every sleep is inside the compute
    if pool == "device":
        assert max(slept) <= 1
        assert sum(sleeps) <= (throttle - 1) / throttle * busy * (1 + 1e-9)
    else:
        assert sleeps == []


def test_balance_experiment_rejects_a_non_positive_slope(monkeypatch):
    """Compute times that pass the monotonicity guard but fit a negative
    slope over uneven widths (2, 18 and 20 columns of 32 rows)."""
    times = {64: 1e-3, 576: 0.85e-3, 640: 1.0001e-3}
    monkeypatch.setattr(HeteroTuningRunner, "time_compute",
                        lambda self, pool, sizes: [times[s] for s in sizes])
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 4))
        with pytest.raises(TuningError, match="non-positive fitted slope"):
            balance_experiment(rt, widths=[2, 18, 20], m_points=[0, 6],
                               warmup=0, rounds=1)


def test_tuning_leaves_state_untouched():
    model = builtin_model("d2q9")
    init = random_state(model, GEOM.lx, GEOM.ly, 3)
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(init)
        runner = HeteroTuningRunner(rt)
        for _ in range(2):
            runner.time_compute("host", runner.compute_sizes("host"))
            runner.time_comm()
        plan = make_partition(GEOM, 0)
        assert np.array_equal(rt.state(plan), init)


def test_balance_experiment_shapes():
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 4))
        profile, points = balance_experiment(
            rt, widths=[6, 12, 18, 24], m_points=[0, 6, 12],
            warmup=1, rounds=4)
    assert profile.tau_d > 0 and profile.tau_h > 0
    assert [p.m for p in points] == [0, 6, 12]
    for p in points:
        assert p.measured > 0 and p.predicted > 0
        assert rel_error(p) == (p.measured - p.predicted) / p.predicted


def test_rank_border_widths_cap_hetero_m():
    """Without a profile every rank runs at hetero.m, capped at half of its
    slice (the tuned widths are checked through `lbhx scale`)."""
    cfg = _cfg(**{"lattice.lx": 48, "lattice.ly": 64, "hetero.m": 8})
    assert rank_border_widths(cfg, [48, 24, 13]) == [8, 8, 6]


def test_random_state_is_deterministic_and_positive():
    model = builtin_model("d2q37")
    a = random_state(model, 10, 12, 7)
    b = random_state(model, 10, 12, 7)
    c = random_state(model, 10, 12, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0)
