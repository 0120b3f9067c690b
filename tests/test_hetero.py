"""Host/device split-execution tests: partition bookkeeping, bit-exact
equivalence against the single-buffer reference for every border width, and
the choice of each rank's border width."""
import numpy as np
import pytest

from lbhx import hetero, perf_model
from lbhx.config import DEFAULTS, build_run_config
from lbhx.errors import ConfigurationError, TuningError
from lbhx.hetero import (HeteroRuntime, HeteroTuningRunner,
                         balance_experiment, make_partition, random_state,
                         rank_border_widths)
from lbhx.kernels import (PERIODIC, WALL_BOUNCE_BACK, BoundaryPolicy,
                          run_steps)
from lbhx.layouts import Family, FieldBuffer, Geometry, LayoutDescriptor
from lbhx.model import ModelParams, builtin_model

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
    assert plan.border_sites == 2 * 5 * 32
    assert plan.bulk_sites == 14 * 32
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


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("y_mode", [PERIODIC, WALL_BOUNCE_BACK])
def test_split_matches_reference_every_m(m, y_mode):
    """All widths, including M < halo (early-exchange path) and bulk-free
    M = LX/2, reproduce the single-buffer run bit for bit, with periodic and
    with bounce-back walls in Y."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    policy = BoundaryPolicy(y_mode)
    init = random_state(model, GEOM.lx, GEOM.ly, 17)
    expected = _reference_final(model, params, init, 8, policy=policy)
    with HeteroRuntime(model, params, DESC, GEOM, policy=policy) as rt:
        rt.load_state(init)
        plan = make_partition(GEOM, m)
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
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    init = random_state(model, GEOM.lx, GEOM.ly, 17)
    expected = _reference_final(model, params, init, 8)
    with HeteroRuntime(model, params, DESC, GEOM) as rt:
        rt.load_state(init)
        plan = make_partition(GEOM, 6)
        for _ in range(8):
            rt.run_timestep(plan, skip_halo_swap=True)
        assert not np.array_equal(rt.state(plan), expected)


def test_timing_fields_populated():
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 1))
        timing = rt.run_timestep(make_partition(GEOM, 6))
    assert timing.t_acc > 0 and timing.t_host > 0
    assert timing.t_mpi >= 0 and timing.t_swap >= 0
    assert timing.t_exe >= max(timing.t_acc, timing.t_host)


def test_plan_changes_keep_the_state_finite():
    """A plan leaves the columns it does not compute stale in the scratch
    arena; switching M on one runtime must not bring them into a stencil."""
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 5))
        with np.errstate(all="raise"):
            for _ in range(3):
                for m in (0, 6, 12, 3):
                    plan = make_partition(GEOM, m)
                    rt.run_timestep(plan)
                    assert np.isfinite(rt.state(plan)).all(), m


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
        assert runner.time_compute("host", sizes[0]) > 0
        assert runner.time_compute("device", sizes[0]) > 0
        assert runner.time_comm() >= 0
        assert runner.time_swap() >= 0
        with pytest.raises(ConfigurationError):
            runner.time_compute("gpu", sizes[0])
        with pytest.raises(ConfigurationError):
            HeteroTuningRunner(rt, widths=[GEOM.lx + 1])


@pytest.mark.parametrize("pool", ["host", "device"])
def test_compute_samples_last_the_floor(monkeypatch, pool):
    monkeypatch.setattr(hetero, "SAMPLE_FLOOR", 0.02)
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 2))
        runner = HeteroTuningRunner(rt)
        calls = []
        run_kernels = rt._run_kernels
        monkeypatch.setattr(rt, "_run_kernels",
                            lambda *a: calls.append(run_kernels(*a)))
        per_call = runner.time_compute(pool, runner.compute_sizes(pool)[0])
    assert len(calls) >= 2
    assert per_call * len(calls) >= 0.02 * (1 - 1e-9)


def test_balance_experiment_rejects_a_non_positive_slope(monkeypatch):
    monkeypatch.setattr(perf_model, "_fit_slope", lambda sites, times: -1e-8)
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(random_state(model, GEOM.lx, GEOM.ly, 4))
        with pytest.raises(TuningError, match="non-positive fitted slope"):
            balance_experiment(rt, widths=[6, 12, 18], m_points=[0, 6],
                               warmup=0, rounds=1)


def test_tuning_leaves_state_untouched():
    model = builtin_model("d2q9")
    init = random_state(model, GEOM.lx, GEOM.ly, 3)
    with HeteroRuntime(model, ModelParams(tau=0.8), DESC, GEOM) as rt:
        rt.load_state(init)
        runner = HeteroTuningRunner(rt)
        for _ in range(2):
            runner.time_compute("host", runner.compute_sizes("host")[0])
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
        assert p.rel_error == (p.measured - p.predicted) / p.predicted


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
