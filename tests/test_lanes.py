"""The emulated device's lanes: one worker thread per core a rank owns, each
running one column slab of the bulk.  Bit-identity across lane counts,
kernel reentrancy, the step's and the tuner's device accounting, lane
faults, thread lifetime and the lane count per rank.

The lane count is never set directly: each test fakes the CPUs the process
may run on, which is the input the runtime derives it from."""
import dataclasses
import os
import threading
import time

import numpy as np
import pytest

import lbhx.cli
from lbhx import hetero, kernels
from lbhx.cli import main
from lbhx.config import DEFAULTS, build_run_config
from lbhx.distributed import run_distributed
from lbhx.errors import RuntimeFault
from lbhx.hetero import (HeteroRuntime, HeteroTuningRunner, column_slabs,
                         device_lanes, make_partition, random_state,
                         tune_profile)
from lbhx.kernels import (PERIODIC, WALL_BOUNCE_BACK, BoundaryPolicy, Region,
                          interior_region, run_steps, update_x_halos_periodic)
from lbhx.layouts import Family, FieldBuffer, Geometry, LayoutDescriptor
from lbhx.model import ModelParams, builtin_model
from lbhx.perf_model import PerfProfile, optimal_m

from helpers import report_from_csv

LAYOUTS = {"aos": LayoutDescriptor(Family.AOS),
           "soa": LayoutDescriptor(Family.SOA),
           "csoa": LayoutDescriptor(Family.CSOA, 4),
           "caosoa": LayoutDescriptor(Family.CAOSOA, 4)}


@pytest.fixture
def cpus(monkeypatch):
    """Call with n to make the process see n usable CPUs."""
    def fake(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    return fake


def _cfg(**overrides):
    values = dict(DEFAULTS)
    values.update({k: str(v) for k, v in overrides.items()})
    return build_run_config(values)


def _lane_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith("lbhx-")]


@pytest.mark.parametrize("lanes,width", [(1, 7), (2, 7), (3, 7), (3, 2),
                                         (4, 1), (2, 256)])
def test_column_slabs_cut_the_region_into_contiguous_lanes(lanes, width):
    region = Region(3, 3 + width, 0, 16)
    slabs = column_slabs(region, lanes)
    assert len(slabs) == min(lanes, width)
    assert slabs[0].x_begin == 3 and slabs[-1].x_end == 3 + width
    for a, b in zip(slabs, slabs[1:]):
        assert a.x_end == b.x_begin
    sizes = [s.x_end - s.x_begin for s in slabs]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
    assert all((s.y_begin, s.y_end) == (0, 16) for s in slabs)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("model_name", ["d2q9", "d2q37"])
@pytest.mark.parametrize("y_mode", [PERIODIC, WALL_BOUNCE_BACK])
def test_finals_are_identical_for_every_lane_count(cpus, layout, model_name,
                                                   y_mode):
    """1, 2 and 3 lanes at M = 0, H and LX/2 - 1 reproduce the single-buffer
    run bit for bit.  At LX/2 - 1 the bulk is 2 columns wide, so 3 lanes
    run it as 2 one-column slabs."""
    model = builtin_model(model_name)
    params = ModelParams(tau=0.7)
    policy = BoundaryPolicy(y_mode)
    geom = Geometry(24, 16, halo=model.R)
    desc = LAYOUTS[layout]
    init = random_state(model, geom.lx, geom.ly, 23)
    ref = FieldBuffer(desc, geom, model.Q)
    ref.set_canonical(init)
    run_steps(model, params, ref, 3, policy)
    expected = ref.canonical("prv")
    for lanes in (1, 2, 3):
        cpus(lanes)
        for m in (0, geom.halo, geom.lx // 2 - 1):
            with HeteroRuntime(model, params, desc, geom,
                               policy=policy) as rt:
                assert rt.lanes == lanes
                rt.load_state(init)
                plan = make_partition(geom, m)
                for _ in range(3):
                    rt.run_timestep(plan)
                final = rt.state(plan)
            assert np.array_equal(final, expected), (lanes, m)


def test_kernel_is_reentrant_on_disjoint_slabs():
    """Two threads each run their slab of one buffer 50 times at once; the
    bytes of nxt match one whole-region call.  A kernel that kept state in
    statics would mix the two calls' blocks."""
    model = builtin_model("d2q37")
    params, policy = ModelParams(tau=0.7), BoundaryPolicy(WALL_BOUNCE_BACK)
    geom = Geometry(64, 64, halo=3)
    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    buf.set_canonical(random_state(model, geom.lx, geom.ly, 31))
    update_x_halos_periodic(buf)
    blank = buf.nxt.copy()
    region = interior_region(geom)
    kernels.stream_collide_region(model, params, buf, region, policy)
    expected = buf.nxt.tobytes()
    buf.nxt[:] = blank
    start = threading.Barrier(2)
    errors = []

    def run(slab):
        try:
            start.wait()
            for _ in range(50):
                kernels.stream_collide_region(model, params, buf, slab,
                                              policy)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(slab,))
               for slab in column_slabs(region, 2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not errors and not any(th.is_alive() for th in threads)
    assert buf.nxt.tobytes() == expected


def _spin(seconds: float) -> None:
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def test_t_acc_is_throttle_times_the_slowest_lane(cpus, monkeypatch):
    """Slabs that cost 10 and 30 ms of CPU: t_acc is 3 x 30 ms, not 3 x the
    40 ms sum, and the step pads out that window."""
    cpus(2)
    costs = {1: 0.01, 13: 0.03}  # by slab start column
    monkeypatch.setattr(hetero, "stream_collide_region",
                        lambda model, params, buf, region, policy:
                        _spin(costs[region.x_begin]))
    sleeps = []
    sleep = time.sleep
    monkeypatch.setattr(hetero.time, "sleep",
                        lambda s: (sleeps.append(s), sleep(s)))
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"], geom,
                       device_throttle=3.0) as rt:
        rt.load_state(random_state(model, geom.lx, geom.ly, 3))
        timing = rt.run_timestep(make_partition(geom, 0))
    assert 0.09 <= timing.t_acc < 0.105
    assert len(sleeps) == 1 and sleeps[0] > 0
    assert timing.t_exe >= timing.t_acc


def test_tuner_device_sample_waits_out_the_busy_window(cpus, monkeypatch):
    """Slabs that cost 10 and 30 ms of CPU: a tuner device sample, like a
    step, returns t_acc = 3 x 30 ms and lasts at least that long."""
    cpus(2)
    costs = {1: 0.01, 13: 0.03}  # by slab start column
    monkeypatch.setattr(hetero, "stream_collide_region",
                        lambda model, params, buf, region, policy:
                        _spin(costs[region.x_begin]))
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"], geom,
                       device_throttle=3.0) as rt:
        rt.load_state(random_state(model, geom.lx, geom.ly, 3))
        step = rt.run_timestep(make_partition(geom, 0))
        runner = HeteroTuningRunner(rt, widths=[geom.lx])
        t0 = time.perf_counter()
        (sample,) = runner.time_compute("device", [geom.lx * geom.ly])
        sample_wall = time.perf_counter() - t0
    for t_acc, wall in ((step.t_acc, step.t_exe), (sample, sample_wall)):
        assert 0.09 <= t_acc < 0.105
        assert wall >= t_acc


def test_tuner_device_samples_run_the_slab_split(cpus, monkeypatch):
    """The tuner's device sample of each width runs that width's slabs on
    the lanes, and costs throttle x its slowest slab."""
    cpus(2)
    monkeypatch.setattr(hetero, "SAMPLE_FLOOR", 1e-3)
    monkeypatch.setattr(hetero.time, "sleep", lambda s: None)
    calls = []

    def stub(model, params, buf, region, policy):
        calls.append(region)
        _spin(1e-4 * (region.x_end - region.x_begin))

    monkeypatch.setattr(hetero, "stream_collide_region", stub)
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"], geom,
                       device_throttle=2.0) as rt:
        runner = HeteroTuningRunner(rt, widths=[3, 9])
        times = runner.time_compute("device", runner.compute_sizes("device"))
    slabs = [column_slabs(runner._region(w), 2) for w in (3, 9)]
    assert [[s.x_end - s.x_begin for s in pair] for pair in slabs] == [
        [2, 1], [5, 4]]
    # the two lanes log each step's slabs in either order
    steps = [set(calls[i:i + 2]) for i in range(0, len(calls), 2)]
    assert steps and steps == [set(pair) for pair in slabs] * (len(steps) // 2)
    assert times[0] == pytest.approx(2 * 2e-4, rel=0.5)
    assert times[1] == pytest.approx(2 * 5e-4, rel=0.5)


def _fail_on_lane(monkeypatch, lane: int) -> None:
    """The kernel cannot allocate its block buffer on lane `lane` only."""
    kernel = kernels.load_kernel()
    prefix = f"lbhx-device{lane}_"

    def kernel_on_lanes(*args):
        if threading.current_thread().name.startswith(prefix):
            return 123456
        return kernel(*args)

    monkeypatch.setattr(kernels, "load_kernel", lambda: kernel_on_lanes)


def test_second_lane_allocation_fault_names_its_slab(cpus, monkeypatch):
    cpus(2)
    _fail_on_lane(monkeypatch, 1)
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"],
                       geom) as rt:
        rt.load_state(random_state(model, geom.lx, geom.ly, 3))
        with pytest.raises(RuntimeFault) as err:
            rt.run_timestep(make_partition(geom, 0))
    assert str(err.value) == (
        f"cannot allocate 123456 bytes for region {Region(13, 25, 0, 16)} "
        "(phase: fused kernel block buffer)")
    assert _lane_threads() == []


def test_second_lane_allocation_fault_exits_2(cpus, monkeypatch, tmp_path,
                                              capsys):
    """`lbhx dump` on the default 48-column lattice: lane 1 owns columns
    [25, 49) and its fault ends the command with exit 2."""
    cpus(2)
    _fail_on_lane(monkeypatch, 1)
    code = main(["dump", "--out", str(tmp_path / "state.lbhx"),
                 "--run-iterations", "2"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("runtime fault: rank 0 failed during the run: "
                          "RuntimeFault: cannot allocate 123456 bytes for "
                          f"region {Region(25, 49, 0, 64)} "
                          "(phase: fused kernel block buffer)")
    assert "Traceback" not in err


def test_watchdog_covers_every_lane(cpus, monkeypatch):
    """A lane that does not finish fails the step once the watchdog runs
    out, though the other lane finished at once."""
    cpus(2)
    monkeypatch.setattr(hetero, "WATCHDOG_TIMEOUT", 0.2)
    kernel = hetero.stream_collide_region

    def stuck_second_lane(model, params, buf, region, policy):
        if threading.current_thread().name.startswith("lbhx-device1_"):
            time.sleep(0.6)
        kernel(model, params, buf, region, policy)

    monkeypatch.setattr(hetero, "stream_collide_region", stuck_second_lane)
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"],
                       geom) as rt:
        rt.load_state(random_state(model, geom.lx, geom.ly, 3))
        with pytest.raises(RuntimeFault, match="did not finish within 0.2s "
                           r"\(phase: bulk kernels"):
            rt.run_timestep(make_partition(geom, 0))
    assert _lane_threads() == []


def test_no_lane_thread_outlives_the_runtime(cpus):
    cpus(3)
    model = builtin_model("d2q9")
    geom = Geometry(24, 16, halo=1)
    with HeteroRuntime(model, ModelParams(tau=0.8), LAYOUTS["soa"],
                       geom) as rt:
        rt.load_state(random_state(model, geom.lx, geom.ly, 3))
        rt.run_timestep(make_partition(geom, 2))
        assert sorted(_lane_threads()) == [f"lbhx-device{i}_0"
                                           for i in range(3)]
    assert _lane_threads() == []


def test_lane_count_per_rank(cpus, monkeypatch, tmp_path):
    """On 2 usable CPUs one rank runs 2 lanes, and each rank of a 2- or
    3-rank ring runs 1, never 0.  Ranks past 0 run in forked children, so
    each rank appends its count to a file."""
    cpus(2)
    assert [device_lanes(n) for n in (1, 2, 3, 5)] == [2, 1, 1, 1]
    record = tmp_path / "lanes"
    make = hetero.runtime_from_config

    def recording(cfg, rank_exchange=None):
        rt = make(cfg, rank_exchange=rank_exchange)
        with open(record, "a") as fh:
            fh.write(f"{rt.lanes}\n")
        return rt

    monkeypatch.setattr(hetero, "runtime_from_config", recording)
    cfg = _cfg(**{"lattice.lx": 24, "lattice.ly": 16, "run.iterations": 2})
    for n, lanes in ((1, 2), (2, 1), (3, 1)):
        record.write_text("")
        report, _, _ = run_distributed(cfg, n, "in_memory")
        made = [int(line) for line in record.read_text().split()]
        assert made == [lanes] * n
        assert report.metadata["device_lanes"] == str(lanes)


def test_profiles_are_tuned_at_the_ranks_lane_count(cpus, monkeypatch,
                                                    capsys):
    """`tune_profile` tunes on the lanes of one of `cfg.ranks` ranks, and
    `scale` picks each rank count's M* from the profile tuned at its lane
    count: 2 lanes at 1 rank, 1 lane at 2 and 3 ranks."""
    cpus(2)
    tuned_on = []
    monkeypatch.setattr(hetero, "autotune",
                        lambda runner, **kw: tuned_on.append(runner.rt.lanes)
                        or PerfProfile(tau_d=1e-8, tau_h=1e-8, tau_c=1e-6))
    cfg = _cfg(**{"lattice.lx": 48, "lattice.ly": 16})
    state = random_state(builtin_model("d2q9"), 48, 16, 1)
    for ranks in (1, 2, 3):
        tune_profile(dataclasses.replace(cfg, ranks=ranks), state)
    assert tuned_on == [2, 1, 1]

    # a 2-lane device is twice as fast, so M* differs with the lane count
    profiles = {2: PerfProfile(tau_d=1e-8, tau_h=2e-8, tau_c=768e-8),
                1: PerfProfile(tau_d=2e-8, tau_h=1e-8, tau_c=768e-8)}
    asked = []

    def tune(cfg, state):
        asked.append(cfg.ranks)
        return profiles[device_lanes(cfg.ranks)]

    monkeypatch.setattr(lbhx.cli, "tune_profile", tune)
    code = main(["scale", "--ranks", "1,2,3", "--lattice-lx", "48",
                 "--lattice-ly", "64", "--run-iterations", "1"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert asked == [1, 2]  # one tuning per lane count
    v2 = {r["ranks"]: r["m"] for r in report_from_csv(out).rows
          if r["mode"] == "v2"}
    assert v2 == {1: optimal_m(profiles[2], 48, 64),
                  2: optimal_m(profiles[1], 24, 64),
                  3: optimal_m(profiles[1], 16, 64)}


def test_reports_record_the_lane_count(cpus, monkeypatch, tmp_path, capsys):
    cpus(2)
    profile = PerfProfile(tau_d=2e-8, tau_h=1e-8, tau_c=768e-8)
    monkeypatch.setattr(lbhx.cli, "autotune", lambda runner, **kw: profile)
    monkeypatch.setattr(lbhx.cli, "balance_experiment",
                        lambda rt, widths, m_points, rounds: (profile, []))
    small = ["--lattice-lx", "24", "--lattice-ly", "16"]
    for command in ("autotune", "sweep-balance"):
        assert main([command, *small]) == 0
        report = report_from_csv(capsys.readouterr().out)
        assert report.metadata["device_lanes"] == "2", command
        assert report.metadata["machine.affinity"] == "2", command
    assert main(["dump", *small, "--out", str(tmp_path / "s.lbhx")]) == 0
    assert "device_lanes=2" in capsys.readouterr().out
