"""One rank's timestep split between the host thread and an emulated
accelerator.

The lattice slice is partitioned into left border, bulk and right border.
The bulk lives in a separate buffer owned by the "device" (a dedicated
worker thread, optionally throttled to emulate a slower accelerator); the
borders live in the host buffer.  Each step:

  1. the host exchanges rank halos (periodic wrap when running standalone),
  2. the bulk kernels are enqueued on the device's ordered queue,
  3. the calling thread runs the same kernels on both borders meanwhile,
  4. barrier, then the H columns adjacent to each bulk boundary are swapped
     between the two buffers in both directions.

Each track runs the fused kernel on its regions and then flips its buffer's
arenas, so step 4 and the next exchange write the new prv.  The columns a
track does not compute are scratch, which a change of plan first overwrites
with each buffer's state.

When M < H the bulk stencil reaches into the rank halo columns, so those are
additionally pushed host->device right after the exchange, before the device
kernels launch.  The end state is bit-identical for every legal M and
throttle.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RuntimeFault, TuningError
from .kernels import BoundaryPolicy, Region, stream_collide_region
from .layouts import FieldBuffer, Geometry, LayoutDescriptor
from .model import LatticeModel, ModelParams


@dataclass(frozen=True)
class PartitionPlan:
    """Host/device column split of one rank's interior."""

    m: int
    geom: Geometry
    left: Region | None
    bulk: Region | None
    right: Region | None

    @property
    def border_sites(self) -> int:
        total = 0
        for r in (self.left, self.right):
            if r is not None:
                total += r.sites
        return total

    @property
    def bulk_sites(self) -> int:
        return self.bulk.sites if self.bulk is not None else 0


def make_partition(geom: Geometry, m: int) -> PartitionPlan:
    """Left border [H, H+M), bulk [H+M, H+LX-M), right border [H+LX-M, H+LX)."""
    if m < 0 or 2 * m > geom.lx:
        raise ConfigurationError(f"border width M={m} outside [0, LX/2]")
    h, lx, ly = geom.halo, geom.lx, geom.ly
    left = Region(h, h + m, 0, ly) if m > 0 else None
    right = Region(h + lx - m, h + lx, 0, ly) if m > 0 else None
    bulk = None
    if lx - 2 * m > 0:
        bulk = Region(h + m, h + lx - m, 0, ly)
    return PartitionPlan(m=m, geom=geom, left=left, bulk=bulk, right=right)


@dataclass
class TimestepTiming:
    t_acc: float = 0.0
    t_host: float = 0.0
    t_mpi: float = 0.0
    t_swap: float = 0.0
    t_exe: float = 0.0


#: Seconds a step waits for the device queue to drain before it fails with a
#: RuntimeFault.
WATCHDOG_TIMEOUT = 120.0


class HeteroRuntime:
    """Orchestrates one rank's buffers, device queue and halo movement.

    `rank_exchange` is called with the host buffer at the start of every step
    and must refresh the outer halo columns; the default performs a periodic
    X wrap (single-rank operation).  One runtime per rank; not reentrant.
    """

    def __init__(self, model: LatticeModel, params: ModelParams,
                 desc: LayoutDescriptor, geom: Geometry,
                 device_throttle: float = 1.0,
                 policy: BoundaryPolicy | None = None,
                 rank_exchange=None):
        if geom.halo < model.R:
            raise ConfigurationError(
                f"halo width {geom.halo} < model reach {model.R}")
        if not device_throttle >= 1.0:
            raise ConfigurationError("device_throttle must be >= 1")
        self.model = model
        self.params = params
        self.device_throttle = device_throttle
        self.policy = policy or BoundaryPolicy()
        self.host_buf = FieldBuffer(desc, geom, model.Q)
        self.device_buf = FieldBuffer(desc, geom, model.Q)
        self.rank_exchange = rank_exchange or self._periodic_exchange
        self._plan: PartitionPlan | None = None
        # single dispatcher thread = the accelerator's ordered logical queue
        self._device_queue = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="lbhx-device")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._device_queue.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- state access --------------------------------------------------------

    @property
    def geom(self) -> Geometry:
        return self.host_buf.geom

    def load_state(self, canonical: np.ndarray) -> None:
        """Install a canonical (Q, LX, LY) state and synchronize all halos."""
        self.host_buf.set_canonical(canonical, "prv")
        self.device_buf.set_canonical(canonical, "prv")
        self.rank_exchange(self.host_buf)
        self._push_rank_halos_to_device()

    def state(self, plan: PartitionPlan) -> np.ndarray:
        """Merged canonical state: borders from host, bulk from device."""
        merged = self.device_buf.canonical("prv")
        if plan.m > 0:
            host = self.host_buf.canonical("prv")
            merged[:, :plan.m, :] = host[:, :plan.m, :]
            merged[:, -plan.m:, :] = host[:, -plan.m:, :]
        return merged

    # -- halo movement -------------------------------------------------------

    def _periodic_exchange(self, buf: FieldBuffer) -> None:
        from .kernels import update_x_halos_periodic
        update_x_halos_periodic(buf, "prv")

    def _push_rank_halos_to_device(self) -> None:
        g = self.geom
        h = g.halo
        if h == 0:
            return
        self.device_buf.copy_columns(0, 0, h, "prv", src=self.host_buf)
        self.device_buf.copy_columns(h + g.lx, h + g.lx, h, "prv",
                                     src=self.host_buf)

    def halo_swap_device_host(self, plan: PartitionPlan) -> None:
        """Swap the H columns adjacent to each bulk boundary, both directions."""
        g = self.geom
        h, lx, m = g.halo, g.lx, plan.m
        if h == 0 or plan.bulk is None:
            return
        # host -> device: the H columns just outside the bulk
        self.device_buf.copy_columns(m, m, h, "prv", src=self.host_buf)
        self.device_buf.copy_columns(h + lx - m, h + lx - m, h, "prv",
                                     src=self.host_buf)
        # device -> host: the H columns just inside the bulk edges
        self.host_buf.copy_columns(h + m, h + m, h, "prv", src=self.device_buf)
        self.host_buf.copy_columns(lx - m, lx - m, h, "prv",
                                   src=self.device_buf)

    # -- kernel execution ----------------------------------------------------

    def _run_kernels(self, buf: FieldBuffer, regions: list[Region]) -> None:
        """The fused step on every region, then one arena flip, so the new
        state is in prv; callers pass at least one region."""
        for region in regions:
            stream_collide_region(self.model, self.params, buf, region,
                                  self.policy)
        buf.swap()

    def _device_compute(self, plan: PartitionPlan) -> float:
        """Bulk kernels on the device buffer; returns the thread CPU time.

        CPU time rather than wall time, so that host work sharing the cores
        with the emulated device does not leak into the device cost.
        """
        if plan.bulk is None:
            return 0.0
        t0 = time.thread_time()
        self._run_kernels(self.device_buf, [plan.bulk])
        return time.thread_time() - t0

    def _host_phase(self, plan: PartitionPlan) -> float:
        regions = [r for r in (plan.left, plan.right) if r is not None]
        if not regions:
            return 0.0
        t0 = time.perf_counter()
        self._run_kernels(self.host_buf, regions)
        return time.perf_counter() - t0

    # -- the step ------------------------------------------------------------

    def run_timestep(self, plan: PartitionPlan,
                     skip_halo_swap: bool = False) -> TimestepTiming:
        """One full step per the concurrent control flow; state ends in prv.

        The device phase runs concurrently on its dispatcher thread while the
        main thread does the rank exchange and the host borders.  The device
        cost is its thread CPU time scaled by the throttle, and the step waits
        out the remainder of that busy window with a main-thread sleep, so the
        measured wall time stays faithful to max(t_acc, t_host + t_mpi) +
        t_swap even when both phases share cores.
        """
        if self._plan is not None and plan != self._plan:
            # a plan leaves the columns it does not compute stale in the
            # scratch arena; another plan's stencil may read them after a flip
            for buf in (self.host_buf, self.device_buf):
                np.copyto(buf.nxt, buf.prv)
        self._plan = plan
        timing = TimestepTiming()
        t_begin = time.perf_counter()
        h = self.geom.halo
        early_exchange = plan.m < h  # bulk stencil reaches the rank halos

        if early_exchange:
            t0 = time.perf_counter()
            self.rank_exchange(self.host_buf)
            timing.t_mpi = time.perf_counter() - t0
            self._push_rank_halos_to_device()

        t_launch = time.perf_counter()
        compute_future = self._device_queue.submit(self._device_compute, plan)

        if not early_exchange:
            t0 = time.perf_counter()
            self.rank_exchange(self.host_buf)
            timing.t_mpi = time.perf_counter() - t0
        timing.t_host = self._host_phase(plan)

        try:
            compute_cpu = compute_future.result(timeout=WATCHDOG_TIMEOUT)
        except FutureTimeoutError:
            raise RuntimeFault(
                f"device queue did not drain within {WATCHDOG_TIMEOUT}s "
                f"(phase: bulk kernels, M={plan.m})") from None
        timing.t_acc = compute_cpu * self.device_throttle

        # the device stays busy for throttle x its compute time; if the host
        # track finished first, wait out the rest of the device window
        pad = timing.t_acc - (time.perf_counter() - t_launch)
        if pad > 0:
            time.sleep(pad)

        if not skip_halo_swap:
            t0 = time.perf_counter()
            self.halo_swap_device_host(plan)
            timing.t_swap = time.perf_counter() - t0
        timing.t_exe = time.perf_counter() - t_begin
        return timing


# -- auto-tuning harness -----------------------------------------------------

#: Least duration, in seconds of the sample's clock, of one compute sample.
SAMPLE_FLOOR = 2e-3


class HeteroTuningRunner:
    """perf_model.TuningRunner backed by a live runtime's host thread and
    device queue.

    Times the full kernel pipeline on scratch regions of varying width, the
    rank-halo exchange, and the device<->host halo swap, without touching the
    runtime's simulation state.
    """

    def __init__(self, runtime: HeteroRuntime, widths: list[int] | None = None):
        self.rt = runtime
        g = runtime.geom
        if widths is None:
            lo = max(2, g.lx // 8)
            widths = sorted({lo, max(lo + 1, g.lx // 4), max(lo + 2, g.lx // 2)})
        if any(w > g.lx for w in widths):
            raise ConfigurationError("tuning width exceeds the interior")
        self.widths = widths
        self._scratch = FieldBuffer(runtime.host_buf.desc, g, runtime.model.Q)
        rng = np.random.default_rng(1234)
        self._scratch.prv[:] = 0.5 + 0.01 * rng.random(self._scratch.size)
        self._scratch.nxt[:] = self._scratch.prv  # each step flips the arenas
        self._plan = make_partition(g, min(g.halo, g.lx // 2))

    def _region(self, width: int) -> Region:
        g = self.rt.geom
        return Region(g.halo, g.halo + width, 0, g.ly)

    def compute_sizes(self, pool: str) -> list[int]:
        return [w * self.rt.geom.ly for w in self.widths]

    def time_compute(self, pool: str, sites: int) -> float:
        """Seconds per kernel step on `sites` sites: the step repeats until
        the sample lasts SAMPLE_FLOOR, so that timer resolution and per-call
        jitter are a small share of every sample."""
        region = self._region(sites // self.rt.geom.ly)
        rt = self.rt

        def body(clock) -> float:
            calls, t0 = 0, clock()
            while True:
                rt._run_kernels(self._scratch, [region])
                calls += 1
                elapsed = clock() - t0
                if elapsed >= SAMPLE_FLOOR:
                    return elapsed / calls

        if pool == "host":
            return body(time.perf_counter)
        if pool == "device":
            # device cost is thread CPU time x throttle, matching the step's
            # accounting; no concurrency is exercised here, so sleeping the
            # padding out would only add noise
            cpu = rt._device_queue.submit(body, time.thread_time).result()
            return cpu * rt.device_throttle
        raise ConfigurationError(f"unknown pool {pool!r}")

    def time_comm(self) -> float:
        t0 = time.perf_counter()
        self.rt.rank_exchange(self._scratch)
        return time.perf_counter() - t0

    def time_swap(self) -> float:
        t0 = time.perf_counter()
        self.rt.halo_swap_device_host(self._plan)
        return time.perf_counter() - t0


@dataclass
class BalancePoint:
    """One row of a border-width sweep: measured vs predicted step time."""

    m: int
    measured: float
    predicted: float

    @property
    def rel_error(self) -> float:
        return (self.measured - self.predicted) / self.predicted


def balance_experiment(runtime: HeteroRuntime, widths: list[int],
                       m_points: list[int], *, warmup: int = 3,
                       rounds: int = 30
                       ) -> tuple["PerfProfile", list[BalancePoint]]:
    """Tune a profile and sweep border widths, sampled in one interleaved loop.

    Every measurand -- the tuning regions on both tracks, the exchange and swap
    transfers, and each sweep point's full timestep -- is sampled once per
    round, in an order reshuffled every round, and aggregated by the mean of
    its three fastest rounds.  On a shared host, interference only ever adds
    time, so the fastest samples estimate the undisturbed cost; shuffling
    removes the systematic effect of what ran just before each sample, and
    taking the same statistic for both the fitted profile and the measured
    sweep keeps the comparison between them meaningful.
    """
    import random as _random

    from .perf_model import PerfProfile, _fit_slope, predict

    runner = HeteroTuningRunner(runtime, widths)
    g = runtime.geom
    plans = {m: make_partition(g, m) for m in m_points}
    sizes = runner.compute_sizes("device")

    measurands: list[tuple[str, object]] = (
        [("device", s) for s in sizes] + [("host", s) for s in sizes]
        + [("comm", None), ("swap", None)] + [("step", m) for m in m_points])

    def sample(kind, arg) -> float:
        if kind in ("device", "host"):
            return runner.time_compute(kind, arg)
        if kind == "comm":
            return runner.time_comm()
        if kind == "swap":
            return runner.time_swap()
        return runtime.run_timestep(plans[arg]).t_exe

    for kind, arg in measurands:
        for _ in range(warmup):
            sample(kind, arg)
    samples: dict[tuple, list[float]] = {key: [] for key in measurands}
    shuffler = _random.Random(20240)
    order = list(measurands)
    for _ in range(rounds):
        shuffler.shuffle(order)
        for key in order:
            # untimed twin first: the timed sample then runs with caches and
            # predictors in its own state, not the previous measurand's
            sample(*key)
            samples[key].append(sample(*key))

    best = {key: sum(sorted(vals)[:3]) / 3 for key, vals in samples.items()}
    slopes = {pool: _fit_slope(sizes, [best[(pool, s)] for s in sizes])
              for pool in ("device", "host")}
    for pool, slope in slopes.items():
        if slope <= 0:
            raise TuningError(f"{pool} pool: non-positive fitted slope {slope}")
    profile = PerfProfile(
        tau_d=slopes["device"], tau_h=slopes["host"],
        tau_c=max(best[("comm", None)], 0.0),
        t_swap=max(best[("swap", None)], 0.0),
        meta=(("source", "balance_experiment"),))
    points = [BalancePoint(m, best[("step", m)],
                           predict(profile, g.lx, g.ly, m).t_exe)
              for m in m_points]
    return profile, points


# -- run set-up --------------------------------------------------------------

def random_state(model: LatticeModel, lx: int, ly: int, seed: int) -> np.ndarray:
    """Seeded positive canonical state: weights plus a small perturbation."""
    rng = np.random.default_rng(seed)
    w = model.w[:, None, None]
    return w * (1.0 + 0.1 * rng.random((model.Q, lx, ly)))


def runtime_from_config(cfg, rank_exchange=None) -> HeteroRuntime:
    from .model import builtin_model
    model = builtin_model(cfg.model_name)
    return HeteroRuntime(
        model=model,
        params=ModelParams(tau=cfg.tau),
        desc=cfg.layout,
        geom=cfg.geometry,
        device_throttle=cfg.device_throttle,
        policy=cfg.policy,
        rank_exchange=rank_exchange,
    )


def tune_profile(cfg, state: np.ndarray) -> "PerfProfile":
    """Measure a time-model profile on a one-rank runtime of the whole
    configured lattice, loaded with `state`."""
    from .perf_model import autotune
    with runtime_from_config(cfg) as rt:
        rt.load_state(state)
        return autotune(HeteroTuningRunner(rt), warmup=2, iters=8)


def rank_border_widths(cfg, widths: list[int], profile=None) -> list[int]:
    """Each rank's border width M, given the widths of the rank slices.

    Without a profile every rank runs at `hetero.m`, capped at half its
    slice.  With one, each rank runs at the profile's M* for its own slice,
    so the device keeps a bulk to work on at every rank count.
    """
    from .perf_model import optimal_m
    if profile is None:
        return [min(cfg.m, w // 2) for w in widths]
    return [optimal_m(profile, w, cfg.ly) for w in widths]
