"""One rank's timestep split between the host thread and an emulated
accelerator.

The lattice slice is partitioned into left border, bulk and right border.
The bulk lives in a separate buffer owned by the "device", optionally
throttled to emulate a slower accelerator; the borders live in the host
buffer.  The device is `lanes` worker threads, one per core the rank owns:
lanes = usable CPUs // ranks sharing them, at least one.  Each step:

  1. the host exchanges rank halos (periodic wrap when running standalone),
  2. the bulk is cut into one contiguous column slab per lane and each lane
     runs the fused kernel on its slab,
  3. the calling thread runs the same kernel on both borders meanwhile,
  4. once the device's busy window, throttle x its slowest lane's CPU time,
     has passed, the H columns adjacent to each bulk boundary are swapped
     between the two buffers in both directions.

Each track runs the fused kernel on its regions and then flips its buffer's
arenas once, so step 4 and the next exchange write the new prv.  The columns
a track does not compute are scratch.  A change of plan first gives both
buffers, in both arenas, the old plan's merged state (`state`).  The kernel
reads only prv and writes only its region of nxt, so the slabs need no halo
of their own.

When M < H the bulk stencil reaches into the rank halo columns, so those are
additionally pushed host->device right after the exchange, before the device
kernels launch.  The end state is bit-identical for every legal M, throttle
and lane count.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributed import decompose_x
from .errors import ConfigurationError, RuntimeFault
from .kernels import (BoundaryPolicy, Region, stream_collide_region,
                      update_x_halos_periodic)
from .layouts import FieldBuffer, Geometry, LayoutDescriptor
from .model import LatticeModel, ModelParams
from .perf_model import (PerfProfile, autotune, measure_profile, optimal_m,
                         predict, time_call)


@dataclass(frozen=True)
class PartitionPlan:
    """Host/device column split of one rank's interior."""

    m: int
    left: Region | None
    bulk: Region | None
    right: Region | None


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
    return PartitionPlan(m=m, left=left, bulk=bulk, right=right)


def device_lanes(ranks: int = 1) -> int:
    """Worker threads of one rank's device: the CPUs this process may run
    on, shared out among the `ranks` ranks on this host, at least one."""
    return max(1, len(os.sched_getaffinity(0)) // ranks)


@lru_cache(maxsize=64)  # a step would spend about 6 us on it
def column_slabs(region: Region, lanes: int) -> tuple[Region, ...]:
    """`region` cut into min(lanes, columns) contiguous column slabs, none
    empty, as the ranks cut a lattice: widths differ by at most one, the
    wider ones first."""
    x0, width = region.x_begin, region.x_end - region.x_begin
    return tuple(Region(x0 + s.x0, x0 + s.x0 + s.width, region.y_begin,
                        region.y_end)
                 for s in decompose_x(width, min(lanes, width), halo=0))


@dataclass
class TimestepTiming:
    t_acc: float = 0.0
    t_host: float = 0.0
    t_mpi: float = 0.0
    t_swap: float = 0.0
    t_exe: float = 0.0


#: Seconds a step waits for the device lanes to finish before it fails with a
#: RuntimeFault.
WATCHDOG_TIMEOUT = 120.0


class HeteroRuntime:
    """Orchestrates one rank's buffers, device lanes and halo movement.

    `rank_exchange` is called with the host buffer at the start of every step
    and must refresh the outer halo columns; the default performs a periodic
    X wrap (single-rank operation).  `ranks` is the number of ranks sharing
    this host's CPUs, which sets the device's lane count.  One runtime per
    rank; not reentrant.
    """

    def __init__(self, model: LatticeModel, params: ModelParams,
                 desc: LayoutDescriptor, geom: Geometry,
                 device_throttle: float = 1.0,
                 policy: BoundaryPolicy | None = None,
                 rank_exchange=None, ranks: int = 1):
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
        self.rank_exchange = rank_exchange or update_x_halos_periodic
        self._plan: PartitionPlan | None = None
        # one single-thread queue per lane, so slab i always runs on lane i
        self._lanes = [ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"lbhx-device{i}")
            for i in range(device_lanes(ranks))]

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for lane in self._lanes:
            lane.shutdown(wait=True)

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

    def _host_compute(self, buf: FieldBuffer, regions: list[Region]) -> float:
        """The host's step: the fused kernel on every region, then one arena
        flip, so the new state is in prv.  Returns its wall seconds; with no
        region it runs and flips nothing and returns 0."""
        if not regions:
            return 0.0
        t0 = time.perf_counter()
        for region in regions:
            stream_collide_region(self.model, self.params, buf, region,
                                  self.policy)
        buf.swap()
        return time.perf_counter() - t0

    def _slab(self, buf: FieldBuffer, region: Region) -> float:
        """One lane's share of a device step; returns its thread CPU time."""
        t0 = time.thread_time()
        stream_collide_region(self.model, self.params, buf, region,
                              self.policy)
        return time.thread_time() - t0

    def _device_compute(self, buf: FieldBuffer, region: Region | None,
                        meanwhile=None) -> float:
        """The device's step on `region` of `buf`: one column slab per lane,
        all at once, then one arena flip.  Returns t_acc, the throttle times
        the slowest lane's thread CPU time, and returns no sooner than t_acc
        after its launch: the emulated device is busy for that whole window.
        With no region it runs and flips nothing and returns 0.

        `meanwhile` runs on the calling thread while the lanes work.  CPU
        time rather than wall time, so that host work sharing the cores with
        the lanes does not leak into the device cost.  A lane's fault is
        raised once every lane has stopped, naming its slab's region.
        """
        t_launch = time.perf_counter()
        slabs = column_slabs(region, self.lanes) if region is not None else ()
        futures = [lane.submit(self._slab, buf, slab)
                   for lane, slab in zip(self._lanes, slabs)]
        if meanwhile is not None:
            meanwhile()
        # one deadline for every lane; futures.wait would add about 40 us
        deadline = time.perf_counter() + WATCHDOG_TIMEOUT
        try:
            for f in futures:
                f.exception(timeout=deadline - time.perf_counter())
        except FutureTimeoutError:
            raise RuntimeFault(
                f"device lanes did not finish within {WATCHDOG_TIMEOUT}s "
                f"(phase: bulk kernels, region {region})") from None
        if not futures:
            return 0.0
        t_acc = self.device_throttle * max(f.result() for f in futures)
        buf.swap()
        pad = t_launch + t_acc - time.perf_counter()
        if pad > 0:
            time.sleep(pad)
        return t_acc

    # -- the step ------------------------------------------------------------

    def run_timestep(self, plan: PartitionPlan) -> TimestepTiming:
        """One full step per the concurrent control flow; state ends in prv.

        The device lanes run their bulk slabs while the main thread does the
        rank exchange and the host borders.  `_device_compute` returns once
        the device's busy window, t_acc = throttle x the slowest lane's
        thread CPU time, has passed, so the measured wall time stays faithful
        to max(t_acc, t_host + t_mpi) + t_swap even when both tracks share
        cores.
        """
        if self._plan is not None and plan != self._plan:
            # the old plan's borders are current only on the host, its bulk
            # only on the device, and its uncomputed columns are stale in
            # the scratch arena: start both buffers from the merged state
            merged = self.state(self._plan)
            for buf in (self.host_buf, self.device_buf):
                buf.set_canonical(merged)
                np.copyto(buf.nxt, buf.prv)
        self._plan = plan
        timing = TimestepTiming()
        t_begin = time.perf_counter()
        early_exchange = plan.m < self.geom.halo  # bulk reaches the rank halos
        borders = [r for r in (plan.left, plan.right) if r is not None]

        def exchange() -> None:
            t0 = time.perf_counter()
            self.rank_exchange(self.host_buf)
            timing.t_mpi = time.perf_counter() - t0

        def host_track() -> None:
            if not early_exchange:
                exchange()
            timing.t_host = self._host_compute(self.host_buf, borders)

        if early_exchange:
            exchange()
            self._push_rank_halos_to_device()
        timing.t_acc = self._device_compute(self.device_buf, plan.bulk,
                                            host_track)
        t0 = time.perf_counter()
        self.halo_swap_device_host(plan)
        timing.t_swap = time.perf_counter() - t0
        timing.t_exe = time.perf_counter() - t_begin
        return timing


# -- auto-tuning harness -----------------------------------------------------

#: Least duration of one compute sample per size, in the seconds its pool's
#: compute returns: wall time on the host, t_acc on the device.
SAMPLE_FLOOR = 2e-3


class HeteroTuningRunner:
    """perf_model.TuningRunner backed by a live runtime's host thread and
    device lanes.

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

    def time_compute(self, pool: str, sizes: list[int]) -> list[float]:
        """Seconds per step of `pool`'s compute at each of `sizes` (sites),
        in that pool's own seconds: wall time on the host, t_acc on the
        device, each from the call the step makes.  The sizes take turns,
        one step each, until the sample lasts SAMPLE_FLOOR per size: a
        change of host speed during the sample then reaches every size
        alike, and timer resolution and per-call jitter are a small share of
        every size's time."""
        rt, buf = self.rt, self._scratch
        steps = {"host": lambda region: rt._host_compute(buf, [region]),
                 "device": lambda region: rt._device_compute(buf, region)}
        if pool not in steps:
            raise ConfigurationError(f"unknown pool {pool!r}")
        step = steps[pool]
        regions = [self._region(s // rt.geom.ly) for s in sizes]
        spent, turns = [0.0] * len(regions), 0
        while sum(spent) < SAMPLE_FLOOR * len(regions):
            for i, region in enumerate(regions):
                spent[i] += step(region)
            turns += 1
        return [s / turns for s in spent]

    def time_comm(self) -> float:
        return time_call(self.rt.rank_exchange, self._scratch)

    def time_swap(self) -> float:
        return time_call(self.rt.halo_swap_device_host, self._plan)


@dataclass
class BalancePoint:
    """One row of a border-width sweep: measured vs predicted step time."""

    m: int
    measured: float
    predicted: float


def balance_experiment(runtime: HeteroRuntime, widths: list[int],
                       m_points: list[int], *, warmup: int = 3,
                       rounds: int = 30
                       ) -> tuple[PerfProfile, list[BalancePoint]]:
    """Tune a profile and sweep border widths with one sampler.

    Each sweep point's full timestep joins the tuning measurands of
    `perf_model.measure_profile` as an extra, so the fitted profile and the
    measured sweep come from the same interleaved, shuffled rounds and the
    same best-3 statistic, which keeps the comparison between them
    meaningful.
    """
    g = runtime.geom
    steps = [lambda plan=make_partition(g, m): runtime.run_timestep(plan).t_exe
             for m in m_points]
    profile, measured = measure_profile(
        HeteroTuningRunner(runtime, widths), warmup=warmup, rounds=rounds,
        extra=steps)
    points = [BalancePoint(m, t, predict(profile, g.lx, g.ly, m).t_exe)
              for m, t in zip(m_points, measured)]
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
        ranks=cfg.ranks,
    )


def tune_profile(cfg, state: np.ndarray) -> PerfProfile:
    """Measure a time-model profile on a runtime of the whole configured
    lattice, loaded with `state`, whose device has the lanes of one of
    `cfg.ranks` ranks."""
    with runtime_from_config(cfg) as rt:
        rt.load_state(state)
        return autotune(HeteroTuningRunner(rt), warmup=2, iters=8)


def rank_border_widths(cfg, widths: list[int], profile=None) -> list[int]:
    """Each rank's border width M, given the widths of the rank slices.

    Without a profile every rank runs at `hetero.m`, capped at half its
    slice.  With one, each rank runs at the profile's M* for its own slice,
    so the device keeps a bulk to work on at every rank count.
    """
    if profile is None:
        return [min(cfg.m, w // 2) for w in widths]
    return [optimal_m(profile, w, cfg.ly) for w in widths]
