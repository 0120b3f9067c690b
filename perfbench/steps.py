"""Timed full steps through lbhx's public entry points.

Single-rank workloads drive `runtime_from_config` + `run_timestep` in a loop
for the run's duration.  The ring drives `run_distributed` over TCP, which
runs a fixed number of steps and includes its own set-up, so its timed wall
clock is the difference between a long call and a one-step call.
"""
from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from lbhx.distributed import RankLayout, exchange_rank_halos, run_distributed
from lbhx.hetero import make_partition, runtime_from_config

from spans import TracedTransport, Tracer, trace_runtime, traced_exchange

#: the step time percentiles are taken over windows of this many consecutive
#: timed steps, so that at least 10 lie beyond p90
WINDOW = 100
#: least number of steps in an untraced block
MIN_STEPS = WINDOW
#: an untraced run is timed in this many blocks, each a fresh ring call or a
#: slice of time; neighbours on a shared host slow whole blocks, so the run
#: reports the best block's mlups
BLOCKS = (False,) * 4
#: a traced run alternates untraced and traced blocks in this order
TRACE_BLOCKS = (False, True, True, False)


@dataclass
class Timed:
    """One block of steps: per-step seconds and the wall clock they took."""

    step_s: list[float] = field(default_factory=list)
    wall: float = 0.0


def run_single(cfg, state, seconds: float, tracer: Tracer | None = None):
    """Returns ({traced: [Timed per block]}, final canonical state)."""
    exchange = None
    if tracer is not None:
        one = RankLayout(1, 0, 0, cfg.lx)
        exchange = traced_exchange(
            tracer, 0, lambda buf: exchange_rank_halos(buf, one, None))
    modes = TRACE_BLOCKS if tracer is not None else BLOCKS
    min_steps = 10 if tracer is not None else MIN_STEPS
    runs = {mode: [] for mode in modes}
    with runtime_from_config(cfg, rank_exchange=exchange) as rt:
        if tracer is not None:
            trace_runtime(tracer, 0, rt)
        rt.load_state(state)
        plan = make_partition(rt.geom, cfg.m)
        rt.run_timestep(plan)  # first step ends set-up; not timed
        for mode in modes:
            if tracer is not None:
                tracer.active = mode
            run = Timed()
            runs[mode].append(run)
            start = time.perf_counter()
            deadline = start + seconds / len(modes)
            while True:
                t0 = time.perf_counter()
                rt.run_timestep(plan)
                t1 = time.perf_counter()
                run.step_s.append(t1 - t0)
                if t1 >= deadline and len(run.step_s) >= min_steps:
                    break
            run.wall = t1 - start
        if tracer is not None:
            tracer.active = False
        final = rt.state(plan)
    return runs, final


def ring_call(cfg, n_ranks: int, state, iterations: int):
    t0 = time.perf_counter()
    _report, merged, results = run_distributed(
        dataclasses.replace(cfg, iterations=iterations), n_ranks, "tcp",
        initial_state=state)
    wall = time.perf_counter() - t0
    # the slowest rank sets each step
    per_step = [max(r.iteration_times[i] for r in results)
                for i in range(iterations)]
    return wall, merged, per_step


def _thread_rank() -> int:
    name = threading.current_thread().name
    tail = name.rsplit("rank", 1)[-1]
    return int(tail) if tail.isdigit() else 0


@contextmanager
def ring_tracing(tracer: Tracer):
    """Span the ring's runtimes and transports while inside the block.

    `run_distributed` builds both itself, so the factories it looks up at
    call time are swapped for ones that return the real objects with a
    delegating Transport and a wrapped `rank_exchange`.
    """
    import lbhx.distributed as distributed
    import lbhx.hetero as hetero

    make_runtime, tcp = hetero.runtime_from_config, distributed.TcpTransport

    def runtime_factory(cfg, rank_exchange=None):
        rank = _thread_rank()
        if rank_exchange is not None:
            rank_exchange = traced_exchange(tracer, rank, rank_exchange)
        rt = make_runtime(cfg, rank_exchange=rank_exchange)
        trace_runtime(tracer, rank, rt)
        return rt

    hetero.runtime_from_config = runtime_factory
    distributed.TcpTransport = lambda *a, **kw: TracedTransport(tcp(*a, **kw),
                                                                tracer)
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
        hetero.runtime_from_config = make_runtime
        distributed.TcpTransport = tcp


def run_ring(cfg, n_ranks: int, state, seconds: float,
             tracer: Tracer | None = None):
    """Returns ({traced: [Timed per block]}, final canonical state of the
    last call)."""
    ring_call(cfg, n_ranks, state, 1)  # fills lazy tables in this process
    base = [ring_call(cfg, n_ranks, state, 1) for _ in range(3)]
    base_wall = statistics.median(b[0] for b in base)
    est = statistics.median(b[2][0] for b in base)
    modes = TRACE_BLOCKS if tracer is not None else BLOCKS
    min_steps = 10 if tracer is not None else MIN_STEPS
    runs = {mode: [] for mode in modes}
    for mode in modes:
        # a lone first step is no guide to a long call's steps, so each
        # call is sized by the step time of the call before it
        per_call = max(min_steps, round(seconds / len(modes) / est))
        if mode:
            with ring_tracing(tracer):
                wall, final, per_step = ring_call(cfg, n_ranks, state,
                                                   1 + per_call)
        else:
            wall, final, per_step = ring_call(cfg, n_ranks, state,
                                               1 + per_call)
        runs[mode].append(Timed(per_step[1:], wall - base_wall))
        est = runs[mode][-1].wall / per_call
    return runs, final
