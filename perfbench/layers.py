"""Per-layer measurements made beside the traced step run.

- kernels: propagate -> bc -> collide in step order, each with default
  arguments, over the runtime's column tiling, on a live state;
- roof: numpy copy bandwidth, measured in the same run;
- layouts: `FieldBuffer.copy_columns` and `canonical` on the same buffer;
- perf_model: `autotune` on a fresh runtime, then `optimal_m` and `predict`.

Each layer's entry points are looked up when it is measured; if one is gone,
that layer's metrics are reported as missing and the rest still run.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from checks import check_state
from spans import Tracer

#: pid of the kernel-loop spans in the trace file (ranks use 0..n-1)
KERNEL_PID = 100
#: each of the two roof arrays (source and destination), in MiB
ROOF_MIB = 64


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def roof() -> dict:
    """Copy bandwidth in GB/s, counting one read and one write per element."""
    n = ROOF_MIB * 2**20 // 8
    src = np.random.default_rng(0).random(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        samples.append(time.perf_counter() - t0)
    return {"roof.copy_gbs": 2 * src.nbytes / statistics.median(samples) / 1e9,
            "roof.array_mb": src.nbytes / 2**20}


def kernel_loop(cfg, state, seconds: float, tracer: Tracer, checks,
                periodic_y: bool):
    """Time each kernel sweep over one rank's interior; returns (metrics,
    the live FieldBuffer)."""
    from lbhx.distributed import RankLayout, exchange_rank_halos
    from lbhx.kernels import Region, apply_bc, collide_region, propagate_region
    from lbhx.layouts import FieldBuffer
    from lbhx.model import ModelParams, builtin_model
    import lbhx.hetero as hetero

    model = builtin_model(cfg.model_name)
    params = ModelParams(tau=cfg.tau)
    geom = cfg.geometry
    buf = FieldBuffer(cfg.layout, geom, model.Q)
    buf.set_canonical(state)
    h, lx, ly = geom.halo, geom.lx, geom.ly
    width = getattr(hetero, "TILE_COLUMNS", lx)
    tiles = [Region(x, min(x + width, h + lx), 0, ly)
             for x in range(h, h + lx, width)]
    one = RankLayout(1, 0, 0, lx)
    phases = {
        "propagate": lambda t: propagate_region(model, buf, t),
        "bc": lambda t: apply_bc(model, buf, cfg.policy, t),
        "collide": lambda t: collide_region(model, params, buf, t),
    }
    samples = {name: [] for name in phases}
    deadline = time.perf_counter() + seconds
    while len(samples["collide"]) < 5 or time.perf_counter() < deadline:
        exchange_rank_halos(buf, one, None)
        for name, fn in phases.items():
            with tracer.span(name, KERNEL_PID) as sp:
                for tile in tiles:
                    fn(tile)
            samples[name].append(sp["end"] - sp["start"])
    check_state(checks, model, state, buf.canonical(), periodic_y,
                "kernel_loop")
    sites = lx * ly
    out = {f"kernels.{name}_ms": _median_ms(s) for name, s in samples.items()}
    for name in ("propagate", "collide"):
        ms = out[f"kernels.{name}_ms"]
        out[f"kernels.{name}_ns_per_site"] = ms * 1e6 / sites
    out["kernels.bytes_per_site"] = 2 * model.Q * 8
    return out, buf


def layouts(buf, ranks: int) -> dict:
    """Halo wrap by `copy_columns`, `canonical`, and the computed arena size
    (two FieldBuffers per rank, host and device, each with prv and nxt)."""
    g = buf.geom
    wrap, canon = [], []
    for _ in range(21):
        t0 = time.perf_counter()
        buf.copy_columns(g.lx, 0, g.halo)
        buf.copy_columns(g.halo, g.halo + g.lx, g.halo)
        wrap.append(time.perf_counter() - t0)
    for _ in range(7):
        t0 = time.perf_counter()
        buf.canonical()
        canon.append(time.perf_counter() - t0)
    return {"layouts.copy_columns_ms": _median_ms(wrap),
            "layouts.canonical_ms": _median_ms(canon),
            "layouts.arena_mb": ranks * 2 * 2 * buf.size * 8 / 2**20}


def perf_model(cfg, state, measured_t_exe: float | None) -> dict:
    """Tune a profile on a fresh one-rank runtime of this geometry and set
    its prediction for the workload's M against the measured step."""
    from lbhx.hetero import HeteroTuningRunner, runtime_from_config
    from lbhx.perf_model import autotune, optimal_m, predict

    with runtime_from_config(cfg) as rt:
        rt.load_state(state)
        t0 = time.perf_counter()
        profile = autotune(HeteroTuningRunner(rt), warmup=2, iters=8)
        out = {"perf_model.autotune_s": time.perf_counter() - t0,
               "perf_model.m_star": optimal_m(profile, cfg.lx, cfg.ly)}
    if measured_t_exe is not None:
        predicted = predict(profile, cfg.lx, cfg.ly, cfg.m).t_exe
        out["perf_model.predict_err"] = (abs(measured_t_exe - predicted)
                                         / predicted)
    return out
