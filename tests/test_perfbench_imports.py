"""The benchmark under `perfbench/` imports lbhx by name; a rename or a move
out of `src/` turns its per-layer metrics into nulls without failing a run.
These tests import every name it takes and run its kernel layer once."""
import math
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_perfbench_imports_exists():
    from lbhx.config import build_run_config, load_config
    from lbhx.distributed import (RankLayout, TcpTransport, Transport,
                                  exchange_rank_halos, run_distributed)
    from lbhx.errors import TuningError
    from lbhx.hetero import (HeteroTuningRunner, make_partition, random_state,
                             runtime_from_config)
    from lbhx.kernels import Region, apply_bc, collide_region, propagate_region
    from lbhx.layouts import FieldBuffer
    from lbhx.model import ModelParams, builtin_model
    from lbhx.perf_model import autotune, optimal_m, predict

    cfg = build_run_config(load_config(overrides={"run.iterations": "0"},
                                       use_env=False))
    assert cfg.iterations == 0


def test_kernel_layer_runs_on_a_tiny_lattice(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "checks", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    from checks import Checks
    from spans import Tracer

    from lbhx.config import build_run_config, load_config
    from lbhx.hetero import random_state
    from lbhx.model import builtin_model

    cfg = build_run_config(load_config(
        overrides={"lattice.lx": "8", "lattice.ly": "8"}, use_env=False))
    state = random_state(builtin_model(cfg.model_name), cfg.lx, cfg.ly, 3)
    checks = Checks()
    metrics, buf = layers.kernel_loop(cfg, state, 0.0, Tracer(), checks,
                                      periodic_y=True)
    assert checks.attempted > 0 and checks.failed == 0, checks.lines
    assert {"kernels.propagate_ms", "kernels.bc_ms",
            "kernels.collide_ms"} <= set(metrics)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert np.isfinite(buf.canonical()).all()


def test_traced_step_spans_its_swap_and_keeps_its_timing(monkeypatch):
    """perfbench's tracer wraps `run_timestep` and `halo_swap_device_host`
    on the runtime instance.  One traced step at M > 0 records one `step`
    span whose args are its TimestepTiming, and one `swap` span inside it,
    which holds only while the step calls the swap through the instance."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import Tracer, trace_runtime

    from lbhx.config import build_run_config, load_config
    from lbhx.hetero import make_partition, random_state, runtime_from_config
    from lbhx.model import builtin_model

    cfg = build_run_config(load_config(
        overrides={"lattice.lx": "8", "lattice.ly": "8"}, use_env=False))
    tracer = Tracer()
    with runtime_from_config(cfg) as rt:
        trace_runtime(tracer, 0, rt)
        rt.load_state(random_state(builtin_model(cfg.model_name), cfg.lx,
                                   cfg.ly, 3))
        plan = make_partition(rt.geom, 2)
        tracer.active = True
        timing = rt.run_timestep(plan)
    assert sorted(s["name"] for s in tracer.spans) == ["step", "swap"]
    (step,) = tracer.steps()
    assert [s["parent"] for s in tracer.children("swap")[step["step"]]] == [
        step["id"]]
    assert step["args"] == {k: getattr(timing, k) for k in
                            ("t_acc", "t_host", "t_mpi", "t_swap", "t_exe")}


def test_ring_tracing_spans_rank_0s_steps_and_halos(monkeypatch):
    """perfbench's traced ring swaps `lbhx.hetero.runtime_from_config` and
    `lbhx.distributed.TcpTransport` for tracing factories, which holds only
    while `run_distributed` looks both names up at call time and runs rank
    0 on the calling thread.  A 3-step, 2-rank call then records one `step`
    span of rank 0 per step, each holding its two halo sends and its two
    receives."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("steps", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import steps
    from spans import Tracer

    from lbhx.config import build_run_config, load_config
    from lbhx.hetero import random_state
    from lbhx.model import builtin_model

    cfg = build_run_config(load_config(
        overrides={"lattice.lx": "16", "lattice.ly": "16"}, use_env=False))
    state = random_state(builtin_model(cfg.model_name), cfg.lx, cfg.ly, 3)
    tracer = Tracer()
    with steps.ring_tracing(tracer):
        steps.ring_call(cfg, 2, state, 3)
    assert {s["rank"] for s in tracer.spans} == {0}
    step_ids = [s["step"] for s in tracer.steps()]
    assert len(step_ids) == 3
    for name in ("send", "recv"):
        per_step = tracer.children(name)
        assert sorted(per_step) == step_ids, name
        assert [len(per_step[i]) for i in step_ids] == [2] * 3, name
