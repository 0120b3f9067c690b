"""lbhx benchmark: full-step MLUPS and step times on one workload, checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bulk-q37 --seed 1 --seconds 50

`--trace 0` times full steps with nothing wrapped and reports the end-to-end
metrics listed in BENCHMARK.json; `--trace 1` reports the per-layer ones and
writes a Chrome trace-event file to `.bench_out/`.  Every run checks its
output; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only if every check
passed.  The benchmark sets no thread variable: the BLAS thread count in
effect is part of the fingerprint printed with each run.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from bootstrap import ROOT, use_checkout_src

OUT = ROOT / ".bench_out"
#: cold set-ups per run, each in a fresh process; setup_s is their median
SETUP_PROBES = 9
#: share of a traced run spent in the kernel loop
KERNEL_SHARE = 0.15
#: a step's span sum matches a TimestepTiming field within this share of the
#: field, or SPAN_ATOL_S, whichever is larger
SPAN_RTOL = 0.05
SPAN_ATOL_S = 2e-4
#: share of (step, field) pairs that must match for the trace check to pass
SPAN_MATCH_MIN = 0.95


def fingerprint(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # numpy's config report varies by version
        blas = {"error": repr(exc)}
    src = ROOT / "src" / "lbhx"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env_keys = sorted({k for k in os.environ if k.startswith("LBHX_")}
                      | {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"})
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": _blas_threads(),
        "env": {k: os.environ.get(k, "unset") for k in env_keys},
        "git": _git_revision(), "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def setup_seconds(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def oracle_check(w, seed: int, checks) -> None:
    """Run the workload's setting at a small size and set it against the
    canonical-space oracle."""
    from lbhx.model import builtin_model

    from checks import ORACLE_STEPS, check_oracle
    from steps import ring_call

    cfg = w.config(small=True)
    state = w.state(cfg, seed)
    if w.ranks > 1:
        _wall, final, _ = ring_call(cfg, w.ranks, state, ORACLE_STEPS)
    else:
        from lbhx.hetero import make_partition, runtime_from_config
        with runtime_from_config(cfg) as rt:
            rt.load_state(state)
            plan = make_partition(rt.geom, cfg.m)
            for _ in range(ORACLE_STEPS):
                rt.run_timestep(plan)
            final = rt.state(plan)
    check_oracle(checks, builtin_model(cfg.model_name), cfg.tau, state, final,
                 not w.periodic_y, "small")


def end_to_end(w, cfg, state, args, checks) -> tuple[dict, int]:
    from steps import WINDOW, run_ring, run_single

    setup = setup_seconds(w.name, args.seed)
    steal0 = _cpu_steal()
    if w.ranks > 1:
        runs, final = run_ring(cfg, w.ranks, state, args.seconds)
    else:
        runs, final = run_single(cfg, state, args.seconds)
    steal1 = _cpu_steal()
    _check_final(w, cfg, state, final, checks)
    blocks = runs[False]
    for i, b in enumerate(blocks):
        ms = [s * 1e3 for s in b.step_s]
        print(f"block {i}: {len(ms)} steps ({len(ms) - round(0.9 * len(ms))} "
              f"beyond p90), p50 {statistics.median(ms):.3f} ms, "
              f"p90 {quantile(ms, 90):.3f} ms")
    if steal0 and steal1:
        share = (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1)
        print(f"host CPU steal during the timed blocks: {share:.2%}")
    step_s = [s for b in blocks for s in b.step_s]
    windows = [step_s[i:i + WINDOW] for i in range(len(step_s) - WINDOW + 1)]
    print(f"step_ms_p50/p90: the lowest over {len(windows)} windows of "
          f"{WINDOW} consecutive steps ({WINDOW - round(0.9 * WINDOW)} beyond "
          f"p90) out of {len(step_s)} timed steps")
    return {
        "mlups": _mlups(cfg, blocks),
        "step_ms_p50": min(statistics.median(s) for s in windows) * 1e3,
        "step_ms_p90": min(quantile(s, 90) for s in windows) * 1e3,
        "setup_s": setup,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, sum(len(b.step_s) for b in blocks)


def _cpu_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host since boot, if readable."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7], sum(ticks)) if len(ticks) > 7 else None


def _mlups(cfg, blocks) -> float:
    """Best block's sites x steps / wall-clock seconds.

    Interference from other tenants of a shared host only adds time, so the
    least-disturbed block estimates what the program itself costs; the step
    time percentiles are likewise taken from the least-disturbed window of
    consecutive steps.
    """
    return max(cfg.lx * cfg.ly * len(b.step_s) / b.wall / 1e6 for b in blocks)


def _check_final(w, cfg, state, final, checks) -> None:
    from lbhx.model import builtin_model

    from checks import check_state
    check_state(checks, builtin_model(cfg.model_name), state, final,
                w.periodic_y, "run")


def per_layer(w, cfg, state, args, checks) -> tuple[dict, dict, int]:
    """Returns (metrics, missing layer -> reason, steps run)."""
    from lbhx.errors import TuningError

    import layers
    from spans import Tracer
    from steps import run_ring, run_single

    tracer = Tracer()
    rank_cfg = dataclasses.replace(cfg, lx=cfg.lx // w.ranks)
    rank_state = state[:, :rank_cfg.lx, :]
    metrics: dict = {}
    missing: dict = {}

    def layer(name, fn, *a):
        try:
            result = fn(*a)
        except (ImportError, AttributeError) as exc:
            missing[name] = f"entry point unavailable: {exc!r}"
            return None
        except TuningError as exc:
            missing[name] = f"autotune failed: {exc}"
            return None
        return result

    metrics.update(layers.roof())
    kernel = layer("kernels", layers.kernel_loop, rank_cfg, rank_state,
                   KERNEL_SHARE * args.seconds, tracer, checks, w.periodic_y)
    if kernel is not None:
        metrics.update(kernel[0])
        metrics.update(layer("layouts", layers.layouts, kernel[1], w.ranks)
                       or {})
    else:
        missing["layouts"] = "measured on the kernel loop's buffer"
    run_seconds = (1 - KERNEL_SHARE) * args.seconds
    if w.ranks > 1:
        runs, final = run_ring(cfg, w.ranks, state, run_seconds, tracer)
    else:
        runs, final = run_single(cfg, state, run_seconds, tracer)
    _check_final(w, cfg, state, final, checks)
    mlups = {mode: _mlups(cfg, blocks) for mode, blocks in runs.items()}
    metrics["trace.overhead_frac"] = 1 - mlups[True] / mlups[False]
    print(f"mlups untraced {mlups[False]:.4f}, traced {mlups[True]:.4f}")

    steps = tracer.steps()
    if steps:
        metrics.update(_hetero(steps))
        metrics.update(_distributed(tracer, steps, w.ranks))
        metrics.update(_span_match(tracer, steps, checks))
    else:
        missing["hetero"] = missing["distributed"] = "no step spans recorded"
    measured = (statistics.median(s["args"]["t_exe"] for s in steps)
                if steps else None)
    metrics.update(layer("perf_model", layers.perf_model, rank_cfg,
                         rank_state, measured) or {})
    if "kernels.collide_ms" in metrics:
        kernel_s = (metrics["kernels.propagate_ms"]
                    + metrics["kernels.collide_ms"]) / 1e3
        sites = rank_cfg.lx * rank_cfg.ly
        moved = 2 * metrics["kernels.bytes_per_site"] * sites / kernel_s
        metrics["kernels.roof_frac"] = moved / (metrics["roof.copy_gbs"] * 1e9)
        if "hetero.t_acc_ms" in metrics:
            per_site = sum(metrics[f"kernels.{k}_ms"] for k in
                           ("propagate", "bc", "collide")) / sites
            bulk = (rank_cfg.lx - 2 * cfg.m) * cfg.ly
            metrics["kernels.t_acc_coverage"] = (
                per_site * bulk * cfg.device_throttle
                / metrics["hetero.t_acc_ms"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{args.seed}.json"
    tracer.write(path)
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    checks.record("trace.json", bool(events),
                  f"{len(events)} trace events in {path.name}")
    steps_run = sum(len(b.step_s) for blocks in runs.values() for b in blocks)
    return metrics, missing, steps_run


def _ms_median(values) -> float:
    return statistics.median(values) * 1e3


def _hetero(steps: list[dict]) -> dict:
    t = {k: [s["args"][k] for s in steps]
         for k in ("t_acc", "t_host", "t_mpi", "t_swap", "t_exe")}
    out = {f"hetero.{k}_ms": _ms_median(t[k])
           for k in ("t_acc", "t_host", "t_mpi", "t_swap")}
    out["hetero.balance"] = statistics.median(t["t_acc"]) / (
        statistics.median(t["t_host"]) + statistics.median(t["t_mpi"]))
    out["hetero.residual_ms"] = _ms_median(
        exe - max(acc, host + mpi) - swap for acc, host, mpi, swap, exe in
        zip(t["t_acc"], t["t_host"], t["t_mpi"], t["t_swap"], t["t_exe"]))
    return out


def _span_sum(by_step: dict, step: int) -> float:
    return sum(s["end"] - s["start"] for s in by_step.get(step, ()))


def _distributed(tracer, steps: list[dict], ranks: int) -> dict:
    exchange = tracer.children("exchange")
    send = tracer.children("send")
    recv = tracer.children("recv")
    ids = [s["step"] for s in steps]
    ex = [_span_sum(exchange, i) for i in ids]
    se = [_span_sum(send, i) for i in ids]
    rc = [_span_sum(recv, i) for i in ids]
    ring_steps = len(steps) / ranks
    sends = [s for group in send.values() for s in group]
    by_rank: dict[int, list[dict]] = {}
    for s in sorted(steps, key=lambda s: s["start"]):
        by_rank.setdefault(s["rank"], []).append(s)
    ends = list(zip(*by_rank.values()))
    return {
        "distributed.exchange_ms": _ms_median(ex),
        "distributed.send_ms": _ms_median(se),
        "distributed.recv_wait_ms": _ms_median(rc),
        "distributed.pack_ms": _ms_median(e - s - r for e, s, r in
                                          zip(ex, se, rc)),
        "distributed.bytes_per_step": sum(s["args"]["bytes"] for s in sends)
        / ring_steps,
        "distributed.msgs_per_step": len(sends) / ring_steps,
        "distributed.rank_skew_ms": _ms_median(
            max(s["end"] for s in group) - min(s["end"] for s in group)
            for group in ends),
    }


def _span_match(tracer, steps: list[dict], checks) -> dict:
    """Set each step's span sums against its returned TimestepTiming."""
    exchange = tracer.children("exchange")
    swap = tracer.children("swap")
    pairs = []
    for s in steps:
        a = s["args"]
        pairs += [(_span_sum(exchange, s["step"]), a["t_mpi"]),
                  (_span_sum(swap, s["step"]), a["t_swap"]),
                  (s["end"] - s["start"], a["t_exe"])]
    matched = sum(abs(span - field) <= max(SPAN_RTOL * field, SPAN_ATOL_S)
                  for span, field in pairs)
    frac = matched / len(pairs)
    checks.record("trace.span_sums", frac >= SPAN_MATCH_MIN,
                  f"{matched}/{len(pairs)} step span sums match t_mpi, "
                  f"t_swap, t_exe within {SPAN_RTOL:g} or "
                  f"{SPAN_ATOL_S * 1e3:g} ms; need {SPAN_MATCH_MIN:g}")
    return {"trace.span_match_frac": frac}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_src()

    from checks import Checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    fp = fingerprint(args.seed)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    cfg = w.config()
    state = w.state(cfg, args.seed)
    checks = Checks()
    oracle_check(w, args.seed, checks)
    if args.trace:
        values, missing, steps = per_layer(w, cfg, state, args, checks)
        wanted = spec["per_layer"]
    else:
        values, steps = end_to_end(w, cfg, state, args, checks)
        missing = {}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{m['name']} = {shown} {m['unit']}")
    for layer, reason in missing.items():
        print(f"missing layer {layer}: {reason}")
    attempted = steps + checks.attempted
    print("\n".join(checks.lines))
    print(f"fail_frac = {checks.failed}/{attempted} = "
          f"{checks.failed / attempted:.6g}")
    result = {"correct": checks.failed == 0, "attempted": attempted,
              "failed": checks.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=w.name, trace=args.trace,
                  fingerprint=fp, checks=checks.lines, missing=missing)
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
