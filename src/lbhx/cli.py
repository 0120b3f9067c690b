"""Command-line front end: benchmark tables, balance/VL sweeps, scaling runs,
validation, prediction and state dumps, all emitting machine-readable CSV.

Exit status: 0 success, 1 configuration or tuning error, 2 runtime fault,
3 validation failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import statistics
import sys
from functools import partial

import numpy as np

from .config import DEFAULTS, build_run_config, load_config
from .errors import (CommunicationFault, ConfigurationError, LbhxError,
                     RuntimeFault, ValidationFailure)
from .hetero import (HeteroTuningRunner, balance_experiment, device_lanes,
                     make_partition, random_state, runtime_from_config,
                     tune_profile)
from .kernels import run_steps
from .layouts import (Family, FieldBuffer, LayoutDescriptor,
                      clustering_from_name, family_from_name, read_dump,
                      write_dump)
from .model import ModelParams, builtin_model, validate_moments
from .perf_model import (SAMPLE_PROFILES, autotune, best3, load_profile,
                         mlups, optimal_m, paired_ratios, sample, save_profile,
                         time_call, whatif)
from .report import BenchReport


def _key_to_flag(key: str) -> str:
    return "--" + key.replace(".", "-").replace("_", "-")


def _common_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-c", "--config", metavar="FILE",
                        help="flat key = value configuration file")
    parent.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], help="override any configuration key")
    for key in DEFAULTS:
        parent.add_argument(_key_to_flag(key), dest=f"cfg::{key}",
                            metavar="V", help=f"override {key}")
    parent.add_argument("-o", "--output", metavar="FILE",
                        help="write the report CSV here instead of stdout")
    return parent


def _collect_config(args) -> dict:
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for key in DEFAULTS:
        value = getattr(args, f"cfg::{key}", None)
        if value is not None:
            overrides[key] = value
    return load_config(args.config, overrides)


def _emit(report: BenchReport, args) -> None:
    text = report.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _positive_ints(flag: str, text: str) -> list[int]:
    """The comma list `text` given to option `flag`, as positive ints."""
    try:
        values = [int(v) for v in text.split(",")]
        if min(values) >= 1:
            return values
    except ValueError:
        pass
    raise ConfigurationError(
        f"{flag} expects a comma list of positive integers, got {text!r}")


#: the options whose value names a file the command writes
_OUTPUTS = ("output", "json", "save", "out", "dat_prefix", "export_csv")


def _check_outputs(args) -> None:
    """Fail before any work if an output file's directory does not exist."""
    for name in _OUTPUTS:
        path = getattr(args, name, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigurationError(
                f"cannot write {path}: its directory does not exist")


def _layout_descriptor(name: str, vl: int, clustering: str) -> LayoutDescriptor:
    family = family_from_name(name)
    if family in (Family.CSOA, Family.CAOSOA):
        return LayoutDescriptor(family, vl, clustering_from_name(clustering))
    return LayoutDescriptor(family)


# -- bench -------------------------------------------------------------------

def cmd_bench(cfg, args) -> BenchReport:
    """Layout timing table of the fused step: best-3 ms per iteration,
    MLUPS, and same-round time ratios to the first layout.  Each row's `gbs`
    counts 2·Q·8 B per site (one read of `prv`, one write of `nxt`), and its
    `roof_frac` is that over the copy roof: an arena copied in the same
    rounds (`roof.copy_gbs`, which counts the read and the write)."""
    layouts = args.layouts.split(",")
    model = builtin_model(cfg.model_name)
    params = ModelParams(tau=cfg.tau)
    geom = cfg.geometry
    # validate every layout/VL combination before any timing run
    descs = [_layout_descriptor(name, cfg.layout.vl,
                                cfg.layout.clustering.name.lower())
             for name in layouts]
    for desc in descs:
        geom.check_vl(desc)

    report = BenchReport("bench", metadata={
        "model": model.name, "lx": str(cfg.lx), "ly": str(cfg.ly),
        "iters": str(args.iters),
    })
    measurands = []
    for desc in descs:
        buf = FieldBuffer(desc, geom, model.Q)
        buf.set_canonical(random_state(model, cfg.lx, cfg.ly, cfg.seed))
        measurands.append(partial(time_call, run_steps, model, params, buf, 1,
                                  cfg.policy))
    roof = FieldBuffer(descs[0], geom, model.Q)
    roof.prv.fill(1.0)  # an untouched arena would read the shared zero page
    measurands.append(partial(time_call, np.copyto, roof.nxt, roof.prv))
    *samples, copies = sample(measurands, warmup=max(args.warmup, 1),
                              rounds=args.iters)
    copy_gbs = 2 * roof.prv.nbytes / best3(copies) / 1e9
    report.metadata["roof.copy_gbs"] = repr(copy_gbs)
    site_bytes = 2 * model.Q * 8 * cfg.lx * cfg.ly
    for name, desc, times in zip(layouts, descs, samples):
        t = best3(times)
        gbs = site_bytes / t / 1e9
        report.add_row(layout=name, vl=desc.vl, lx=cfg.lx, ly=cfg.ly,
                       t_ms=t * 1e3, **paired_ratios(times, samples[0]),
                       mlups=mlups(cfg.lx, cfg.ly, t), gbs=gbs,
                       roof_frac=gbs / copy_gbs)
    return report


# -- sweep-balance -----------------------------------------------------------

def cmd_sweep_balance(cfg, args) -> BenchReport:
    """Measured vs predicted MLUPS over a border-fraction grid, plus M*."""
    lx, ly = cfg.lx, cfg.ly
    step = max(args.frac_step, 0.01)
    fracs = [round(f * step, 10) for f in range(int(0.5 / step) + 1)]
    m_points = sorted({min(int(round(f * lx / 2)), lx // 2) for f in fracs})
    widths = sorted({max(2, lx // 4), lx // 2, 3 * lx // 4, lx})
    with runtime_from_config(cfg) as rt:
        rt.load_state(random_state(rt.model, lx, ly, cfg.seed))
        profile, points = balance_experiment(rt, widths, m_points,
                                             rounds=args.rounds)
    m_star = optimal_m(profile, lx, ly)
    report = BenchReport("sweep-balance", metadata={
        "model": cfg.model_name, "lx": str(lx), "ly": str(ly),
        "device_throttle": str(cfg.device_throttle),
        "device_lanes": str(rt.lanes),
        "m_star": str(m_star), "m_star_frac": repr(2 * m_star / lx),
        "profile.tau_d": repr(profile.tau_d),
        "profile.tau_h": repr(profile.tau_h),
        "profile.tau_c": repr(profile.tau_c),
        "profile.t_swap": repr(profile.t_swap),
    })
    for p in points:
        report.add_row(m=p.m, m_frac=2 * p.m / lx,
                       mlups_meas=mlups(lx, ly, p.measured),
                       mlups_pred=mlups(lx, ly, p.predicted),
                       t_meas_us=p.measured * 1e6,
                       t_pred_us=p.predicted * 1e6)
    return report


# -- sweep-vl ----------------------------------------------------------------

def cmd_sweep_vl(cfg, args) -> BenchReport:
    """Best-balance MLUPS per cluster size VL, and step time ratios."""
    vls = _positive_ints("--vls", args.vls)
    family = cfg.layout.family
    if family not in (Family.CSOA, Family.CAOSOA):
        raise ConfigurationError("sweep-vl needs a clustered layout "
                                 "(csoa or caosoa)")
    descs = [LayoutDescriptor(family, vl, cfg.layout.clustering) for vl in vls]
    for desc in descs:
        cfg.geometry.check_vl(desc)  # VL=1 or non-divisor rejected here
    report = BenchReport("sweep-vl", metadata={
        "model": cfg.model_name, "lx": str(cfg.lx), "ly": str(cfg.ly),
        "layout": family.name.lower(),
        "device_throttle": str(cfg.device_throttle),
    })
    lx, ly = cfg.lx, cfg.ly
    m_best, steps = [], []
    with contextlib.ExitStack() as stack:
        for desc in descs:
            rt = stack.enter_context(
                runtime_from_config(dataclasses.replace(cfg, layout=desc)))
            rt.load_state(random_state(rt.model, lx, ly, cfg.seed))
            profile = autotune(HeteroTuningRunner(rt), warmup=2,
                               iters=args.rounds)
            m_best.append(optimal_m(profile, lx, ly))
            plan = make_partition(cfg.geometry, m_best[-1])
            steps.append(lambda rt=rt, plan=plan: rt.run_timestep(plan).t_exe)
        samples = sample(steps, warmup=3, rounds=args.rounds)
    rates = [mlups(lx, ly, best3(times)) for times in samples]
    for vl, m, rate, times in zip(vls, m_best, rates, samples):
        report.add_row(vl=vl, best_m_frac=2 * m / lx, mlups=rate,
                       **paired_ratios(times, samples[0]))
    report.metadata["argmax_vl"] = str(vls[rates.index(max(rates))])
    return report


# -- scale -------------------------------------------------------------------

def cmd_scale(cfg, args) -> BenchReport:
    """Multi-rank MLUPS/speedup, accelerator-only (v1) vs balanced (v2)."""
    from .distributed import run_distributed

    rank_counts = _positive_ints("--ranks", args.ranks)
    lanes = {n: device_lanes(n) for n in rank_counts}
    model = builtin_model(cfg.model_name)
    state = random_state(model, cfg.lx, cfg.ly, cfg.seed)
    # v2 runs each rank at hetero.m, or else at M* for its own slice width
    # from a profile tuned at the lane count its ranks run with
    tuned = {}  # lane count -> profile
    for n in rank_counts:
        if cfg.m == 0 and lanes[n] not in tuned:
            tuned[lanes[n]] = tune_profile(dataclasses.replace(cfg, ranks=n),
                                           state)

    report = BenchReport("scale", metadata={
        "model": cfg.model_name, "lx": str(cfg.lx), "ly": str(cfg.ly),
        "transport": args.transport,
        "device_throttle": str(cfg.device_throttle),
        "device_lanes": ",".join(str(lanes[n]) for n in rank_counts),
    })
    finals: dict[tuple, np.ndarray] = {}
    base: dict[str, float] = {}
    for mode, c in (("v1", dataclasses.replace(cfg, m=0)), ("v2", cfg)):
        for n in rank_counts:
            _, merged, results = run_distributed(
                c, n, args.transport, initial_state=state,
                profile=tuned.get(lanes[n]) if mode == "v2" else None)
            finals[(mode, n)] = merged
            t = statistics.median(
                t for r in results for t in r.iteration_times)
            rate = mlups(cfg.lx, cfg.ly, t)
            base.setdefault(mode, rate)
            report.add_row(ranks=n, lanes=lanes[n], mode=mode,
                           m=results[0].m, mlups=rate,
                           speedup=rate / base[mode])
    reference = finals[("v1", rank_counts[0])]
    for key, merged in finals.items():
        if not np.array_equal(merged, reference):
            raise RuntimeFault(
                f"final state for {key} deviates from the reference run")
    report.metadata["finals_identical"] = "true"
    return report


# -- validate ----------------------------------------------------------------

def cmd_validate(cfg, args) -> int:
    from .validate import run_suite

    results = run_suite(quick=args.quick, inject=args.inject)
    for res in results:
        print(res.line())
    failures = [r for r in results if not r.passed]
    if failures:
        raise ValidationFailure(
            f"{len(failures)} of {len(results)} checks failed: "
            + ", ".join(r.name for r in failures))
    print(f"all {len(results)} checks passed")
    return 0


# -- predict -----------------------------------------------------------------

def cmd_predict(cfg, args) -> BenchReport:
    if args.profile:
        profile = load_profile(args.profile)
        source = args.profile
    elif args.registry:
        if args.registry not in SAMPLE_PROFILES:
            raise ConfigurationError(
                f"unknown registry profile {args.registry!r}; "
                f"available: {sorted(SAMPLE_PROFILES)}")
        profile = SAMPLE_PROFILES[args.registry]
        source = f"registry:{args.registry}"
    else:
        raise ConfigurationError("predict needs --profile FILE or "
                                 "--registry NAME")
    overrides: dict[str, float] = {}
    for item in args.override or []:
        if "=" not in item:
            raise ConfigurationError(
                f"--override expects PARAM=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"--override {key}: bad number {value!r}") from None

    lx, ly = cfg.lx, cfg.ly
    curves = {"base": whatif(profile, lx, ly, m_step=args.m_step)}
    if overrides:
        curves["override"] = whatif(profile, lx, ly, overrides,
                                    m_step=args.m_step)
    report = BenchReport("predict", metadata={
        "lx": str(lx), "ly": str(ly), "profile": source,
        "overrides": ";".join(f"{k}={v}" for k, v in overrides.items()),
    })
    for name, preds in curves.items():
        for p in preds:
            report.add_row(curve=name, m=p.m, m_frac=2 * p.m / lx,
                           t_exe=p.t_exe, mlups=p.mlups)
    if args.dat_prefix:
        for name, preds in curves.items():
            path = f"{args.dat_prefix}_{name}.dat"
            with open(path, "w") as fh:
                fh.write(f"# 2M/LX  MLUPS  ({source}, {lx}x{ly})\n")
                for p in preds:
                    fh.write(f"{2 * p.m / lx:.6f} {p.mlups:.6f}\n")
    return report


# -- autotune ----------------------------------------------------------------

def cmd_autotune(cfg, args) -> BenchReport:
    with runtime_from_config(cfg) as rt:
        rt.load_state(random_state(rt.model, cfg.lx, cfg.ly, cfg.seed))
        profile = autotune(HeteroTuningRunner(rt), warmup=args.warmup,
                           iters=args.iters)
    m_star = optimal_m(profile, cfg.lx, cfg.ly)
    if args.save:
        save_profile(args.save, profile)
    report = BenchReport("autotune", metadata={
        "model": cfg.model_name, "lx": str(cfg.lx), "ly": str(cfg.ly),
        "device_throttle": str(cfg.device_throttle),
        "device_lanes": str(rt.lanes),
    })
    report.add_row(tau_d=profile.tau_d, tau_h=profile.tau_h,
                   tau_c=profile.tau_c, t_swap=profile.t_swap,
                   m_star=m_star, m_star_frac=2 * m_star / cfg.lx)
    return report


# -- model show --------------------------------------------------------------

def cmd_model_show(cfg, args) -> int:
    model = builtin_model(args.name or cfg.model_name)
    print(f"model {model.name}: D={model.D} Q={model.Q} R={model.R}")
    print(f"cs2 = {model.cs2!r}")
    shells: dict[float, list[int]] = {}
    for i, (cx, cy) in enumerate(model.velocities):
        shells.setdefault(cx * cx + cy * cy, []).append(i)
    for c2 in sorted(shells):
        members = shells[c2]
        w = model.weights[members[0]]
        print(f"  |c|^2={c2:g}: {len(members)} velocities, weight {w!r}")
    residuals = validate_moments(model, max_order=4)
    for order, res in sorted(residuals.items()):
        print(f"  moment order {order}: max residual {res:.3e}")
    return 0


# -- dump / load -------------------------------------------------------------

def cmd_dump(cfg, args) -> int:
    from .distributed import run_distributed

    model = builtin_model(cfg.model_name)
    state = random_state(model, cfg.lx, cfg.ly, cfg.seed)
    profile = tune_profile(cfg, state) if cfg.autotune_m else None
    report, final, _ = run_distributed(cfg, 1, "in_memory",
                                       initial_state=state, profile=profile)
    buf = FieldBuffer(cfg.layout, cfg.geometry, model.Q)
    buf.set_canonical(final)
    write_dump(args.out, buf)
    print(f"wrote {args.out}: {cfg.model_name} {cfg.lx}x{cfg.ly} after "
          f"{cfg.iterations} iterations, "
          f"device_lanes={report.metadata['device_lanes']}"
          + (f", mlups={float(report.metadata['mlups']):.3f}"
             if "mlups" in report.metadata else ""))
    return 0


def cmd_load(cfg, args) -> int:
    state, meta = read_dump(args.path)
    nq, lx, ly = state.shape
    print(f"{args.path}: Q={nq} lattice {lx}x{ly} "
          f"family={meta['family'].name.lower()} vl={meta['vl']} "
          f"clustering={meta['clustering'].name.lower()}")
    rho = state.sum(axis=0)
    print(f"rho: mean={rho.mean():.6f} min={rho.min():.6f} "
          f"max={rho.max():.6f}")
    if args.export_csv:
        np.savetxt(args.export_csv, state.reshape(nq, -1).T, delimiter=",")
        print(f"wrote {args.export_csv}")
    return 0


# -- driver ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="lbhx", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", parents=[common],
                       help="fused step timing table per layout")
    p.add_argument("--layouts", default="aos,soa,csoa,caosoa")
    p.add_argument("--iters", type=int, default=11)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--json", metavar="FILE",
                   help="also append the report as one record to the JSON "
                        "list in FILE")

    p = sub.add_parser("sweep-balance", parents=[common],
                       help="measured vs predicted MLUPS over border widths")
    p.add_argument("--frac-step", type=float, default=0.05,
                   help="grid step in 2M/LX")
    p.add_argument("--rounds", type=int, default=20)

    p = sub.add_parser("sweep-vl", parents=[common],
                       help="best-balance MLUPS per cluster size")
    p.add_argument("--vls", default="2,4,8")
    p.add_argument("--rounds", type=int, default=8)

    p = sub.add_parser("scale", parents=[common],
                       help="multi-rank scaling, accelerator-only vs balanced")
    p.add_argument("--ranks", default="1,2,4")
    p.add_argument("--transport", choices=("in_memory", "tcp"),
                   default="in_memory")

    p = sub.add_parser("validate", parents=[common],
                       help="run the validation suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--inject", choices=("skip-halo-swap",),
                   help="negative control: plant a fault, expect a failure")

    p = sub.add_parser("predict", parents=[common],
                       help="prediction sweep from a stored profile")
    p.add_argument("--profile", help="profile file from `lbhx autotune`")
    p.add_argument("--registry", help="named illustrative profile")
    p.add_argument("--override", action="append", metavar="PARAM=VALUE")
    p.add_argument("--m-step", type=int, default=1)
    p.add_argument("--dat-prefix",
                   help="also write gnuplot two-column files "
                        "PREFIX_<curve>.dat")

    p = sub.add_parser("autotune", parents=[common],
                       help="measure a performance profile on this machine")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--iters", type=int, default=11)
    p.add_argument("--save", metavar="FILE")

    p = sub.add_parser("model", parents=[common], help="model inspection")
    msub = p.add_subparsers(dest="model_command", required=True)
    ps = msub.add_parser("show", parents=[common])
    ps.add_argument("--name", help="model to show (default: configured)")

    p = sub.add_parser("dump", parents=[common],
                       help="run the configured simulation, dump final state")
    p.add_argument("--out", required=True)

    p = sub.add_parser("load", parents=[common], help="inspect a state dump")
    p.add_argument("path")
    p.add_argument("--export-csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        cfg = build_run_config(_collect_config(args))
        if args.command == "bench":
            report = cmd_bench(cfg, args)
            _emit(report, args)
            if args.json:
                report.append_json(args.json)
        elif args.command == "sweep-balance":
            _emit(cmd_sweep_balance(cfg, args), args)
        elif args.command == "sweep-vl":
            _emit(cmd_sweep_vl(cfg, args), args)
        elif args.command == "scale":
            _emit(cmd_scale(cfg, args), args)
        elif args.command == "validate":
            cmd_validate(cfg, args)
        elif args.command == "predict":
            _emit(cmd_predict(cfg, args), args)
        elif args.command == "autotune":
            _emit(cmd_autotune(cfg, args), args)
        elif args.command == "model":
            cmd_model_show(cfg, args)
        elif args.command == "dump":
            cmd_dump(cfg, args)
        elif args.command == "load":
            cmd_load(cfg, args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeFault, CommunicationFault) as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except LbhxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file the command reads or writes
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
