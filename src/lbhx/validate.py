"""Self-contained validation checks: layout bijections, kernel invariants,
Taylor-Green viscosity, heterogeneous and distributed equivalence.

Each check returns a CheckResult; `run_suite` drives a selection of them and
is what the CLI `validate` subcommand executes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (PERIODIC, WALL_BOUNCE_BACK, BoundaryPolicy, Macroscopics,
                      apply_bc, collide_region, compute_moments, equilibrium,
                      interior_region, propagate_region, run_steps,
                      update_x_halos_periodic)
from .layouts import (Clustering, Family, FieldBuffer, Geometry,
                      LayoutDescriptor, convert_layout, coords_of,
                      linear_index)
from .model import ModelParams, builtin_model, validate_moments


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


ALL_DESCRIPTORS = [
    LayoutDescriptor(Family.AOS),
    LayoutDescriptor(Family.SOA),
    LayoutDescriptor(Family.CSOA, 2),
    LayoutDescriptor(Family.CSOA, 4),
    LayoutDescriptor(Family.CSOA, 2, Clustering.CONSECUTIVE),
    LayoutDescriptor(Family.CSOA, 4, Clustering.CONSECUTIVE),
    LayoutDescriptor(Family.CAOSOA, 2),
    LayoutDescriptor(Family.CAOSOA, 4),
    LayoutDescriptor(Family.CAOSOA, 2, Clustering.CONSECUTIVE),
    LayoutDescriptor(Family.CAOSOA, 4, Clustering.CONSECUTIVE),
]


def _offsets(desc: LayoutDescriptor, geom: Geometry, nq: int) -> np.ndarray:
    """linear_index of every (p, x, y), shape (Q, alloc_LX, LY)."""
    return linear_index(desc, geom, nq, np.arange(nq)[:, None, None],
                        np.arange(geom.alloc_lx)[:, None], np.arange(geom.ly))


def check_layout_bijections(lx: int = 12, ly: int = 16, nq: int = 37
                            ) -> CheckResult:
    """Exhaustive bijection scan of every layout on a small geometry."""
    geom = Geometry(lx, ly, halo=0)
    total = nq * lx * ly
    for desc in ALL_DESCRIPTORS:
        offsets = _offsets(desc, geom, nq).ravel()
        if sorted(offsets.tolist()) != list(range(total)):
            return CheckResult("layout-bijection", False, f"{desc} not bijective")
        for probe in (0, 1, total // 2, total - 1):
            p, x, y = coords_of(desc, geom, nq, probe)
            if linear_index(desc, geom, nq, p, x, y) != probe:
                return CheckResult("layout-bijection", False,
                                   f"{desc} inverse broken at {probe}")
    return CheckResult("layout-bijection", True,
                       f"{len(ALL_DESCRIPTORS)} layouts on {lx}x{ly} Q={nq}")


def check_cluster_alignment(ly: int = 16, nq: int = 37) -> CheckResult:
    """Cluster base offsets of clustered layouts are multiples of VL."""
    geom = Geometry(8, ly, halo=0)
    for desc in ALL_DESCRIPTORS:
        if not desc.clustered:
            continue
        offsets = _offsets(desc, geom, nq)
        base = offsets.min(axis=None)
        if base % desc.vl != 0:
            return CheckResult("cluster-alignment", False, str(desc))
        # every (p, x, cluster) group of VL offsets starts VL-aligned
        offs = np.sort(offsets.reshape(-1, 1), axis=0).ravel()
        starts = offs[::desc.vl]
        if np.any(starts % desc.vl):
            return CheckResult("cluster-alignment", False, str(desc))
    return CheckResult("cluster-alignment", True)


def check_propagate_permutation(seed: int = 7) -> CheckResult:
    """Periodic propagate preserves the per-population value multiset exactly."""
    model = builtin_model("d2q37")
    geom = Geometry(8, 8, halo=3)
    rng = np.random.default_rng(seed)
    state = rng.random((model.Q, 8, 8))
    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    buf.set_canonical(state)
    update_x_halos_periodic(buf)
    propagate_region(model, buf, interior_region(geom))
    out = buf.canonical("nxt")
    for p in range(model.Q):
        if sorted(out[p].ravel().tolist()) != sorted(state[p].ravel().tolist()):
            return CheckResult("propagate-permutation", False, f"population {p}")
    return CheckResult("propagate-permutation", True)


def check_conservation(seed: int = 11) -> CheckResult:
    """Collide conserves rho and rho*u per site; wall bc conserves global mass."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(16, 16, halo=3)
    rng = np.random.default_rng(seed)
    state = 0.1 + rng.random((model.Q, 16, 16))
    buf = FieldBuffer(LayoutDescriptor(Family.AOS), geom, model.Q)
    buf.set_canonical(state, "nxt")
    collide_region(model, params, buf, interior_region(geom))
    post = buf.canonical("prv")
    cx = model.cx.astype(float)
    cy = model.cy.astype(float)
    rho_err = np.max(np.abs(post.sum(0) - state.sum(0)) / state.sum(0))
    mx_err = np.max(np.abs(np.tensordot(cx, post, 1) - np.tensordot(cx, state, 1)))
    my_err = np.max(np.abs(np.tensordot(cy, post, 1) - np.tensordot(cy, state, 1)))
    if max(rho_err, mx_err, my_err) > 1e-12:
        return CheckResult("conservation", False,
                           f"collide drift {max(rho_err, mx_err, my_err):.2e}")
    buf2 = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    buf2.set_canonical(state)
    update_x_halos_periodic(buf2)
    propagate_region(model, buf2, interior_region(geom))
    apply_bc(model, buf2, BoundaryPolicy(WALL_BOUNCE_BACK))
    mass_err = abs(buf2.canonical("nxt").sum() - state.sum()) / state.sum()
    if mass_err > 1e-13:
        return CheckResult("conservation", False, f"wall mass drift {mass_err:.2e}")
    return CheckResult("conservation", True,
                       f"collide {max(rho_err, mx_err, my_err):.1e}, "
                       f"wall mass {mass_err:.1e}")


def check_cross_layout(steps: int = 20, seed: int = 3) -> CheckResult:
    """All four layouts agree after `steps` full steps on a random state."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(48, 64, halo=3)
    rng = np.random.default_rng(seed)
    init = model.w[:, None, None] * (1 + 0.1 * rng.random((model.Q, 48, 64)))
    finals = []
    for desc in (LayoutDescriptor(Family.AOS), LayoutDescriptor(Family.SOA),
                 LayoutDescriptor(Family.CSOA, 4),
                 LayoutDescriptor(Family.CAOSOA, 8)):
        buf = FieldBuffer(desc, geom, model.Q)
        buf.set_canonical(init)
        run_steps(model, params, buf, steps, BoundaryPolicy(PERIODIC))
        finals.append(buf.canonical("prv"))
    worst = 0.0
    for other in finals[1:]:
        worst = max(worst, float(np.max(np.abs(other - finals[0])
                                        / np.abs(finals[0]))))
    if worst > 1e-12:
        return CheckResult("cross-layout", False, f"rel spread {worst:.2e}")
    return CheckResult("cross-layout", True, f"rel spread {worst:.1e}")


def taylor_green_viscosity(lx: int = 64, ly: int = 64, tau: float = 0.8,
                           steps: int = 2000, u0: float = 0.02,
                           sample_every: int = 50, skip: int = 400
                           ) -> tuple[float, float]:
    """Fit the kinematic viscosity from a decaying Taylor-Green vortex.

    Returns (nu_fitted, nu_expected).  The vortex amplitude decays as
    exp(-2 nu k^2 t) for kx = ky = k, fitted log-linearly on the velocity
    amplitude after an initial transient.
    """
    model = builtin_model("d2q9")
    params = ModelParams(tau=tau)
    nu_expected = model.cs2 * (tau - 0.5)
    geom = Geometry(lx, ly, halo=3)
    kx = 2 * math.pi / lx
    ky = 2 * math.pi / ly
    x = np.arange(lx)[:, None]
    y = np.arange(ly)[None, :]
    ux = -u0 * np.cos(kx * x) * np.sin(ky * y)
    uy = u0 * np.sin(kx * x) * np.cos(ky * y)
    rho = np.ones((lx, ly)) - (u0 * u0) / (4 * model.cs2) * (
        np.cos(2 * kx * x) + np.cos(2 * ky * y))
    mac = Macroscopics(rho.ravel(), ux.ravel(), uy.ravel(), None)
    init = equilibrium(model, mac).reshape(model.Q, lx, ly)

    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    buf.set_canonical(init)
    policy = BoundaryPolicy(PERIODIC)
    times, amps = [], []

    def amplitude() -> float:
        f = buf.canonical("prv").reshape(model.Q, -1)
        m = compute_moments(model, f)
        return float(np.sqrt(np.mean(m.ux ** 2 + m.uy ** 2)))

    for t in range(1, steps + 1):
        run_steps(model, params, buf, 1, policy)
        if t >= skip and t % sample_every == 0:
            times.append(t)
            amps.append(amplitude())
    slope = np.polyfit(np.asarray(times, float), np.log(np.asarray(amps)), 1)[0]
    k2 = kx * kx + ky * ky
    nu_fit = -slope / k2
    return nu_fit, nu_expected


def check_taylor_green(tolerance: float = 0.02, **kw) -> CheckResult:
    nu_fit, nu_expected = taylor_green_viscosity(**kw)
    rel = abs(nu_fit - nu_expected) / nu_expected
    passed = rel <= tolerance
    return CheckResult("taylor-green", passed,
                       f"nu_fit={nu_fit:.5f} nu_expected={nu_expected:.5f} "
                       f"rel={rel:.3%}")


def check_hetero_equivalence(inject_skip_halo_swap: bool = False,
                             seed: int = 5) -> CheckResult:
    """Final state is bit-identical across border widths."""
    from .hetero import HeteroRuntime, make_partition, random_state

    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(48, 64, halo=3)
    desc = LayoutDescriptor(Family.CAOSOA, 4)
    init = random_state(model, geom.lx, geom.ly, seed)
    finals = {}
    for m in (0, 8, 12):
        with HeteroRuntime(model, params, desc, geom) as rt:
            if inject_skip_halo_swap and m > 0:
                rt.halo_swap_device_host = lambda plan: None
            rt.load_state(init)
            plan = make_partition(geom, m)
            for _ in range(10):
                rt.run_timestep(plan)
            finals[m] = rt.state(plan)
    baseline = finals[0]
    for m, final in finals.items():
        if not np.array_equal(final, baseline):
            return CheckResult("hetero-equivalence", False,
                               f"M={m} diverges from M=0")
    return CheckResult("hetero-equivalence", True, "M in {0, 8, 12} bit-identical")


def check_distributed_equivalence(transport: str = "in_memory",
                                  seed: int = 9) -> CheckResult:
    """4-rank run reproduces the single-rank run bit-exactly."""
    from .config import DEFAULTS, build_run_config
    from .distributed import run_distributed
    from .hetero import random_state

    values = dict(DEFAULTS)
    values.update({"lattice.lx": "96", "lattice.ly": "64",
                   "run.iterations": "20", "hetero.m": "0"})
    cfg = build_run_config(values)
    model = builtin_model(cfg.model_name)
    init = random_state(model, cfg.lx, cfg.ly, seed)
    _, merged1, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    _, merged4, _ = run_distributed(cfg, 4, transport, initial_state=init)
    if not np.array_equal(merged1, merged4):
        return CheckResult(f"distributed-equivalence-{transport}", False,
                           "merged dumps differ")
    return CheckResult(f"distributed-equivalence-{transport}", True,
                       "4 ranks == 1 rank, 20 steps")


def check_layout_roundtrip(seed: int = 13) -> CheckResult:
    """convert A->B->A is bit-identical for all family pairs."""
    geom = Geometry(4, 8, halo=1)
    nq = 37
    rng = np.random.default_rng(seed)
    src = FieldBuffer(LayoutDescriptor(Family.AOS), geom, nq)
    src.prv[:] = rng.random(src.size)
    src.nxt[:] = rng.random(src.size)
    for desc in ALL_DESCRIPTORS:
        mid = convert_layout(src, desc)
        back = convert_layout(mid, src.desc)
        if not (np.array_equal(back.prv, src.prv)
                and np.array_equal(back.nxt, src.nxt)):
            return CheckResult("layout-roundtrip", False, str(desc))
    return CheckResult("layout-roundtrip", True)


QUICK_CHECKS: list[Callable[[], CheckResult]] = [
    check_layout_bijections,
    check_cluster_alignment,
    check_layout_roundtrip,
    check_propagate_permutation,
    check_conservation,
]

FULL_CHECKS: list[Callable[[], CheckResult]] = QUICK_CHECKS + [
    check_cross_layout,
    check_hetero_equivalence,
    check_distributed_equivalence,
    check_taylor_green,
]


def run_suite(quick: bool = False,
              inject: str | None = None) -> list[CheckResult]:
    """Run the validation checks; `inject` enables negative-control faults."""
    checks = list(QUICK_CHECKS if quick else FULL_CHECKS)
    if inject == "skip-halo-swap" and check_hetero_equivalence not in checks:
        checks.append(check_hetero_equivalence)  # the fault needs its observer
    results = []
    for check in checks:
        if inject == "skip-halo-swap" and check is check_hetero_equivalence:
            results.append(check_hetero_equivalence(inject_skip_halo_swap=True))
        else:
            results.append(check())
    return results
