"""Output checks: conservation and health of a final state, and a comparison
against an independent canonical-space oracle (np.roll pull + BGK).

The oracle shares only the model constants (velocities, weights, cs2) with
lbhx; it uses none of its layouts, kernels, runtime or rank ring.
"""
from __future__ import annotations

import numpy as np

#: relative change of total mass allowed over a whole run
MASS_RTOL = 1e-10
#: change of each total momentum component allowed, relative to total mass
MOMENTUM_RTOL = 1e-10
#: max |lbhx - oracle| relative to max |oracle| after ORACLE_STEPS steps
ORACLE_RTOL = 1e-12
ORACLE_STEPS = 5


class Checks:
    """Counts attempted and failed output checks; keeps a line per check."""

    def __init__(self):
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        verdict = "ok" if ok else "FAILED"
        self.lines.append(f"check {name}: {verdict} ({detail})")


def check_state(checks: Checks, model, initial: np.ndarray, final: np.ndarray,
                periodic_y: bool, label: str) -> None:
    """Finiteness, min density > 0, global mass, and momentum if periodic."""
    finite = bool(np.isfinite(final).all())
    checks.record(f"{label}.finite", finite, "all populations finite")
    if not finite:
        return
    rho_min = float(final.sum(axis=0).min())
    checks.record(f"{label}.rho_min", rho_min > 0, f"min rho = {rho_min:.6g}")
    mass0, mass1 = float(initial.sum()), float(final.sum())
    drift = abs(mass1 - mass0) / mass0
    checks.record(f"{label}.mass", drift <= MASS_RTOL,
                  f"|dM|/M = {drift:.3g}, tolerance {MASS_RTOL:g}")
    if periodic_y:
        c = model.c.astype(np.float64)
        p0 = c.T @ initial.sum(axis=(1, 2))
        p1 = c.T @ final.sum(axis=(1, 2))
        err = float(np.abs(p1 - p0).max()) / mass0
        checks.record(f"{label}.momentum", err <= MOMENTUM_RTOL,
                      f"max |dP|/M = {err:.3g}, tolerance {MOMENTUM_RTOL:g}")


def oracle_steps(model, tau: float, f: np.ndarray, steps: int,
                 wall_y: bool) -> np.ndarray:
    """Reference update of a canonical (Q, LX, LY) state, periodic in X.

    Pull streaming is a roll by (cx, cy).  With walls in Y, a population
    whose pull source row lies outside [0, LY) takes the opposite
    population's pre-streaming value at the same site (link bounce-back).
    """
    velocities = [tuple(int(v) for v in row) for row in model.c]
    opposite = [velocities.index((-cx, -cy)) for cx, cy in velocities]
    w = np.asarray(model.w, dtype=np.float64)
    cs2 = float(model.cs2)
    f = f.astype(np.float64, copy=True)
    for _ in range(steps):
        g = np.empty_like(f)
        for p, (cx, cy) in enumerate(velocities):
            g[p] = np.roll(f[p], (cx, cy), axis=(0, 1))
            if wall_y and cy > 0:
                g[p, :, :cy] = f[opposite[p], :, :cy]
            elif wall_y and cy < 0:
                g[p, :, cy:] = f[opposite[p], :, cy:]
        rho = np.zeros(f.shape[1:])
        jx = np.zeros(f.shape[1:])
        jy = np.zeros(f.shape[1:])
        for p, (cx, cy) in enumerate(velocities):
            rho += g[p]
            jx += cx * g[p]
            jy += cy * g[p]
        ux, uy = jx / rho, jy / rho
        usq = ux * ux + uy * uy
        for p, (cx, cy) in enumerate(velocities):
            cu = cx * ux + cy * uy
            feq = w[p] * rho * (1.0 + cu / cs2 + cu * cu / (2 * cs2 * cs2)
                                - usq / (2 * cs2))
            f[p] = g[p] - (g[p] - feq) / tau
    return f


def check_oracle(checks: Checks, model, tau: float, initial: np.ndarray,
                 final: np.ndarray, wall_y: bool, label: str) -> None:
    ref = oracle_steps(model, tau, initial, ORACLE_STEPS, wall_y)
    err = float(np.abs(final - ref).max() / np.abs(ref).max())
    checks.record(f"{label}.oracle", err <= ORACLE_RTOL,
                  f"max rel diff {err:.3g} after {ORACLE_STEPS} steps, "
                  f"tolerance {ORACLE_RTOL:g}")
