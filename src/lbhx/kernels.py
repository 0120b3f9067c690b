"""Per-timestep kernel pipeline: pull propagate, boundary fixup, BGK collide.

All kernels operate on a rectangular Region of allocation coordinates and are
site-local (collide, bc) or pure copies (propagate), so any disjoint
partition of a region produces bit-identical results.  They run on the
strided (Q, alloc_LX, A, B) views of FieldBuffer.view, with y = a * B + b.
Buffer roles are fixed: `prv` holds the state, `nxt` is scratch; a full step
runs propagate(prv->nxt), apply_bc(nxt), collide(nxt->prv).

The collide calls no BLAS routine.  Every reduction over populations is an
elementwise accumulation in a fixed population order, so a site's result does
not depend on the width or offset of the slice it is computed in, nor on BLAS
blocking or thread count.  Bit-identity across layouts, border widths M and
rank counts rests on this.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .layouts import FieldBuffer, Geometry
from .model import LatticeModel, ModelParams


@dataclass
class Macroscopics:
    """Density, velocity and temperature at one site (or arrays of sites)."""

    rho: float | np.ndarray
    ux: float | np.ndarray
    uy: float | np.ndarray
    T: float | np.ndarray


@dataclass(frozen=True)
class Region:
    """Column/row ranges; x in allocation coordinates, y in [0, LY)."""

    x_begin: int
    x_end: int
    y_begin: int
    y_end: int

    def __post_init__(self):
        if self.x_begin >= self.x_end or self.y_begin >= self.y_end:
            raise ConfigurationError(f"empty region {self}")

    @property
    def columns(self) -> int:
        return self.x_end - self.x_begin

    @property
    def rows(self) -> int:
        return self.y_end - self.y_begin

    @property
    def sites(self) -> int:
        return self.columns * self.rows


def interior_region(geom: Geometry) -> Region:
    return Region(geom.halo, geom.halo + geom.lx, 0, geom.ly)


PERIODIC = "periodic"
WALL_BOUNCE_BACK = "wall_bounce_back"


@dataclass(frozen=True)
class BoundaryPolicy:
    """Y-boundary handling; X is always periodic via halo columns."""

    y_mode: str = PERIODIC

    def __post_init__(self):
        if self.y_mode not in (PERIODIC, WALL_BOUNCE_BACK):
            raise ConfigurationError(f"unknown y boundary mode {self.y_mode!r}")


def _check_region(buf: FieldBuffer, region: Region) -> None:
    g = buf.geom
    if region.x_begin < 0 or region.x_end > g.alloc_lx:
        raise ContractViolation(f"region columns {region} exceed allocation")
    if region.y_begin < 0 or region.y_end > g.ly:
        raise ContractViolation(f"region rows {region} exceed [0, {g.ly})")


def _row_blocks(region: Region, n_b: int) -> list[tuple[slice, slice]]:
    """Rows [y_begin, y_end) as at most three (a, b) rectangles of
    y = a * B + b with B = n_b: a head row, whole middle rows, a tail row."""
    a0, b0 = divmod(region.y_begin, n_b)
    a1, b1 = divmod(region.y_end, n_b)
    if a0 == a1:
        return [(slice(a0, a0 + 1), slice(b0, b1))]
    blocks = []
    if b0:
        blocks.append((slice(a0, a0 + 1), slice(b0, n_b)))
        a0 += 1
    if a1 > a0:
        blocks.append((slice(a0, a1), slice(0, n_b)))
    if b1:
        blocks.append((slice(a1, a1 + 1), slice(0, b1)))
    return blocks


def propagate_region(model: LatticeModel, buf: FieldBuffer,
                     region: Region) -> None:
    """Pull-scheme streaming: nxt_l(x, y) = prv_l(x - cx, (y - cy) mod LY).

    With cy = qa * B + rb (0 <= rb < B), row (a, b) pulls from a-row a - qa
    at b - rb where b >= rb, and from a-row a - qa - 1 at b - rb + B where
    b < rb, a taken mod A: each population is at most four slice copies
    per row block.  X sources land in the halo columns, which the caller
    must keep current.
    """
    _check_region(buf, region)
    if region.x_begin - model.R < 0 or region.x_end + model.R > buf.geom.alloc_lx:
        raise ContractViolation("region too close to allocation edge for stencil")
    prv, nxt = buf.view("prv"), buf.view("nxt")
    n_a, n_b = nxt.shape[2:]
    x0, x1 = region.x_begin, region.x_end
    for p, (cx, cy) in enumerate(model.velocities):
        src, dst = prv[p, x0 - cx:x1 - cx], nxt[p, x0:x1]
        qa, rb = divmod(cy, n_b)
        for a_span, b_span in _row_blocks(region, n_b):
            for da, db, b_lo, b_hi in (
                    (qa, -rb, max(b_span.start, rb), b_span.stop),
                    (qa + 1, n_b - rb, b_span.start, min(b_span.stop, rb))):
                a = a_span.start
                while a < a_span.stop and b_lo < b_hi:  # a wraps at most once
                    sa = (a - da) % n_a
                    n = min(a_span.stop - a, n_a - sa)
                    dst[:, a:a + n, b_lo:b_hi] = \
                        src[:, sa:sa + n, b_lo + db:b_hi + db]
                    a += n


def _density_momentum(model: LatticeModel, f: np.ndarray):
    """rho, jx, jy of a (Q, ...) array, accumulated site by site in
    population order; f_p is added or subtracted where |c| = 1."""
    rho, jx, jy, kf = (np.zeros(f.shape[1:]) for _ in range(4))
    for p, c in enumerate(model.velocities):
        rho += f[p]
        for j, k in zip((jx, jy), c):
            if k == 1:
                j += f[p]
            elif k == -1:
                j -= f[p]
            elif k:
                j += np.multiply(k, f[p], out=kf)
    return rho, jx, jy


def _relax(model: LatticeModel, f: np.ndarray, rho: np.ndarray,
           jx: np.ndarray, jy: np.ndarray, omega: float,
           out: np.ndarray) -> None:
    """out <- (1 - omega) f + omega f_eq(rho, j) on (Q, ...) arrays; out may
    be f itself.

    With A = rho - |j|^2 / (2 cs2 rho) and t = c_p . j, the members of an
    opposite pair (p, p') share the even part w (A + t^2 / (2 cs2^2 rho))
    and take the odd part +-w t / cs2.  Shells run counterclockwise, so the
    first half p..p+h-1 of a shell has its opposites q..q+h-1 in the same
    order and is relaxed as one block; a rest population has q = p.
    """
    cs2 = model.cs2
    inv_rho = 1.0 / rho
    a = rho - (jx * jx + jy * jy) * inv_rho * (0.5 / cs2)
    g = inv_rho * (0.5 / (cs2 * cs2))
    hmax = max(q - p for p, q in enumerate(model.opposite))
    t_buf, even_buf, sum_buf = np.empty((3, hmax) + np.shape(rho))
    np.multiply(f, 1.0 - omega, out=out)
    p = 0
    while p < model.Q:
        q = model.opposite[p]
        h, w = max(q - p, 1), model.weights[p] * omega
        c = model.c[p:p + h].reshape((h, 2) + (1,) * rho.ndim)
        t, even, tmp = t_buf[:h], even_buf[:h], sum_buf[:h]
        np.multiply(c[:, 0], jx, out=t)
        t += np.multiply(c[:, 1], jy, out=tmp)
        np.multiply(t, t, out=even)
        even *= g
        even += a
        even *= w
        t *= w / cs2
        out[p:p + h] += np.add(even, t, out=tmp)
        if q != p:
            out[q:q + h] += np.subtract(even, t, out=tmp)
        p = q + h


def compute_moments(model: LatticeModel, f: np.ndarray) -> Macroscopics:
    """Density, velocity and temperature from a (Q,) or (Q, n) population set.

    rho = sum(f); rho u = sum(c f); D rho T = sum(|c - u|^2 f), each summed
    in population order, site by site.
    """
    f = np.asarray(f, dtype=np.float64)
    rho, jx, jy = _density_momentum(model, f)
    ux, uy = jx / rho, jy / rho
    energy = np.zeros(rho.shape)
    for p, (cx, cy) in enumerate(model.velocities):
        dx, dy = cx - ux, cy - uy
        energy += (dx * dx + dy * dy) * f[p]
    t = energy / (model.D * rho)
    if f.ndim == 1:
        return Macroscopics(float(rho), float(ux), float(uy), float(t))
    return Macroscopics(rho, ux, uy, t)


def equilibrium(model: LatticeModel, m: Macroscopics) -> np.ndarray:
    """Order-2 equilibrium populations for macroscopic state m.

    f_eq_l = w_l rho (1 + cu/cs2 + cu^2/(2 cs2^2) - u^2/(2 cs2)),
    with cu = c_l . u; evaluated by the collide's own pair kernel.
    """
    rho = np.asarray(m.rho, dtype=np.float64)
    feq = np.zeros((model.Q,) + rho.shape)
    _relax(model, feq, rho, rho * m.ux, rho * m.uy, 1.0, out=feq)
    return feq


#: Collide runs in blocks of about this many sites, so the temporaries of one
#: block have a size-independent cache footprint; this keeps the measured
#: per-site cost linear in region size, which the time model assumes.  Rank
#: threads share the interpreter lock, so smaller blocks add lock hand-offs.
BLOCK_SITES = 16384


def collide_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                   region: Region, src: str = "nxt", dst: str = "prv") -> None:
    """Site-local BGK relaxation: out = (1 - omega) in + omega f_eq(in),
    omega = 1/tau, computed from rho and j without forming u or T; reads the
    src view and writes the dst view in place, about BLOCK_SITES sites at a
    time.  A block whose population slabs are not contiguous is copied,
    relaxed in place and written back."""
    _check_region(buf, region)
    fin, fout = buf.view(src), buf.view(dst)
    width = max(1, BLOCK_SITES // region.rows)
    for x0 in range(region.x_begin, region.x_end, width):
        xs = slice(x0, min(x0 + width, region.x_end))
        for a_span, b_span in _row_blocks(region, fin.shape[3]):
            f, out = fin[:, xs, a_span, b_span], fout[:, xs, a_span, b_span]
            staged = not f[0].flags.c_contiguous
            if staged:
                f = np.ascontiguousarray(f)
            rho, jx, jy = _density_momentum(model, f)
            _relax(model, f, rho, jx, jy, 1.0 / params.tau,
                   out=f if staged else out)
            if staged:
                out[...] = f


def apply_bc(model: LatticeModel, buf: FieldBuffer, policy: BoundaryPolicy,
             region: Region | None = None) -> None:
    """Post-propagate boundary fixup on the nxt arena.

    Periodic mode is a no-op (propagate wraps Y).  Wall mode replaces, in the
    R top and bottom interior rows, every population whose pull source lies
    outside [0, LY) with the opposite population at the same site taken from
    the pre-propagate state (prv) -- link-wise bounce-back, a permutation of
    the values trapped at the walls.
    """
    if policy.y_mode == PERIODIC:
        return
    if region is None:
        region = interior_region(buf.geom)
    _check_region(buf, region)
    prv, nxt = buf.view("prv"), buf.view("nxt")
    xs = slice(region.x_begin, region.x_end)
    ly = buf.geom.ly
    for p, (_cx, cy) in enumerate(model.velocities):
        if cy > 0:
            rows = range(max(region.y_begin, 0), min(region.y_end, cy))
        elif cy < 0:
            rows = range(max(region.y_begin, ly + cy), min(region.y_end, ly))
        else:
            continue
        for y in rows:
            a, b = divmod(y, nxt.shape[3])
            nxt[p, xs, a, b] = prv[model.opposite[p], xs, a, b]


def step_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                region: Region, policy: BoundaryPolicy) -> None:
    """One full update on a region: propagate, bc, collide; state ends in prv."""
    propagate_region(model, buf, region)
    apply_bc(model, buf, policy, region)
    collide_region(model, params, buf, region)


def update_x_halos_periodic(buf: FieldBuffer, role: str = "prv") -> None:
    """Single-rank helper: fill X halo columns by periodic wrap of the interior."""
    g = buf.geom
    h = g.halo
    if h == 0:
        return
    buf.copy_columns(g.lx, 0, h, role=role)          # left halo <- right edge
    buf.copy_columns(h, h + g.lx, h, role=role)      # right halo <- left edge


def run_steps(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
              steps: int, policy: BoundaryPolicy) -> None:
    """Convenience loop for single-region runs: halo refresh + full step."""
    region = interior_region(buf.geom)
    for _ in range(steps):
        update_x_halos_periodic(buf)
        step_region(model, params, buf, region, policy)
