"""Per-timestep kernel pipeline: pull propagate, boundary fixup, BGK collide.

All kernels operate on a rectangular Region of allocation coordinates and are
site-local (collide) or gather-only (propagate), so any disjoint partition of
a region produces bit-identical results.  Buffer roles are fixed: `prv` holds
the state, `nxt` is scratch; a full step runs propagate(prv->nxt),
apply_bc(nxt), collide(nxt->prv).

The collide calls no BLAS routine.  Every reduction over populations is an
elementwise accumulation in a fixed population order, so a site's result does
not depend on the width or offset of the slice it is computed in, nor on BLAS
blocking or thread count.  Bit-identity across layouts, border widths M and
rank counts rests on this.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .layouts import (FieldBuffer, Geometry, LayoutDescriptor, StrideKind,
                      cluster_elem_stride, index_cube, neighbor_stride)
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


@lru_cache(maxsize=256)
def _propagate_tables(model: LatticeModel, desc: LayoutDescriptor,
                      geom: Geometry, region: Region):
    """Per-population (dst, src) flat index arrays for the pull gather.

    Y sources wrap modulo LY; X sources land in the halo columns, which the
    caller must keep current.
    """
    cube = index_cube(desc, geom, model.Q)
    xs = np.arange(region.x_begin, region.x_end)
    ys = np.arange(region.y_begin, region.y_end)
    pairs = []
    for p in range(model.Q):
        cx, cy = model.velocities[p]
        sx = xs - cx
        sy = (ys - cy) % geom.ly
        dst = cube[p][np.ix_(xs, ys)].ravel()
        src = cube[p][np.ix_(sx, sy)].ravel()
        pairs.append((dst, src))
    return pairs


def propagate_region(model: LatticeModel, buf: FieldBuffer, region: Region,
                     path: str = "reference") -> None:
    """Pull-scheme streaming: nxt_l(x, y) = prv_l(x - cx, (y - cy) mod LY).

    `path` selects 'reference' (coordinate-space gather), 'fast' (uniform
    flat-stride copies where the layout admits them, reference elsewhere) or
    'auto' (fast).  Both paths are bit-identical by construction.
    """
    _check_region(buf, region)
    if region.x_begin - model.R < 0 or region.x_end + model.R > buf.geom.alloc_lx:
        raise ContractViolation("region too close to allocation edge for stencil")
    if path in ("fast", "auto"):
        _propagate_fast(model, buf, region)
        return
    if path != "reference":
        raise ConfigurationError(f"unknown propagate path {path!r}")
    prv, nxt = buf.prv, buf.nxt
    for dst, src in _propagate_tables(model, buf.desc, buf.geom, region):
        nxt[dst] = prv[src]


@lru_cache(maxsize=256)
def _fast_tables(model: LatticeModel, desc: LayoutDescriptor,
                 geom: Geometry, region: Region):
    """Plan the fast path: per population a flat stride plus the row set where
    it is exact, and fallback (dst, src) gather tables for the rest."""
    cube = index_cube(desc, geom, model.Q)
    xs = np.arange(region.x_begin, region.x_end)
    ys = np.arange(region.y_begin, region.y_end)
    plans = []
    for p in range(model.Q):
        cx, cy = model.velocities[p]
        stride = neighbor_stride(desc, geom, model.Q, -cx, -cy)
        sy_raw = ys - cy
        in_range = (sy_raw >= 0) & (sy_raw < geom.ly)
        if stride.kind == StrideKind.UNIFORM:
            flat = stride.value
            valid = in_range
        elif stride.kind == StrideKind.CLUSTER:
            flat = stride.value * cluster_elem_stride(desc, model.Q)
            # the cluster stride keeps k fixed; exact only where the partition
            # index of the source row matches a pure iy shift
            valid = in_range & _cluster_rows_valid(desc, geom, ys, cy)
        else:
            flat = 0
            valid = np.zeros_like(in_range)
        good = ys[valid]
        rest = ys[~valid]
        dst_fast = cube[p][np.ix_(xs, good)].ravel() if good.size else None
        dst_rest = cube[p][np.ix_(xs, rest)].ravel() if rest.size else None
        src_rest = None
        if rest.size:
            src_rest = cube[p][np.ix_(xs - cx, (rest - cy) % geom.ly)].ravel()
        plans.append((flat, dst_fast, dst_rest, src_rest))
    return plans


def _cluster_rows_valid(desc: LayoutDescriptor, geom: Geometry,
                        ys: np.ndarray, cy: int) -> np.ndarray:
    from .layouts import Clustering, _split_y
    k_dst, iy_dst = _split_y(desc, geom, ys)
    k_src, iy_src = _split_y(desc, geom, ys - cy)
    if desc.clustering == Clustering.INTERLEAVED:
        return (k_src == k_dst) & (iy_src == iy_dst - cy)
    lyovl = geom.lyovl(desc.vl)
    if cy % desc.vl != 0:
        return np.zeros(ys.shape, dtype=bool)
    return (k_src == k_dst) & (iy_src == iy_dst - cy // desc.vl)


def _propagate_fast(model: LatticeModel, buf: FieldBuffer, region: Region) -> None:
    prv, nxt = buf.prv, buf.nxt
    for flat, dst_fast, dst_rest, src_rest in _fast_tables(
            model, buf.desc, buf.geom, region):
        if dst_fast is not None:
            nxt[dst_fast] = prv[dst_fast + flat]
        if dst_rest is not None:
            nxt[dst_rest] = prv[src_rest]


def _density_momentum(model: LatticeModel, f: np.ndarray):
    """rho, jx, jy of a (Q, ...) array, accumulated site by site in
    population order; f_p is added or subtracted where |c| = 1."""
    rho, jx, jy = (np.zeros(f.shape[1:]) for _ in range(3))
    for p, c in enumerate(model.velocities):
        rho += f[p]
        for j, k in zip((jx, jy), c):
            if k == 1:
                j += f[p]
            elif k == -1:
                j -= f[p]
            elif k:
                j += k * f[p]
    return rho, jx, jy


def _relax(model: LatticeModel, f: np.ndarray, rho: np.ndarray,
           jx: np.ndarray, jy: np.ndarray, omega: float) -> None:
    """f <- (1 - omega) f + omega f_eq(rho, j), in place on a (Q, n) array.

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
    f *= 1.0 - omega
    p = 0
    while p < model.Q:
        q = model.opposite[p]
        h, w = max(q - p, 1), model.weights[p] * omega
        c = model.c[p:p + h, :, None]
        t = c[:, 0] * jx + c[:, 1] * jy
        even = (t * t * g + a) * w
        t *= w / cs2
        f[p:p + h] += even + t
        if q != p:
            f[q:q + h] += even - t
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
    _relax(model, feq.reshape(model.Q, -1), rho.reshape(-1),
           (rho * m.ux).reshape(-1), (rho * m.uy).reshape(-1), 1.0)
    return feq


def collide_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                   region: Region, src: str = "nxt", dst: str = "prv") -> None:
    """Site-local BGK relaxation: out = (1 - omega) in + omega f_eq(in),
    omega = dt/tau, computed from rho and j without forming u or T."""
    _check_region(buf, region)
    cube = index_cube(buf.desc, buf.geom, model.Q)
    idx = cube[:, region.x_begin:region.x_end, region.y_begin:region.y_end]
    idx = idx.reshape(model.Q, region.sites)
    f = buf.arena(src)[idx]
    rho, jx, jy = _density_momentum(model, f)
    _relax(model, f, rho, jx, jy, params.dt / params.tau)
    buf.arena(dst)[idx] = f


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
    cube = index_cube(buf.desc, buf.geom, model.Q)
    xs = np.arange(region.x_begin, region.x_end)
    ly = buf.geom.ly
    for p in range(model.Q):
        cy = model.velocities[p][1]
        if cy == 0:
            continue
        opp = model.opposite[p]
        if cy > 0:
            rows = np.arange(max(region.y_begin, 0), min(region.y_end, cy))
        else:
            rows = np.arange(max(region.y_begin, ly + cy), min(region.y_end, ly))
        if rows.size == 0:
            continue
        dst = cube[p][np.ix_(xs, rows)]
        src = cube[opp][np.ix_(xs, rows)]
        buf.nxt[dst] = buf.prv[src]


def step_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                region: Region, policy: BoundaryPolicy,
                path: str = "reference") -> None:
    """One full update on a region: propagate, bc, collide; state ends in prv."""
    propagate_region(model, buf, region, path=path)
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
              steps: int, policy: BoundaryPolicy,
              path: str = "reference") -> None:
    """Convenience loop for single-region runs: halo refresh + full step."""
    region = interior_region(buf.geom)
    for _ in range(steps):
        update_x_halos_periodic(buf)
        step_region(model, params, buf, region, policy, path=path)
