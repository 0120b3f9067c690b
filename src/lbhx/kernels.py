"""Per-timestep kernel pipeline: pull propagate, boundary fixup, BGK collide.

All kernels operate on a rectangular Region of allocation coordinates and are
site-local (collide, bc) or pure copies (propagate), so any disjoint
partition of a region produces bit-identical results.

`prv` holds the state and `nxt` is scratch.  A step runs the fused
stream_collide_region(prv -> nxt) on each region, then FieldBuffer.swap, so
the new state is in prv; outside the regions the new prv holds scratch.  The
fused step is one C function, `_kernel.c`, built on first use and called
through ctypes, which releases the interpreter lock for the call.  It walks
the strided (Q, alloc_LX, A, B) view of FieldBuffer.view, y = a * B + b,
and relaxes a block's sites 8 at a time in registers.  A vector of sites
whose every source lies in its own row (the view's a) and whose
destinations are a run loads each population straight from prv; the rest
(the R rows at each end of a row, partial rows, AoS and consecutive
CAoSoA) are pulled into one buffer with populations outermost and, within a
column, the sites in the arena's own order (the view's row axes a and b
nested by decreasing stride: VL lanes innermost for the interleaved
clustered layouts, y order for the others), so that its pull copies runs
contiguous on both sides.  Either way it writes each relaxed population
straight to nxt.  The collide is site-local, so that order changes no value.

The numpy kernels propagate(prv -> nxt), apply_bc(nxt) and collide(nxt ->
prv) are its reference, and know no layout: each copies its region's
columns out in canonical (Q, x, y) order (FieldBuffer.columns), shifts or
relaxes them there, and stores the region's rows back
(FieldBuffer.set_columns).

The collide calls no BLAS routine.  Every reduction over populations is an
elementwise accumulation in a fixed population order, so a site's result does
not depend on the width or offset of the slice it is computed in, nor on BLAS
blocking or thread count.  The C kernel performs each site's operations in
the numpy kernels' order, and is built with `-ffp-contract=off` and without
`-ffast-math`, so no multiply-add is fused and nothing is reassociated.
Bit-identity across layouts, border widths M, rank counts and the two kernel
forms rests on this.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractViolation, RuntimeFault
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


def _check_region(buf: FieldBuffer, region: Region, reach: int = 0) -> None:
    g = buf.geom
    if region.x_begin - reach < 0 or region.x_end + reach > g.alloc_lx:
        raise ContractViolation(f"region {region} with reach {reach} "
                                "exceeds the allocation")
    if region.y_begin < 0 or region.y_end > g.ly:
        raise ContractViolation(f"region rows {region} exceed [0, {g.ly})")


def _store_rows(buf: FieldBuffer, region: Region, values: np.ndarray,
                role: str) -> None:
    """Store canonical (Q, columns, rows) values in region of the `role`
    arena; the region's columns keep their values outside its rows."""
    cols = buf.columns(region.x_begin, region.columns, role)
    cols[:, :, region.y_begin:region.y_end] = values
    buf.set_columns(region.x_begin, cols, role)


def propagate_region(model: LatticeModel, buf: FieldBuffer,
                     region: Region) -> None:
    """Pull-scheme streaming: nxt_l(x, y) = prv_l(x - cx, (y - cy) mod LY).
    X sources land in the halo columns, which the caller must keep current.
    """
    _check_region(buf, region, model.R)
    r, w = model.R, region.columns
    src = buf.columns(region.x_begin - r, w + 2 * r, "prv")
    out = np.empty((model.Q, w, region.rows))
    for p, (cx, cy) in enumerate(model.velocities):
        out[p] = np.roll(src[p, r - cx:r - cx + w], cy, axis=1)[
            :, region.y_begin:region.y_end]
    _store_rows(buf, region, out, "nxt")


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


def collide_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                   region: Region, src: str = "nxt", dst: str = "prv") -> None:
    """Site-local BGK relaxation: out = (1 - omega) in + omega f_eq(in),
    omega = 1/tau, computed from rho and j without forming u or T; reads
    region from the src arena and writes it to the dst arena."""
    _check_region(buf, region)
    f = buf.columns(region.x_begin, region.columns, src)[
        :, :, region.y_begin:region.y_end]
    rho, jx, jy = _density_momentum(model, f)
    _relax(model, f, rho, jx, jy, 1.0 / params.tau, out=f)
    _store_rows(buf, region, f, dst)


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
    x0, w, ly = region.x_begin, region.columns, buf.geom.ly
    prv, nxt = buf.columns(x0, w, "prv"), buf.columns(x0, w, "nxt")
    ys = np.arange(region.y_begin, region.y_end)
    for p, (_cx, cy) in enumerate(model.velocities):
        wall = ys[(ys < cy) | (ys >= ly + cy)]  # y - cy outside [0, LY)
        nxt[p][:, wall] = prv[model.opposite[p]][:, wall]
    buf.set_columns(x0, nxt, "nxt")


#: The command that builds `_kernel.c`; the output and source paths are
#: appended.  `-ffp-contract=off` and the absence of `-ffast-math` and
#: `-Ofast` keep each value's IEEE operation sequence that of the numpy
#: kernels.
BUILD = ("gcc", "-O3", "-march=native", "-ffp-contract=off", "-fPIC",
         "-shared")
_SOURCE = Path(__file__).with_name("_kernel.c")
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
#: lbhx_stream_collide's parameters, in the order of its C signature
_ARGTYPES = ([_PTR] * 2                  # prv, nxt
             + [_I64] * 6                # sp, sx, sa, sb, nb, ly
             + [_I64] * 4                # x0, x1, y0, y1
             + [ctypes.c_int, _I64]      # walls, block_sites
             + [_I64] + [_PTR] * 3       # q, cx, cy, opposite
             + [_I64] + [_PTR] * 4       # npairs, pair_p, pair_q, pair_w,
                                         # pair_wcs
             + [_F64] * 3)               # c_a, c_g, om1


def _cpu_flags() -> bytes:
    """The host CPU's flags line, which decides what -march=native emits."""
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"flags"):
                    return line
    except OSError:
        pass
    return platform.machine().encode()


def _object_path(source: bytes) -> Path:
    """Where the kernel built from `source` is cached: per user, under
    $XDG_CACHE_HOME/lbhx or ~/.cache/lbhx, named by the SHA-256 of the
    source, the build command and the CPU flags."""
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    key = hashlib.sha256(b"\0".join(
        (source, " ".join(BUILD).encode(), _cpu_flags())))
    return Path(cache) / "lbhx" / f"kernel-{key.hexdigest()}.so"


def _build(path: Path) -> None:
    """Compile the kernel in a temporary directory beside `path`, then move
    it to `path`, so that concurrent builds each leave a whole object."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=path.parent)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the kernel cache {path.parent}: {exc}") from None
    with tmp:
        built = os.path.join(tmp.name, path.name)
        cmd = [*BUILD, "-o", built, str(_SOURCE)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot build the kernel with `{' '.join(cmd)}`: {exc}"
            ) from None
        if done.returncode:
            raise ConfigurationError(
                f"`{' '.join(cmd)}` exited with status {done.returncode}: "
                f"{done.stderr.strip()[-1000:]}")
        try:
            os.replace(built, path)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write the kernel cache {path}: {exc}") from None


@functools.cache
def load_kernel():
    """The compiled fused step, built into the cache on the first call of a
    new source, command or CPU; raises ConfigurationError if it cannot be
    built or loaded.  `run_distributed` calls this before it forks a rank."""
    path = _object_path(_SOURCE.read_bytes())
    if not path.exists():
        _build(path)
    try:
        fn = ctypes.CDLL(str(path)).lbhx_stream_collide
    except (OSError, AttributeError) as exc:
        raise ConfigurationError(
            f"cannot load the kernel {path}: {exc}") from None
    fn.restype, fn.argtypes = ctypes.c_int64, _ARGTYPES
    return fn


@functools.cache
def _coefficients(model: LatticeModel, params: ModelParams):
    """The C kernel's model arguments and the arrays they point into: per
    population cx, cy and the opposite; per opposite pair (p, q) of _relax,
    p, q, w_p omega and that over cs2; then 0.5/cs2, 0.5/cs2^2 and
    1 - omega, each computed as _relax computes it."""
    omega, cs2 = 1.0 / params.tau, model.cs2
    pairs, p = [], 0
    while p < model.Q:
        q = model.opposite[p]
        h, w = max(q - p, 1), model.weights[p] * omega
        pairs += [(p + k, q + k, w, w / cs2) for k in range(h)]
        p = q + h
    pp, pq, pw, pwcs = zip(*pairs)
    ints = [np.array(v, dtype=np.int64) for v in
            (model.cx, model.cy, model.opposite, pp, pq)]
    floats = [np.array(v, dtype=np.float64) for v in (pw, pwcs)]
    ptr = [a.ctypes.data for a in ints + floats]
    args = (model.Q, *ptr[:3], len(pairs), *ptr[3:],
            0.5 / cs2, 0.5 / (cs2 * cs2), 1.0 - omega)
    return ints + floats, args


#: The fused step runs in blocks of about this many sites: BLOCK_SITES //
#: rows whole region columns, at least one.  It loads most vectors straight
#: from prv and pulls only a block's staged rows into one buffer: for D2Q37
#: SoA at 256 rows, the 8 rows at each end of a column, about 21 kB.  This
#: keeps it well within L2 while each population's runs stay long enough to
#: stream.  A perfbench sweep of the kernel that writes each relaxed vector
#: straight to nxt (2-vCPU Xeon, 20 s runs, 2 per size, in alternating
#: order) gave MLUPS 512: 24.0/23.5, 1024: 23.4/24.5, 2048: 15.8/22.8 on
#: bulk-q37 and 512: 54.9/66.8, 1024: 54.0/62.1, 2048: 64.9/63.3 on
#: ring2-q9-tcp: no size ahead on both beyond the spread between runs.
BLOCK_SITES = 1024


def stream_collide_region(model: LatticeModel, params: ModelParams,
                          buf: FieldBuffer, region: Region,
                          policy: BoundaryPolicy) -> None:
    """propagate, apply_bc and collide in one pass of the compiled kernel:
    each block of BLOCK_SITES // rows whole region columns is loaded or
    pulled from prv, bounced back from prv at the walls, relaxed and stored
    in nxt once.
    prv is only read, nxt is written only inside region, and every value is
    formed by the separate kernels' operation sequence, so the result is
    bit-identical to them.  Raises RuntimeFault if the kernel cannot
    allocate its block buffer."""
    _check_region(buf, region, model.R)
    prv, nxt = buf.prv, buf.nxt
    if not (prv.dtype == nxt.dtype == np.float64 and prv.shape == nxt.shape
            and prv.flags.c_contiguous and nxt.flags.c_contiguous
            and not np.may_share_memory(prv, nxt)):
        raise ContractViolation("the arenas must be two distinct contiguous "
                                "float64 arrays of one size")
    view = buf.view("prv")  # a view of the whole of prv, from its start
    strides = [s // prv.itemsize for s in view.strides]
    walls = policy.y_mode == WALL_BOUNCE_BACK
    failed = load_kernel()(
        prv.ctypes.data, nxt.ctypes.data, *strides, view.shape[3],
        buf.geom.ly, region.x_begin, region.x_end, region.y_begin,
        region.y_end, walls, BLOCK_SITES, *_coefficients(model, params)[1])
    if failed:
        raise RuntimeFault(f"cannot allocate {failed} bytes for region "
                           f"{region} (phase: fused kernel block buffer)")


def step_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                region: Region, policy: BoundaryPolicy) -> None:
    """One full update on a region: the fused step, then the arena flip;
    state ends in prv.  Outside region the new prv holds scratch."""
    stream_collide_region(model, params, buf, region, policy)
    buf.swap()


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
