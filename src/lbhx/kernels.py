"""Per-timestep kernel pipeline: pull propagate, boundary fixup, BGK collide.

All kernels operate on a rectangular Region of allocation coordinates and are
site-local (collide, bc) or pure copies (propagate), so any disjoint
partition of a region produces bit-identical results.  They run on the
strided (Q, alloc_LX, A, B) views of FieldBuffer.view, with y = a * B + b.

`prv` holds the state and `nxt` is scratch.  A step runs the fused
stream_collide_region(prv -> nxt) on each region, then FieldBuffer.swap, so
the new state is in prv; outside the regions the new prv holds scratch.  The
fused step is one C function, `_kernel.c`, built on first use and called
through ctypes, which releases the interpreter lock for the call.  The numpy
kernels propagate(prv -> nxt), apply_bc(nxt) and collide(nxt -> prv) are its
reference.

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


def _check_region(buf: FieldBuffer, region: Region, reach: int = 0) -> None:
    g = buf.geom
    if region.x_begin - reach < 0 or region.x_end + reach > g.alloc_lx:
        raise ContractViolation(f"region {region} with reach {reach} "
                                "exceeds the allocation")
    if region.y_begin < 0 or region.y_end > g.ly:
        raise ContractViolation(f"region rows {region} exceed [0, {g.ly})")


def _row_blocks(region: Region, n_b: int) -> list[tuple[slice, slice]]:
    """Rows [y_begin, y_end) as at most three (a, b) rectangles of
    y = a * B + b with B = n_b: a head row, whole middle rows, a tail row.
    Each rectangle is one run of consecutive rows."""
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


# A block is (xs, a_span, b_span): columns crossed with one _row_blocks
# rectangle of the (Q, alx, A, B) views.  The helpers below write a block
# into `out`, an array indexed from the block's corner.

def _pull(prv: np.ndarray, p: int, c: tuple[int, int], block,
          out: np.ndarray) -> None:
    """out <- population p of prv pulled along c = (cx, cy) into block.

    With cy = qa * B + rb (0 <= rb < B), row (a, b) pulls from a-row a - qa
    at b - rb where b >= rb, and from a-row a - qa - 1 at b - rb + B where
    b < rb, a taken mod A: at most four slice copies.
    """
    (cx, cy), (xs, a_span, b_span) = c, block
    n_a, n_b = prv.shape[2:]
    src = prv[p, xs.start - cx:xs.stop - cx]
    a0, b0 = a_span.start, b_span.start
    qa, rb = divmod(cy, n_b)
    for da, db, b_lo, b_hi in (
            (qa, -rb, max(b0, rb), b_span.stop),
            (qa + 1, n_b - rb, b0, min(b_span.stop, rb))):
        a = a0
        while a < a_span.stop and b_lo < b_hi:  # a wraps at most once
            sa = (a - da) % n_a
            n = min(a_span.stop - a, n_a - sa)
            out[:, a - a0:a - a0 + n, b_lo - b0:b_hi - b0] = \
                src[:, sa:sa + n, b_lo + db:b_hi + db]
            a += n


def _bounce_back(model: LatticeModel, prv: np.ndarray, block,
                 out: np.ndarray) -> None:
    """Link-wise bounce-back in block: every population whose pull source
    lies outside [0, LY) takes the opposite population at the same site
    from prv."""
    xs, a_span, b_span = block
    n_b = prv.shape[3]
    ly = prv.shape[2] * n_b
    a0, b0 = a_span.start, b_span.start
    y0, y1 = a0 * n_b + b0, (a_span.stop - 1) * n_b + b_span.stop
    for p, (_cx, cy) in enumerate(model.velocities):
        if cy > 0:
            rows = range(y0, min(y1, cy))
        elif cy < 0:
            rows = range(max(y0, ly + cy), y1)
        else:
            continue
        for y in rows:
            a, b = divmod(y, n_b)
            out[p, :, a - a0, b - b0] = prv[model.opposite[p], xs, a, b]


def propagate_region(model: LatticeModel, buf: FieldBuffer,
                     region: Region) -> None:
    """Pull-scheme streaming: nxt_l(x, y) = prv_l(x - cx, (y - cy) mod LY).
    X sources land in the halo columns, which the caller must keep current.
    """
    _check_region(buf, region, model.R)
    prv, nxt = buf.view("prv"), buf.view("nxt")
    xs = slice(region.x_begin, region.x_end)
    for a_span, b_span in _row_blocks(region, nxt.shape[3]):
        for p, c in enumerate(model.velocities):
            _pull(prv, p, c, (xs, a_span, b_span), nxt[p, xs, a_span, b_span])


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


#: The fused step and the reference collide run in blocks of about this many
#: sites: BLOCK_SITES // rows whole region columns, at least one.  The fused
#: step stages a block's populations in one contiguous buffer (296 kB for
#: D2Q37 at 256 rows), which this keeps well within L2 while each
#: population's runs stay long enough to stream.  A perfbench sweep on a
#: 2-vCPU Xeon found 512-1024 fastest on bulk-q37, and 16384 about 20%
#: slower on both workloads.
BLOCK_SITES = 1024


def collide_region(model: LatticeModel, params: ModelParams, buf: FieldBuffer,
                   region: Region, src: str = "nxt", dst: str = "prv") -> None:
    """Site-local BGK relaxation: out = (1 - omega) in + omega f_eq(in),
    omega = 1/tau, computed from rho and j without forming u or T; reads the
    src view and writes the dst view, in blocks of BLOCK_SITES // rows
    columns crossed with each row rectangle.  A block whose population slabs
    are not contiguous in dst is relaxed in one staging array and stored."""
    _check_region(buf, region)
    fin, fout = buf.view(src), buf.view(dst)
    width = max(1, BLOCK_SITES // region.rows)
    stage = np.empty(model.Q * region.rows * min(width, region.columns))
    for x0 in range(region.x_begin, region.x_end, width):
        xs = slice(x0, min(x0 + width, region.x_end))
        for a_span, b_span in _row_blocks(region, fout.shape[3]):
            block_in = fin[:, xs, a_span, b_span]
            out = f = fout[:, xs, a_span, b_span]
            if not out[0].flags.c_contiguous:
                f = stage[:out.size].reshape(out.shape)
            if not block_in[0].flags.c_contiguous:
                f[...] = block_in
                block_in = f
            rho, jx, jy = _density_momentum(model, block_in)
            _relax(model, block_in, rho, jx, jy, 1.0 / params.tau, out=f)
            if f is not out:
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
    for a_span, b_span in _row_blocks(region, nxt.shape[3]):
        _bounce_back(model, prv, (xs, a_span, b_span),
                     nxt[:, xs, a_span, b_span])


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
    fn.restype, fn.argtypes = ctypes.c_int, _ARGTYPES
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


def stream_collide_region(model: LatticeModel, params: ModelParams,
                          buf: FieldBuffer, region: Region,
                          policy: BoundaryPolicy) -> None:
    """propagate, apply_bc and collide in one pass of the compiled kernel:
    each block of BLOCK_SITES // rows whole region columns is pulled from
    prv, bounced back from prv at the walls, relaxed and stored in nxt once.  prv is only
    read, nxt is written only inside region, and every value is formed by
    the separate kernels' operation sequence, so the result is bit-identical
    to them."""
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
    status = load_kernel()(
        prv.ctypes.data, nxt.ctypes.data, *strides, view.shape[3],
        buf.geom.ly, region.x_begin, region.x_end, region.y_begin,
        region.y_end, walls, max(1, BLOCK_SITES),
        *_coefficients(model, params)[1])
    if status:
        raise MemoryError("cannot allocate the fused kernel's block buffer")


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
