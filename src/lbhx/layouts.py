"""Memory layouts for population storage: AoS, SoA, CSoA and CAoSoA.

Each layout is a bijective map from (population p, column x, row y) to a
linear offset in a flat float64 arena of size alloc_LX * LY * Q.  Columns are
stored with whole-column X halos on both sides (alloc_LX = LX + 2H); the Y
direction has no stored halo and is handled by coordinate wrap or wall rules.

Clustered layouts split each Y-column into clusters of VL elements.  With the
default `interleaved` clustering y = k * LYOVL + iy; with `consecutive`
clustering y = iy * VL + k (k is the intra-cluster position).

Every layout is also a strided numpy view of its arena, of shape
(Q, alloc_LX, A, B) with y = a * B + b (see FieldBuffer.view); the compiled
kernel and the halo moves work on that view.  CSoA with consecutive
clustering has the same memory map as SoA for every VL.

Each arena starts on a 64-B cache line, so 8 consecutive doubles from a
multiple-of-8 offset are one line, as the paper's layouts intend.  Where an
arena starts changes no offset of the memory map.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError, ContractViolation

MAGIC = b"LBHX"
DUMP_VERSION = 1
LINE = 64  # bytes in a cache line: where each arena starts


class Family(IntEnum):
    AOS = 0
    SOA = 1
    CSOA = 2
    CAOSOA = 3


class Clustering(IntEnum):
    INTERLEAVED = 0
    CONSECUTIVE = 1


CLUSTERED = (Family.CSOA, Family.CAOSOA)

_FAMILY_NAMES = {f.name.lower(): f for f in Family}
_CLUSTERING_NAMES = {c.name.lower(): c for c in Clustering}


def family_from_name(name: str) -> Family:
    try:
        return _FAMILY_NAMES[name.lower()]
    except KeyError:
        raise ConfigurationError(f"unknown layout family {name!r}") from None


def clustering_from_name(name: str) -> Clustering:
    try:
        return _CLUSTERING_NAMES[name.lower()]
    except KeyError:
        raise ConfigurationError(f"unknown clustering policy {name!r}") from None


@dataclass(frozen=True)
class LayoutDescriptor:
    family: Family
    vl: int = 1
    clustering: Clustering = Clustering.INTERLEAVED

    def __post_init__(self):
        if self.vl < 1:
            raise ConfigurationError("VL must be >= 1")
        if self.family in CLUSTERED and self.vl < 2:
            raise ConfigurationError(
                f"{self.family.name} requires VL >= 2 (VL=1 is AoS/SoA territory)"
            )
        if self.family not in CLUSTERED and self.vl != 1:
            raise ConfigurationError(f"{self.family.name} does not take a VL")

    @property
    def clustered(self) -> bool:
        return self.family in CLUSTERED


@dataclass(frozen=True)
class Geometry:
    """Interior size LX x LY plus X-halo width; no stored Y halo."""

    lx: int
    ly: int
    halo: int

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ConfigurationError("LX and LY must be positive")
        if self.halo < 0:
            raise ConfigurationError("halo width must be >= 0")

    @property
    def alloc_lx(self) -> int:
        return self.lx + 2 * self.halo

    def lyovl(self, vl: int) -> int:
        if self.ly % vl != 0:
            raise ConfigurationError(f"LY={self.ly} is not a multiple of VL={vl}")
        return self.ly // vl

    def check_vl(self, desc: LayoutDescriptor) -> None:
        if desc.clustered:
            self.lyovl(desc.vl)


def _split_y(desc: LayoutDescriptor, geom: Geometry, y):
    """Decompose row index y into (k, iy) per the clustering policy."""
    lyovl = geom.lyovl(desc.vl)
    if desc.clustering == Clustering.INTERLEAVED:
        return y // lyovl, y % lyovl
    return y % desc.vl, y // desc.vl


def linear_index(desc: LayoutDescriptor, geom: Geometry, nq: int, p, x, y):
    """Storage offset of population p at allocation column x, row y.

    Accepts scalars or broadcastable integer arrays.
    """
    ly = geom.ly
    alx = geom.alloc_lx
    if desc.family == Family.AOS:
        return (x * ly + y) * nq + p
    if desc.family == Family.SOA:
        return p * (alx * ly) + x * ly + y
    geom.check_vl(desc)
    lyovl = geom.lyovl(desc.vl)
    k, iy = _split_y(desc, geom, y)
    if desc.family == Family.CSOA:
        return p * (alx * ly) + (x * lyovl + iy) * desc.vl + k
    return ((x * lyovl + iy) * nq + p) * desc.vl + k


def coords_of(desc: LayoutDescriptor, geom: Geometry, nq: int, offset: int):
    """Inverse of linear_index."""
    ly, alx = geom.ly, geom.alloc_lx
    total = alx * ly * nq
    if not 0 <= offset < total:
        raise ContractViolation(f"offset {offset} outside [0, {total})")
    if desc.family == Family.AOS:
        site, p = divmod(offset, nq)
        x, y = divmod(site, ly)
        return p, x, y
    if desc.family == Family.SOA:
        p, site = divmod(offset, alx * ly)
        x, y = divmod(site, ly)
        return p, x, y
    lyovl = geom.lyovl(desc.vl)
    vl = desc.vl
    if desc.family == Family.CSOA:
        p, rest = divmod(offset, alx * ly)
        cluster, k = divmod(rest, vl)
        x, iy = divmod(cluster, lyovl)
    else:
        block, k = divmod(offset, vl)
        cluster, p = divmod(block, nq)
        x, iy = divmod(cluster, lyovl)
    if desc.clustering == Clustering.INTERLEAVED:
        y = k * lyovl + iy
    else:
        y = iy * vl + k
    return p, x, y


def _line_zeros(size: int) -> np.ndarray:
    """`size` zeroed float64s starting on a LINE-byte boundary: a slice of a
    block over-allocated by one line, so still one C-contiguous array."""
    block = np.zeros(size + LINE // 8, dtype=np.float64)
    start = -block.ctypes.data % LINE // 8
    return block[start:start + size]


class FieldBuffer:
    """Two flat float64 arenas (state `prv`, scratch `nxt`) plus layout info.

    Each arena starts on a 64-B cache line (`LINE`).
    """

    def __init__(self, desc: LayoutDescriptor, geom: Geometry, nq: int):
        geom.check_vl(desc)
        self.desc = desc
        self.geom = geom
        self.nq = nq
        size = geom.alloc_lx * geom.ly * nq
        self.prv = _line_zeros(size)
        self.nxt = _line_zeros(size)

    @property
    def size(self) -> int:
        return self.prv.size

    def swap(self) -> None:
        """Flip the arena roles: the scratch arena becomes the state."""
        self.prv, self.nxt = self.nxt, self.prv

    def arena(self, role: str) -> np.ndarray:
        if role == "prv":
            return self.prv
        if role == "nxt":
            return self.nxt
        raise ConfigurationError(f"unknown arena role {role!r}")

    def view(self, role: str = "prv") -> np.ndarray:
        """The `role` arena as a strided (Q, alloc_LX, A, B) view, y = a*B + b.

        SoA and CSoA-consecutive (one memory map): (Q, alx, 1, LY).  AoS: the
        transpose of (alx, LY, Q).  CSoA-interleaved: (Q, alx, LYOVL, VL) with
        the last two axes swapped, a = k.  CAoSoA: the transpose of
        (alx, LYOVL, Q, VL), with a = k when interleaved and a = iy when
        consecutive.
        """
        arena = self.arena(role)
        d, nq = self.desc, self.nq
        alx, ly = self.geom.alloc_lx, self.geom.ly
        if d.family == Family.AOS:
            return arena.reshape(alx, 1, ly, nq).transpose(3, 0, 1, 2)
        consecutive = d.clustering == Clustering.CONSECUTIVE
        if d.family == Family.SOA or d.family == Family.CSOA and consecutive:
            return arena.reshape(nq, alx, 1, ly)
        lyovl = self.geom.lyovl(d.vl)
        if d.family == Family.CSOA:
            return arena.reshape(nq, alx, lyovl, d.vl).swapaxes(2, 3)
        cells = arena.reshape(alx, lyovl, nq, d.vl)  # (x, iy, p, k)
        if consecutive:
            return cells.transpose(2, 0, 1, 3)
        return cells.transpose(2, 0, 3, 1)

    def columns(self, x0: int, width: int, role: str = "prv") -> np.ndarray:
        """A copy of `width` columns from x0 in canonical (Q, width, LY) order."""
        cols = self.view(role)[:, x0:x0 + width]
        out = np.empty((self.nq, width, self.geom.ly))
        out.reshape(cols.shape)[...] = cols
        return out

    def set_columns(self, x0: int, values: np.ndarray,
                    role: str = "prv") -> None:
        """Store canonical (Q, width, LY) values in the columns from x0."""
        cols = self.view(role)[:, x0:x0 + values.shape[1]]
        cols[...] = values.reshape(cols.shape)

    def canonical(self, role: str = "prv") -> np.ndarray:
        """Interior values in canonical (p, x, y) order, shape (Q, LX, LY)."""
        return self.columns(self.geom.halo, self.geom.lx, role)

    def set_canonical(self, values: np.ndarray, role: str = "prv") -> None:
        expected = (self.nq, self.geom.lx, self.geom.ly)
        if values.shape != expected:
            raise ConfigurationError(f"expected canonical shape {expected}")
        self.set_columns(self.geom.halo, values, role)

    def copy_columns(self, src_x0: int, dst_x0: int, width: int,
                     role: str = "prv", src: "FieldBuffer | None" = None) -> None:
        """Copy `width` whole columns (all p, y) from src_x0 to dst_x0.

        Source defaults to this buffer; pass another buffer with identical
        layout for cross-buffer copies.
        """
        src = src or self
        self.view(role)[:, dst_x0:dst_x0 + width] = \
            src.view(role)[:, src_x0:src_x0 + width]


def convert_layout(src: FieldBuffer, dst_desc: LayoutDescriptor) -> FieldBuffer:
    """Re-store a field under another layout; values are copied bit-exactly."""
    dst = FieldBuffer(dst_desc, src.geom, src.nq)
    for role in ("prv", "nxt"):
        dst.set_columns(0, src.columns(0, src.geom.alloc_lx, role), role)
    return dst


def dump_bytes(buf: FieldBuffer, role: str = "prv") -> bytes:
    """Serialize the interior in the LBHX dump format (layout-independent order)."""
    g, d = buf.geom, buf.desc
    header = MAGIC + struct.pack(
        "<6I", DUMP_VERSION, g.lx, g.ly, buf.nq, int(d.family), d.vl
    ) + struct.pack("<I", int(d.clustering))
    body = buf.canonical(role).astype("<f8").tobytes()
    return header + body


def load_dump(data: bytes) -> tuple[np.ndarray, dict]:
    """Parse an LBHX dump; returns (canonical array (Q, LX, LY), metadata)."""
    if data[:4] != MAGIC:
        raise ConfigurationError("not an LBHX dump (bad magic)")
    if len(data) < 32:
        raise ConfigurationError("truncated LBHX dump")
    version, lx, ly, nq, family, vl, clustering = struct.unpack_from("<7I", data, 4)
    if version != DUMP_VERSION:
        raise ConfigurationError(f"unsupported dump version {version}")
    count = nq * lx * ly
    if len(data) < 32 + count * 8:
        raise ConfigurationError("truncated LBHX dump")
    try:
        family, clustering = Family(family), Clustering(clustering)
    except ValueError as exc:
        raise ConfigurationError(f"corrupt LBHX dump: {exc}") from None
    body = np.frombuffer(data, dtype="<f8", offset=32, count=count)
    meta = {
        "lx": lx, "ly": ly, "nq": nq,
        "family": family, "vl": vl, "clustering": clustering,
    }
    return body.reshape(nq, lx, ly).astype(np.float64), meta


def write_dump(path, buf: FieldBuffer, role: str = "prv") -> None:
    with open(path, "wb") as fh:
        fh.write(dump_bytes(buf, role))


def read_dump(path) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        return load_dump(fh.read())
