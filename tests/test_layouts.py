"""Memory-layout indexing tests: closed-form offsets, bijectivity, strided
views, layout conversion, arena alignment and the binary dump format.

The closed-form offsets asserted in test_reference_offsets were computed by
hand from the layout definitions and are frozen here as literals.
"""
import hashlib

import numpy as np
import pytest

from lbhx.errors import ConfigurationError, ContractViolation
from lbhx.hetero import HeteroRuntime, HeteroTuningRunner
from lbhx.layouts import (Clustering, Family, FieldBuffer, Geometry,
                          LayoutDescriptor, convert_layout, coords_of,
                          dump_bytes, family_from_name, linear_index,
                          load_dump, read_dump, write_dump)
from lbhx.model import ModelParams, builtin_model

GEOM = Geometry(6, 8, halo=0)  # alloc_lx == lx when halo == 0
NQ = 5

ALL = [
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


def test_reference_offsets():
    # hand-computed offsets for p=2, x=3, y=5 on a 6x8 interior, Q=5
    p, x, y = 2, 3, 5
    ly, alx = 8, 6
    assert linear_index(LayoutDescriptor(Family.AOS), GEOM, NQ, p, x, y) \
        == (x * ly + y) * NQ + p                               # 147
    assert linear_index(LayoutDescriptor(Family.SOA), GEOM, NQ, p, x, y) \
        == p * alx * ly + x * ly + y                           # 125
    # CSoA VL=4 interleaved: LY/VL=2, k=y//2=2, iy=y%2=1
    assert linear_index(LayoutDescriptor(Family.CSOA, 4), GEOM, NQ, p, x, y) \
        == p * alx * ly + (x * 2 + 1) * 4 + 2                  # 126
    # CSoA VL=4 consecutive: k=y%4=1, iy=y//4=1
    assert linear_index(
        LayoutDescriptor(Family.CSOA, 4, Clustering.CONSECUTIVE),
        GEOM, NQ, p, x, y) == p * alx * ly + (x * 2 + 1) * 4 + 1
    # CAoSoA VL=4 interleaved
    assert linear_index(LayoutDescriptor(Family.CAOSOA, 4), GEOM, NQ, p, x, y) \
        == ((x * 2 + 1) * NQ + p) * 4 + 2                      # 150


def _offsets(desc, geom, nq):
    """linear_index of every (p, x, y), shape (Q, alloc_LX, LY)."""
    return linear_index(desc, geom, nq, np.arange(nq)[:, None, None],
                        np.arange(geom.alloc_lx)[:, None], np.arange(geom.ly))


@pytest.mark.parametrize("desc", ALL, ids=str)
def test_bijection_and_inverse(desc):
    total = NQ * GEOM.alloc_lx * GEOM.ly
    offsets = _offsets(desc, GEOM, NQ)
    assert np.array_equal(np.sort(offsets.ravel()), np.arange(total))
    for offset in range(total):
        p, x, y = coords_of(desc, GEOM, NQ, offset)
        assert linear_index(desc, GEOM, NQ, p, x, y) == offset


def test_coords_of_range_check():
    with pytest.raises(ContractViolation):
        coords_of(LayoutDescriptor(Family.AOS), GEOM, NQ, NQ * 6 * 8)
    with pytest.raises(ContractViolation):
        coords_of(LayoutDescriptor(Family.AOS), GEOM, NQ, -1)


@pytest.mark.parametrize("desc", ALL, ids=str)
@pytest.mark.parametrize("ly", [8, 16])
def test_view_agrees_with_linear_index(desc, ly):
    """view(role)[p, x, a, b] is the arena element at linear_index(p, x, y)
    with y = a * B + b, and the view is a view, not a copy."""
    geom = Geometry(5, ly, halo=2)
    buf = FieldBuffer(desc, geom, NQ)
    buf.nxt[:] = np.arange(buf.size)
    view = buf.view("nxt")
    n_a, n_b = view.shape[2:]
    assert view.shape == (NQ, geom.alloc_lx, n_a, n_b)
    assert n_a * n_b == ly and np.shares_memory(view, buf.nxt)
    expected = _offsets(desc, geom, NQ).reshape(view.shape)
    assert np.array_equal(view, expected)


@pytest.mark.parametrize("vl", [2, 4, 8])
def test_csoa_consecutive_is_soa(vl):
    geom = Geometry(6, 16, halo=3)
    values = np.random.default_rng(5).random((NQ, 6, 16))
    arenas = []
    for desc in (LayoutDescriptor(Family.SOA),
                 LayoutDescriptor(Family.CSOA, vl, Clustering.CONSECUTIVE)):
        buf = FieldBuffer(desc, geom, NQ)
        buf.set_canonical(values)
        buf.set_canonical(values[::-1], "nxt")
        arenas.append((buf.prv, buf.nxt))
    for soa, csoa in zip(*arenas):
        assert np.array_equal(soa, csoa)


def test_descriptor_validation():
    with pytest.raises(ConfigurationError):
        LayoutDescriptor(Family.CSOA, 1)      # clustered needs VL >= 2
    with pytest.raises(ConfigurationError):
        LayoutDescriptor(Family.AOS, 4)       # AoS takes no VL
    with pytest.raises(ConfigurationError):
        FieldBuffer(LayoutDescriptor(Family.CSOA, 3), GEOM, NQ)  # 8 % 3 != 0
    assert family_from_name("caosoa") == Family.CAOSOA
    with pytest.raises(ConfigurationError):
        family_from_name("aosoa")


def test_canonical_roundtrip_with_halo():
    geom = Geometry(6, 8, halo=3)
    rng = np.random.default_rng(1)
    values = rng.random((NQ, 6, 8))
    for desc in ALL:
        buf = FieldBuffer(desc, geom, NQ)
        buf.set_canonical(values)
        assert np.array_equal(buf.canonical("prv"), values)
    with pytest.raises(ConfigurationError):
        buf.set_canonical(values[:, :4, :])


def test_copy_columns():
    geom = Geometry(6, 8, halo=3)
    buf = FieldBuffer(LayoutDescriptor(Family.CAOSOA, 4), geom, NQ)
    buf.prv[:] = np.arange(buf.size, dtype=np.float64)
    offsets = _offsets(buf.desc, geom, NQ)
    assert np.array_equal(buf.columns(4, 2), offsets[:, 4:6])
    buf.copy_columns(4, 9, 2)
    assert np.array_equal(buf.prv[offsets[:, 9:11]], offsets[:, 4:6])
    assert np.array_equal(buf.prv[offsets[:, 6:9]], offsets[:, 6:9])


@pytest.mark.parametrize("desc", ALL, ids=str)
def test_convert_layout_roundtrip(desc):
    geom = Geometry(4, 8, halo=2)
    rng = np.random.default_rng(2)
    src = FieldBuffer(LayoutDescriptor(Family.SOA), geom, NQ)
    src.prv[:] = rng.random(src.size)
    src.nxt[:] = rng.random(src.size)
    mid = convert_layout(src, desc)
    assert np.array_equal(mid.canonical("prv"), src.canonical("prv"))
    back = convert_layout(mid, src.desc)
    assert np.array_equal(back.prv, src.prv)
    assert np.array_equal(back.nxt, src.nxt)


def _assert_line_aligned(buf):
    """Both arenas start on a 64-B line, are distinct, C-contiguous float64
    arrays and hold exactly alloc_LX * LY * Q elements."""
    size = buf.geom.alloc_lx * buf.geom.ly * buf.nq
    for arena in (buf.prv, buf.nxt):
        assert arena.ctypes.data % 64 == 0
        assert arena.flags.c_contiguous and arena.dtype == np.float64
        assert arena.shape == (size,) and buf.size == size
    assert not np.shares_memory(buf.prv, buf.nxt)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.name)
@pytest.mark.parametrize("model", ["d2q9", "d2q37"])
@pytest.mark.parametrize("lx, ly", [(6, 8), (256, 256)])  # heap, mmap
def test_arenas_start_on_a_cache_line(family, model, lx, ly):
    nq = builtin_model(model).Q
    desc = LayoutDescriptor(family, 4 if family in (Family.CSOA,
                                                    Family.CAOSOA) else 1)
    buf = FieldBuffer(desc, Geometry(lx, ly, halo=3), nq)
    _assert_line_aligned(buf)
    buf.swap()
    _assert_line_aligned(buf)
    _assert_line_aligned(convert_layout(buf, LayoutDescriptor(Family.SOA)))


def test_runtime_and_tuner_arenas_start_on_a_cache_line():
    model = builtin_model("d2q9")
    with HeteroRuntime(model, ModelParams(tau=0.8),
                       LayoutDescriptor(Family.CAOSOA, 4),
                       Geometry(16, 32, halo=1)) as rt:
        _assert_line_aligned(rt.host_buf)
        _assert_line_aligned(rt.device_buf)
        _assert_line_aligned(HeteroTuningRunner(rt)._scratch)


def test_dump_bytes_are_frozen():
    # a frozen SHA-256 of one seeded state's dump: where an arena starts
    # moves no value and no byte of the format
    buf = FieldBuffer(LayoutDescriptor(Family.CAOSOA, 4),
                      Geometry(6, 8, halo=1), 9)
    buf.set_canonical(np.random.default_rng(5).random((9, 6, 8)))
    assert hashlib.sha256(dump_bytes(buf)).hexdigest() == \
        "2e95d68b79f7ef09e927c48b45bde8c2f806a58a7d25f11425f74e6dbd20cf19"


def test_dump_format_and_roundtrip(tmp_path):
    geom = Geometry(5, 4, halo=3)
    rng = np.random.default_rng(3)
    values = rng.random((NQ, 5, 4))
    buf = FieldBuffer(LayoutDescriptor(Family.CSOA, 2), geom, NQ)
    buf.set_canonical(values)
    data = dump_bytes(buf)
    assert data[:4] == b"LBHX"
    assert len(data) == 32 + NQ * 5 * 4 * 8  # 32-byte header + f8 interior
    state, meta = load_dump(data)
    assert np.array_equal(state, values)
    assert meta["family"] == Family.CSOA and meta["vl"] == 2
    path = tmp_path / "s.lbhx"
    write_dump(path, buf)
    state2, meta2 = read_dump(path)
    assert np.array_equal(state2, values)
    assert meta2 == meta


def test_dump_is_layout_independent():
    geom = Geometry(5, 4, halo=3)
    rng = np.random.default_rng(4)
    values = rng.random((NQ, 5, 4))
    bodies = set()
    for desc in (LayoutDescriptor(Family.AOS), LayoutDescriptor(Family.CAOSOA, 4)):
        buf = FieldBuffer(desc, geom, NQ)
        buf.set_canonical(values)
        bodies.add(dump_bytes(buf)[32:])
    assert len(bodies) == 1  # same interior bytes whatever the layout


def test_load_dump_errors():
    with pytest.raises(ConfigurationError):
        load_dump(b"XXXX" + bytes(28))
    with pytest.raises(ConfigurationError, match="truncated LBHX dump"):
        load_dump(b"LBHX\x01\x00")  # shorter than the 32-B header
    geom = Geometry(4, 4, halo=0)
    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, NQ)
    data = dump_bytes(buf)
    with pytest.raises(ConfigurationError):
        load_dump(data[:-8])  # truncated body
