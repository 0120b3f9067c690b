"""Kernel tests: streaming as an exact permutation, moments/equilibrium
identities, BGK conservation, boundary handling and cross-layout agreement."""
import hashlib
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import lbhx
from lbhx import kernels
from lbhx.errors import ConfigurationError, ContractViolation, RuntimeFault
from lbhx.kernels import (PERIODIC, WALL_BOUNCE_BACK, BoundaryPolicy,
                          Macroscopics, Region, apply_bc, collide_region,
                          compute_moments, equilibrium, interior_region,
                          propagate_region, run_steps, step_region,
                          update_x_halos_periodic)
from lbhx.layouts import (Clustering, Family, FieldBuffer, Geometry,
                          LayoutDescriptor)
from lbhx.model import ModelParams, builtin_model
from lbhx.validate import ALL_DESCRIPTORS

LAYOUTS = [
    LayoutDescriptor(Family.AOS),
    LayoutDescriptor(Family.SOA),
    LayoutDescriptor(Family.CSOA, 4),
    LayoutDescriptor(Family.CSOA, 4, Clustering.CONSECUTIVE),
    LayoutDescriptor(Family.CAOSOA, 4),
    LayoutDescriptor(Family.CAOSOA, 4, Clustering.CONSECUTIVE),
]


def _random_buf(model, desc, geom, seed=0):
    rng = np.random.default_rng(seed)
    state = 0.1 + rng.random((model.Q, geom.lx, geom.ly))
    buf = FieldBuffer(desc, geom, model.Q)
    buf.set_canonical(state)
    return buf, state


def _propagated(model, desc, geom, regions, seed=42):
    buf, state = _random_buf(model, desc, geom, seed)
    update_x_halos_periodic(buf)
    for region in regions:
        propagate_region(model, buf, region)
    return buf, state


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=str)
@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
@pytest.mark.parametrize("ly", [8, 12])
def test_propagate_is_exact_periodic_shift(desc, name, ly):
    """Against the np.roll oracle; at LY=8 a VL=4 interleaved row block is
    B=2 rows, shorter than the D2Q37 reach R=3."""
    model = builtin_model(name)
    geom = Geometry(10, ly, halo=3)
    buf, state = _propagated(model, desc, geom, [interior_region(geom)])
    out = buf.canonical("nxt")
    for p, (cx, cy) in enumerate(model.velocities):
        expected = np.roll(np.roll(state[p], cx, axis=0), cy, axis=1)
        assert np.array_equal(out[p], expected), p


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=str)
def test_propagate_in_strips_is_bit_identical_to_whole(desc):
    """Row ranges that start and end inside a row block split into head,
    middle and tail rectangles; together they equal one whole-region pass."""
    model = builtin_model("d2q37")
    geom = Geometry(10, 16, halo=3)
    strips = [Region(3, 13, 0, 3), Region(3, 8, 3, 13), Region(8, 13, 3, 13),
              Region(3, 13, 13, 16)]
    whole, _ = _propagated(model, desc, geom, [interior_region(geom)])
    split, _ = _propagated(model, desc, geom, strips)
    assert np.array_equal(whole.nxt, split.nxt)


def test_propagate_region_guards():
    model = builtin_model("d2q37")
    geom = Geometry(8, 8, halo=3)
    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    with pytest.raises(ContractViolation):
        propagate_region(model, buf, Region(0, 8, 0, 8))  # touches halo edge


def test_moments_and_equilibrium_identities():
    model = builtin_model("d2q37")
    rho, ux, uy = 1.2, 0.03, -0.01
    feq = equilibrium(model, Macroscopics(rho, ux, uy, None))
    m = compute_moments(model, feq)
    assert m.rho == pytest.approx(rho, rel=1e-14)
    assert m.ux == pytest.approx(ux, rel=1e-12)
    assert m.uy == pytest.approx(uy, rel=1e-12)
    # zero velocity: equilibrium reduces to w * rho
    feq0 = equilibrium(model, Macroscopics(rho, 0.0, 0.0, None))
    assert np.allclose(feq0, model.w * rho, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_collide_matches_textbook_bgk(name):
    """The pair kernel against the per-population closed form of the order-2
    BGK update, to a tolerance set by float64 rounding."""
    model = builtin_model(name)
    params = ModelParams(tau=0.6)
    geom = Geometry(8, 8, halo=3)
    buf, state = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 24)
    buf.nxt[:] = buf.prv
    collide_region(model, params, buf, interior_region(geom))
    f = state.reshape(model.Q, -1)
    cx, cy, w = model.cx[:, None], model.cy[:, None], model.w[:, None]
    cs2 = model.cs2
    rho = f.sum(0)
    ux, uy = (cx * f).sum(0) / rho, (cy * f).sum(0) / rho
    cu = cx * ux + cy * uy
    feq = w * rho * (1 + cu / cs2 + cu * cu / (2 * cs2 * cs2)
                     - (ux * ux + uy * uy) / (2 * cs2))
    expected = f - (f - feq) / params.tau
    got = buf.canonical("prv").reshape(model.Q, -1)
    assert np.max(np.abs(got - expected)) < 1e-14 * np.max(np.abs(expected))


def test_equilibrium_is_collide_fixed_point():
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(6, 8, halo=3)
    mac = Macroscopics(np.full(48, 1.1), np.full(48, 0.02), np.full(48, -0.03),
                       None)
    feq = equilibrium(model, mac).reshape(model.Q, 6, 8)
    buf = FieldBuffer(LayoutDescriptor(Family.AOS), geom, model.Q)
    buf.set_canonical(feq, "nxt")
    collide_region(model, params, buf, interior_region(geom))
    assert np.allclose(buf.canonical("prv"), feq, rtol=1e-14, atol=1e-16)


def test_collide_conserves_rho_and_momentum():
    model = builtin_model("d2q37")
    params = ModelParams(tau=0.6)
    geom = Geometry(12, 8, halo=3)
    buf, state = _random_buf(model, LayoutDescriptor(Family.CSOA, 4), geom, 8)
    buf.nxt[:] = buf.prv
    collide_region(model, params, buf, interior_region(geom))
    post = buf.canonical("prv")
    cx, cy = model.cx.astype(float), model.cy.astype(float)
    assert np.max(np.abs(post.sum(0) - state.sum(0))) < 1e-12
    for c in (cx, cy):
        assert np.max(np.abs(np.tensordot(c, post - state, 1))) < 1e-12


@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_collide_in_strips_is_bit_identical_to_whole(name):
    """Collide is elementwise in a fixed order, so strips of any width and
    offset reproduce a whole-region collide bit for bit."""
    model = builtin_model(name)
    params = ModelParams(tau=0.7)
    geom = Geometry(14, 8, halo=3)  # interior columns 3..16
    strips = [Region(3, 4, 0, 8), Region(4, 7, 0, 8), Region(7, 16, 0, 3),
              Region(7, 16, 3, 8), Region(16, 17, 0, 8)]
    for desc in ALL_DESCRIPTORS:
        whole, _ = _random_buf(model, desc, geom, seed=21)
        split, _ = _random_buf(model, desc, geom, seed=21)
        for buf in (whole, split):
            buf.nxt[:] = buf.prv
        collide_region(model, params, whole, interior_region(geom))
        for region in strips:
            collide_region(model, params, split, region)
        assert np.array_equal(whole.prv, split.prv), desc


BLOCK_LY = 16


@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_collide_writes_dst_only_inside_its_region(name):
    """On every layout, over full-height and partial row ranges, collide
    never writes its src arena (nxt), and writes dst (prv) only inside the
    region."""
    model = builtin_model(name)
    params = ModelParams(tau=0.7)
    geom = Geometry(14, BLOCK_LY, halo=3)  # interior columns 3..16
    regions = [interior_region(geom), Region(4, 15, 3, 13),
               Region(4, 15, 6, 9)]
    for desc in ALL_DESCRIPTORS:
        for region in regions:
            buf, _ = _random_buf(model, desc, geom, seed=24)
            buf.nxt[:] = buf.prv
            buf.prv[:] = -1.0
            before = buf.nxt.copy()
            collide_region(model, params, buf, region)
            assert np.array_equal(buf.nxt, before), (desc, region)
            inside = np.zeros((model.Q, geom.alloc_lx, geom.ly), bool)
            inside[:, region.x_begin:region.x_end,
                   region.y_begin:region.y_end] = True
            prv = buf.columns(0, geom.alloc_lx)
            assert np.all(prv[~inside] == -1.0), (desc, region)
            assert np.all(prv[inside] != -1.0), (desc, region)


@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_moments_of_one_column_match_the_block(name):
    model = builtin_model(name)
    f = 0.1 + np.random.default_rng(22).random((model.Q, 65))
    block = compute_moments(model, f)
    for col in (0, 7, 64):
        one = compute_moments(model, f[:, col:col + 1])
        for field in ("rho", "ux", "uy", "T"):
            assert np.array_equal(getattr(one, field),
                                  getattr(block, field)[col:col + 1]), field


def collide_digest() -> str:
    """SHA-256 of a D2Q37 collide of a seeded 64x64 state."""
    model = builtin_model("d2q37")
    geom = Geometry(64, 64, halo=3)
    buf, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, seed=23)
    buf.nxt[:] = buf.prv
    collide_region(model, ModelParams(tau=0.6), buf, interior_region(geom))
    return hashlib.sha256(buf.prv.tobytes()).hexdigest()


def test_collide_does_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(lbhx.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]))
    single = subprocess.run(
        [sys.executable, "-c",
         "from test_kernels import collide_digest; print(collide_digest())"],
        env=env, capture_output=True, text=True, check=True,
        timeout=120).stdout.strip()
    assert single == collide_digest()


def test_wall_bounce_back_conserves_mass_and_blocks_leak():
    model = builtin_model("d2q37")
    geom = Geometry(10, 12, halo=3)
    buf, state = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 10)
    update_x_halos_periodic(buf)
    propagate_region(model, buf, interior_region(geom))
    apply_bc(model, buf, BoundaryPolicy(WALL_BOUNCE_BACK))
    out = buf.canonical("nxt")
    assert abs(out.sum() - state.sum()) / state.sum() < 1e-13
    # the wall rows no longer hold the wrapped-around values
    for p, (cx, cy) in enumerate(model.velocities):
        if cy <= 0:
            continue
        periodic = np.roll(np.roll(state[p], cx, axis=0), cy, axis=1)
        assert not np.array_equal(out[p][:, :cy], periodic[:, :cy])


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=str)
@pytest.mark.parametrize("ly", [8, 12])
def test_wall_bounce_back_is_layout_independent(desc, ly):
    """Wall bounce-back, whole and in row strips, matches SoA bit for bit."""
    model = builtin_model("d2q37")
    geom = Geometry(6, ly, halo=3)
    policy = BoundaryPolicy(WALL_BOUNCE_BACK)
    strips = [Region(3, 9, 0, 1), Region(3, 9, 1, ly - 2),
              Region(3, 9, ly - 2, ly)]
    ref, _ = _propagated(model, LayoutDescriptor(Family.SOA), geom,
                         [interior_region(geom)], seed=14)
    apply_bc(model, ref, policy)
    expected = ref.canonical("nxt")
    for regions in ([interior_region(geom)], strips):
        buf, _ = _propagated(model, desc, geom, [interior_region(geom)],
                             seed=14)
        for region in regions:
            apply_bc(model, buf, policy, region)
        assert np.array_equal(buf.canonical("nxt"), expected)


def test_periodic_bc_is_noop():
    model = builtin_model("d2q9")
    geom = Geometry(8, 8, halo=3)
    buf, _ = _random_buf(model, LayoutDescriptor(Family.AOS), geom, 11)
    update_x_halos_periodic(buf)
    propagate_region(model, buf, interior_region(geom))
    before = buf.nxt.copy()
    apply_bc(model, buf, BoundaryPolicy(PERIODIC))
    assert np.array_equal(buf.nxt, before)


@pytest.mark.parametrize("policy", [PERIODIC, WALL_BOUNCE_BACK])
def test_cross_layout_agreement(policy):
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(24, 32, halo=3)
    rng = np.random.default_rng(12)
    init = model.w[:, None, None] * (1 + 0.1 * rng.random((model.Q, 24, 32)))
    finals = []
    for desc in LAYOUTS:
        buf = FieldBuffer(desc, geom, model.Q)
        buf.set_canonical(init)
        run_steps(model, params, buf, 10, BoundaryPolicy(policy))
        finals.append(buf.canonical("prv"))
    for other in finals[1:]:
        rel = np.max(np.abs(other - finals[0]) / np.abs(finals[0]))
        assert rel <= 1e-12


def test_step_region_composes_all_three_kernels():
    """step_region is the fused step plus an arena flip: its interior equals
    propagate -> apply_bc -> collide, and the old prv arena is only read.
    The halo columns of the swapped-in arena are scratch."""
    model = builtin_model("d2q9")
    params = ModelParams(tau=0.8)
    geom = Geometry(8, 8, halo=3)
    policy = BoundaryPolicy(WALL_BOUNCE_BACK)
    a, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 13)
    b, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 13)
    region = interior_region(geom)
    update_x_halos_periodic(a)
    old_prv, before = a.prv, a.prv.copy()
    step_region(model, params, a, region, policy)
    update_x_halos_periodic(b)
    propagate_region(model, b, region)
    apply_bc(model, b, policy, region)
    collide_region(model, params, b, region)
    assert np.array_equal(a.canonical(), b.canonical())
    assert a.nxt is old_prv and np.array_equal(old_prv, before)


#: With the regions of the test below, these block sizes give blocks of
#: every site count mod 8, so the collide's last vector of a block holds 1
#: to 8 sites.  At 28 sites, rows [1, 13) make 2-column blocks in which
#: CSoA VL4 interleaved has vectors whose first and last destinations lie 7
#: apart but whose sites do not; rows [5, 9) do that on CSoA VL2 at 15.
FUSED_BLOCK_SITES = [1, 7, BLOCK_LY - 1, 21, 28, 3 * BLOCK_LY]


@pytest.mark.parametrize("block_sites", FUSED_BLOCK_SITES)
@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_fused_step_is_bit_identical_to_separate_kernels(monkeypatch, name,
                                                         block_sites):
    """stream_collide_region equals propagate -> apply_bc -> collide bit for
    bit on every layout and Y boundary, over full-height and partial row
    ranges, with one-column, partial and staged blocks, and leaves prv
    untouched.  On the interleaved layouts the partial row ranges have head
    and tail row rectangles, with a middle one at VL = 4, and the collide's
    8-site vectors straddle them."""
    model = builtin_model(name)
    params = ModelParams(tau=0.7)
    geom = Geometry(14, BLOCK_LY, halo=3)  # interior columns 3..16
    regions = [interior_region(geom), Region(4, 15, 3, 13),
               Region(4, 15, 6, 9), Region(4, 15, 1, 13),
               Region(4, 15, 5, 9)]
    monkeypatch.setattr(kernels, "BLOCK_SITES", block_sites)
    for y_mode in (PERIODIC, WALL_BOUNCE_BACK):
        policy = BoundaryPolicy(y_mode)
        for desc in ALL_DESCRIPTORS:
            for region in regions:
                ref, _ = _random_buf(model, desc, geom, seed=25)
                fused, _ = _random_buf(model, desc, geom, seed=25)
                for buf in (ref, fused):
                    update_x_halos_periodic(buf)
                    buf.nxt[:] = -1.0
                before = fused.prv.copy()
                propagate_region(model, ref, region)
                apply_bc(model, ref, policy, region)
                collide_region(model, params, ref, region, "nxt", "nxt")
                kernels.stream_collide_region(model, params, fused, region,
                                              policy)
                case = (y_mode, desc, region)
                assert np.array_equal(fused.nxt, ref.nxt), case
                assert np.array_equal(fused.prv, before), case


VL8 = [LayoutDescriptor(Family.CSOA, 8),
       LayoutDescriptor(Family.CAOSOA, 8),
       LayoutDescriptor(Family.CAOSOA, 8, Clustering.CONSECUTIVE)]


@pytest.mark.parametrize("ly", [8, 32])
@pytest.mark.parametrize("name", ["d2q9", "d2q37"])
def test_fused_step_matches_the_reference_at_other_heights(name, ly):
    """The compiled step equals propagate -> apply_bc -> collide at heights
    where a row block is shorter than the D2Q37 reach (LY = 8, VL = 4
    interleaved: B = 2) and longer, with VL = 8 layouts too, on partial and
    whole row ranges.  At LY = 8 the interleaved VL = 8 layouts have B = 1,
    so every non-zero cy moves a value to another lane."""
    model = builtin_model(name)
    params = ModelParams(tau=0.7)
    geom = Geometry(10, ly, halo=3)
    regions = [interior_region(geom), Region(4, 11, 1, ly - 2),
               Region(5, 9, ly // 2 - 1, ly // 2 + 2)]
    for y_mode in (PERIODIC, WALL_BOUNCE_BACK):
        policy = BoundaryPolicy(y_mode)
        for desc in ALL_DESCRIPTORS + VL8:
            for region in regions:
                ref, _ = _random_buf(model, desc, geom, seed=27)
                fused, _ = _random_buf(model, desc, geom, seed=27)
                for buf in (ref, fused):
                    update_x_halos_periodic(buf)
                    buf.nxt[:] = -1.0
                propagate_region(model, ref, region)
                apply_bc(model, ref, policy, region)
                collide_region(model, params, ref, region, "nxt", "nxt")
                kernels.stream_collide_region(model, params, fused, region,
                                              policy)
                assert np.array_equal(fused.nxt, ref.nxt), (y_mode, desc,
                                                            region)


#: (model, LY) pairs for the direct-load test below.  At LY = 64 and 72
#: each column has a band of rows loaded straight from prv; at LY = 16 and
#: 24 the D2Q37 head and tail bands of R = 3 rows, rounded up to whole
#: vectors, meet or overlap on the interleaved VL4 layouts (and at 16 on
#: SoA), so every row is staged.
DIRECT_HEIGHTS = [("d2q9", 64), ("d2q9", 72), ("d2q37", 16), ("d2q37", 24),
                  ("d2q37", 64), ("d2q37", 72)]


@pytest.mark.parametrize("block_sites", [20, 1024])
@pytest.mark.parametrize("name,ly", DIRECT_HEIGHTS)
def test_direct_loads_are_bit_identical_to_separate_kernels(
        monkeypatch, name, ly, block_sites):
    """The vectors that load straight from prv and the staged edge rows
    together equal propagate -> apply_bc -> collide bit for bit, on every
    layout, VL = 8 too, and Y boundary.  The regions are whole, whole-height
    on some columns, and partial row ranges whose ends fall mid-vector: the
    staged vectors then straddle the wall or the y-wrap, and on the
    interleaved layouts the rows cross VL4 cluster seams."""
    model = builtin_model(name)
    params = ModelParams(tau=0.7)
    geom = Geometry(10, ly, halo=3)
    regions = [interior_region(geom), Region(4, 11, 0, ly),
               Region(4, 11, 5, ly - 3),
               Region(5, 9, ly // 4 - 3, 3 * ly // 4 + 3)]
    monkeypatch.setattr(kernels, "BLOCK_SITES", block_sites)
    for y_mode in (PERIODIC, WALL_BOUNCE_BACK):
        policy = BoundaryPolicy(y_mode)
        for desc in ALL_DESCRIPTORS + VL8:
            for region in regions:
                ref, _ = _random_buf(model, desc, geom, seed=32)
                fused, _ = _random_buf(model, desc, geom, seed=32)
                for buf in (ref, fused):
                    update_x_halos_periodic(buf)
                    buf.nxt[:] = -1.0
                before = fused.prv.copy()
                propagate_region(model, ref, region)
                apply_bc(model, ref, policy, region)
                collide_region(model, params, ref, region, "nxt", "nxt")
                kernels.stream_collide_region(model, params, fused, region,
                                              policy)
                case = (y_mode, desc, region)
                assert np.array_equal(fused.nxt, ref.nxt), case
                assert np.array_equal(fused.prv, before), case


def test_fused_step_guards_its_region_and_arenas():
    """Out-of-range regions and arenas that are not two distinct float64
    arrays raise before the foreign call, so nothing is written."""
    model = builtin_model("d2q37")
    params, policy = ModelParams(tau=0.7), BoundaryPolicy()
    geom = Geometry(8, 8, halo=3)  # interior columns 3..10, alloc 14
    buf, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 28)
    prv, nxt = buf.prv.copy(), buf.nxt.copy()
    for region in (Region(2, 11, 0, 8), Region(3, 12, 0, 8),
                   Region(3, 11, 0, 9)):
        with pytest.raises(ContractViolation):
            kernels.stream_collide_region(model, params, buf, region, policy)
    assert np.array_equal(buf.prv, prv) and np.array_equal(buf.nxt, nxt)
    for other in (buf.prv, buf.nxt.astype(np.float32)):
        buf.nxt = other
        with pytest.raises(ContractViolation):
            kernels.stream_collide_region(model, params, buf,
                                          interior_region(geom), policy)
    assert np.array_equal(buf.prv, prv)


def test_failed_block_allocation_is_a_runtime_fault(monkeypatch):
    """A kernel that cannot allocate its block buffer returns the byte count
    it asked for, and RuntimeFault names the phase, the region and that
    count."""
    model = builtin_model("d2q9")
    geom = Geometry(6, 8, halo=1)
    buf, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 30)
    monkeypatch.setattr(kernels, "load_kernel",
                        lambda: lambda *args: 123456)
    region = Region(2, 5, 0, 8)
    with pytest.raises(RuntimeFault) as err:
        kernels.stream_collide_region(model, ModelParams(tau=0.7), buf,
                                      region, BoundaryPolicy())
    assert str(err.value) == ("cannot allocate 123456 "
                              f"bytes for region {region} "
                              "(phase: fused kernel block buffer)")


@pytest.mark.skipif(platform.machine() != "x86_64",
                    reason="-march=x86-64 names an x86_64 target only")
def test_kernel_values_do_not_depend_on_the_instruction_set(
        fresh_kernel_cache, monkeypatch):
    """The kernel built for baseline x86-64, where an 8-site vector is four
    SSE2 operations, writes nxt bit for bit as the -march=native build does,
    over whole-vector, 4-wide and per-site stores and a short last vector.
    The whole regions also load vectors straight from prv: 8 wide on SoA
    and CSoA VL8 (rows 8..24 and b 1..3), 4 + 4 on CAoSoA VL4 (b 2..6)."""
    cases = [("d2q37", LayoutDescriptor(Family.SOA), PERIODIC),
             ("d2q9", LayoutDescriptor(Family.CAOSOA, 4), WALL_BOUNCE_BACK),
             ("d2q37", LayoutDescriptor(Family.AOS), WALL_BOUNCE_BACK),
             ("d2q9", LayoutDescriptor(Family.CSOA, 8), PERIODIC)]
    geom = Geometry(10, 32, halo=3)
    regions = [interior_region(geom), Region(4, 11, 3, 30)]
    native = kernels.BUILD
    assert "-march=native" in native
    outs = []
    for build in (native, tuple("-march=x86-64" if a == "-march=native"
                                else a for a in native)):
        monkeypatch.setattr(kernels, "BUILD", build)
        kernels.load_kernel.cache_clear()
        outs.append([])
        for name, desc, y_mode in cases:
            model = builtin_model(name)
            for region in regions:
                buf, _ = _random_buf(model, desc, geom, seed=31)
                update_x_halos_periodic(buf)
                buf.nxt[:] = -1.0
                kernels.stream_collide_region(model, ModelParams(tau=0.7),
                                              buf, region,
                                              BoundaryPolicy(y_mode))
                outs[-1].append(buf.nxt)
    assert len(list(fresh_kernel_cache.glob("kernel-*.so"))) == 2
    for case, a, b in zip([(c, r) for c in cases for r in regions], *outs):
        assert np.array_equal(a, b), case


def test_kernel_source_builds_without_warnings(tmp_path):
    """_kernel.c compiles cleanly under -Wall -Wextra -Werror, so a rewrite
    leaves no unused local or dead helper behind."""
    cmd = [*kernels.BUILD, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "kernel.so"), str(kernels._SOURCE)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_compiled_kernel_releases_the_interpreter_lock():
    """While one fused D2Q37 256x256 call runs in a thread, the calling
    thread keeps running Python.  ctypes.CDLL drops the interpreter lock for
    a foreign call.  Under a lock-holding loader (ctypes.PyDLL) the loop
    below would make no turn until the call returned, which is after the
    first half of the call's window: the lock changes hands at most once
    per switch interval, here 1 ms, far less than the call."""
    model = builtin_model("d2q37")
    params, policy = ModelParams(tau=0.7), BoundaryPolicy()
    geom = Geometry(256, 256, halo=3)
    buf, _ = _random_buf(model, LayoutDescriptor(Family.SOA), geom, 29)
    region = interior_region(geom)
    kernels.stream_collide_region(model, params, buf, region, policy)
    window = []

    def call():
        t0 = time.perf_counter()
        kernels.stream_collide_region(model, params, buf, region, policy)
        window.extend((t0, time.perf_counter()))

    stamps = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)
    try:
        th = threading.Thread(target=call)
        th.start()
        while th.is_alive():
            stamps.append(time.perf_counter())
        th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not th.is_alive() and len(window) == 2
    t0, t1 = window
    turns = sum(t0 + 0.05 * (t1 - t0) < t < (t0 + t1) / 2 for t in stamps)
    assert turns > 100, (turns, t1 - t0)


def test_kernel_builds_once_then_loads_without_a_compiler(
        fresh_kernel_cache, monkeypatch):
    kernels.load_kernel()
    built = list(fresh_kernel_cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    kernels.load_kernel.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a cache hit")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    kernels.load_kernel()
    assert list(fresh_kernel_cache.iterdir()) == built


def test_kernel_cache_file_is_keyed_by_the_source(fresh_kernel_cache):
    paths = {kernels._object_path(text) for text in (b"int a;", b"int b;")}
    assert len(paths) == 2
    assert {p.parent for p in paths} == {fresh_kernel_cache}


def test_unwritable_kernel_cache_names_its_path(fresh_kernel_cache,
                                                monkeypatch):
    fresh_kernel_cache.parent.joinpath("file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME",
                       str(fresh_kernel_cache.parent / "file"))
    with pytest.raises(ConfigurationError, match="kernel cache .*file"):
        kernels.load_kernel()


def test_failed_build_names_the_command_and_its_stderr(fresh_kernel_cache,
                                                       monkeypatch):
    monkeypatch.setattr(kernels, "BUILD", kernels.BUILD + ("-fbogus-flag",))
    with pytest.raises(ConfigurationError) as err:
        kernels.load_kernel()
    msg = str(err.value)
    assert msg.startswith(f"`{' '.join(kernels.BUILD)} -o ")
    assert "exited with status" in msg and "-fbogus-flag" in msg.split(":")[-1]
    assert list(fresh_kernel_cache.iterdir()) == []
