"""Multi-rank tests: X decomposition, halo-exchange traffic accounting, and
bit-exact agreement between 1-rank and n-rank runs over both transports."""
import numpy as np
import pytest

from lbhx.config import DEFAULTS, build_run_config
from lbhx.distributed import (InMemoryFabric, RankLayout, decompose_x,
                              exchange_rank_halos, run_distributed)
from lbhx.errors import CommunicationFault, ConfigurationError
from lbhx.hetero import random_state
from lbhx.kernels import run_steps
from lbhx.layouts import Family, FieldBuffer, Geometry, LayoutDescriptor
from lbhx.model import ModelParams, builtin_model


def _cfg(**overrides):
    values = dict(DEFAULTS)
    values.update({k: str(v) for k, v in overrides.items()})
    return build_run_config(values)


def test_decompose_x_covers_lattice():
    for lx, n in ((96, 4), (97, 4), (100, 3), (24, 1)):
        layouts = decompose_x(lx, n)
        assert [l.rank for l in layouts] == list(range(n))
        assert layouts[0].x0 == 0
        assert sum(l.width for l in layouts) == lx
        for a, b in zip(layouts, layouts[1:]):
            assert b.x0 == a.x0 + a.width
        assert max(l.width for l in layouts) - min(l.width for l in layouts) <= 1
    with pytest.raises(ConfigurationError):
        decompose_x(20, 4)  # 5-column slices thinner than 2H=6
    with pytest.raises(ConfigurationError):
        decompose_x(96, 0)


def test_ring_neighbors():
    lay = RankLayout(4, 0, 0, 24)
    assert (lay.left, lay.right) == (3, 1)
    lay = RankLayout(4, 3, 72, 24)
    assert (lay.left, lay.right) == (2, 0)


def test_exchange_moves_neighbor_edges():
    """Two ranks, hand-built buffers: each halo ends up holding the
    neighbor's interior edge columns."""
    model = builtin_model("d2q9")
    geom = Geometry(12, 8, halo=3)
    fabric = InMemoryFabric(2)
    layouts = decompose_x(24, 2)
    full = random_state(model, 24, 8, 33)
    bufs = []
    for lay in layouts:
        buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
        buf.set_canonical(full[:, lay.x0:lay.x0 + 12, :])
        bufs.append(buf)
    import threading
    transports = [fabric.transport(0), fabric.transport(1)]
    threads = [threading.Thread(target=exchange_rank_halos,
                                args=(bufs[i], layouts[i], transports[i]))
               for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for i, buf in enumerate(bufs):
        left_halo = buf.columns(0, 3)
        right_halo = buf.columns(15, 3)
        left_neighbor = full[:, (np.arange(-3, 0) + layouts[i].x0) % 24, :]
        right_neighbor = full[:, (np.arange(3) + layouts[i].x0 + 12) % 24, :]
        assert np.array_equal(left_halo, left_neighbor)
        assert np.array_equal(right_halo, right_neighbor)
        t = transports[i]
        assert t.bytes_sent == 2 * 3 * 8 * model.Q * 8
        assert t.bytes_received == 2 * 3 * 8 * model.Q * 8


def test_payload_length_is_validated():
    model = builtin_model("d2q9")
    geom = Geometry(12, 8, halo=3)
    buf = FieldBuffer(LayoutDescriptor(Family.SOA), geom, model.Q)
    fabric = InMemoryFabric(2)
    t0, t1 = fabric.transport(0), fabric.transport(1)
    t1.send(0, 1, b"short")
    from lbhx.distributed import _unpack_columns
    with pytest.raises(CommunicationFault):
        _unpack_columns(buf, 0, 3, t0.recv(1, 1))


@pytest.mark.parametrize("transport", ["in_memory", "tcp"])
@pytest.mark.parametrize("n_ranks", [2, 4])
def test_n_ranks_match_single_rank(transport, n_ranks):
    cfg = _cfg(**{"lattice.lx": 96, "lattice.ly": 32, "run.iterations": 10,
                  "hetero.m": 4})
    model = builtin_model(cfg.model_name)
    init = random_state(model, 96, 32, 44)
    _, merged1, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    _, mergedN, results = run_distributed(cfg, n_ranks, transport,
                                          initial_state=init)
    assert np.array_equal(merged1, mergedN)
    # per-rank traffic: 2 directions x H columns x LY x Q x 8 bytes per step
    expected = 2 * 3 * 32 * model.Q * 8 * cfg.iterations
    for r in results:
        assert r.bytes_sent == expected
        assert r.bytes_received == expected


def test_distributed_merge_and_report():
    cfg = _cfg(**{"lattice.lx": 48, "lattice.ly": 16, "run.iterations": 4,
                  "hetero.m": 0})
    model = builtin_model(cfg.model_name)
    init = random_state(model, 48, 16, 55)
    report, merged, results = run_distributed(cfg, 2, "in_memory",
                                              initial_state=init)
    assert merged.shape == (model.Q, 48, 16)
    assert np.array_equal(
        merged, np.concatenate([r.final for r in results], axis=1))
    assert report.metadata["n_ranks"] == "2"
    assert "mlups" in report.metadata and "median_t_exe" in report.metadata
    assert len(report.rows) == 2


def test_one_rank_run_equals_reference():
    """The configured run (seeded state, M=4) against the single-buffer
    reference, through the driver that `lbhx dump` uses."""
    cfg = _cfg(**{"lattice.lx": 24, "lattice.ly": 32, "run.iterations": 5,
                  "hetero.m": 4})
    model = builtin_model(cfg.model_name)
    buf = FieldBuffer(cfg.layout, cfg.geometry, model.Q)
    buf.set_canonical(random_state(model, 24, 32, cfg.seed))
    run_steps(model, ModelParams(tau=cfg.tau), buf, 5, cfg.policy)
    _, final, results = run_distributed(cfg, 1, "in_memory")
    assert results[0].m == 4
    assert np.array_equal(final, buf.canonical("prv"))


def test_unknown_transport_rejected():
    cfg = _cfg(**{"lattice.lx": 48, "lattice.ly": 16, "run.iterations": 1})
    with pytest.raises(ConfigurationError):
        run_distributed(cfg, 2, "carrier_pigeon")


def test_tcp_endpoint_count_checked():
    cfg = _cfg(**{"lattice.lx": 48, "lattice.ly": 16, "run.iterations": 1})
    with pytest.raises(ConfigurationError):
        run_distributed(cfg, 2, "tcp", endpoints=["127.0.0.1:1"])


def test_tcp_endpoint_in_use_names_rank():
    """Every listener is bound before any rank dials, so a taken port fails
    the rendezvous at once, naming the rank."""
    import socket
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    taken.listen()
    try:
        endpoints = ["127.0.0.1:%d" % taken.getsockname()[1]] * 2
        with pytest.raises(CommunicationFault, match="rank 0: cannot listen"):
            run_distributed(_cfg(**{"lattice.lx": 48, "lattice.ly": 16}), 2,
                            "tcp", endpoints=endpoints)
    finally:
        taken.close()


def test_tcp_links_disable_nagle():
    """Both ends of every link set TCP_NODELAY, so a step's back-to-back
    halo writes to one peer are not held for a delayed ACK."""
    import socket
    import lbhx.distributed as D
    transports = D._tcp_rendezvous(decompose_x(24, 3))
    try:
        for t in transports:
            assert len(t._socks) == 2
            for sock in t._socks.values():
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
    finally:
        for t in transports:
            t.close()


def test_in_memory_io_deadline_names_rank_peer_and_phase(monkeypatch):
    """The in-memory receive reads IO_TIMEOUT when called, like TCP; a peer
    that never sends makes recv fail with a CommunicationFault."""
    import time
    import lbhx.distributed as D
    monkeypatch.setattr(D, "IO_TIMEOUT", 0.2)
    fabric = InMemoryFabric(2)
    for rank in (0, 1):
        t0 = time.monotonic()
        with pytest.raises(CommunicationFault) as err:
            fabric.transport(rank).recv(1 - rank, D.TAG_TO_RIGHT)
        assert time.monotonic() - t0 < 10.0
        msg = str(err.value)
        assert f"rank {rank}:" in msg
        assert f"waiting for rank {1 - rank}" in msg
        assert "phase: halo recv of tag 1" in msg


def test_tcp_io_deadline_names_rank_peer_and_phase(monkeypatch):
    """Both ends of a link carry the same I/O deadline; a peer that never
    sends makes recv fail with a CommunicationFault instead of hanging."""
    import lbhx.distributed as D
    monkeypatch.setattr(D, "IO_TIMEOUT", 0.2)
    layouts = decompose_x(24, 2)
    transports = D._tcp_rendezvous(layouts)
    try:
        for t in transports:
            assert t._socks[1 - t.rank].gettimeout() == 0.2
        for t in transports:
            with pytest.raises(CommunicationFault) as err:
                t.recv(1 - t.rank, D.TAG_TO_RIGHT)
            msg = str(err.value)
            assert f"rank {t.rank}:" in msg
            assert f"from rank {1 - t.rank}" in msg
            assert "phase: halo recv of tag 1" in msg
    finally:
        for t in transports:
            t.close()
