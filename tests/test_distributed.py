"""Multi-rank tests: X decomposition, halo-exchange traffic accounting, and
bit-exact agreement between 1-rank and n-rank runs over both transports."""
from contextlib import contextmanager

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
        layouts = decompose_x(lx, n, halo=3)
        assert [l.rank for l in layouts] == list(range(n))
        assert layouts[0].x0 == 0
        assert sum(l.width for l in layouts) == lx
        for a, b in zip(layouts, layouts[1:]):
            assert b.x0 == a.x0 + a.width
        assert max(l.width for l in layouts) - min(l.width for l in layouts) <= 1
    with pytest.raises(ConfigurationError):
        decompose_x(20, 4, halo=3)  # 5-column slices thinner than 2H=6
    assert [l.width for l in decompose_x(8, 4, halo=1)] == [2] * 4
    with pytest.raises(ConfigurationError):
        decompose_x(7, 4, halo=1)  # 1-column slices thinner than 2H=2
    with pytest.raises(ConfigurationError):
        decompose_x(96, 0, halo=3)


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
    layouts = decompose_x(24, 2, halo=3)
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
@pytest.mark.parametrize("n_ranks,model_name,halo",
                         [(2, "d2q9", 1), (4, "d2q9", 1), (2, "d2q37", 3)],
                         ids=["2", "4", "2-d2q37"])
def test_n_ranks_match_single_rank(transport, n_ranks, model_name, halo):
    cfg = _cfg(**{"lattice.lx": 96, "lattice.ly": 32, "run.iterations": 10,
                  "hetero.m": 4, "model": model_name})
    assert cfg.geometry.halo == halo
    model = builtin_model(cfg.model_name)
    init = random_state(model, 96, 32, 44)
    _, merged1, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    _, mergedN, results = run_distributed(cfg, n_ranks, transport,
                                          initial_state=init)
    assert np.array_equal(merged1, mergedN)
    # per-rank traffic: 2 directions x H columns x LY x Q x 8 bytes per step
    expected = 2 * cfg.geometry.halo * 32 * model.Q * 8 * cfg.iterations
    for r in results:
        assert r.bytes_sent == expected
        assert r.bytes_received == expected


@pytest.mark.parametrize("transport", ["in_memory", "tcp"])
@pytest.mark.parametrize("m", [0, 1])
def test_thinnest_d2q9_slices_match_one_rank_and_wider_halo(monkeypatch,
                                                            transport, m):
    """D2Q9 slices of 2 columns (2H, with H = 1) reproduce the 1-rank run
    and the same 1-rank run with a 3-column halo, with walls in Y."""
    import lbhx.config as config
    cfg = _cfg(**{"lattice.lx": 8, "lattice.ly": 16, "run.iterations": 6,
                  "hetero.m": m, "bc.y": "wall_bounce_back"})
    assert cfg.geometry.halo == 1
    init = random_state(builtin_model(cfg.model_name), 8, 16, 45)
    _, merged4, results = run_distributed(cfg, 4, transport,
                                          initial_state=init)
    assert [r.layout.width for r in results] == [2] * 4
    _, merged1, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    monkeypatch.setattr(config.RunConfig, "geometry", property(
        lambda c: Geometry(c.lx, c.ly, halo=3)))
    _, merged_h3, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    assert np.array_equal(merged4, merged1)
    assert np.array_equal(merged4, merged_h3)


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


def _tcp_transports(n_ranks):
    import lbhx.distributed as D
    return [D.TcpTransport(rank, socks)
            for rank, socks in enumerate(D._tcp_links(n_ranks))]


@contextmanager
def _closes_every_fd():
    """Fail if the block leaves a descriptor open, or leaves a socket for
    the garbage collector to close."""
    import gc
    import os
    import warnings
    before = sorted(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_tcp_links_join_each_neighbour_pair_once(monkeypatch, n_ranks):
    """Every rank holds one socket per neighbour, each neighbour pair
    shares one link (so a 2-rank ring has one), and bytes sent on one end
    of a link arrive on the other.  Set-up starts no thread."""
    import threading
    import lbhx.distributed as D

    def no_thread(self):
        raise AssertionError("link set-up started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    links = D._tcp_links(n_ranks)
    try:
        for lay, socks in zip(decompose_x(2 * n_ranks, n_ranks, halo=1),
                              links):
            assert set(socks) == {lay.left, lay.right}
        ends = [sock for socks in links for sock in socks.values()]
        n_links = n_ranks if n_ranks > 2 else 1
        assert len({sock.fileno() for sock in ends}) == len(ends)
        assert len(ends) == 2 * n_links
        for a, socks in enumerate(links):
            for b, sock in socks.items():
                sock.sendall(b"%d>%d" % (a, b))
                assert links[b][a].recv(16) == b"%d>%d" % (a, b)
    finally:
        for socks in links:
            for sock in socks.values():
                sock.close()


def test_tcp_link_failure_names_both_ranks_and_leaks_nothing(monkeypatch):
    """A link that cannot be made fails the run before any rank forks,
    naming the link's ranks, and closes every socket made before it."""
    import errno
    import socket
    import lbhx.distributed as D
    real = socket.create_connection
    calls = [0]

    def create_connection(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 2:
            raise ConnectionRefusedError(errno.ECONNREFUSED, "refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(D.socket, "create_connection", create_connection)
    with _closes_every_fd(), pytest.raises(
            CommunicationFault, match=r"cannot link rank 1 with rank 2 "
            r"\(phase: link set-up\): .*refused"):
        run_distributed(_ring_cfg(3), 3, "tcp")


def test_tcp_link_set_up_rejects_a_stranger(monkeypatch):
    """A connection from elsewhere that reaches the listener before a
    link's own dial fails set-up, instead of joining a rank to it."""
    import socket
    import lbhx.distributed as D
    real = socket.create_connection
    strangers = []

    def create_connection(address, *args, **kwargs):
        if not strangers:
            strangers.append(real(address))
        return real(address, *args, **kwargs)

    monkeypatch.setattr(D.socket, "create_connection", create_connection)
    try:
        with pytest.raises(CommunicationFault, match=r"cannot link rank 0 "
                           r"with rank 1 \(phase: link set-up\): accepted "
                           r"another process's link"):
            D._tcp_links(2)
    finally:
        strangers[0].close()


def test_failed_fork_exits_2_and_leaks_nothing(monkeypatch, capsys):
    """The second of a 3-rank ring's forks fails: `lbhx scale` exits 2
    naming the rank and phase, the rank already forked reads closed links
    and is reaped, and every link is closed."""
    import errno
    import os
    import time
    import lbhx.distributed as D
    from lbhx.cli import main
    real_fork = os.fork
    calls = [0]

    def fork():
        calls[0] += 1
        if calls[0] == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(D.os, "fork", fork)
    t0 = time.monotonic()
    with _closes_every_fd():
        code = main(["scale", "--ranks", "3", "--transport", "tcp",
                     "--lattice-lx", "48", "--lattice-ly", "16",
                     "--run-iterations", "4", "--hetero-m", "2"])
    assert time.monotonic() - t0 < 10.0
    assert code == 2
    assert "rank 2: cannot fork (phase: launch)" in capsys.readouterr().err
    assert calls[0] == 2


def test_run_distributed_builds_tcp_transports_through_the_module_name(
        monkeypatch):
    """perfbench's traced ring wraps each rank's links by replacing
    `lbhx.distributed.TcpTransport` with a factory of delegating
    Transports; the run looks the name up per rank at call time and uses
    only the Transport interface."""
    import lbhx.distributed as D
    real = D.TcpTransport
    built = []

    class Delegating(D.Transport):
        def __init__(self, inner):
            self.inner, self.rank = inner, inner.rank

        bytes_sent = property(lambda self: self.inner.bytes_sent)
        bytes_received = property(lambda self: self.inner.bytes_received)

        def send(self, peer, tag, payload):
            self.inner.send(peer, tag, payload)

        def recv(self, peer, tag):
            return self.inner.recv(peer, tag)

        def reset_counters(self):
            self.inner.reset_counters()

        def close(self):
            self.inner.close()

    def factory(*args, **kwargs):
        built.append(Delegating(real(*args, **kwargs)))
        return built[-1]

    monkeypatch.setattr(D, "TcpTransport", factory)
    cfg = _ring_cfg()
    init = random_state(builtin_model(cfg.model_name), cfg.lx, cfg.ly, 46)
    _, merged, results = run_distributed(cfg, 2, "tcp", initial_state=init)
    assert [t.rank for t in built] == [0, 1]
    assert [r.bytes_sent for r in results] == [
        2 * cfg.geometry.halo * cfg.ly * 9 * 8 * cfg.iterations] * 2
    _, reference, _ = run_distributed(cfg, 1, "in_memory", initial_state=init)
    assert np.array_equal(merged, reference)


def test_tcp_links_disable_nagle():
    """Both ends of every link set TCP_NODELAY, so a step's back-to-back
    halo writes to one peer are not held for a delayed ACK."""
    import socket
    transports = _tcp_transports(3)
    try:
        for t in transports:
            assert len(t._socks) == 2
            for sock in t._socks.values():
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
    finally:
        for t in transports:
            t.close()


def test_tcp_send_resumes_partial_sends_without_joining():
    """A socket that takes a few bytes per call still delivers the whole
    frame, and the payload is handed to the socket as the caller's buffer,
    never joined with the header into one copy."""
    import lbhx.distributed as D
    transports = _tcp_transports(2)
    real = transports[0]._socks[1]
    seen = []

    class Trickle:
        def sendmsg(self, parts):
            seen.append([type(p) for p in parts])
            head = b"".join(bytes(p) for p in parts)[:7]
            return real.send(head)

    transports[0]._socks[1] = Trickle()
    payload = memoryview(np.arange(40, dtype="<f8")).cast("B")
    try:
        transports[0].send(1, D.TAG_TO_RIGHT, payload)
        assert transports[1].recv(0, D.TAG_TO_RIGHT) == bytes(payload)
        assert transports[0].bytes_sent == 320
        assert len(seen) == (D._HEADER.size + 320 + 6) // 7
        assert seen[0] == [memoryview, memoryview]
    finally:
        transports[0]._socks[1] = real
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
    transports = _tcp_transports(2)
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


def _fail_rank(monkeypatch, rank, action, at_exchange=4):
    """Make `rank` call `action` at its `at_exchange`-th halo exchange (the
    first is load_state's), through the name `_rank_body` looks up."""
    import lbhx.distributed as D
    real = D.exchange_rank_halos
    calls = [0]

    def exchange(buf, layout, transport):
        if layout.rank == rank:
            calls[0] += 1
            if calls[0] == at_exchange:
                action()
        real(buf, layout, transport)

    monkeypatch.setattr(D, "exchange_rank_halos", exchange)


def _in_child_only(action):
    """Guard an action that ends its process: it may only run in a fork."""
    import os
    parent = os.getpid()

    def guarded():
        assert os.getpid() != parent, "rank ran in the test's own process"
        action()
    return guarded


def _raise_injected():
    raise RuntimeError("injected fault in rank 1")


def _ring_cfg(n_ranks=2):
    return _cfg(**{"lattice.lx": 24 * n_ranks, "lattice.ly": 16,
                   "run.iterations": 10, "hetero.m": 0})


@pytest.mark.parametrize("transport", ["in_memory", "tcp"])
def test_failure_names_the_rank_where_it_started(monkeypatch, transport):
    """Rank 1 fails; rank 0 then reads a closed link.  The fault names rank
    1 and keeps its message instead of reporting rank 0's short read."""
    import time
    import lbhx.distributed as D
    monkeypatch.setattr(D, "IO_TIMEOUT", 1.0)
    _fail_rank(monkeypatch, 1, _raise_injected)
    t0 = time.monotonic()
    with pytest.raises(CommunicationFault) as err:
        run_distributed(_ring_cfg(), 2, transport)
    assert time.monotonic() - t0 < 10.0
    msg = str(err.value)
    assert msg.startswith("rank 1 failed during the run")
    assert "RuntimeError: injected fault in rank 1" in msg


@pytest.mark.parametrize("transport", ["in_memory", "tcp"])
def test_scale_exits_2_naming_the_failed_rank(monkeypatch, capsys,
                                               transport):
    from lbhx.cli import main
    _fail_rank(monkeypatch, 1, _raise_injected)
    code = main(["scale", "--ranks", "2", "--transport", transport,
                 "--lattice-lx", "48", "--lattice-ly", "16",
                 "--run-iterations", "10", "--hetero-m", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "rank 1 failed" in err and "injected fault in rank 1" in err


@pytest.mark.parametrize("end, status", [
    ("exit", 3), ("kill", -9)])
def test_forked_rank_dying_without_result_is_named(monkeypatch, end, status):
    import os
    import signal
    import time
    import lbhx.distributed as D
    monkeypatch.setattr(D, "IO_TIMEOUT", 1.0)
    action = {"exit": lambda: os._exit(3),
              "kill": lambda: os.kill(os.getpid(), signal.SIGKILL)}[end]
    _fail_rank(monkeypatch, 1, _in_child_only(action))
    t0 = time.monotonic()
    with pytest.raises(CommunicationFault,
                       match=rf"CommunicationFault: rank 1: process exited "
                             rf"with status {status} \(phase: run\)"):
        run_distributed(_ring_cfg(), 2, "tcp")
    assert time.monotonic() - t0 < 10.0


def test_rank0_failure_ends_forked_ranks_on_eof(monkeypatch):
    """Rank 0 fails in the caller; the forked ranks read closed links and
    end at once instead of waiting out IO_TIMEOUT."""
    import time
    import lbhx.distributed as D
    monkeypatch.setattr(D, "IO_TIMEOUT", 1.0)

    def fail():
        raise RuntimeError("injected fault in rank 0")

    _fail_rank(monkeypatch, 0, fail)
    reaped = {}
    real_reap = D._reap

    def reap(rank, pid, read_fd):
        reaped[rank] = real_reap(rank, pid, read_fd)
        return reaped[rank]

    monkeypatch.setattr(D, "_reap", reap)
    t0 = time.monotonic()
    with pytest.raises(CommunicationFault, match="rank 0 failed during the "
                       "run: RuntimeError: injected fault in rank 0"):
        run_distributed(_ring_cfg(3), 3, "tcp")
    assert time.monotonic() - t0 < 10.0
    assert sorted(reaped) == [1, 2]
    for outcome in reaped.values():
        assert outcome[0] == "PeerClosedFault", outcome


def test_each_rank_reports_its_process_peak_rss():
    report, _, results = run_distributed(_ring_cfg(), 2, "tcp")
    assert [r.peak_rss_mb > 0 for r in results] == [True, True]
    assert [row["peak_rss_mb"] for row in report.rows] == \
        [r.peak_rss_mb for r in results]
