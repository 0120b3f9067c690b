"""X-direction rank decomposition with halo exchange over pluggable transports.

Ranks form a periodic ring along X.  Each rank owns a contiguous column range
and a HeteroRuntime; the outermost H columns on each side are halos holding
copies of the neighbors' edge columns.  Message payloads are the canonical
(p-major, then x, then y) serialization of H columns as little-endian float64,
framed as (tag u32, length u64, payload); they are always sourced from
host-resident buffers.

Two transports ship: in-process queues (tests, single-process runs) and TCP
sockets (multi-process capable, rendezvous via a host:port list).
"""
from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CommunicationFault, ConfigurationError
from .layouts import FieldBuffer

_HEADER = struct.Struct("<IQ")

TAG_TO_RIGHT = 1  # payload travels rank -> right neighbor
TAG_TO_LEFT = 2   # payload travels rank -> left neighbor

#: Seconds any one send or receive may block, on every transport, before it
#: fails with a CommunicationFault.
IO_TIMEOUT = 30.0


@dataclass(frozen=True)
class RankLayout:
    """One rank's slice of the global lattice (periodic ring in X)."""

    n_ranks: int
    rank: int
    x0: int
    width: int

    @property
    def left(self) -> int:
        return (self.rank - 1) % self.n_ranks

    @property
    def right(self) -> int:
        return (self.rank + 1) % self.n_ranks


def decompose_x(lx_global: int, n_ranks: int, halo: int = 3) -> list[RankLayout]:
    """Near-even contiguous slices; remainder columns go to the lowest ranks."""
    if n_ranks < 1:
        raise ConfigurationError("need at least one rank")
    base, rem = divmod(lx_global, n_ranks)
    if base < 2 * halo:
        raise ConfigurationError(
            f"slices of {base} columns are thinner than 2H={2 * halo}")
    layouts = []
    x0 = 0
    for rank in range(n_ranks):
        width = base + (1 if rank < rem else 0)
        layouts.append(RankLayout(n_ranks, rank, x0, width))
        x0 += width
    return layouts


# -- transports --------------------------------------------------------------

class Transport:
    """Point-to-point ordered messaging between ranks, with byte counters."""

    def __init__(self, rank: int):
        self.rank = rank
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, peer: int, tag: int, payload: bytes) -> None:
        raise NotImplementedError

    def recv(self, peer: int, tag: int) -> bytes:
        raise NotImplementedError

    def reset_counters(self) -> None:
        """Zero the byte counters (called once setup traffic is done, so the
        reported totals cover only the timed iterations)."""
        self.bytes_sent = 0
        self.bytes_received = 0

    def close(self) -> None:
        pass


class InMemoryFabric:
    """Queue-backed fabric connecting n ranks inside one process."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self._queues = {
            (src, dst): queue.Queue()
            for src in range(n_ranks) for dst in range(n_ranks) if src != dst
        }

    def transport(self, rank: int) -> "InMemoryTransport":
        return InMemoryTransport(rank, self)


class InMemoryTransport(Transport):
    def __init__(self, rank: int, fabric: InMemoryFabric):
        super().__init__(rank)
        self.fabric = fabric

    def send(self, peer: int, tag: int, payload: bytes) -> None:
        self.fabric._queues[(self.rank, peer)].put((tag, payload))
        self.bytes_sent += len(payload)

    def recv(self, peer: int, tag: int) -> bytes:
        queue_in = self.fabric._queues[(peer, self.rank)]
        try:
            got_tag, payload = queue_in.get(timeout=IO_TIMEOUT)
        except queue.Empty:
            raise CommunicationFault(
                f"rank {self.rank}: timeout waiting for rank {peer} "
                f"(phase: halo recv of tag {tag})") from None
        if got_tag != tag:
            raise CommunicationFault(
                f"rank {self.rank}: tag mismatch from rank {peer} "
                f"(expected {tag}, got {got_tag})")
        self.bytes_received += len(payload)
        return payload


class TcpTransport(Transport):
    """One socket per unordered rank pair, rendezvous via an endpoint list."""

    def __init__(self, rank: int, endpoints: list[str], peers: set[int],
                 listener: socket.socket, connect_timeout: float = 15.0):
        """`listener` is this rank's socket, already bound to
        `endpoints[rank]` and listening; the transport closes it once every
        higher-numbered peer has dialed in."""
        super().__init__(rank)
        self.endpoints = endpoints
        self._socks: dict[int, socket.socket] = {}
        higher = sorted(p for p in peers if p > rank)
        lower = sorted(p for p in peers if p < rank)
        # lower-numbered ranks accept, higher-numbered ranks dial
        accepted = 0
        listener.settimeout(connect_timeout)
        try:
            for peer in lower:
                self._socks[peer] = self._dial(self.endpoints[peer],
                                               connect_timeout)
            while accepted < len(higher):
                conn, _addr = listener.accept()
                conn.settimeout(IO_TIMEOUT)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                peer = struct.unpack(
                    "<I", _recv_exact(conn, 4, self.rank, -1, "handshake"))[0]
                self._socks[peer] = conn
                accepted += 1
        except TimeoutError:
            raise CommunicationFault(
                f"rank {self.rank}: {len(higher) - accepted} peer(s) did not "
                f"dial within {connect_timeout}s (phase: rendezvous)") from None
        finally:
            listener.close()

    @staticmethod
    def _parse(endpoint: str) -> tuple[str, int]:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"bad endpoint {endpoint!r}")
        return host, int(port)

    def _dial(self, endpoint: str, timeout: float) -> socket.socket:
        host, port = self._parse(endpoint)
        deadline = time.monotonic() + timeout
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=2.0)
                sock.settimeout(IO_TIMEOUT)
                # a step's halos are back-to-back writes; Nagle delays them
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(struct.pack("<I", self.rank))
                return sock
            except OSError:
                if time.monotonic() > deadline:
                    raise CommunicationFault(
                        f"rank {self.rank}: cannot reach {endpoint}") from None
                time.sleep(0.05)

    def send(self, peer: int, tag: int, payload: bytes) -> None:
        try:
            self._socks[peer].sendall(_HEADER.pack(tag, len(payload)) + payload)
        except OSError as exc:
            raise CommunicationFault(
                f"rank {self.rank}: send of tag {tag} to rank {peer} failed "
                f"(phase: halo send): {exc}") from None
        self.bytes_sent += len(payload)

    def recv(self, peer: int, tag: int) -> bytes:
        sock = self._socks[peer]
        phase = f"halo recv of tag {tag}"
        header = _recv_exact(sock, _HEADER.size, self.rank, peer, phase)
        got_tag, length = _HEADER.unpack(header)
        if length > 1 << 32:
            raise CommunicationFault(
                f"rank {self.rank}: corrupt frame length {length} from {peer}")
        payload = _recv_exact(sock, length, self.rank, peer, phase)
        if got_tag != tag:
            raise CommunicationFault(
                f"rank {self.rank}: tag mismatch from rank {peer} "
                f"(expected {tag}, got {got_tag})")
        self.bytes_received += len(payload)
        return payload

    def close(self) -> None:
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass


def _recv_exact(sock: socket.socket, count: int, rank: int, peer: int,
                phase: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise CommunicationFault(
                f"rank {rank}: receive from rank {peer} failed after "
                f"{count - remaining}/{count} bytes (phase: {phase}): "
                f"{exc}") from None
        if not chunk:
            raise CommunicationFault(
                f"rank {rank}: short read from rank {peer} "
                f"({count - remaining}/{count} bytes, phase: {phase})")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- halo exchange -----------------------------------------------------------

def _pack_columns(buf: FieldBuffer, x0: int, width: int) -> bytes:
    return buf.columns(x0, width).astype("<f8", copy=False).tobytes()


def _unpack_columns(buf: FieldBuffer, x0: int, width: int, payload: bytes) -> None:
    expected = buf.nq * width * buf.geom.ly * 8
    if len(payload) != expected:
        raise CommunicationFault(
            f"halo payload of {len(payload)} bytes, expected {expected}")
    buf.set_columns(x0, np.frombuffer(payload, dtype="<f8").reshape(
        buf.nq, width, buf.geom.ly))


def exchange_rank_halos(buf: FieldBuffer, layout: RankLayout,
                        transport: Transport) -> None:
    """Fill the outer H halo columns with both neighbors' edge columns.

    Single-rank layouts degrade to the periodic X wrap.  With multiple ranks,
    even ranks send first and odd ranks receive first, which pairs up the
    blocking calls on a synchronous transport (ring ordering; for odd ring
    sizes the one even-even link relies on transport buffering).
    """
    g = buf.geom
    h = g.halo
    if h == 0:
        return
    if layout.n_ranks == 1:
        from .kernels import update_x_halos_periodic
        update_x_halos_periodic(buf, "prv")
        return
    left_edge = _pack_columns(buf, h, h)            # interior left edge
    right_edge = _pack_columns(buf, g.lx, h)        # interior right edge

    def send_right():
        transport.send(layout.right, TAG_TO_RIGHT, right_edge)

    def send_left():
        transport.send(layout.left, TAG_TO_LEFT, left_edge)

    def recv_left():
        _unpack_columns(buf, 0, h,
                        transport.recv(layout.left, TAG_TO_RIGHT))

    def recv_right():
        _unpack_columns(buf, h + g.lx, h,
                        transport.recv(layout.right, TAG_TO_LEFT))

    if layout.rank % 2 == 0:
        send_right(); send_left(); recv_left(); recv_right()
    else:
        recv_left(); recv_right(); send_right(); send_left()


# -- multi-rank driver -------------------------------------------------------

@dataclass
class RankResult:
    layout: RankLayout
    final: np.ndarray
    iteration_times: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    m: int = 0


def _rank_body(cfg, layout: RankLayout, m: int, transport: Transport,
               initial_slice: np.ndarray, result_slot: list,
               start_barrier: threading.Barrier) -> None:
    from .hetero import make_partition, runtime_from_config

    def exchanger(buf: FieldBuffer) -> None:
        exchange_rank_halos(buf, layout, transport)

    try:
        with runtime_from_config(replace(cfg, lx=layout.width),
                                 rank_exchange=exchanger) as rt:
            start_barrier.wait(timeout=60)
            rt.load_state(initial_slice)
            plan = make_partition(rt.geom, m)
            transport.reset_counters()
            res = RankResult(layout=layout, final=None, m=m)
            for _ in range(cfg.iterations):
                res.iteration_times.append(rt.run_timestep(plan).t_exe)
            res.final = rt.state(plan)
            res.bytes_sent = transport.bytes_sent
            res.bytes_received = transport.bytes_received
            result_slot[0] = res
    except BaseException as exc:  # surfaced by run_distributed with rank id
        result_slot[0] = exc
    finally:
        transport.close()


def run_distributed(cfg, n_ranks: int, transport_kind: str = "in_memory",
                    endpoints: list[str] | None = None,
                    initial_state: np.ndarray | None = None, profile=None):
    """Run the configured simulation on n ranks and merge the results.

    Ranks execute as threads in this process; the TCP transport still moves
    every halo byte through real sockets, so the wire path matches a
    multi-process deployment.  Each rank's border width comes from
    `hetero.rank_border_widths` with `profile`.  Returns (BenchReport,
    merged canonical state, list of RankResult).
    """
    import statistics

    from .hetero import random_state, rank_border_widths
    from .model import builtin_model
    from .perf_model import mlups
    from .report import BenchReport

    model = builtin_model(cfg.model_name)
    layouts = decompose_x(cfg.lx, n_ranks, halo=cfg.geometry.halo)
    ms = rank_border_widths(cfg, [lay.width for lay in layouts], profile)
    if initial_state is None:
        initial_state = random_state(model, cfg.lx, cfg.ly, cfg.seed)

    if transport_kind == "in_memory":
        fabric = InMemoryFabric(n_ranks)
        transports = [fabric.transport(r) for r in range(n_ranks)]
    elif transport_kind == "tcp":
        endpoints = endpoints or cfg.endpoints or None
        if endpoints is not None and len(endpoints) != n_ranks:
            raise ConfigurationError(
                f"need {n_ranks} endpoints, got {len(endpoints)}")
        transports = _tcp_rendezvous(layouts, endpoints)
    else:
        raise ConfigurationError(f"unknown transport {transport_kind!r}")

    barrier = threading.Barrier(n_ranks)
    slots: list[list] = [[None] for _ in range(n_ranks)]
    threads = []
    for lay, m, transport, slot in zip(layouts, ms, transports, slots):
        sl = initial_state[:, lay.x0:lay.x0 + lay.width, :].copy()
        th = threading.Thread(target=_rank_body,
                              args=(cfg, lay, m, transport, sl, slot, barrier),
                              name=f"lbhx-rank{lay.rank}")
        th.start()
        threads.append(th)
    for th in threads:
        th.join()

    results: list[RankResult] = []
    for rank, slot in enumerate(slots):
        if isinstance(slot[0], BaseException):
            raise CommunicationFault(
                f"rank {rank} failed during the run") from slot[0]
        results.append(slot[0])

    merged = np.concatenate([r.final for r in results], axis=1)
    report = BenchReport("distributed", metadata={
        "n_ranks": str(n_ranks), "transport": transport_kind,
        "lx": str(cfg.lx), "ly": str(cfg.ly), "model": model.name,
    })
    if cfg.iterations > 0:
        per_iter = [max(r.iteration_times[i] for r in results)
                    for i in range(cfg.iterations)]
        median_t = statistics.median(per_iter)
        report.metadata["median_t_exe"] = repr(median_t)
        report.metadata["mlups"] = repr(mlups(cfg.lx, cfg.ly, median_t))
    for r in results:
        report.add_row(rank=r.layout.rank, x0=r.layout.x0,
                       width=r.layout.width, m=r.m,
                       bytes_sent=r.bytes_sent,
                       bytes_received=r.bytes_received,
                       median_t_exe=(statistics.median(r.iteration_times)
                                     if r.iteration_times else 0.0))
    return report, merged, results


def _tcp_rendezvous(layouts: list[RankLayout],
                    endpoints: list[str] | None = None) -> list[TcpTransport]:
    """Build all rank transports concurrently (they block on each other).

    Every rank's listener is bound before any rank dials.  Without
    endpoints, each listens on a loopback port the system picks, so no
    other process can take a port between choosing and binding it.
    """
    addrs = ([TcpTransport._parse(e) for e in endpoints] if endpoints
             else [("127.0.0.1", 0)] * len(layouts))
    listeners: list[socket.socket] = []
    for rank, (host, port) in enumerate(addrs):
        try:
            listeners.append(socket.create_server((host, port)))
        except OSError as exc:
            for sock in listeners:
                sock.close()
            raise CommunicationFault(
                f"rank {rank}: cannot listen on {host}:{port} "
                f"(phase: rendezvous): {exc}") from None
    endpoints = ["%s:%d" % sock.getsockname()[:2] for sock in listeners]
    transports: list = [None] * len(layouts)
    errors: list = []

    def build(lay: RankLayout):
        try:
            peers = {lay.left, lay.right} - {lay.rank}
            transports[lay.rank] = TcpTransport(lay.rank, endpoints, peers,
                                                listeners[lay.rank])
        except Exception as exc:
            errors.append((lay.rank, exc))

    threads = [threading.Thread(target=build, args=(lay,)) for lay in layouts]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        rank, exc = errors[0]
        raise CommunicationFault(f"rank {rank} rendezvous failed") from exc
    return transports
