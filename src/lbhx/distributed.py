"""X-direction rank decomposition with halo exchange over pluggable transports.

Ranks form a periodic ring along X.  Each rank owns a contiguous column range
and a HeteroRuntime; the outermost H columns on each side, H being the
model's stencil reach, are halos holding copies of the neighbors' edge
columns.  Message payloads are the canonical (p-major, then x, then y)
serialization of H columns as little-endian float64, framed as (tag u32,
length u64, payload); they are always sourced from host-resident buffers.

Both transport kinds carry frames over one connected socket per neighbour
pair, which the calling thread makes in turn before any rank starts: a
loopback TCP connection (`tcp`) or a `socket.socketpair()` (`in_memory`).
`run_distributed` runs rank 0 on the calling thread and every other rank in
a process forked from it, each with its own interpreter lock, over either
kind; the kinds differ only in the link.
"""
from __future__ import annotations

import math
import mmap
import os
import pickle
import resource
import socket
import struct
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import CommunicationFault, ConfigurationError, PeerClosedFault
from .kernels import update_x_halos_periodic
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


def decompose_x(lx_global: int, n_ranks: int, halo: int) -> list[RankLayout]:
    """Near-even contiguous slices of at least 2 * `halo` columns; remainder
    columns go to the lowest ranks."""
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


class TcpTransport(Transport):
    """One connected socket per neighbour, for both transport kinds; the
    links come from `_ring_links`."""

    def __init__(self, rank: int, socks: dict[int, socket.socket]):
        super().__init__(rank)
        self._socks = socks

    def send(self, peer: int, tag: int, payload: bytes) -> None:
        """Send the frame header and the payload in place, as one message
        where the socket takes it whole."""
        parts = [memoryview(_HEADER.pack(tag, len(payload))),
                 memoryview(payload).cast("B")]
        try:
            while parts:
                sent = self._socks[peer].sendmsg(parts)
                while parts and sent >= len(parts[0]):
                    sent -= len(parts.pop(0))
                if sent:
                    parts[0] = parts[0][sent:]
        except OSError as exc:
            raise _link_fault(exc)(
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


def _ring_links(n_ranks: int, link) -> list[dict[int, socket.socket]]:
    """Join each neighbour pair of the ring with one link; returns every
    rank's {peer: socket}, with one socket per pair, so a 2-rank ring has
    one link.

    `link(made)` returns one link's two connected ends, appending each to
    `made` as it opens.  The links are made in turn on the calling thread,
    and each end gets the IO_TIMEOUT deadline.  If a link cannot be made,
    every socket made so far is closed.
    """
    socks: list[dict[int, socket.socket]] = [{} for _ in range(n_ranks)]
    made: list[socket.socket] = []
    try:
        for a in range(n_ranks if n_ranks > 2 else n_ranks - 1):
            b = (a + 1) % n_ranks
            socks[a][b], socks[b][a] = ends = link(made)
            for sock in ends:
                sock.settimeout(IO_TIMEOUT)
    except OSError as exc:
        for sock in made:
            sock.close()
        raise CommunicationFault(f"cannot link rank {a} with rank {b} "
                                 f"(phase: link set-up): {exc}") from None
    return socks


def _socketpair(made: list[socket.socket]) -> list[socket.socket]:
    """One in-process link, for `in_memory` ranks."""
    made.extend(socket.socketpair())
    return made[-2:]


def _tcp_links(n_ranks: int) -> list[dict[int, socket.socket]]:
    """`_ring_links` over loopback TCP, made before any rank forks: one
    listener accepts each link right after it is dialled."""
    try:
        listener = socket.create_server(("127.0.0.1", 0))
    except OSError as exc:
        raise CommunicationFault("cannot open a loopback listener "
                                 f"(phase: link set-up): {exc}") from None
    with listener:
        listener.settimeout(IO_TIMEOUT)
        return _ring_links(n_ranks, partial(_dial, listener))


def _dial(listener: socket.socket,
          made: list[socket.socket]) -> list[socket.socket]:
    """One loopback TCP link: (dialled end, accepted end)."""
    made.append(socket.create_connection(listener.getsockname(),
                                         timeout=IO_TIMEOUT))
    made.append(listener.accept()[0])
    dialled, accepted = ends = made[-2:]
    if accepted.getpeername() != dialled.getsockname():
        raise ConnectionError("accepted another process's link")
    for sock in ends:
        # a step's halos are back-to-back writes; Nagle delays them
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return ends


def _recv_exact(sock: socket.socket, count: int, rank: int, peer: int,
                phase: str) -> bytearray:
    """Read exactly `count` bytes into one preallocated buffer, so no
    received chunks are joined."""
    data = bytearray(count)
    view = memoryview(data)
    got = 0
    while got < count:
        try:
            n = sock.recv_into(view[got:])
        except OSError as exc:
            raise _link_fault(exc)(
                f"rank {rank}: receive from rank {peer} failed after "
                f"{got}/{count} bytes (phase: {phase}): {exc}") from None
        if not n:
            raise PeerClosedFault(
                f"rank {rank}: short read from rank {peer} "
                f"({got}/{count} bytes, phase: {phase})")
        got += n
    return data


def _link_fault(exc: OSError) -> type[CommunicationFault]:
    """A reset or broken link means the peer closed it; anything else, a
    timeout included, is this link's own fault."""
    if isinstance(exc, ConnectionError):
        return PeerClosedFault
    return CommunicationFault


# -- halo exchange -----------------------------------------------------------

def _pack_columns(buf: FieldBuffer, x0: int, width: int) -> memoryview:
    """The canonical little-endian bytes of `width` columns, uncopied."""
    return memoryview(buf.columns(x0, width).astype("<f8", copy=False)
                      ).cast("B")


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

    Single-rank layouts degrade to the periodic X wrap.  With multiple
    ranks, even ranks send right, send left, receive left, receive right,
    and odd ranks receive left, receive right, send right, send left.  In
    an odd ring the last rank, n-1, is even like its right neighbour, rank
    0; it alone receives right, sends left, receives left, sends right.

    So every call is met by the peer's matching call without waiting on a
    third rank: each even-odd link carries the even rank's send while the
    odd rank receives, then the reverse, and on the link (n-1, 0) rank 0's
    second send meets rank n-1's first receive and rank n-1's last send
    meets rank 0's first receive.  No rank waits, through its neighbours,
    on itself, so the exchange finishes even when every send blocks until
    the peer has received it (MPI's "safe" order; no transport buffering
    is needed at any halo size).
    """
    g = buf.geom
    h = g.halo
    if h == 0:
        return
    if layout.n_ranks == 1:
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

    if layout.n_ranks % 2 and layout.rank == layout.n_ranks - 1:
        recv_right(); send_left(); recv_left(); send_right()
    elif layout.rank % 2 == 0:
        send_right(); send_left(); recv_left(); recv_right()
    else:
        recv_left(); recv_right(); send_right(); send_left()


# -- multi-rank driver -------------------------------------------------------

@dataclass
class RankResult:
    layout: RankLayout
    iteration_times: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    m: int = 0
    #: peak resident set of the rank's own process: the caller's for rank
    #: 0, its forked child's for every other rank
    peak_rss_mb: float = 0.0


def _rank_body(cfg, layout: RankLayout, m: int, transport: Transport,
               initial_slice: np.ndarray, final_out: np.ndarray) -> RankResult:
    """Run one rank and write its final canonical state into `final_out`."""
    from .hetero import make_partition, runtime_from_config

    def exchanger(buf: FieldBuffer) -> None:
        exchange_rank_halos(buf, layout, transport)

    res = RankResult(layout=layout, m=m)
    try:
        # load_state's exchange is the first to pair each rank with its
        # neighbours, so no start barrier is needed
        with runtime_from_config(
                replace(cfg, lx=layout.width, ranks=layout.n_ranks),
                rank_exchange=exchanger) as rt:
            rt.load_state(initial_slice)
            plan = make_partition(rt.geom, m)
            transport.reset_counters()
            for _ in range(cfg.iterations):
                res.iteration_times.append(rt.run_timestep(plan).t_exe)
            final_out[...] = rt.state(plan)
    finally:
        transport.close()
    res.bytes_sent = transport.bytes_sent
    res.bytes_received = transport.bytes_received
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res


def _outcome(run) -> RankResult | tuple:
    """`run()`'s RankResult, or its error as (type name, message, error).

    An interrupt is not an outcome: it propagates, and in a forked rank it
    ends the process with status 1.
    """
    try:
        return run()
    except Exception as exc:  # surfaced by run_distributed with the rank
        return type(exc).__name__, str(exc), exc


def _fork_rank(run, own: Transport,
               transports: list[Transport]) -> tuple[int, int]:
    """Run `run` in a forked child; returns (pid, read end of its pipe).

    The child keeps only its own rank's links.  It pickles its RankResult,
    or its error as (type name, message), into the pipe and always leaves
    through os._exit, so none of the caller's clean-up runs in it.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        for transport in transports:
            if transport is not own:
                transport.close()
        outcome = _outcome(run)
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome if isinstance(outcome, RankResult)
                        else outcome[:2], pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(rank: int, pid: int, read_fd: int) -> RankResult | tuple:
    """Read a forked rank's outcome to the end of its pipe and wait for it."""
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    try:
        outcome = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # no outcome, or a cut one
        return ("CommunicationFault",
                f"rank {rank}: process exited with status "
                f"{os.waitstatus_to_exitcode(status)} (phase: run)", None)
    return outcome if isinstance(outcome, RankResult) else (*outcome, None)


def _run_ranks(bodies: list, transports: list[Transport]) -> list:
    """Run rank 0 on the calling thread and every other rank in a forked
    child; returns each rank's `_outcome`.

    Forking happens here, on the calling thread, which has started no
    thread yet; each rank starts its device lanes only inside its body.
    The caller closes its copies of the children's links before it runs
    rank 0, so a child that dies reads to its neighbours as a closed link.
    A failed fork closes the links of the ranks not yet launched, so the
    ranks already forked read closed links and end.
    """
    outcomes: list = [None] * len(bodies)
    children = []
    try:
        for rank in range(1, len(bodies)):
            try:
                children.append(
                    (rank, *_fork_rank(bodies[rank], transports[rank],
                                       transports)))
            except OSError as exc:
                raise CommunicationFault(
                    f"rank {rank}: cannot fork (phase: launch): "
                    f"{exc}") from None
            transports[rank].close()
        outcomes[0] = _outcome(bodies[0])
    finally:
        # rank 0's links (already closed if it ran) and those of any rank
        # not launched
        for transport in (transports[0], *transports[1 + len(children):]):
            transport.close()
        for rank, pid, read_fd in children:
            outcomes[rank] = _reap(rank, pid, read_fd)
    return outcomes


def _checked_results(outcomes: list) -> list[RankResult]:
    """The RankResults, or a CommunicationFault carrying the error of the
    rank where the failure started: the lowest rank whose error is not a
    closed link, else the lowest failed rank."""
    failed = [(rank, out) for rank, out in enumerate(outcomes)
              if not isinstance(out, RankResult)]
    if not failed:
        return outcomes
    rank, (name, message, cause) = min(
        failed, key=lambda f: (f[1][0] == PeerClosedFault.__name__, f[0]))
    raise CommunicationFault(
        f"rank {rank} failed during the run: {name}: {message}") from cause


def run_distributed(cfg, n_ranks: int, transport_kind: str = "in_memory",
                    initial_state: np.ndarray | None = None, profile=None):
    """Run the configured simulation on n ranks and merge the results.

    Rank 0 runs on the calling thread.  Over either transport every other
    rank runs in a child forked from it, so ranks do not share an
    interpreter lock, and writes its final slice into a shared map of the
    merged state.  Each rank's border width comes from
    `hetero.rank_border_widths` with `profile`.  Returns (BenchReport,
    merged canonical state, list of RankResult).  A failed rank raises
    CommunicationFault naming the rank where the failure started, with
    that rank's own message.
    """
    import statistics

    from .hetero import device_lanes, random_state, rank_border_widths
    from .kernels import load_kernel
    from .model import builtin_model
    from .perf_model import mlups
    from .report import BenchReport

    load_kernel()  # a build failure ends the run here, not in a rank
    model = builtin_model(cfg.model_name)
    layouts = decompose_x(cfg.lx, n_ranks, halo=cfg.geometry.halo)
    ms = rank_border_widths(cfg, [lay.width for lay in layouts], profile)
    if initial_state is None:
        initial_state = random_state(model, cfg.lx, cfg.ly, cfg.seed)

    # anonymous and shared, so forked ranks write their finals in place
    shape = (model.Q, cfg.lx, cfg.ly)
    merged = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                           dtype=np.float64).reshape(shape)
    columns = [np.s_[:, lay.x0:lay.x0 + lay.width, :] for lay in layouts]
    # the links come last, so that little can fail before _run_ranks owns
    # them and closes them whatever happens
    if transport_kind == "in_memory":
        links = _ring_links(n_ranks, _socketpair)
    elif transport_kind == "tcp":
        links = _tcp_links(n_ranks)
    else:
        raise ConfigurationError(f"unknown transport {transport_kind!r}")
    transports = [TcpTransport(rank, socks)
                  for rank, socks in enumerate(links)]
    bodies = [partial(_rank_body, cfg, lay, m, transport,
                      initial_state[cols], merged[cols])
              for lay, m, transport, cols
              in zip(layouts, ms, transports, columns)]
    results = _checked_results(_run_ranks(bodies, transports))

    report = BenchReport("distributed", metadata={
        "n_ranks": str(n_ranks), "transport": transport_kind,
        "lx": str(cfg.lx), "ly": str(cfg.ly), "model": model.name,
        "device_lanes": str(device_lanes(n_ranks)),
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
                                     if r.iteration_times else 0.0),
                       peak_rss_mb=r.peak_rss_mb)
    return report, merged, results
