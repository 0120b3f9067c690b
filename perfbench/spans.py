"""In-memory spans recorded around calls into lbhx, written as Chrome
trace-event JSON (`{"traceEvents": [{"ph": "X", ...}]}`) when a run ends.

A span has a name, start, end, parent span and step id; every span opened
inside a `step` span carries that step's id.  Spans nest per thread, so the
rank threads of a ring each keep their own stack.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

from lbhx.distributed import Transport


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._ids = itertools.count(1)
        self._steps = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, rank: int, **args):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = {"name": name, "rank": rank, "id": next(self._ids),
              "parent": parent["id"] if parent else None,
              "step": next(self._steps) if name == "step" else
              (parent["step"] if parent else None),
              "tid": threading.get_ident(), "args": args}
        stack.append(sp)
        sp["start"] = time.perf_counter()
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def steps(self) -> list[dict]:
        return [s for s in self.spans if s["name"] == "step"]

    def children(self, name: str) -> dict[int, list[dict]]:
        """Spans of one name inside steps, grouped by step id."""
        out: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["name"] == name and s["step"] is not None:
                out.setdefault(s["step"], []).append(s)
        return out

    def write(self, path) -> None:
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s["start"]):
            tid = tids.setdefault(s["tid"], len(tids))
            events.append({
                "name": s["name"], "ph": "X", "pid": s["rank"], "tid": tid,
                "ts": (s["start"] - self._t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": dict(s["args"], id=s["id"], parent=s["parent"],
                             step=s["step"])})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def traced_exchange(tracer: Tracer, rank: int, exchange):
    """Wrap a `rank_exchange` callable; spans only while the tracer is on."""
    def wrapper(buf):
        if not tracer.active:
            return exchange(buf)
        with tracer.span("exchange", rank):
            return exchange(buf)
    return wrapper


def trace_runtime(tracer: Tracer, rank: int, rt) -> None:
    """Span the runtime's step and device<->host swap; keep each step's
    TimestepTiming on its span so span sums can be set against it."""
    step, swap = rt.run_timestep, rt.halo_swap_device_host

    def run_timestep(plan, *a, **kw):
        if not tracer.active:
            return step(plan, *a, **kw)
        with tracer.span("step", rank) as sp:
            timing = step(plan, *a, **kw)
        sp["args"].update(t_acc=timing.t_acc, t_host=timing.t_host,
                          t_mpi=timing.t_mpi, t_swap=timing.t_swap,
                          t_exe=timing.t_exe)
        return timing

    def halo_swap_device_host(plan):
        if not tracer.active:
            return swap(plan)
        with tracer.span("swap", rank):
            return swap(plan)

    rt.run_timestep = run_timestep
    rt.halo_swap_device_host = halo_swap_device_host


class TracedTransport(Transport):
    """Delegates to another Transport and spans each send and receive."""

    def __init__(self, inner: Transport, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.rank = inner.rank

    bytes_sent = property(lambda self: self.inner.bytes_sent)
    bytes_received = property(lambda self: self.inner.bytes_received)

    def send(self, peer, tag, payload):
        with self.tracer.span("send", self.rank, peer=peer,
                              bytes=len(payload)):
            self.inner.send(peer, tag, payload)

    def recv(self, peer, tag):
        with self.tracer.span("recv", self.rank, peer=peer):
            return self.inner.recv(peer, tag)

    def reset_counters(self):
        self.inner.reset_counters()

    def close(self):
        self.inner.close()
