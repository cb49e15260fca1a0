"""The load generator: one process, at most two connections.

* :func:`preload` writes the workload's initial keys.
* :func:`open_loop` sends requests at their seeded Poisson due times on
  one connection, whatever the server is doing, and times each request
  from its due time, so a server stall shows in every request that was
  due during it (no coordinated omission).
* :func:`closed_loop` runs two connections, each keeping a fixed
  pipeline of requests in flight, in windows with a pause after each,
  for the capacity figure.
* :func:`read_back` checks every key against the oracle.

Every reply is checked against :class:`Oracle`, a sequential model of
the store kept in send order. Each connection writes only its own keys
and the server applies one connection's requests in order, so the
model predicts every reply exactly. A reply that differs, an
error reply or a timeout marks the request failed.

Each request also records how many requests were in flight ahead of
it on its connection when it was sent. In the open loop, one connection
carries all the load, so a request with none ahead found the server
with no client work queued: its latency is the *service latency*, the
server's own path for it. A stolen spell of a shared host's vCPU lets
requests pile up behind one another and lifts the latency of all of
them; it lifts the service latency only of the requests it hits.
"""

from __future__ import annotations

import asyncio
import collections
import time
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set

from workload import Op, OpStream

#: seconds a request may wait for its reply before it counts as failed
REPLY_TIMEOUT = 5.0

READ_KINDS = ("get", "gets")
GET_CLASS, WRITE_CLASS = "get", "write"
#: a clock of seconds of CPU time
CpuClock = Callable[[], float]


@dataclass
class Request:
    kind: str                   # get gets set delete cas
    key: bytes
    due: float                  # loop time the request was due
    value: Optional[bytes] = None
    #: the reply the oracle predicts (value for reads, status line for
    #: writes)
    expected: object = None
    #: cas only: the value its ``gets`` saw, and that reply's token
    seen: Optional[bytes] = None
    cas_token: bytes = b""
    #: filled by the reader
    reply: object = None
    token: bytes = b""
    done_at: float = 0.0
    #: requests in flight ahead of this one on its connection when sent
    ahead: int = 0
    ok: bool = False
    on_done: Optional[Callable[["Request"], None]] = None

    @property
    def op_class(self) -> str:
        return GET_CLASS if self.kind in READ_KINDS else WRITE_CLASS

    def encode(self) -> bytes:
        if self.kind == "get":
            return b"get %s\r\n" % self.key
        if self.kind == "gets":
            return b"gets %s\r\n" % self.key
        if self.kind == "delete":
            return b"delete %s\r\n" % self.key
        if self.kind == "cas":
            return b"cas %s 0 0 %d %s\r\n%s\r\n" % (
                self.key, len(self.value), self.cas_token, self.value)
        return b"set %s 0 0 %d\r\n%s\r\n" % (self.key, len(self.value),
                                             self.value)


def process_cpu_clock(pid: int) -> CpuClock:
    """CPU seconds used so far by every thread of process ``pid``.

    This is the kernel's per-process scheduler clock (``CPUCLOCK_SCHED``
    of ``clock_gettime``). It leaves out the time a shared host's other
    tenants took from the vCPU (steal). While the process runs, it lags
    by up to one scheduler tick (4 ms at ``HZ=250``), so it times
    stretches of a second, not single requests.
    """
    clock_id = ((~pid) << 3) | 2

    def clock() -> float:
        return time.clock_gettime(clock_id)

    clock()                     # fails here if the platform has none
    return clock


class ProtocolFailure(Exception):
    """The connection returned bytes that are not a memcached reply."""


class Oracle:
    """Sequential model of the server's store, in send order."""

    def __init__(self) -> None:
        self.values: Dict[bytes, bytes] = {}
        self.touched: Set[bytes] = set()

    def predict(self, req: Request) -> None:
        """Set ``req.expected`` and apply ``req`` to the model."""
        key = req.key
        before = self.values.get(key)
        self.touched.add(key)
        if req.kind in ("get", "gets"):
            req.expected = before
        elif req.kind == "set":
            req.expected = b"STORED"
            self.values[key] = req.value
        elif req.kind == "delete":
            req.expected = b"DELETED" if before is not None else b"NOT_FOUND"
            self.values.pop(key, None)
        elif req.kind == "cas":
            if before is None:
                req.expected = b"NOT_FOUND"
            elif before != req.seen:
                req.expected = b"EXISTS"
            else:
                req.expected = b"STORED"
                self.values[key] = req.value

    def logical_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.values.items())


class Connection:
    """A pipelined connection whose replies are matched in order."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.inflight: Deque[Request] = collections.deque()
        self.idle = asyncio.Event()
        self.idle.set()
        self.broken: Optional[str] = None
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, requests: Iterable[Request]) -> None:
        batch = list(requests)
        for index, req in enumerate(batch):
            req.ahead = len(self.inflight) + index
        self.inflight.extend(batch)
        self.idle.clear()
        self.writer.write(b"".join(r.encode() for r in batch))

    async def _read_loop(self) -> None:
        reader = self.reader
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise ProtocolFailure("connection closed")
                if not self.inflight:
                    raise ProtocolFailure("unsolicited reply %r" % line)
                req = self.inflight[0]
                if req.kind in READ_KINDS and line.startswith(b"VALUE "):
                    parts = line.split()
                    block = await reader.readexactly(int(parts[3]) + 2)
                    req.reply = block[:-2]
                    req.token = parts[4] if len(parts) > 4 else b""
                    end = await reader.readline()
                    if end != b"END\r\n":
                        raise ProtocolFailure("multi-value reply %r" % end)
                elif req.kind in READ_KINDS and line == b"END\r\n":
                    req.reply = None
                else:
                    req.reply = line.rstrip(b"\r\n")
                self.inflight.popleft()
                req.done_at = loop.time()
                if req.on_done is not None:
                    req.on_done(req)
                if not self.inflight:
                    self.idle.set()
        except (ProtocolFailure, ConnectionError, OSError,
                asyncio.IncompleteReadError, ValueError, IndexError) as exc:
            self.broken = str(exc) or type(exc).__name__
            self.idle.set()

    async def drain(self, timeout: float = REPLY_TIMEOUT) -> bool:
        """Wait for every in-flight reply; False on timeout or breakage."""
        try:
            await asyncio.wait_for(self.idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return self.broken is None

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class PhaseResult:
    """What one phase observed."""

    attempted: int = 0
    failed: int = 0
    #: latency samples in ms per op class; failed requests are ``inf``
    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {GET_CLASS: [], WRITE_CLASS: []})
    #: the same for the requests sent with none ahead of them on their
    #: connection (service latency)
    service: Dict[str, List[float]] = field(
        default_factory=lambda: {GET_CLASS: [], WRITE_CLASS: []})
    late_ms: List[float] = field(default_factory=list)
    #: loop time each error-free op completed
    done_times: List[float] = field(default_factory=list)
    #: write ops attempted
    writes: int = 0
    seconds: float = 0.0
    #: closed loop: :class:`Window` of each window
    windows: List["Window"] = field(default_factory=list)
    cpu_seconds: float = 0.0
    errors: List[str] = field(default_factory=list)

    def record(self, req: Request, oracle: Oracle, latency_ms: float) -> bool:
        self.attempted += 1
        req.ok = not isinstance(req.reply, bytes) \
            or not req.reply.startswith((b"SERVER_ERROR", b"CLIENT_ERROR",
                                         b"ERROR"))
        req.ok = req.ok and req.reply == req.expected
        if req.op_class == WRITE_CLASS:
            self.writes += 1
        if req.ok:
            self.done_times.append(req.done_at)
            self.latency[req.op_class].append(latency_ms)
        else:
            self.failed += 1
            latency_ms = float("inf")
            self.latency[req.op_class].append(latency_ms)
            if len(self.errors) < 5:
                self.errors.append("%s %r: got %r, expected %r" % (
                    req.kind, req.key, req.reply, req.expected))
        if req.ahead == 0:
            self.service[req.op_class].append(latency_ms)
        return req.ok


@dataclass
class Window:
    """One closed-loop window."""

    #: loop time the window started and its pause ended
    start: float
    end: float
    #: error-free completions
    ops: int
    #: wall seconds with requests in flight
    busy_seconds: float
    #: server CPU seconds over the window and its pause (0 without the
    #: server's CPU clock)
    cpu_seconds: float

    @property
    def rate(self) -> float:
        return self.ops / self.busy_seconds if self.busy_seconds else 0.0


def _request(op: Op, due: float) -> Request:
    if op.kind == "cas":
        return Request(kind="gets", key=op.key, due=due)
    return Request(kind=op.kind, key=op.key, due=due, value=op.value)


async def preload(conn: Connection, ops: Iterable[Op], oracle: Oracle,
                  depth: int = 1) -> int:
    """Write the preload set ``depth`` requests at a time; returns the
    number of failed writes."""
    failed = 0
    batch: List[Request] = []
    ops = list(ops)
    for i, op in enumerate(ops):
        req = Request(kind="set", key=op.key, due=0.0, value=op.value)
        oracle.predict(req)
        batch.append(req)
        if len(batch) == depth or i == len(ops) - 1:
            conn.send(batch)
            if not await conn.drain():
                return len(ops)
            failed += sum(1 for r in batch if r.reply != r.expected)
            batch = []
    return failed


async def open_loop(conn: Connection, stream: OpStream, oracle: Oracle,
                    seconds: float, min_samples: int = 0,
                    max_seconds: float = 0.0) -> PhaseResult:
    """Send ``stream`` on its Poisson schedule for ``seconds``.

    Arrivals continue past ``seconds`` (up to ``max_seconds``) while an
    op class has fewer than ``min_samples`` samples.
    """
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    sent = {GET_CLASS: 0, WRITE_CLASS: 0}

    def short() -> bool:
        return min(sent.values()) < min_samples

    def finished(req: Request) -> None:
        ok = result.record(req, oracle, (req.done_at - req.due) * 1e3)
        if req.kind == "gets" and ok and req.reply is not None:
            # the cas half of gets+cas is due when the token arrives
            cas = Request(kind="cas", key=req.key, due=req.done_at,
                          value=stream.cas_value(req.key),
                          seen=req.reply, cas_token=req.token,
                          on_done=finished)
            oracle.predict(cas)
            conn.send((cas,))
            sent[WRITE_CLASS] += 1

    cpu0 = time.process_time()
    start = loop.time() + 0.01
    while True:
        op = stream.next_op()
        if op.due >= seconds and (op.due >= max_seconds or not short()):
            break
        due = start + op.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_ms.append(max(0.0, loop.time() - due) * 1e3)
        req = _request(op, due)
        req.on_done = finished
        oracle.predict(req)
        sent[req.op_class] += 1
        conn.send((req,))
        if conn.broken:
            break
    ok = await conn.drain()
    result.seconds = loop.time() - start
    result.cpu_seconds = time.process_time() - cpu0
    if not ok:
        _fail_inflight(result, (conn,))
    return result


#: the closed loop runs in this many equal windows, and its capacity
#: is the median rate over them, so one window disturbed by another
#: process does not move it
CAPACITY_WINDOWS = 11
#: seconds the closed loop pauses after each window, with nothing in
#: flight, so the server's CPU falls idle and its speed gauge runs
WINDOW_PAUSE = 0.08


def _fail_inflight(result: PhaseResult, conns) -> None:
    for conn in conns:
        if conn.broken:
            result.errors.append("connection: %s" % conn.broken)
        for req in conn.inflight:
            result.attempted += 1
            result.failed += 1
            result.latency[req.op_class].append(float("inf"))
            if req.ahead == 0:
                result.service[req.op_class].append(float("inf"))
        conn.inflight.clear()
    result.errors.append("requests timed out or connection failed")


async def closed_loop(conns: List[Connection], streams: List[OpStream],
                      oracle: Oracle, seconds: float, depth: int,
                      cpu_clock: Optional[CpuClock] = None) -> PhaseResult:
    """Each connection keeps ``depth`` requests in flight, for
    ``CAPACITY_WINDOWS`` windows that together last ``seconds``.

    Each window ends with every reply in and a pause; ``windows``
    records each (:class:`Window`).
    """
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    start = loop.time()
    deadline = [start]

    async def drive(conn: Connection, stream: OpStream) -> None:
        space = asyncio.Event()
        space.set()

        def finished(req: Request) -> None:
            ok = result.record(req, oracle, 0.0)
            if req.kind == "gets" and ok and req.reply is not None \
                    and loop.time() < deadline[0]:
                cas = Request(kind="cas", key=req.key, due=loop.time(),
                              value=stream.cas_value(req.key),
                              seen=req.reply, cas_token=req.token,
                              on_done=finished)
                oracle.predict(cas)
                conn.send((cas,))
            space.set()

        while loop.time() < deadline[0] and not conn.broken:
            room = depth - len(conn.inflight)
            if room <= 0:
                space.clear()
                try:
                    await asyncio.wait_for(space.wait(), REPLY_TIMEOUT)
                except asyncio.TimeoutError:
                    break
                continue
            batch = []
            for _ in range(room):
                op = stream.next_op()
                req = _request(op, loop.time())
                req.on_done = finished
                oracle.predict(req)
                batch.append(req)
            conn.send(batch)
            await asyncio.sleep(0)
        await conn.drain()

    def cpu() -> float:
        return cpu_clock() if cpu_clock is not None else 0.0

    width = max(0.01, seconds / CAPACITY_WINDOWS - WINDOW_PAUSE)
    cpu0 = cpu()
    for _ in range(CAPACITY_WINDOWS):
        t0, done = loop.time(), len(result.done_times)
        deadline[0] = t0 + width
        await asyncio.gather(*(drive(c, s) for c, s in zip(conns, streams)))
        busy = loop.time() - t0
        if any(c.broken or c.inflight for c in conns):
            break
        await asyncio.sleep(WINDOW_PAUSE)
        cpu1 = cpu()
        result.windows.append(Window(
            start=t0, end=loop.time(), ops=len(result.done_times) - done,
            busy_seconds=busy, cpu_seconds=cpu1 - cpu0))
        cpu0 = cpu1
    result.seconds = loop.time() - start
    if any(c.broken or c.inflight for c in conns):
        _fail_inflight(result, conns)
    return result


async def read_back(conn: Connection, keys: Iterable[bytes],
                    expected: Dict[bytes, bytes], batch: int = 64
                    ) -> Dict[bytes, object]:
    """Keys whose value on ``conn`` differs from ``expected``, mapped to
    the value read (``"no reply"`` when the connection failed)."""
    keys = sorted(keys)
    wrong: Dict[bytes, object] = {}
    for i in range(0, len(keys), batch):
        reqs = [Request(kind="get", key=k, due=0.0)
                for k in keys[i:i + batch]]
        conn.send(reqs)
        if not await conn.drain():
            wrong.update((k, "no reply") for k in keys[i:])
            return wrong
        wrong.update((r.key, r.reply) for r in reqs
                     if r.reply != expected.get(r.key))
    return wrong
