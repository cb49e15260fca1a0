"""Run one ``repro`` server command in-process, instrumented from outside.

Usage::

    python3 perfbench/launch.py REPORT.json -- serve --port 11211 ...

The command runs through ``repro.cli.main.main`` exactly as the ``repro``
entry point would, with the shipped defaults. This launcher only adds:

* ``SIGUSR1`` records a *mark*: process and thread CPU time, wall time,
  the metrics registry (the same counters ``stats prom`` serves) and
  the number of spans recorded so far;
* ``SIGUSR2`` toggles the span wrappers of :mod:`spans` on or off and
  records a mark; the program's own ``TraceRecorder`` stays off;
* after the command's graceful shutdown (``SIGINT``), the final
  counters and footprint, the peak RSS, a strict machine audit and the
  spans are written to ``REPORT.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import signal
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

#: (span name, patch target, span value, shard argument index)
SPANS = (
    ("net.framing.feed", "repro.net.framing:FrameDecoder.feed",
     lambda a, k, r: len(r), None),
    ("net.router.dispatch", "repro.net.router:ShardRouter.dispatch",
     None, None),
    ("net.router.enqueue_write",
     "repro.net.router:ShardRouter._enqueue_write", None, None),
    ("net.router.apply_batch", "repro.net.router:ShardRouter._apply_batch",
     None, 1),
    ("apps.memcached.handle",
     "repro.apps.memcached.protocol:ProtocolHandler.handle",
     lambda a, k, r: _command_class(a[1]), None),
    ("apps.memcached.set_many",
     "repro.apps.memcached.server:HicampMemcached.set_many",
     lambda a, k, r: len(a[1]), None),
    ("structures.hmap.get", "repro.structures.hmap:HMap.get", None, None),
    ("structures.hmap.put", "repro.structures.hmap:HMap.put", None, None),
    ("structures.hmap.put", "repro.structures.hmap:HMap.put_steps",
     None, None),
    ("structures.hmap.delete", "repro.structures.hmap:HMap.delete",
     None, None),
    ("structures.anon.from_bytes",
     "repro.structures.anon:AnonSegment.from_bytes", None, None),
    ("core.atomic_update", "repro.core.transactions:atomic_update",
     None, None),
    ("core.mcas", "repro.core.transactions:mcas", None, None),
    ("segments.write_words_bulk", "repro.segments.dag:write_words_bulk",
     None, None),
    ("segments.read_word", "repro.segments.dag:read_word", None, None),
    ("segments.merge_roots", "repro.segments.merge:merge_roots",
     None, None),
    ("segments.try_commit",
     "repro.segments.iterator:IteratorRegister.try_commit",
     lambda a, k, r: int(bool(r)), None),
    # find-or-allocate by content: the cache answers hits on resident
    # lines, the store the rest (value: 1 when it allocated a new line)
    ("memory.lookup", "repro.memory.cache:HicampCache.lookup", None, None),
    ("memory.store_lookup", "repro.memory.dedup_store:DedupStore.lookup",
     lambda a, k, r: int(r[1]), None),
    # value: deferred lines pending when the call started
    ("memory.reclaim_advance",
     "repro.memory.dedup_store:DedupStore.reclaim_advance",
     lambda a, k, r: r + (a[0].reclaimer.pending()
                          if a[0].reclaimer is not None else 0), None),
)

#: ``apps.memcached.handle`` span values: 0 read, 1 write, 2 other
READ_PREFIXES = (b"get ", b"gets ")
WRITE_PREFIXES = (b"set ", b"delete ", b"cas ", b"add ", b"replace ",
                  b"incr ", b"decr ")


def _command_class(raw: bytes) -> int:
    if raw.startswith(READ_PREFIXES):
        return 0
    if raw.startswith(WRITE_PREFIXES):
        return 1
    return 2


class WriteProbe:
    """Wall-clock times of each write: enqueue, batch start, response.

    ``samples`` holds ``(enqueue wait, queue wait, residence)`` in
    seconds per write; residence runs from dispatch to the response
    being ready, queue wait is residence minus the write's commit time
    (batch start to response ready).
    """

    def __init__(self) -> None:
        self.samples = []
        self._enqueued = {}
        self._batch_start = {}

    def install(self, router_module) -> "spans.Installation":
        done = spans.Installation()
        cls = router_module.ShardRouter
        enqueue, apply_batch = cls._enqueue_write, cls._apply_batch
        resolve = router_module._resolve
        enqueued, batch_start, samples = \
            self._enqueued, self._batch_start, self.samples
        clock = time.perf_counter

        async def timed_enqueue(router, frame, conn, parent=None):
            t0 = clock()
            future = await enqueue(router, frame, conn, parent)
            enqueued[future] = (t0, clock())
            return future

        async def timed_apply(router, shard, batch):
            t = clock()
            for _, future, _ in batch:
                batch_start[future] = t
            return await apply_batch(router, shard, batch)

        def timed_resolve(future, response):
            resolve(future, response)
            t = clock()
            started = batch_start.pop(future, None)
            times = enqueued.pop(future, None)
            if times is not None and started is not None:
                samples.append((times[1] - times[0], started - times[0],
                                t - times[0]))

        for owner, attr, new in ((cls, "_enqueue_write", timed_enqueue),
                                 (cls, "_apply_batch", timed_apply),
                                 (router_module, "_resolve", timed_resolve)):
            done.patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return done


class Launcher:
    def __init__(self, report_path: str, argv) -> None:
        self.report_path = report_path
        self.argv = argv
        self.tracer = spans.Tracer()
        self.probe = WriteProbe()
        self.installed = []
        self.marks = []
        self.servers = []

    def capture(self) -> None:
        from repro.net.server import MemcachedServer
        servers, start = self.servers, MemcachedServer.start

        async def server_start(server):
            servers.append(server)
            return await start(server)

        MemcachedServer.start = server_start

    def machine(self):
        return self.servers[0].router.machine if self.servers else None

    def counters(self):
        return self.servers[0].router.registry.snapshot() \
            if self.servers else {}

    def mark(self, label: str) -> None:
        self.marks.append({
            "label": label,
            "wall": time.perf_counter(),
            "cpu_ns": time.process_time_ns(),
            "thread_ns": time.thread_time_ns(),
            "spans": len(self.tracer.data) // len(spans.FIELDS),
            "writes": len(self.probe.samples),
            "counters": self.counters(),
        })

    def toggle(self) -> None:
        if self.installed:
            for done in reversed(self.installed):
                done.undo()
            self.installed = []
            self.mark("trace-off")
            return
        import repro.net.router as router_module
        self.installed.append(self.probe.install(router_module))
        self.installed.append(spans.install(self.tracer, SPANS))
        self.mark("trace-on")

    def run(self) -> int:
        self.capture()
        from repro.cli.main import main
        # a parent started in the background may pass SIGINT on ignored;
        # SIGINT is how the command is asked to shut down gracefully
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGUSR1, lambda *_: self.mark("mark"))
        signal.signal(signal.SIGUSR2, lambda *_: self.toggle())
        code = main(list(self.argv))
        for done in reversed(self.installed):
            done.undo()
        report = {"exit_code": code, "marks": self.marks,
                  "final": self.counters(),
                  "peak_rss_kib": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss,
                  "cpu_ns": time.process_time_ns(),
                  "write_samples": self.probe.samples,
                  "spans": self.tracer.dump()}
        machine = self.machine()
        report["footprint_bytes"] = machine.footprint_bytes() \
            if machine is not None else 0
        report["audit"] = self.audit(machine)
        tmp = self.report_path + ".tmp"
        with open(tmp, "w") as out:
            json.dump(report, out)
        os.replace(tmp, self.report_path)
        return code

    @staticmethod
    def audit(machine):
        if machine is None:
            return ["no machine was started"]
        from repro.testing.auditors import audit_machine
        try:
            return audit_machine(machine, strict=True).failures
        except Exception:
            return ["audit raised: %s" % traceback.format_exc(limit=3)]


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[1] != "--":
        print("usage: launch.py REPORT.json -- <repro command> [args]",
              file=sys.stderr)
        return 2
    return Launcher(args[0], args[2:]).run()


if __name__ == "__main__":
    sys.exit(main())
