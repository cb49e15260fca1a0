"""The serving benchmark: one command, one workload, one seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 22 \\
        --trace 0

The server is started as ``repro serve`` with the shipped defaults,
under ``perfbench/launch.py``. One load-generator process (this one)
drives it over TCP with at most two connections open at a time; with
two or more CPUs the generator and the server each get one of their
own. A run has three phases:

1. set-up: start the server and preload the workload's keys; untraced
   runs set up three times (the last set-up is kept);
2. open loop at the workload's Poisson rate (latency);
3. closed loop, two connections at a fixed pipeline depth (capacity).

On a shared host the wall clock also counts the host's other tenants,
and how fast the CPU runs changes with them: between runs of the same
code, its closed-loop rate moved 40% and its open-loop p50s 1.5-3x. So
the bounded figures are taken where less of that noise reaches them.
``setup_s`` is CPU seconds (server and generator) of a set-up, the
median of the three. The capacity counts closed-loop ops per second of
the server's CPU time, scaled to a reference CPU speed window by window
(``report.capacity_windows``) with a speed gauge on the server's CPU
(:class:`Spinners`). The get latency is a service latency, of the
gets sent with none ahead of them (see ``loadgen.py``). The gauges
run at the lowest priority on each CPU and also keep the vCPUs from
halting between requests. The wall-clock set-up and rate, the writes'
service latency and the p50/p90/p99 of every request are printed too,
unbounded.

``--trace 1`` wraps the calls into each layer in span timers (see
``spans.py``) for the open loop and a first closed loop, then runs a
second closed loop untraced, and reports the per-layer metrics and the
tracing overhead (traced over untraced capacity) instead.

Every run ends with the correctness gate: every key read back; server
and protocol error counters diffed; a graceful shutdown and a strict
audit of the server's machine. Any finding counts as a failed op and
makes the run incorrect. The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import report  # noqa: E402
from workload import WORKLOADS, OpStream, Workload  # noqa: E402

HOST = "127.0.0.1"
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: preload requests in flight: enough that the server never idles
#: between them (on a shared host an idle vCPU's wake-up adds more
#: noise than the work), fewer than the 16 that made the preload 30%
#: slower
PRELOAD_DEPTH = 4
#: share of ``--seconds`` given to the closed loop (the rest is the
#: open loop)
CLOSED_SHARE = 0.5
#: an op class needs this many open-loop samples for its median
MEDIAN_FLOOR = report.min_samples(0.5)
#: the generator fell behind (and the run is invalid) when a tenth of
#: its requests went out this late. Its p99 lateness is only reported:
#: the host's scheduling jitter alone takes it to 10 ms at times.
MAX_LATE_P90_MS = 10.0
#: seconds allowed for start-up, catch-up and shutdown steps
STEP_TIMEOUT = 60.0
#: a run that has not finished after this many seconds is abandoned:
#: its servers are killed and it exits without a result
RUN_DEADLINE = 170.0
WORK_DIR = ROOT / ".perfbench"


class RunFailure(Exception):
    """The benchmark could not run (not a failed op of the program)."""


# ----------------------------------------------------------------------
# processes


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def split_cpus() -> Tuple[Set[int], Set[int]]:
    """(load generator CPUs, server CPUs).

    With two or more CPUs the generator and the server each get one of
    their own, so the scheduler never queues one behind the other, which
    narrows the run-to-run spread of the latencies on a 2-core box.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


class Spinners:
    """A speed gauge at the lowest priority (``SCHED_IDLE``) on each CPU.

    Each is a ``spin.py`` busy loop. A vCPU with nothing to run halts,
    and on a shared host waking it again costs an unsteady amount of
    time and cache; a ``SCHED_IDLE`` task keeps the vCPU running and
    gives way at once to any other task that wakes (the kernel preempts
    it on wake-up), so it takes no time from the server or the
    generator. With the time it does get, it gauges how fast its CPU
    runs interpreter code, which on a shared host changes by up to 1.7x
    from one minute to the next. The closed loop pauses after each
    window to give it time on the server's CPU.
    """

    def __init__(self, cpus: Set[int]) -> None:
        self.procs: Dict[int, subprocess.Popen] = {}
        try:
            for cpu in sorted(cpus):
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "spin.py")],
                    stdout=subprocess.PIPE)
                self.procs[cpu] = proc
                os.sched_setscheduler(proc.pid, os.SCHED_IDLE,
                                      os.sched_param(0))
                os.sched_setaffinity(proc.pid, {cpu})
        except BaseException:
            self.kill()
            raise

    def stop(self) -> Dict[int, List[Tuple[float, int]]]:
        """Stop every gauge; returns each CPU's ``(monotonic end time,
        CPU ns)`` chunks."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        readings = {}
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=STEP_TIMEOUT)
                chunks = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                chunks = []
            readings[cpu] = list(zip(chunks[::2], chunks[1::2]))
        return readings

    def kill(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs.values():
            proc.wait()


class Server:
    """One launcher process running a ``repro`` server command."""

    def __init__(self, work: pathlib.Path, name: str, argv: List[str],
                 cpus: Set[int]) -> None:
        self.report_path = work / ("%s.json" % name)
        self.log_path = work / ("%s.log" % name)
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"),
             str(self.report_path), "--"] + argv,
            stdout=self.log, stderr=subprocess.STDOUT, cwd=str(ROOT))
        os.sched_setaffinity(self.proc.pid, cpus)
        #: the server process's CPU seconds so far
        self.cpu_clock = loadgen.process_cpu_clock(self.proc.pid)

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self, graceful: bool) -> Optional[Dict]:
        """SIGINT and read the report, or SIGKILL; always reaps."""
        report_doc = None
        try:
            if graceful and self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=STEP_TIMEOUT)
                if self.report_path.exists():
                    report_doc = json.loads(self.report_path.read_text())
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.log.close()
        return report_doc

    def tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


async def wait_port(port: int, server: Server) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + STEP_TIMEOUT
    while True:
        if server.proc.poll() is not None:
            raise RunFailure("server exited during start-up:\n%s"
                             % server.tail())
        try:
            _, writer = await asyncio.open_connection(HOST, port)
        except OSError:
            if loop.time() > deadline:
                raise RunFailure("port %d never opened" % port)
            await asyncio.sleep(0.02)
            continue
        writer.close()
        await writer.wait_closed()
        return


async def settle() -> None:
    """Let a signal reach the servers before the next phase starts."""
    await asyncio.sleep(0.05)


# ----------------------------------------------------------------------
# provenance


def provenance(workload: Workload, seed: int) -> Dict:
    source, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            source = "git:" + subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
                capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=str(ROOT), check=True, capture_output=True,
                text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    if source == "unknown":
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        source = "src-sha256:" + digest.hexdigest()[:16]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"source": source, "dirty": dirty,
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "seed": seed, "workload_hash": workload.param_hash()}


# ----------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.loadgen_cpus, self.server_cpus = split_cpus()
        self.work = WORK_DIR / ("run-%d" % os.getpid())
        #: every server process started, for the deadline to kill
        self.servers: List[Server] = []
        self.spinners: Optional[Spinners] = None
        self.problems: List[str] = []
        self.failed = 0
        self.attempted = 0
        #: wall seconds of each step of the run, for the rendering
        self.stages: Dict[str, float] = {}
        #: wall seconds of each set-up, for the rendering
        self.setup_wall: List[float] = []
        self._stage_t = time.perf_counter()

    def kill(self) -> None:
        """Kill and reap every process the run started that still runs."""
        for server in self.servers:
            if server.proc.poll() is None:
                server.proc.kill()
            server.proc.wait()
        if self.spinners is not None:
            self.spinners.kill()

    def stage(self, name: str) -> None:
        """Close the current step of the run under ``name``."""
        now = time.perf_counter()
        self.stages[name] = now - self._stage_t
        self._stage_t = now

    async def setup(self, index: int) -> Tuple[Server, int, Dict,
                                               loadgen.Oracle]:
        """Start a server and preload it; returns the set-up's CPU
        seconds, of the server and of the generator."""
        t0 = time.perf_counter()
        own0 = time.process_time()
        port = free_port()
        server = Server(self.work, "server-%d" % index, [
            "serve", "--host", HOST, "--port", str(port)], self.server_cpus)
        self.servers.append(server)
        try:
            await wait_port(port, server)
            oracle = loadgen.Oracle()
            conn = await loadgen.Connection.open(HOST, port)
            try:
                stream = OpStream(self.w, self.seed, stream=0)
                failed = await loadgen.preload(conn, stream.preload(),
                                               oracle, PRELOAD_DEPTH)
            finally:
                await conn.close()
            if failed:
                raise RunFailure("%d preload writes failed" % failed)
            cpu = {"server_cpu": server.cpu_clock(),
                   "own_cpu": time.process_time() - own0}
        except BaseException:
            server.stop(graceful=False)
            raise
        self.setup_wall.append(time.perf_counter() - t0)
        return server, port, cpu, oracle

    async def execute(self) -> Dict:
        os.sched_setaffinity(0, self.loadgen_cpus)
        self.spinners = Spinners(self.loadgen_cpus | self.server_cpus)
        # the generator's own collector pauses would delay reading
        # replies and show as server latency; its requests hold no
        # cycles, so reference counting frees them
        gc.collect()
        gc.freeze()
        gc.disable()
        setups = []
        count = 1 if self.trace else SETUPS
        for index in range(count):
            server, port, seconds, oracle = await self.setup(index)
            setups.append(seconds)
            if index < count - 1:
                server.stop(graceful=False)
        self.stage("setup")
        try:
            return await self.measure(server, port, oracle, setups)
        finally:
            server.stop(graceful=False)

    async def measure(self, server: Server, port: int,
                      oracle: loadgen.Oracle, setups: List[Dict]) -> Dict:
        closed_s = max(1.0, self.seconds * CLOSED_SHARE)
        open_s = max(1.0, self.seconds - closed_s)
        first = await loadgen.Connection.open(HOST, port)
        stream = OpStream(self.w, self.seed, stream=1,
                          written=oracle.values)
        # mark 0: SIGUSR2 also turns the span wrappers on (and later off)
        server.signal(signal.SIGUSR2 if self.trace else signal.SIGUSR1)
        await settle()
        open_r = await loadgen.open_loop(
            first, stream, oracle, open_s, min_samples=MEDIAN_FLOOR,
            max_seconds=open_s * 1.5)
        self.stage("open_loop")
        server.signal(signal.SIGUSR1)                   # mark 1
        await settle()
        second = await loadgen.Connection.open(HOST, port)
        conns = [first, second]
        closed_r = await self.closed(server, conns, oracle, closed_s, 2)
        untraced_r = None
        if self.trace:
            server.signal(signal.SIGUSR2)               # mark 2: off
            await settle()
            untraced_r = await self.closed(server, conns, oracle, closed_s,
                                           4)
        server.signal(signal.SIGUSR1)                   # last mark
        await settle()
        self.stage("closed_loop")
        # correctness gate: every key the run touched reads back
        wrong = await loadgen.read_back(first, oracle.touched, oracle.values)
        for conn in conns:
            await conn.close()
        self.stage("read_back")
        doc = server.stop(graceful=True)
        self.stage("shutdown_and_audit")
        gauge = self.spinners.stop()
        return self.summarize(setups, open_r, closed_r, untraced_r, oracle,
                              wrong, doc, gauge)

    async def closed(self, server, conns, oracle, seconds, stream_base):
        streams = [OpStream(self.w, self.seed, stream=stream_base + i,
                            owner=i, owners=len(conns),
                            written=oracle.values)
                   for i in range(len(conns))]
        return await loadgen.closed_loop(conns, streams, oracle, seconds,
                                         self.w.pipeline, server.cpu_clock)

    # ------------------------------------------------------------------

    def summarize(self, setups, open_r, closed_r, untraced_r, oracle,
                  wrong, doc, gauge) -> Dict:
        phases = [r for r in (open_r, closed_r, untraced_r) if r]
        self.attempted = sum(r.attempted for r in phases)
        self.failed = sum(r.failed for r in phases)
        for r in phases:
            self.problems.extend(r.errors)
        if wrong:
            self.failed += len(wrong)
            key, got = next(iter(wrong.items()))
            self.problems.append(
                "%d keys read back wrong (e.g. %r: got %.40r, expected "
                "%.40r)" % (len(wrong), key, got, oracle.values.get(key)))
        if doc is None:
            self.failed += 1
            self.problems.append("the server did not shut down cleanly")
            return {}
        if doc["audit"]:
            self.failed += len(doc["audit"])
            self.problems.append("audit: %s" % "; ".join(doc["audit"][:3]))
        first, last = doc["marks"][0]["counters"], doc["final"]
        for counter in ("repro_server_server_errors",
                        "repro_server_protocol_errors"):
            errors = report.delta(first, last, counter)
            if errors:
                self.failed += int(errors)
                self.problems.append("%s rose by %d" % (counter, errors))
        late_p99 = report.percentile(open_r.late_ms, 0.99) or 0.0
        late_p90 = report.percentile(open_r.late_ms, 0.9) or 0.0
        if late_p90 > MAX_LATE_P90_MS:
            self.problems.append(
                "load generator fell behind: late p90 %.1f ms" % late_p90)
        series = {"%s %s" % (name, kind): values
                  for kind, latency in (("all", open_r.latency),
                                        ("service", open_r.service))
                  for name, values in latency.items()}
        if len(series["get service"]) < MEDIAN_FLOOR:
            self.problems.append("get service: %d samples, under the %d a "
                                 "p50 needs" % (len(series["get service"]),
                                                MEDIAN_FLOOR))
        out = {"samples": {name: len(v) for name, v in series.items()},
               "open_seconds": open_r.seconds,
               "quantiles": {
                   name: {q: report.percentile(values, q)
                          for q in (0.5, 0.9, 0.99)}
                   for name, values in series.items()},
               "wall": {"setup_s": self.setup_wall,
                        "capacity_ops_s": statistics.median(
                            w.rate for w in closed_r.windows)}}
        loadgen_doc = {"late_ms_p99": late_p99,
                       "cpu_frac": report.ratio(open_r.cpu_seconds,
                                                open_r.seconds)}
        out["loadgen"] = loadgen_doc
        server_gauge = report.Gauge(gauge[min(self.server_cpus)])
        capacity = report.capacity_windows(closed_r.windows, server_gauge)
        out["capacity_windows"] = capacity
        out["setups"] = setups
        if report.capacity(capacity) is None:
            raise RunFailure("the speed gauge got under %d chunks in every "
                             "closed-loop window" % report.MIN_GAUGE_CHUNKS)
        if not self.trace:
            out["end_to_end"] = self.end_to_end(setups, open_r, capacity,
                                                oracle, doc)
        else:
            ops = open_r.attempted + closed_r.attempted
            writes = open_r.writes + closed_r.writes
            gets = ops - writes
            overhead = report.ratio(
                report.capacity(capacity),
                report.capacity(report.capacity_windows(
                    untraced_r.windows, server_gauge)) or 0.0)
            out["per_layer"], out["layer_detail"] = report.per_layer(
                doc, (0, 2), (0, 1), ops, gets, writes,
                open_r.seconds, overhead, loadgen_doc)
        return out

    def end_to_end(self, setups, open_r, capacity, oracle, doc
                   ) -> Dict[str, float]:
        # the modeled DRAM accesses of the open loop, whose requests one
        # seed fixes; the closed loop's op count, and so the store's size
        # on write-unique, follows the host's speed
        marks = doc["marks"]
        dram = report.delta(marks[0]["counters"], marks[1]["counters"],
                            "repro_dram_accesses_total")
        lat = open_r.service

        def pct(values, q):
            value = report.percentile(values, q)
            return float("inf") if value is None else value

        return {
            "setup_s": statistics.median(
                s["server_cpu"] + s["own_cpu"] for s in setups),
            "capacity_ops_per_cpu_s": report.capacity(capacity),
            "get_service_p50_ms": pct(lat["get"], 0.5),
            "ok_op_frac": 1.0 - report.ratio(self.failed, self.attempted),
            "bytes_per_logical_byte": report.ratio(
                doc["footprint_bytes"], oracle.logical_bytes()),
            "server_rss_mb": doc["peak_rss_kib"] / 1024.0,
            "modeled_dram_per_op": report.ratio(dram, open_r.attempted),
        }


def abandon(run: Run) -> None:
    """Deadline passed: kill every process the run started, and exit."""
    print("perfbench: run exceeded %.0f s; abandoned" % RUN_DEADLINE,
          file=sys.stderr, flush=True)
    run.kill()
    shutil.rmtree(run.work, ignore_errors=True)
    os._exit(3)


def terminated(signum, frame) -> None:
    """``SIGTERM``: leave through the ``finally`` blocks, which stop
    every process the run started."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli" / "main.py").exists():
        print("perfbench: no repro sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance(workload, args.seed)
    run.work.mkdir(parents=True, exist_ok=True)
    watchdog = threading.Timer(RUN_DEADLINE, abandon, (run,))
    watchdog.daemon = True
    watchdog.start()
    signal.signal(signal.SIGTERM, terminated)
    try:
        out = asyncio.run(run.execute())
    except RunFailure as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        run.kill()
        shutil.rmtree(run.work, ignore_errors=True)
    correct = not run.problems and run.failed == 0 and bool(out)
    result = dict(out, workload=workload.name, seed=args.seed,
                  trace=args.trace, provenance=prov, correct=correct,
                  attempted=run.attempted, failed=run.failed,
                  problems=run.problems, stages=run.stages)
    print(report.render(result))
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (workload.name, args.seed,
                                            args.trace))).write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": report.PER_LAYER_UNITS[name]}
                   for name, value in out.get("per_layer", {}).items()}
    else:
        units = dict(report.END_TO_END)
        metrics = {name: {"value": report.finite(value),
                          "unit": units[name]}
                   for name, value in out.get("end_to_end", {}).items()}
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
