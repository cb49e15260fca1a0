"""The generator against stub servers: failures, stalls, seeds, and
the server CPU clock."""

import asyncio
import dataclasses
import os
import subprocess
import sys
import time

import pytest

import loadgen
import report
import run
from workload import WORKLOADS, OpStream


def gets_only(rate=400.0):
    return dataclasses.replace(
        WORKLOADS["read-hot"], name="stub", rate=rate,
        mix=(("get", 1.0),))


class StubServer:
    """Answers every get with a miss, optionally stalling or failing."""

    def __init__(self, reply=b"END\r\n", stall_after=None, stall_s=0.0):
        self.reply = reply
        self.stall_after = stall_after
        self.stall_s = stall_s
        self.requests = 0

    async def handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                self.requests += 1
                if self.requests == self.stall_after:
                    await asyncio.sleep(self.stall_s)
                writer.write(self.reply)
                await writer.drain()
        finally:
            writer.close()

    async def __aenter__(self):
        self.server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.server.close()


async def drive(stub, workload, seconds):
    async with stub:
        conn = await loadgen.Connection.open("127.0.0.1", stub.port)
        stream = OpStream(workload, seed=7, stream=1)
        result = await loadgen.open_loop(conn, stream, loadgen.Oracle(),
                                         seconds)
        await conn.close()
        return result


def test_server_error_counts_as_failed_and_missing_every_limit():
    stub = StubServer(reply=b"SERVER_ERROR out of memory\r\n")
    result = asyncio.run(drive(stub, gets_only(), 0.5))
    assert result.attempted > 50
    assert result.failed == result.attempted
    assert all(v == float("inf") for v in result.latency["get"])


def test_unexpected_reply_counts_as_failed():
    # the oracle holds no key, so a value where it expects a miss fails
    stub = StubServer(reply=b"VALUE key:000001 0 1\r\nx\r\nEND\r\n")
    result = asyncio.run(drive(stub, gets_only(), 0.3))
    assert result.failed == result.attempted > 0


def test_a_stall_shows_in_every_request_due_during_it():
    rate, stall = 400.0, 0.2
    stub = StubServer(stall_after=100, stall_s=stall)
    result = asyncio.run(drive(stub, gets_only(rate), 1.0))
    assert result.failed == 0
    latencies = sorted(result.latency["get"], reverse=True)
    # the request that hit the stall waited the whole 200 ms...
    assert latencies[0] >= stall * 1e3 * 0.95
    # ...and every request due while it lasted waited for the rest of
    # it, timed from its due time: about rate * stall of them
    delayed = [v for v in latencies if v >= 50.0]
    assert len(delayed) >= rate * (stall - 0.05) * 0.7
    # the generator itself stayed on schedule
    assert report.percentile(result.late_ms, 0.5) < 5.0


def test_one_seed_gives_a_byte_identical_request_stream():
    def stream_bytes(name, seed):
        stream = OpStream(WORKLOADS[name], seed=seed, stream=1)
        ops = [stream.next_op() for _ in range(2000)]
        return b"".join(b"%.9f " % op.due + loadgen._request(op, 0).encode()
                        for op in ops)

    for name in WORKLOADS:
        assert stream_bytes(name, 3) == stream_bytes(name, 3)
        assert stream_bytes(name, 3) != stream_bytes(name, 4)


def test_closed_loop_connections_own_disjoint_keys():
    workload = WORKLOADS["churn"]
    keys = []
    for owner in range(2):
        stream = OpStream(workload, seed=1, stream=2 + owner, owner=owner,
                          owners=2)
        keys.append({stream.next_op().key for _ in range(3000)})
    assert keys[0] and keys[1] and not keys[0] & keys[1]


def test_process_cpu_clock_counts_work_not_sleep():
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "while time.process_time() < 0.3: pass\n"
         "print('busy', flush=True)\n"
         "time.sleep(30)\n"],
        stdout=subprocess.PIPE)
    try:
        clock = loadgen.process_cpu_clock(child.pid)
        assert child.stdout.readline() == b"busy\n"
        worked = clock()
        time.sleep(0.2)
        assert worked >= 0.3
        assert clock() - worked < 0.05
    finally:
        child.kill()
        child.wait()


def test_service_latency_keeps_only_requests_with_none_ahead():
    rate, stall = 400.0, 0.2
    stub = StubServer(stall_after=100, stall_s=stall)
    result = asyncio.run(drive(stub, gets_only(rate), 1.0))
    assert result.failed == 0
    # those sent during the stall queued behind the request that met it
    # and are not service samples (that request is one, if it was sent
    # with none ahead of it)
    assert sum(v >= 50.0 for v in result.latency["get"]) > 20
    assert sum(v >= 50.0 for v in result.service["get"]) <= 1
    assert len(result.service["get"]) > result.attempted / 2


def test_spinners_run_at_the_lowest_priority_and_stop():
    cpu = min(os.sched_getaffinity(0))
    spinners = run.Spinners({cpu})
    try:
        (proc,) = spinners.procs.values()
        assert os.sched_getscheduler(proc.pid) == os.SCHED_IDLE
        assert os.sched_getaffinity(proc.pid) == {cpu}
    finally:
        spinners.stop()
    assert proc.returncode is not None
