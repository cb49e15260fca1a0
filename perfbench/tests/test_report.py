"""Percentiles, the sample floor, and the span arithmetic."""

import asyncio
import json
import math
import pathlib

import report
import spans
from workload import WORKLOADS


def test_min_samples_floor():
    assert report.min_samples(0.99) == 1000
    assert report.min_samples(0.5) == 20


def test_percentile_refuses_thin_samples():
    assert report.percentile(list(range(999)), 0.99) is None
    assert report.percentile(list(range(1, 1001)), 0.99) == 990
    assert report.percentile(list(range(1, 21)), 0.5) == 10


def test_failed_requests_miss_every_limit():
    values = [1.0] * 985 + [float("inf")] * 15
    assert math.isinf(report.percentile(values, 0.99))
    assert report.percentile(values, 0.5) == 1.0
    assert report.finite(float("inf")) == report.INF_MS


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    calls = {}

    def leaf():
        clock.now += 3

    def outer():
        clock.now += 1
        calls["leaf"]()
        clock.now += 2
        calls["leaf"]()

    calls["leaf"] = spans.wrap(tracer, "leaf", leaf)
    traced_outer = spans.wrap(tracer, "outer", outer)
    traced_outer()
    table = spans.layer_table(tracer.spans(), tracer.names, cpu_ns=15)
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_ns"] == 6
    assert table["outer"]["dur_ns"] == 9
    assert table["outer"]["self_ns"] == 3
    # the rest of the process CPU is "other", and the column adds up
    assert table["net.server.other"]["self_ns"] == 6
    assert sum(row["self_ns"] for row in table.values()) == 15


def test_coroutine_spans_exclude_suspended_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    async def child():
        clock.now += 5
        await asyncio.sleep(0)
        clock.now += 5

    async def parent(inner):
        clock.now += 1
        await inner()

    def busy():
        clock.now += 100

    traced_child = spans.wrap(tracer, "child", child)
    traced_parent = spans.wrap(tracer, "parent", parent)
    traced_busy = spans.wrap(tracer, "busy", busy)

    async def main():
        other = asyncio.get_running_loop().call_soon(traced_busy)
        await traced_parent(traced_child)
        del other

    asyncio.run(main())
    table = spans.layer_table(tracer.spans(), tracer.names, cpu_ns=111)
    # the busy callback ran while the child was suspended: it is neither
    # the child's time nor its parent's, and it has no parent
    assert table["child"]["dur_ns"] == 10
    assert table["parent"]["dur_ns"] == 11
    assert table["parent"]["self_ns"] == 1
    assert table["busy"]["self_ns"] == 100
    assert table["net.server.other"]["self_ns"] == 0
    by_name = {tracer.names[s[2]]: s for s in tracer.spans()}
    assert by_name["child"][1] == by_name["parent"][0]
    assert by_name["busy"][1] == 0


def test_install_patches_and_restores_imported_names():
    import repro.core.transactions as transactions
    import repro.structures.hmap as hmap
    original = transactions.atomic_update
    tracer = spans.Tracer()
    done = spans.install(tracer, [("core.atomic_update",
                                   "repro.core.transactions:atomic_update",
                                   None, None)])
    assert hmap.atomic_update is transactions.atomic_update
    assert hmap.atomic_update is not original
    done.undo()
    assert transactions.atomic_update is original
    assert hmap.atomic_update is original


def test_benchmark_json_matches_the_code():
    root = pathlib.Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(report.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == report.PER_LAYER_UNITS


def test_capacity_is_scaled_to_the_reference_speed_per_window():
    from loadgen import Window

    ref = report.REF_CHUNK_NS
    windows = [Window(start=0.0, end=1.0, ops=1000, busy_seconds=0.9,
                      cpu_seconds=1.0),
               Window(start=1.0, end=2.0, ops=500, busy_seconds=0.9,
                      cpu_seconds=1.0),
               Window(start=2.0, end=3.0, ops=1000, busy_seconds=0.9,
                      cpu_seconds=1.0)]
    # the CPU ran the gauge at reference speed, then half as fast, then
    # the gauge got too few chunks to tell
    chunks = [(0.5, ref)] * report.MIN_GAUGE_CHUNKS \
        + [(1.5, 2 * ref)] * report.MIN_GAUGE_CHUNKS \
        + [(2.5, ref)] * (report.MIN_GAUGE_CHUNKS - 1)
    rows = report.capacity_windows(windows, report.Gauge(chunks))
    assert [r["ops_per_cpu_s"] for r in rows] == [1000, 500, 1000]
    assert [r["scaled"] for r in rows] == [1000, 1000, None]
    assert report.capacity(rows) == 1000
    assert report.capacity(rows[2:]) is None

