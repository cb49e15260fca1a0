"""Percentiles, the metric definitions, and the one rendering."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import spans

#: a p-th percentile needs this many samples beyond it (so a p99 rests
#: on at least 1,000 samples and a p50 on at least 20)
TAIL_SAMPLES = 10

#: units of the end-to-end metrics, in the order they are printed.
#: ``setup_s`` counts CPU time, the capacity CPU time at a reference CPU
#: speed, and the get latency is a service latency (see ``run.py``).
#: The other latencies (p50, p90, p99 of all requests; the writes'
#: service latency) and the wall-clock set-up and rate are printed with
#: them but are not end-to-end metrics: on a 2-core box they move by
#: 1.5-3x between runs of the same code with the host's contention, the
#: p99s also with the server's full collections, so no bound could hold
#: them. The writes' service p50, mostly server CPU, moves with how fast
#: the host runs the vCPU: its spread over 10 seeds reached 0.30.
END_TO_END = (
    ("setup_s", "s"),
    ("capacity_ops_per_cpu_s", "ops/cpu-s"),
    ("get_service_p50_ms", "ms"),
    ("ok_op_frac", "ratio"),
    ("bytes_per_logical_byte", "ratio"),
    ("server_rss_mb", "MiB"),
    ("modeled_dram_per_op", "accesses/op"),
)


#: the layers of the server's span table (modules of the program)
LAYERS = ("net.framing", "net.router", "apps.memcached", "structures",
          "core", "segments", "memory", "net.server.other")

#: every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = dict([
    ("net.server.cpu_ms_per_op", "ms/op"),
    ("net.server.busy_frac", "ratio"),
    ("net.server.other_self_ms_per_op", "ms/op"),
    ("net.framing.feed.self_us_per_frame", "us/frame"),
    ("net.framing.feed.frames_per_call", "frames/call"),
    ("net.router.dispatch.self_us_per_op", "us/op"),
    ("net.router.enqueue_wait_ms.p99", "ms"),
    ("net.router.write_residence_ms.p50", "ms"),
    ("net.router.write_residence_ms.p99", "ms"),
    ("net.router.queue_wait_ms.p50", "ms"),
    ("net.router.queue_wait_ms.p99", "ms"),
    ("net.router.ops_per_batch", "ops/batch"),
    ("net.router.merge_commits_per_write", "commits/write"),
    ("net.router.cas_retries_per_write", "retries/write"),
    ("net.router.queue_high_watermark", "count"),
    ("net.router.server_errors", "count"),
    ("net.adaptive.mode_switches", "count"),
    ("apps.memcached.handle.self_us_per_get", "us/get"),
    ("apps.memcached.handle.self_us_per_write", "us/write"),
    ("apps.memcached.set_many.calls", "count"),
    ("apps.memcached.set_many.keys_per_call", "keys/call"),
    ("structures.hmap.get.self_us", "us/call"),
    ("structures.anon.from_bytes.self_us_per_op", "us/op"),
    ("structures.hmap.put.self_ms", "ms/call"),
    ("structures.hmap.delete.self_ms", "ms/call"),
    ("core.atomic_update.calls_per_write", "calls/write"),
    ("core.atomic_update.self_ms", "ms/call"),
    ("core.mcas.calls_per_write", "calls/write"),
    ("core.mcas.self_ms", "ms/call"),
    ("segments.write_words_bulk.self_ms_per_write", "ms/write"),
    ("segments.write_words_bulk.calls_per_write", "calls/write"),
    ("segments.write_words_bulk.self_frac", "ratio"),
    ("segments.read_word.self_us_per_get", "us/get"),
    ("segments.merge_roots.calls_per_write", "calls/write"),
    ("segments.merge_roots.self_ms_per_call", "ms/call"),
    ("segments.try_commit.fail_frac", "ratio"),
    ("memory.lookup.calls_per_write", "calls/write"),
    ("memory.lookup.self_us_per_call", "us/call"),
    ("memory.lookup.hit_frac", "ratio"),
    ("memory.reclaim_advance.self_ms.p99", "ms"),
    ("memory.reclaim.lines_freed_per_write", "lines/write"),
    ("memory.reclaim.pending_lines.max", "lines"),
    ("memory.memo.hit_frac.line", "ratio"),
    ("memory.memo.hit_frac.segment", "ratio"),
    ("memory.memo.hit_frac.merge", "ratio"),
    ("memory.memo.hit_frac.digest", "ratio"),
    ("memory.index.resizes", "count"),
    ("memory.dram.reads_per_op", "accesses/op"),
    ("memory.dram.writes_per_op", "accesses/op"),
    ("memory.dram.lookups_per_op", "accesses/op"),
    ("memory.dram.dealloc_per_op", "accesses/op"),
    ("memory.dram.rc_per_op", "accesses/op"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
] + [("%s.self_frac" % layer, "ratio") for layer in LAYERS])

#: the reference speed of the server's CPU: one ``spin.py`` chunk in this
#: many CPU nanoseconds (about what a 2-vCPU Xeon host gives it when
#: uncontended; the same host slows it to 0.8-1.0 ms at times)
REF_CHUNK_NS = 500_000
#: a span of time whose speed gauge got fewer chunks is not scaled
MIN_GAUGE_CHUNKS = 20

#: JSON carries no infinity: a percentile pushed to ``inf`` by failed
#: requests is written as this many milliseconds
INF_MS = 1e9


def finite(value: float) -> float:
    return value if math.isfinite(value) else INF_MS


def min_samples(q: float) -> int:
    """Fewest samples a ``q``-quantile (0 < q < 1) may rest on."""
    return int(math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` on too few samples.

    Failed requests enter as ``inf``: they miss every latency limit, so
    enough of them push the percentile to ``inf``.
    """
    if len(values) < min_samples(q):
        return None
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def delta(before: Dict, after: Dict, name: str, label: str = None) -> float:
    """Change of one registry counter (optionally one labelled series)."""
    def read(doc):
        value = doc.get(name, 0)
        if label is not None:
            value = value.get(label, 0) if isinstance(value, dict) else 0
        elif isinstance(value, dict):
            value = sum(v for v in value.values()
                        if isinstance(v, (int, float)))
        return value
    return read(after) - read(before)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Gauge:
    """One CPU's speed gauge readings (``spin.py`` chunks)."""

    def __init__(self, chunks: Sequence[Tuple[float, int]]) -> None:
        #: ``(monotonic end time, CPU ns)`` of each chunk
        self.chunks = sorted(chunks)
        self.times = [t for t, _ in self.chunks]

    def chunk_ns(self, start: float, end: float) -> Optional[float]:
        """Median chunk CPU ns of the chunks that ended in ``[start,
        end)``, or ``None`` when there were too few."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if hi - lo < MIN_GAUGE_CHUNKS:
            return None
        return statistics.median(ns for _, ns in self.chunks[lo:hi])


def capacity_windows(windows, gauge: Gauge) -> List[Dict]:
    """Each closed-loop window's ops per server CPU second, at the CPU's
    speed then and at the reference speed.

    ``gauge`` reads the server CPU's speed; a window's speed is the
    median chunk time over the window and its pause. The same code's
    ops per CPU second moves with that speed (by up to 1.7x between
    minutes on a shared host), and the rate at the reference speed,
    ``rate * chunk_ns / REF_CHUNK_NS``, far less.
    """
    out = []
    for w in windows:
        chunk_ns = gauge.chunk_ns(w.start, w.end)
        rate = ratio(w.ops, w.cpu_seconds)
        out.append({"ops": w.ops, "ops_per_cpu_s": rate,
                     "gauge_ns": chunk_ns,
                     "scaled": rate * chunk_ns / REF_CHUNK_NS
                     if chunk_ns and rate else None})
    return out


def capacity(windows: List[Dict]) -> Optional[float]:
    """Median reference-speed rate of the windows that have one."""
    scaled = [w["scaled"] for w in windows if w["scaled"] is not None]
    return statistics.median(scaled) if scaled else None


# ----------------------------------------------------------------------
# per-layer metrics (traced run)


class SpanView:
    """The spans of one process, grouped by name."""

    def __init__(self, dump: Dict) -> None:
        self.names: List[str] = dump["names"]
        self.spans = spans.unflatten(dump["data"])
        self.by_name: Dict[str, List[Tuple[int, ...]]] = {}
        for span in self.spans:
            self.by_name.setdefault(self.names[span[2]], []).append(span)

    def calls(self, name: str, value: Optional[int] = None) -> int:
        return len(self._select(name, value))

    def self_ns(self, name: str, value: Optional[int] = None) -> int:
        return sum(s[4] - s[5] for s in self._select(name, value))

    def value_sum(self, name: str) -> int:
        return sum(s[6] for s in self.by_name.get(name, ()))

    def self_list_ms(self, name: str) -> List[float]:
        return [(s[4] - s[5]) / 1e6 for s in self.by_name.get(name, ())]

    def _select(self, name, value):
        rows = self.by_name.get(name, ())
        if value is None:
            return rows
        return [s for s in rows if s[6] == value]


#: module of each span name, for the layer table
def layer_of(name: str) -> str:
    if name == "net.server.other":
        return name
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] in ("net", "apps") \
        else parts[0]


def per_layer(server: Dict, window: Tuple[int, int],
              open_window: Tuple[int, int], ops: int, gets: int,
              writes: int, open_wall: float, overhead: float,
              loadgen: Dict[str, float]) -> Tuple[Dict[str, float], Dict]:
    """Per-layer metrics of a traced run, and the layer table.

    ``window`` and ``open_window`` are mark indices (start, end) of the
    traced phases and of the open loop inside them.
    """
    marks = server["marks"]
    m0, m1 = marks[window[0]], marks[window[1]]
    c0, c1 = m0["counters"], m1["counters"]
    view = SpanView(server["spans"])
    cpu_ns = m1["cpu_ns"] - m0["cpu_ns"]
    thread_ns = m1["thread_ns"] - m0["thread_ns"]
    table = spans.layer_table(view.spans, view.names, thread_ns)
    o0, o1 = marks[open_window[0]], marks[open_window[1]]
    writes_probe = server["write_samples"]
    enqueue = [s[0] * 1e3 for s in writes_probe]
    queue = [s[1] * 1e3 for s in writes_probe]
    residence = [s[2] * 1e3 for s in writes_probe]
    frames = view.value_sum("net.framing.feed")
    lookups = view.calls("memory.lookup")
    allocated = view.value_sum("memory.store_lookup")
    reclaim = view.self_list_ms("memory.reclaim_advance")
    reclaim_pending = [s[6] for s in view.by_name.get(
        "memory.reclaim_advance", ())]
    memo = {}
    for table_name in ("line", "segment", "merge", "digest"):
        hits = delta(c0, c1, "repro_memo_ops_total", table_name + ",hit")
        misses = delta(c0, c1, "repro_memo_ops_total", table_name + ",miss")
        memo[table_name] = ratio(hits, hits + misses)
    dram = {key: delta(c0, c1, "repro_dram_accesses_total", label)
            for key, label in (("reads", "reads"), ("writes", "writes"),
                               ("lookups", "lookups"),
                               ("dealloc", "dealloc"), ("rc", "refcount"))}
    batches = delta(c0, c1, "repro_server_commit_batches")
    try_commits = view.calls("segments.try_commit")
    merges = view.calls("segments.merge_roots")
    m = {
        "net.server.cpu_ms_per_op": ratio(cpu_ns / 1e6, ops),
        "net.server.busy_frac": ratio(
            (o1["cpu_ns"] - o0["cpu_ns"]) / 1e9, open_wall),
        "net.server.other_self_ms_per_op": ratio(
            table["net.server.other"]["self_ns"] / 1e6, ops),
        "net.framing.feed.self_us_per_frame": ratio(
            view.self_ns("net.framing.feed") / 1e3, frames),
        "net.framing.feed.frames_per_call": ratio(
            frames, view.calls("net.framing.feed")),
        "net.router.dispatch.self_us_per_op": ratio(
            view.self_ns("net.router.dispatch") / 1e3,
            view.calls("net.router.dispatch")),
        "net.router.enqueue_wait_ms.p99": _pct(enqueue, 0.99),
        "net.router.write_residence_ms.p50": _pct(residence, 0.50),
        "net.router.write_residence_ms.p99": _pct(residence, 0.99),
        "net.router.queue_wait_ms.p50": _pct(queue, 0.50),
        "net.router.queue_wait_ms.p99": _pct(queue, 0.99),
        "net.router.ops_per_batch": ratio(writes, batches),
        "net.router.merge_commits_per_write": ratio(
            delta(c0, c1, "repro_server_merge_commits"), writes),
        "net.router.cas_retries_per_write": ratio(
            delta(c0, c1, "repro_server_cas_retries"), writes),
        "net.router.queue_high_watermark": c1.get(
            "repro_server_queue_high_watermark", 0),
        "net.router.server_errors": delta(c0, c1,
                                          "repro_server_server_errors"),
        "net.adaptive.mode_switches": delta(
            c0, c1, "repro_adaptive_mode_switches_total"),
        "apps.memcached.handle.self_us_per_get": ratio(
            view.self_ns("apps.memcached.handle", 0) / 1e3,
            view.calls("apps.memcached.handle", 0)),
        "apps.memcached.handle.self_us_per_write": ratio(
            view.self_ns("apps.memcached.handle", 1) / 1e3,
            view.calls("apps.memcached.handle", 1)),
        "apps.memcached.set_many.calls": view.calls(
            "apps.memcached.set_many"),
        "apps.memcached.set_many.keys_per_call": ratio(
            view.value_sum("apps.memcached.set_many"),
            view.calls("apps.memcached.set_many")),
        "structures.hmap.get.self_us": ratio(
            view.self_ns("structures.hmap.get") / 1e3,
            view.calls("structures.hmap.get")),
        "structures.anon.from_bytes.self_us_per_op": ratio(
            view.self_ns("structures.anon.from_bytes") / 1e3, ops),
        "structures.hmap.put.self_ms": ratio(
            view.self_ns("structures.hmap.put") / 1e6,
            view.calls("structures.hmap.put")),
        "structures.hmap.delete.self_ms": ratio(
            view.self_ns("structures.hmap.delete") / 1e6,
            view.calls("structures.hmap.delete")),
        "core.atomic_update.calls_per_write": ratio(
            view.calls("core.atomic_update"), writes),
        "core.atomic_update.self_ms": ratio(
            view.self_ns("core.atomic_update") / 1e6,
            view.calls("core.atomic_update")),
        "core.mcas.calls_per_write": ratio(view.calls("core.mcas"), writes),
        "core.mcas.self_ms": ratio(view.self_ns("core.mcas") / 1e6,
                                   view.calls("core.mcas")),
        "segments.write_words_bulk.self_ms_per_write": ratio(
            view.self_ns("segments.write_words_bulk") / 1e6, writes),
        "segments.write_words_bulk.calls_per_write": ratio(
            view.calls("segments.write_words_bulk"), writes),
        "segments.read_word.self_us_per_get": ratio(
            view.self_ns("segments.read_word") / 1e3, gets),
        "segments.merge_roots.calls_per_write": ratio(merges, writes),
        "segments.merge_roots.self_ms_per_call": ratio(
            view.self_ns("segments.merge_roots") / 1e6, merges),
        "segments.try_commit.fail_frac": ratio(
            try_commits - view.value_sum("segments.try_commit"),
            try_commits),
        "memory.lookup.calls_per_write": ratio(lookups, writes),
        "memory.lookup.self_us_per_call": ratio(
            (view.self_ns("memory.lookup")
             + view.self_ns("memory.store_lookup")) / 1e3, lookups),
        "memory.lookup.hit_frac": ratio(lookups - allocated, lookups),
        "memory.reclaim_advance.self_ms.p99": _pct(reclaim, 0.99),
        "memory.reclaim.lines_freed_per_write": ratio(
            delta(c0, c1, "repro_reclaim_drained_total", "freed"), writes),
        "memory.reclaim.pending_lines.max": max(reclaim_pending, default=0),
        "memory.memo.hit_frac.line": memo["line"],
        "memory.memo.hit_frac.segment": memo["segment"],
        "memory.memo.hit_frac.merge": memo["merge"],
        "memory.memo.hit_frac.digest": memo["digest"],
        "memory.index.resizes": delta(
            c0, c1, "repro_index_cuckoo_events_total", "resizes_completed"),
        "loadgen.late_ms.p99": loadgen["late_ms_p99"],
        "loadgen.cpu_frac": loadgen["cpu_frac"],
        "trace.overhead_ratio": overhead,
    }
    for key, value in dram.items():
        m["memory.dram.%s_per_op" % key] = ratio(value, ops)
    layers: Dict[str, float] = {layer: 0 for layer in LAYERS}
    for name, row in table.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0) \
            + row["self_ns"]
    for layer, self_ns in layers.items():
        m["%s.self_frac" % layer] = ratio(self_ns, thread_ns)
    m["segments.write_words_bulk.self_frac"] = ratio(
        table.get("segments.write_words_bulk", {}).get("self_ns", 0),
        thread_ns)
    detail = {"table": table, "layers": layers, "thread_ns": thread_ns,
              "cpu_ns": cpu_ns}
    return {k: float(v) for k, v in m.items()}, detail


def _pct(values: Sequence[float], q: float) -> float:
    """Percentile for a per-layer figure; 0 when there is no sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, int(math.ceil(q * len(ordered)))) - 1]


# ----------------------------------------------------------------------
# the rendering


def render(result: Dict) -> str:
    lines = ["# %s  seed=%s  trace=%s  params=%s" % (
        result["workload"], result["seed"], result["trace"],
        result["provenance"]["workload_hash"])]
    prov = result["provenance"]
    lines.append("# %s  dirty=%s  python %s  %s  nproc=%s  load=%s" % (
        prov["source"], prov["dirty"], prov["python"], prov["cpu"],
        prov["nproc"], prov["loadavg"]))
    lines.append("# correct=%s attempted=%d failed=%d%s" % (
        result["correct"], result["attempted"], result["failed"],
        "" if not result["problems"] else "  problems: "
        + "; ".join(result["problems"])))
    lines.append("# steps (s): " + "  ".join(
        "%s=%.1f" % kv for kv in result["stages"].items()))
    if "loadgen" in result:
        lines.append("# load generator: late p99 %.2f ms, cpu %.0f%%" % (
            result["loadgen"]["late_ms_p99"],
            100 * result["loadgen"]["cpu_frac"]))
    if result.get("end_to_end"):
        lines.append("%-30s %14s  %s" % ("end-to-end metric", "value",
                                         "unit"))
        for name, unit in END_TO_END:
            value = result["end_to_end"].get(name)
            if value is not None:
                lines.append("%-30s %14.4f  %s" % (name, value, unit))
    setups = result.get("setups")
    if setups:
        lines.append("set-ups: CPU s of server + generator: " + "  ".join(
            "%.2f+%.2f" % (s["server_cpu"], s["own_cpu"]) for s in setups))
    windows = result.get("capacity_windows")
    if windows:
        lines.append("closed-loop windows: ops per CPU s / gauge us -> at "
                     "reference speed: " + "  ".join(
                         "%.0f/%s->%s" % (
                             w["ops_per_cpu_s"],
                             "-" if w["gauge_ns"] is None
                             else "%.0f" % (w["gauge_ns"] / 1e3),
                             "-" if w["scaled"] is None
                             else "%.0f" % w["scaled"])
                         for w in windows))
    wall = result.get("wall")
    if wall:
        lines.append("wall clock (unbounded): set-ups %s s, closed-loop "
                     "rate %.1f ops/s" % (
                         " ".join("%.2f" % t for t in wall["setup_s"]),
                         wall["capacity_ops_s"]))
    if result.get("quantiles"):
        lines.append("")
        lines.append("%-14s %8s %10s %10s %10s  (open loop, ms from due "
                     "time; service: sent with none ahead; - = too few "
                     "samples)" % ("latency", "samples", "p50", "p90",
                                   "p99"))
        for name, qs in sorted(result["quantiles"].items()):
            lines.append("%-14s %8d %s" % (
                name, result["samples"][name], " ".join(
                    "%10s" % ("-" if qs[q] is None else "%.3f" % qs[q])
                    for q in sorted(qs))))
    layer = result.get("layer_detail")
    if layer:
        thread_ns = layer["thread_ns"] or 1
        lines.append("")
        lines.append("%-40s %10s %8s %9s" % ("span (server)", "self ms",
                                              "share", "calls"))
        rows = sorted(layer["table"].items(),
                      key=lambda kv: -kv[1]["self_ns"])
        for name, row in rows:
            lines.append("%-40s %10.1f %7.1f%% %9d" % (
                name, row["self_ns"] / 1e6,
                100.0 * row["self_ns"] / thread_ns, row["calls"]))
        total = sum(r["self_ns"] for r in layer["table"].values())
        lines.append("%-40s %10.1f %7.1f%%" % (
            "sum = serving thread CPU", total / 1e6,
            100.0 * total / thread_ns))
        lines.append("%-40s %10.1f %7.1f%%" % (
            "server process CPU (all threads)", layer["cpu_ns"] / 1e6,
            100.0 * layer["cpu_ns"] / thread_ns))
        lines.append("")
        lines.append("%-40s %7s" % ("layer", "share"))
        for name, self_ns in sorted(layer["layers"].items(),
                                    key=lambda kv: -kv[1]):
            lines.append("%-40s %6.1f%%" % (name, 100.0 * self_ns
                                            / thread_ns))
        lines.append("tracing overhead (traced / untraced capacity): "
                     "%.3f" % result["per_layer"]["trace.overhead_ratio"])
    if result.get("per_layer"):
        lines.append("")
        lines.append("%-56s %14s" % ("per-layer metric", "value"))
        for name, value in sorted(result["per_layer"].items()):
            lines.append("%-56s %14.4f" % (name, value))
    return "\n".join(lines)
