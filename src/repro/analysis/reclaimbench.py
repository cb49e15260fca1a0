"""`repro bench reclaim` — commit-latency tails under churny frees.

Drives two machines — ``reclaim_kind="immediate"`` (the paper's inline
recursive dealloc) and ``reclaim_kind="epoch"`` (repro.memory.reclaim)
— through an identical deterministic workload: churny HMap overwrites
(every put frees the previous value's subtree) punctuated by *big-root
drops* (a freshly built multi-thousand-line anonymous segment dropped
to zero in one op — the ROADMAP item 3 latency-spike scenario). Every
put and every drop is a timed commit op; the epoch machine additionally
pays a bounded ``reclaim_advance`` between batches, accounted
separately as drain time exactly like the shard router's batch
boundary.

Under the immediate kind each big drop walks its whole subtree on the
commit path, so the drops *are* the p99/p999; under the epoch kind the
drop is O(1) and the subtree walk is amortized into the drains. Both
machines must converge: after a final quiesce the bench asserts equal
unique-line footprints, equal segment fingerprints, an equal
content→refcount digest, and clean strict machine audits — the
cross-kind identity ``--check`` refuses to pass without.
"""

from __future__ import annotations

import gc
import hashlib
import time
from typing import Dict, List

from repro.core.machine import Machine
from repro.params import MachineConfig, MemoryConfig, WORD_MASK
from repro.structures import HMap

DEFAULT_OUT = "benchmarks/out/reclaim.json"

#: Workload geometry. ``drop_every`` makes big-root drops ~3% of timed
#: ops — rare enough to be tail events, frequent enough that the p99
#: lands inside them under immediate reclamation. ``budget`` per
#: ``batch`` timed ops outpaces the per-cycle free rate (one big root
#: plus a cycle of overwrites), so the epoch queue stays bounded.
FULL_GEOMETRY = dict(keys=96, ops=6400, drop_every=32, big_words=12000,
                     batch=16, budget=6144)
SMOKE_GEOMETRY = dict(keys=48, ops=1600, drop_every=32, big_words=6000,
                      batch=16, budget=3072)


def _percentile(sorted_us: List[float], q: float) -> float:
    if not sorted_us:
        return 0.0
    pos = min(len(sorted_us) - 1, int(q * (len(sorted_us) - 1)))
    return sorted_us[pos]


def _state_digest(store) -> str:
    """Order-independent digest of the live refcount multiset.

    Raw line encodings cannot be compared across machines: interior
    lines embed child *PLIDs*, and free-list reuse legitimately places
    identical content at different physical addresses. The content
    graphs are isomorphic, so the refcount multiset (paired with the
    fingerprint and footprint checks in the report) is the
    address-independent invariant.
    """
    h = hashlib.blake2b(digest_size=16)
    for rc in sorted(store.refcount(plid) for plid in store.live_plids()):
        h.update(rc.to_bytes(8, "big"))
    return h.hexdigest()


def _run_kind(kind: str, geo: Dict) -> Dict:
    machine = Machine(MachineConfig(
        memory=MemoryConfig(reclaim_kind=kind)))
    store = machine.mem.store
    kvp = HMap.create(machine)
    perf = time.perf_counter

    latencies_us: List[float] = []
    drop_us: List[float] = []
    drain_s = 0.0
    drops = 0
    wall0 = perf()
    # cycle collection off for the timed loop (both kinds, symmetric):
    # a gen-2 pause landing inside one timed op would swamp the tail
    # this bench exists to measure; plain refcount frees still run
    gc_was_enabled = gc.isenabled()
    gc.disable()
    for op in range(geo["ops"]):
        if op % geo["drop_every"] == geo["drop_every"] - 1:
            # big-root drop: content unique per drop (no dedup against
            # anything live), built untimed — the *drop* is the commit
            # op whose latency the reclaimer is supposed to bound
            drops += 1
            words = [((drops << 32) | (i + 1)) & WORD_MASK
                     for i in range(geo["big_words"])]
            vsid = machine.create_segment(words)
            t = perf()
            machine.drop_segment(vsid)
            dt_us = (perf() - t) * 1e6
            latencies_us.append(dt_us)
            drop_us.append(dt_us)
        else:
            # churny overwrite: every value is fresh, so each put frees
            # the key's previous value subtree
            key = b"k%04d" % (op % geo["keys"])
            value = (b"value-%07d:" % op) * 4
            t = perf()
            kvp.put(key, value)
            latencies_us.append((perf() - t) * 1e6)
        if kind == "epoch" and op % geo["batch"] == geo["batch"] - 1:
            # the router's between-batches epoch advance, off the
            # per-op clock but on the wall clock (reported as drain)
            t = perf()
            store.reclaim_advance(geo["budget"])
            drain_s += perf() - t
    if gc_was_enabled:
        gc.enable()
    gc.collect()
    wall_s = perf() - wall0

    reclaim_snap = store.reclaim_snapshot()  # pre-quiesce: live behaviour
    t = perf()
    store.reclaim_quiesce()
    quiesce_s = perf() - t
    machine.drain()

    from repro.testing.auditors import audit_machine
    audit = audit_machine(machine, strict=True)

    latencies_us.sort()
    drop_us.sort()
    return {
        "kind": kind,
        "ops": len(latencies_us),
        "drops": drops,
        "p50_us": round(_percentile(latencies_us, 0.50), 2),
        "p99_us": round(_percentile(latencies_us, 0.99), 2),
        "p999_us": round(_percentile(latencies_us, 0.999), 2),
        "max_us": round(latencies_us[-1], 2),
        "drop_p50_us": round(_percentile(drop_us, 0.50), 2),
        "drop_max_us": round(drop_us[-1], 2),
        "wall_seconds": round(wall_s, 3),
        "drain_seconds": round(drain_s, 3),
        "quiesce_seconds": round(quiesce_s, 3),
        "footprint_lines": machine.footprint_lines(),
        "fingerprint": machine.segment_fingerprint(kvp.vsid).hex(),
        "state_digest": _state_digest(store),
        "audits_ok": audit.ok,
        "audit_failures": audit.failures[:5],
        "reclaim": reclaim_snap,
    }


def run_reclaim_bench(smoke: bool = False) -> Dict:
    """Run both kinds over the identical workload; cross-kind report."""
    geo = dict(SMOKE_GEOMETRY if smoke else FULL_GEOMETRY)
    immediate = _run_kind("immediate", geo)
    epoch = _run_kind("epoch", geo)
    identical = (
        immediate["footprint_lines"] == epoch["footprint_lines"]
        and immediate["fingerprint"] == epoch["fingerprint"]
        and immediate["state_digest"] == epoch["state_digest"])
    ratios = {
        "p99_latency": round(
            immediate["p99_us"] / max(epoch["p99_us"], 1e-9), 2),
        "p999_latency": round(
            immediate["p999_us"] / max(epoch["p999_us"], 1e-9), 2),
        "max_latency": round(
            immediate["max_us"] / max(epoch["max_us"], 1e-9), 2),
    }
    return {
        "bench": "reclaim",
        "tier": "smoke" if smoke else "full",
        "geometry": geo,
        "immediate": immediate,
        "epoch": epoch,
        "ratios_immediate_over_epoch": ratios,
        "identical_state": identical,
    }


def check_floor(report: Dict, floor: float) -> List[str]:
    """Floor violations (empty = pass): the p99 commit-latency ratio
    must clear ``floor``, post-quiesce state must be identical across
    kinds, and both strict audits must be clean."""
    problems = []
    ratio = report["ratios_immediate_over_epoch"]["p99_latency"]
    if ratio < floor:
        problems.append(
            "p99 commit-latency ratio %.2fx below the %.2fx floor"
            % (ratio, floor))
    if not report["identical_state"]:
        problems.append(
            "post-quiesce state diverged between reclaim kinds")
    for kind in ("immediate", "epoch"):
        if not report[kind]["audits_ok"]:
            problems.append("%s machine audit failed: %s"
                            % (kind, "; ".join(
                                report[kind]["audit_failures"])))
    return problems


def render(report: Dict) -> str:
    """Human-readable table of the cross-kind report."""
    from repro.analysis.reporting import format_table

    rows = []
    for metric, key in (("commit p50 us", "p50_us"),
                        ("commit p99 us", "p99_us"),
                        ("commit p999 us", "p999_us"),
                        ("commit max us", "max_us"),
                        ("big-root drop p50 us", "drop_p50_us"),
                        ("big-root drop max us", "drop_max_us"),
                        ("wall seconds", "wall_seconds"),
                        ("drain seconds", "drain_seconds"),
                        ("quiesce seconds", "quiesce_seconds")):
        rows.append([metric, report["immediate"][key],
                     report["epoch"][key]])
    ratios = report["ratios_immediate_over_epoch"]
    rows.append(["p99 ratio (immediate/epoch)", "",
                 "%.2fx" % ratios["p99_latency"]])
    rows.append(["p999 ratio (immediate/epoch)", "",
                 "%.2fx" % ratios["p999_latency"]])
    reclaim = report["epoch"]["reclaim"]
    rows.append(["deferred frees", "", reclaim["deferred_total"]])
    rows.append(["max pending", "", reclaim["max_pending"]])
    rows.append(["slot reuse (ways+overflow)", "",
                 reclaim["allocator"]["ways_reused"]
                 + reclaim["allocator"]["overflow_reused"]])
    rows.append(["identical post-quiesce state",
                 "", "yes" if report["identical_state"] else "NO"])
    return format_table(
        ["metric", "immediate", "epoch"], rows,
        title="reclaim (%s tier, %d commits, %d big-root drops)"
        % (report["tier"], report["immediate"]["ops"],
           report["immediate"]["drops"]))
