"""Single-child runs: rebuild, merge and reads cost one step per real line.

A compacted path (section 3.2, Figure 4a) stands for a chain of
single-child interior nodes that is never materialized; the DAG walks
descend such a run in one step and re-wrap the result. This file pins
that the jump is invisible:

* a *reference* — the per-level rebuild, merge, growth and read walks
  the jump replaced, kept here as they were (the two range reads share
  one per-level visitor) — is driven through the same op stream as the
  production code, and the two machines must agree on every root
  entry, PLID and refcount, on ``DramStats`` and on the footprint,
  over the path/data compaction x memo x index kind x reclaim kind
  matrix;
* a cost model: the number of ``_canonical_interior`` and
  ``_expand_children`` calls per ``HMap.put``/``delete`` is bounded by
  the real lines on the touched paths plus a constant, whatever the
  length of the compacted chains above and below them.
"""

import itertools
import random
from typing import Dict, List

import pytest

from repro.core.machine import Machine
from repro.errors import MergeConflictError, SegmentRangeError
from repro.memory.line import Inline, PlidRef
from repro.memory.memo import MISS
from repro.params import CacheGeometry, MachineConfig, MemoryConfig
from repro.segments import dag, merge
from repro.segments.dag import entry_key
from repro.structures import HMap
from repro.structures.hmap import COUNT_OFFSET


# ----------------------------------------------------------------------
# the per-level reference walks

def ref_capacity(mem, level):
    return mem.words_per_line * (mem.fanout ** level)


def ref_grow_entry(mem, entry, height, new_height):
    while height < new_height:
        children = [entry] + [0] * (mem.fanout - 1)
        entry = dag._canonical_interior(mem, children, height + 1)
        height += 1
    return entry


def ref_write_words_bulk(mem, entry, level, updates):
    if not updates:
        return entry
    cap = ref_capacity(mem, level)
    for index in updates:
        if not 0 <= index < cap:
            raise SegmentRangeError("write at %d beyond capacity %d"
                                    % (index, cap))

    def apply(entry, level, updates):
        if level == 0:
            words = dag._expand_leaf(mem, entry)
            owned = {i for i, word in enumerate(words)
                     if isinstance(word, PlidRef)}
            for i, v in updates.items():
                if i in owned:
                    mem.decref(words[i].plid)
                    owned.discard(i)
                words[i] = v
            new_entry = dag._leaf_entry(mem, words)
            for i in owned:
                mem.decref(words[i].plid)
            return new_entry
        child_span = ref_capacity(mem, level - 1)
        by_child: Dict[int, Dict[int, object]] = {}
        for i, v in updates.items():
            by_child.setdefault(i // child_span, {})[i % child_span] = v
        children = dag._expand_children(mem, entry, level)
        for j, child_updates in by_child.items():
            children[j] = apply(children[j], level - 1, child_updates)
        return dag._canonical_interior(mem, children, level)

    return apply(entry, level, dict(updates))


def ref_merge_entries(mem, base, mine, theirs, level, stats=None):
    if stats is None:
        stats = merge.MergeStats()
    k_base, k_mine, k_theirs = (entry_key(base), entry_key(mine),
                                entry_key(theirs))
    if k_mine == k_base:
        stats.subtrees_skipped += 1
        return dag.retain_entry(mem, theirs)
    if k_theirs == k_base:
        stats.subtrees_skipped += 1
        return dag.retain_entry(mem, mine)
    memo = mem.memo
    memo_key = None
    if memo.enabled:
        memo_key = (k_base, k_mine, k_theirs, level)
        cached = memo.get_merge(memo_key)
        if cached is not MISS:
            stats.subtrees_skipped += 1
            return dag.retain_entry(mem, cached)
    if level == 0:
        stats.leaf_merges += 1
        b, m, t = (merge._leaf_view(mem, e) for e in (base, mine, theirs))
        words = [merge.three_way_merge_word(b[i], m[i], t[i])
                 for i in range(mem.words_per_line)]
        merged = dag._leaf_entry(mem, words)
    else:
        stats.levels_descended += 1
        bc = merge._children_view(mem, base, level)
        mc = merge._children_view(mem, mine, level)
        tc = merge._children_view(mem, theirs, level)
        children = []
        try:
            for j in range(mem.fanout):
                children.append(ref_merge_entries(mem, bc[j], mc[j], tc[j],
                                                  level - 1, stats))
        except MergeConflictError:
            for c in children:
                dag.release_entry(mem, c)
            raise
        merged = dag._canonical_interior(mem, children, level)
    if memo_key is not None:
        memo.put_merge(memo_key, merged, (base, mine, theirs, merged))
    return merged


def ref_read_word(mem, entry, level, index):
    if index >= ref_capacity(mem, level):
        raise SegmentRangeError("index %d beyond height-%d capacity"
                                % (index, level))
    while True:
        if entry == 0:
            return 0
        if isinstance(entry, Inline):
            return entry.values[index] if index < len(entry.values) else 0
        for p in entry.path:
            child_span = ref_capacity(mem, level - 1)
            if index // child_span != p:
                return 0
            index %= child_span
            level -= 1
        line = mem.read(entry.plid)
        if level == 0:
            return line[index]
        child_span = ref_capacity(mem, level - 1)
        entry = line[index // child_span]
        index %= child_span
        level -= 1


def ref_visit(mem, entry, level, base, lo, hi):
    """Per-level range walk shared by the gather/iterate references:
    yields ``(pos, word)`` for every non-zero word in ``[lo, hi)``."""
    if entry == 0:
        return
    span = ref_capacity(mem, level)
    if base + span <= lo or base >= hi:
        return
    if isinstance(entry, Inline):
        for k, v in enumerate(entry.values):
            if v and lo <= base + k < hi:
                yield base + k, v
        return
    for p in entry.path:
        span = ref_capacity(mem, level - 1)
        base += p * span
        level -= 1
        if base + span <= lo or base >= hi:
            return
    line = mem.read(entry.plid)
    if level == 0:
        for k in range(mem.words_per_line):
            if line[k] != 0 and lo <= base + k < hi:
                yield base + k, line[k]
        return
    child_span = ref_capacity(mem, level - 1)
    for j in range(mem.fanout):
        yield from ref_visit(mem, line[j], level - 1, base + j * child_span,
                             lo, hi)


def ref_gather_words(mem, entry, level, start, count):
    out = [0] * count
    if count <= 0:
        return out
    if start + count > ref_capacity(mem, level):
        raise SegmentRangeError("range [%d, %d) beyond capacity"
                                % (start, start + count))
    for pos, word in ref_visit(mem, entry, level, 0, start, start + count):
        out[pos - start] = word
    return out


def ref_iter_nonzero(mem, entry, level, start=0, stop=None):
    limit = ref_capacity(mem, level) if stop is None else stop
    return ref_visit(mem, entry, level, 0, start, limit)


REFERENCE = {
    (dag, "write_words_bulk"): ref_write_words_bulk,
    (dag, "grow_entry"): ref_grow_entry,
    (dag, "read_word"): ref_read_word,
    (dag, "gather_words"): ref_gather_words,
    (dag, "iter_nonzero"): ref_iter_nonzero,
    (merge, "merge_entries"): ref_merge_entries,
}


# ----------------------------------------------------------------------
# the op stream

def _machine(path, data, memo, index, reclaim):
    machine = Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=16, num_buckets=1 << 10,
                            data_ways=12, overflow_lines=1 << 16,
                            index_kind=index, index_buckets=1 << 4,
                            reclaim_kind=reclaim),
        cache=CacheGeometry(size_bytes=16 * 1024, ways=8, line_bytes=16),
        path_compaction=path, data_compaction=data))
    if memo:
        machine.mem.memo.enable()
    return machine


def _key(rng):
    # tiny keys are compacted roots: they index the wide slot space,
    # whose chains run past level 64 at this geometry
    if rng.random() < 0.3:
        return b"%d" % rng.randrange(30)
    return b"key-%04d-%s" % (rng.randrange(40), b"x" * rng.randrange(12))


def _value(rng):
    if rng.random() < 0.3:
        return bytes([rng.randrange(1, 8)])  # packs inline
    return b"value-%06d" % rng.randrange(1000)


def _interleave(kvp, rng):
    """Two or three put_steps clients inside one update window: every
    commit after the first loses its CAS and merges (or retries on a
    true conflict)."""
    gens = [kvp.put_steps(_key(rng), _value(rng))
            for _ in range(rng.randrange(2, 4))]
    for g in gens:
        next(g)
    rng.shuffle(gens)
    for g in gens:
        while True:
            try:
                next(g)
            except StopIteration:
                break


def _scripted(machine, kvp, segs):
    """The cases the jump has to get exactly right."""
    far = segs[0]
    # a deep compacted chain, then a write that diverges inside it
    machine.write_word(far, (1 << 40) + 7, 1 << 50)
    machine.write_word(far, (1 << 40) + (1 << 30) + 7, 3 << 50)
    # an inline pack off the leftmost spine (level-1 combine, then the
    # materialized line under the remaining run)
    machine.write_word(far, (1 << 38) + 3, 5)
    machine.write_word(far, (1 << 38) + 2, 6)
    machine.write_word(far, 3, 7)  # inline on the leftmost spine
    # deleting the last key of a subtree collapses its chain to zero
    kvp.put(b"solo", b"v" * 20)
    kvp.delete(b"solo")
    machine.write_word(far, (1 << 38) + 3, 0)
    machine.write_word(far, (1 << 38) + 2, 0)


def _drive(machine, seed, n_ops):
    rng = random.Random(seed)
    kvp = HMap.create(machine)
    segs = [machine.create_segment([rng.randrange(1, 1 << 62)
                                    for _ in range(rng.randrange(1, 9))])
            for _ in range(3)]
    _scripted(machine, kvp, segs)
    model: Dict[int, Dict[int, int]] = {vsid: {} for vsid in segs}
    reads: List = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30:
            kvp.put(_key(rng), _value(rng))
        elif roll < 0.45:
            kvp.delete(_key(rng))
        elif roll < 0.55:
            kvp.put_many([(_key(rng), _value(rng))
                          for _ in range(rng.randrange(2, 6))])
        elif roll < 0.70:
            _interleave(kvp, rng)
        elif roll < 0.90:
            vsid = rng.choice(segs)
            offset = rng.randrange(1 << rng.choice((3, 12, 30, 40)))
            value = rng.choice((0, rng.randrange(1, 256),
                                rng.randrange(1, 1 << 63)))
            machine.write_word(vsid, offset, value)
            model[vsid][offset] = value
        else:
            vsid = rng.choice(segs)
            if model[vsid]:
                offset = rng.choice(sorted(model[vsid]))
                reads.append(machine.read_word(vsid, offset))
            reads.append(kvp.get(_key(rng)))
    reads.append(sorted(kvp.items()))
    with machine.snapshot(segs[0]) as snap:
        reads.append(list(snap.iter_nonzero(start=1)))
    # drop everything but one segment: the collapse path of the chains
    kvp.drop()
    for vsid in segs[1:]:
        machine.drop_segment(vsid)
    return segs[0], reads


def _observe(machine, vsid, reads):
    machine.drain()
    store = machine.mem.store
    entry = machine.segmap.entry(vsid)
    return {
        "root": (entry.root, entry.height, entry.length),
        "refcounts": {p: store.refcount(p) for p in store.live_plids()},
        "dram": machine.dram.as_dict(),
        "footprint": machine.footprint_lines(),
        "reads": reads,
    }


def _run(config, seed, n_ops, reference, monkeypatch):
    machine = _machine(*config)
    with monkeypatch.context() as patch:
        if reference:
            for (module, name), fn in REFERENCE.items():
                patch.setattr(module, name, fn)
        vsid, reads = _drive(machine, seed, n_ops)
    return _observe(machine, vsid, reads)


MATRIX = list(itertools.product((True, False), (True, False), (False, True),
                                ("legacy", "cuckoo"),
                                ("immediate", "epoch")))


@pytest.mark.parametrize(
    "config", MATRIX,
    ids=["path%d-data%d-memo%d-%s-%s" % (p, d, m, i, r)
         for p, d, m, i, r in MATRIX])
def test_jump_matches_per_level_reference(config, monkeypatch):
    seed = MATRIX.index(config)
    jumped = _run(config, seed, 110, False, monkeypatch)
    reference = _run(config, seed, 110, True, monkeypatch)
    assert jumped["reads"] == reference["reads"]
    assert jumped["root"] == reference["root"]
    assert jumped["refcounts"] == reference["refcounts"]
    assert jumped["dram"] == reference["dram"]
    assert jumped["footprint"] == reference["footprint"]


def test_merge_stats_match_reference():
    """The section 5.1.1 work accounting counts the run levels the merge
    no longer visits one by one."""
    machine = _machine(True, True, False, "legacy", "immediate")
    mem = machine.mem
    height = 24
    base = dag.write_words_bulk(mem, 0, height, {5: 1 << 40})
    outs = []
    for merge_fn in (merge.merge_entries, ref_merge_entries):
        mine = dag.write_word(mem, dag.retain_entry(mem, base), height,
                              (1 << 30) + 4, 9 << 40)
        theirs = dag.write_word(mem, dag.retain_entry(mem, base), height,
                                (1 << 30) + 5, 8 << 40)
        stats = merge.MergeStats()
        merged = merge_fn(mem, base, mine, theirs, height, stats)
        outs.append((merged, stats))
        for e in (mine, theirs):
            dag.release_entry(mem, e)
    assert outs[0] == outs[1]
    assert outs[0][1].levels_descended + outs[0][1].leaf_merges == height + 1
    for merged, _ in outs:
        dag.release_entry(mem, merged)
    dag.release_entry(mem, base)
    assert mem.footprint_lines() == 0


def test_level_table_extends_past_preset():
    machine = _machine(True, True, False, "legacy", "immediate")
    mem = machine.mem
    for level in (0, 1, 63, 64, 200):
        assert dag.entry_capacity(mem, level) == ref_capacity(mem, level)
    assert dag.height_for(mem, 1 << 300) == next(
        h for h in itertools.count() if ref_capacity(mem, h) >= 1 << 300)


# ----------------------------------------------------------------------
# the cost model

def _real_lines(mem, entry, level, offset, seen):
    """Add the lines on the path to ``offset`` to ``seen`` (uncharged)."""
    if offset >= ref_capacity(mem, level):
        return  # past the map's height: the put grows it first
    while isinstance(entry, PlidRef):
        for p in entry.path:
            span = ref_capacity(mem, level - 1)
            if offset // span != p:
                return
            offset %= span
            level -= 1
        seen.add(entry.plid)
        if level == 0:
            return
        span = ref_capacity(mem, level - 1)
        entry = mem.store.peek(entry.plid)[offset // span]
        offset %= span
        level -= 1


@pytest.fixture
def counted(monkeypatch):
    counts = {"calls": 0}
    for name in ("_canonical_interior", "_expand_children"):
        real = getattr(dag, name)

        def counting(*args, _real=real):
            counts["calls"] += 1
            return _real(*args)

        monkeypatch.setattr(dag, name, counting)
    return counts


@pytest.mark.parametrize("tiny_keys", [False, True],
                         ids=["plid-slots", "wide-slots"])
def test_put_and_delete_cost_tracks_real_lines(counted, tiny_keys):
    machine = Machine(MachineConfig(memory=MemoryConfig(
        index_kind="cuckoo", reclaim_kind="epoch")))
    machine.mem.memo.enable()
    kvp = HMap.create(machine)
    if tiny_keys:
        # compacted key roots: slots far up the wide index space, where
        # the chains below the shared lines are 50-70 levels long
        keys = [b"%d" % i for i in range(2000)]
    else:
        keys = [b"key-%06d" % i for i in range(2000)]
    kvp.put_many([(k, b"v" * 24) for k in keys])
    height = machine.segmap.entry(kvp.vsid).height
    probes = [b"new-%d" % i for i in range(20)] if not tiny_keys \
        else [b"%d" % i for i in range(5000, 5020)]
    worst = 0
    for key in probes + keys[:20]:
        for op in ("put", "delete"):
            entry = machine.segmap.entry(kvp.vsid)
            _, base = kvp._key_segment(key)
            touched = set()
            for offset in (COUNT_OFFSET, base, base + 3):
                _real_lines(machine.mem, entry.root, entry.height, offset,
                            touched)
            counted["calls"] = 0
            if op == "put":
                kvp.put(key, b"w" * 24)
            else:
                kvp.delete(key)
            bound = 2 * len(touched) + 8
            assert counted["calls"] <= bound, (
                "%s of %r took %d calls for %d real lines (height %d)"
                % (op, key, counted["calls"], len(touched), height))
            worst = max(worst, counted["calls"])
    # far fewer than the per-level walk's two calls per level
    assert worst < height
