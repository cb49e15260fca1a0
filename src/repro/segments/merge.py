"""Merge-update (section 3.4).

When a CAS commit fails because another thread moved a segment's root,
a merge-update folds the loser's changes into the winner's version
instead of re-running the whole operation:

* for each line offset, compute the difference between the *original*
  (base) line and the *modified* (mine) line and apply it to the
  *current* (theirs) line — plain data words merge arithmetically, which
  makes concurrent counter increments sum;
* a PLID field must equal either the original or one side's value —
  two updates storing distinct PLIDs into the same field are a true
  conflict and the merge fails (:class:`MergeConflictError`);
* content-uniqueness lets the merge skip identical sub-DAGs with a single
  root compare, so the expected work is a short path from the root down
  to the (usually single) diverging subtree — the geometric-series
  latency argument of section 5.1.1;
* levels where all three sides are single-child subtrees on the same
  child (compacted paths, the zero subtree, the inline pack on the
  leftmost spine) hold no real line, so the merge descends them in one
  step and re-wraps the merged child (:func:`repro.segments.dag._wrap_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MergeConflictError
from repro.memory.line import Inline, PlidRef
from repro.memory.memo import MISS
from repro.memory.system import MemorySystem
from repro.params import WORD_MASK
from repro.segments import dag
from repro.segments.dag import Entry, entry_key


@dataclass
class MergeStats:
    """Work accounting for one merge (feeds the §5.1.1 latency model)."""

    levels_descended: int = 0
    subtrees_skipped: int = 0
    leaf_merges: int = 0


def three_way_merge_word(base, mine, theirs):
    """Merge one word under the section 3.4 rules.

    Data words merge by difference (``theirs + (mine - base)``) — always,
    even when both sides happen to hold the same value: two concurrent
    "+1"s must sum to "+2", so the diff rule takes precedence over value
    coincidence. Tagged reference words must match the base or one side
    (identical stores coalesce; distinct stores are a true conflict).
    """
    if mine == base:
        return theirs
    if theirs == base:
        return mine
    if (isinstance(base, int) and isinstance(mine, int)
            and isinstance(theirs, int)):
        return (theirs + mine - base) & WORD_MASK
    if mine == theirs:
        return mine  # identical reference stores coalesce
    raise MergeConflictError(
        "distinct references stored into the same field: %r / %r (base %r)"
        % (mine, theirs, base)
    )


def _leaf_view(mem: MemorySystem, entry: Entry) -> List:
    """Borrowed view of a level-0 entry's words (no reference changes)."""
    w = mem.words_per_line
    if entry == 0:
        return [0] * w
    if isinstance(entry, Inline):
        return list(entry.values) + [0] * (w - len(entry.values))
    return list(mem.read(entry.plid))


def _children_view(mem: MemorySystem, entry: Entry, level: int) -> List[Entry]:
    """Borrowed view of an interior entry's child entries."""
    fan = mem.fanout
    if entry == 0:
        return [0] * fan
    if isinstance(entry, Inline):
        child_span = dag.entry_capacity(mem, level - 1)
        vals = list(entry.values)  # trailing zeros are implicit
        out: List[Entry] = []
        for j in range(fan):
            lo = j * child_span
            chunk = dag._trim(vals[lo:lo + child_span]) if lo < len(vals) else ()
            sub = dag._inline_for(chunk) if chunk else None
            out.append(sub if sub is not None else 0)
        return out
    if entry.path:
        children: List[Entry] = [0] * fan
        children[entry.path[0]] = PlidRef(entry.plid, entry.path[1:])
        return children
    return list(mem.read(entry.plid))


def _shared_run(mem: MemorySystem, entries: Tuple[Entry, ...],
                level: int) -> List[int]:
    """Child positions of the single-child run the entries share.

    Descends while each entry is the zero subtree, a line reference
    whose compacted path continues into the same child as the others,
    or an inline pack that fits the leftmost child (and the others go
    leftmost too). The run stops above a real line, where paths
    diverge, or at the leaves.
    """
    levels = mem.levels(level)
    run: List[int] = []
    depth = 0
    while level:
        span = levels[level - 1]
        j = -1
        for e in entries:
            if type(e) is PlidRef:
                if depth == len(e.path):
                    return run
                c = e.path[depth]
            elif e:  # Inline
                if len(e.values) > span:
                    return run
                c = 0
            else:
                continue
            if j < 0:
                j = c
            elif c != j:
                return run
        if j < 0:
            return run
        run.append(j)
        depth += 1
        level -= 1
    return run


def _below_run(entry: Entry, depth: int) -> Entry:
    """The borrowed child ``depth`` levels down a shared run."""
    if type(entry) is PlidRef:
        return PlidRef(entry.plid, entry.path[depth:])
    return entry


def merge_entries(mem: MemorySystem, base: Entry, mine: Entry, theirs: Entry,
                  level: int, stats: MergeStats = None) -> Entry:
    """Three-way merge of same-height subtrees.

    Inputs are borrowed; the merged entry is returned with one
    caller-owned reference. Raises :class:`MergeConflictError` on a true
    data conflict (the whole merge then aborts — mCAS returns failure).
    """
    if stats is None:
        stats = MergeStats()
    k_base, k_mine, k_theirs = entry_key(base), entry_key(mine), entry_key(theirs)
    # Uniqueness of segments lets unchanged sub-DAGs be skipped by a
    # single root compare (section 3.4). Note the sound skips are the
    # one-side-unchanged cases; two sides that made the *same-looking*
    # change must still merge word-by-word, or two identical counter
    # increments would collapse into one. (For the same reason there is
    # deliberately no ``mine == theirs`` short-circuit here — the memo
    # below covers *repeated identical triples* soundly instead, since a
    # merge is a pure function of its three contents.)
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
            # content-unique entries make the key a full content triple;
            # retaining the cached result is refcount-identical to
            # re-deriving it (intermediate lookup hits cancel out)
            stats.subtrees_skipped += 1
            return dag.retain_entry(mem, cached)
    # The single-child run shared by all three sides: along it each
    # side's only child is the run's child, so none of the skips above
    # can fire below the top, and every sibling merge is a zero subtree
    # skip (counted as such, level by level).
    run = _shared_run(mem, (base, mine, theirs), level)
    if run:
        depth = len(run)
        base, mine, theirs = (_below_run(e, depth)
                              for e in (base, mine, theirs))
        level -= depth
        stats.levels_descended += depth
        stats.subtrees_skipped += depth * (mem.fanout - 1)
    if level == 0:
        stats.leaf_merges += 1
        b, m, t = (_leaf_view(mem, e) for e in (base, mine, theirs))
        words = [three_way_merge_word(b[i], m[i], t[i])
                 for i in range(mem.words_per_line)]
        merged = dag._leaf_entry(mem, words)
    else:
        stats.levels_descended += 1
        bc = _children_view(mem, base, level)
        mc = _children_view(mem, mine, level)
        tc = _children_view(mem, theirs, level)
        children: List[Entry] = []
        try:
            for j in range(mem.fanout):
                children.append(merge_entries(mem, bc[j], mc[j], tc[j],
                                              level - 1, stats))
        except MergeConflictError:
            for c in children:
                dag.release_entry(mem, c)
            raise
        merged = dag._canonical_interior(mem, children, level)
    if run:
        merged = dag._wrap_run(mem, merged, level, run)
    if memo_key is not None:
        # keyed at the run's top; the entries below it name the same PLIDs
        memo.put_merge(memo_key, merged, (base, mine, theirs, merged))
    return merged


def merge_roots(mem: MemorySystem,
                base: Tuple[Entry, int], mine: Tuple[Entry, int],
                theirs: Tuple[Entry, int],
                stats: MergeStats = None) -> Tuple[Entry, int]:
    """Merge whole segments whose heights may differ (after growth).

    Each argument is ``(root_entry, height)``, borrowed. Returns the
    merged ``(root, height)`` with a caller-owned reference.
    """
    height = max(base[1], mine[1], theirs[1])
    grown = []
    for root, h in (base, mine, theirs):
        dag.retain_entry(mem, root)
        grown.append(dag.grow_entry(mem, root, h, height))
    try:
        merged = merge_entries(mem, grown[0], grown[1], grown[2], height, stats)
    finally:
        for g in grown:
            dag.release_entry(mem, g)
    return merged, height
