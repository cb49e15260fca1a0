"""Canonical segment DAGs (section 2.2) with path and data compaction
(section 3.2, Figure 4).

A segment's content is a sequence of 64-bit words. It is represented as a
DAG of lines: leaf lines hold ``line_bytes/8`` data words; interior lines
hold ``line_bytes/plid_bytes`` tagged child entries (the paper sizes
PLIDs at 32 bits, so a 16-byte line holds four child references). The
representation is **canonical** — leaves fill left to right, all-zero
subtrees collapse to the zero PLID, and both compactions are applied
greedily by deterministic rules — so any two segments with equal content
share the same root entry (the content-uniqueness property that makes
root-PLID comparison a full content compare).

An *entry* denotes a subtree at a known level and is one of:

* ``0`` — the all-zero subtree;
* :class:`~repro.memory.line.Inline` — data compaction: the subtree's
  (trimmed) words packed into a single entry slot;
* :class:`~repro.memory.line.PlidRef` — a reference to a line, whose
  ``path`` carries the way positions of elided single-child interior
  nodes (path compaction).

At level ``L`` an entry spans ``leaf_words * fanout**L`` words (read from
the memory system's level table); a segment of height ``h`` is the entry
at level ``h``.

A *single-child run* is a stretch of levels where a subtree has one
child to go to: the entry is ``0``, a ``PlidRef`` whose path continues
into that child, or an ``Inline`` that fits the leftmost child. No real
line sits on a run, so the rebuild, the merge and the reads cross it
without expanding it, and re-wrapping a result below a run
(:func:`_wrap_run`) yields the canonical entry directly. The walks then
cost one step per real line on the touched paths plus the lines an
update changes, not one step per level.

Reference-count contract: every function that *returns* an entry returns
it with one caller-owned reference on its PLID (if any); every function
that *consumes* entries consumes the caller's references on them.
:func:`release_entry` drops a caller reference; the store then cascades.
"""

from __future__ import annotations

import hashlib
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SegmentRangeError
from repro.memory.line import Inline, Line, PlidRef, ZERO_PLID, encode_word
from repro.memory.system import MemorySystem

Entry = object  # 0 | Inline | PlidRef

_INLINE_WIDTHS = (1, 2, 4, 8)


def entry_capacity(mem: MemorySystem, level: int) -> int:
    """Words addressable by a subtree entry at ``level``."""
    return mem.levels(level)[level]


def height_for(mem: MemorySystem, length: int) -> int:
    """Minimal height whose capacity covers ``length`` words."""
    height = 0
    while entry_capacity(mem, height) < length:
        height += 1
    return height


def _trim(words: Sequence) -> Tuple:
    """Drop trailing zero words (canonical form for inline packing)."""
    n = len(words)
    while n and words[n - 1] == 0:
        n -= 1
    return tuple(words[:n])


def _inline_for(words: Sequence) -> Optional[Inline]:
    """Try to pack a subtree's words into one Inline entry (Figure 4b).

    Qualifies when the trimmed words are all plain data and fit a common
    width ``w`` with ``len * w <= 8`` bytes. Returns None when the subtree
    does not pack (tagged reference words are never inlined).
    """
    vals = _trim(words)
    if not vals:
        return None
    if any(not isinstance(v, int) for v in vals):
        return None
    biggest = max(vals)
    for width in _INLINE_WIDTHS:
        if len(vals) * width > 8:
            break
        if biggest < (1 << (8 * width)):
            return Inline(width=width, values=vals, span=len(vals))
    return None


def retain_entry(mem: MemorySystem, entry: Entry) -> Entry:
    """Take an extra caller reference on an entry (no-op for 0/Inline)."""
    if isinstance(entry, PlidRef):
        mem.incref(entry.plid)
    return entry


def release_entry(mem: MemorySystem, entry: Entry) -> None:
    """Drop a caller reference on an entry (no-op for 0/Inline)."""
    if isinstance(entry, PlidRef):
        mem.decref(entry.plid)


def entry_key(entry: Entry) -> bytes:
    """Canonical byte key of an entry — equal iff the subtrees are equal.

    This is what hardware compares when it compares two root PLIDs; the
    byte form also covers compacted (Inline / path-carrying) roots.
    """
    if entry == 0:
        return b"Z"
    return encode_word(entry)


# ----------------------------------------------------------------------
# building

def _interned_lookup(mem: MemorySystem, line: Line) -> int:
    """Find-or-allocate a line, consulting the structural memo first.

    A memo hit performs exactly the reference bump the dedup-hit path
    would (the PLID's count goes up by one either way), so reference
    counting stays exact; what it skips is the host-side encode/hash/
    bucket walk — and the modeled lookup charge, which is why the memo
    is off by default (see :mod:`repro.memory.memo`).
    """
    memo = mem.memo
    if not memo.enabled:
        return mem.lookup(line)
    plid = memo.get_line(line)
    if plid is not None:
        mem.incref(plid)
        return plid
    plid = mem.lookup(line)
    memo.put_line(line, plid)
    return plid


def _leaf_entry(mem: MemorySystem, words: Sequence) -> Entry:
    """Canonical entry for one leaf-line span of words."""
    vals = _trim(words)
    if not vals:
        return 0
    if mem.config.data_compaction:
        inline = _inline_for(vals)
        if inline is not None:
            return inline
    w = mem.words_per_line
    line: Line = tuple(words) + (0,) * (w - len(words))
    plid = _interned_lookup(mem, line)
    return PlidRef(plid)


def _canonical_interior(mem: MemorySystem, children: List[Entry], level: int) -> Entry:
    """Canonical entry over ``fanout`` child entries at level ``level - 1``.

    Consumes the caller's references on PLID children; returns an entry
    carrying one caller reference.
    """
    nonzero = [(i, c) for i, c in enumerate(children) if c != 0]
    if not nonzero:
        return 0
    # Data compaction: all children already packed (0/Inline) and the
    # combined trimmed words still fit one entry slot.
    if mem.config.data_compaction and all(
            isinstance(c, Inline) for _, c in nonzero):
        child_span = entry_capacity(mem, level - 1)
        last_idx, last_child = nonzero[-1]
        combined_len = last_idx * child_span + len(last_child.values)
        if combined_len <= 8:  # cheap pre-filter before expanding
            # Children past the last non-zero one contribute nothing, and
            # the pre-filter guarantees the expanded prefix stays tiny.
            combined: List[int] = []
            for c in children[:last_idx]:
                if c == 0:
                    combined.extend([0] * child_span)
                else:
                    vals = list(c.values)
                    combined.extend(vals + [0] * (child_span - len(vals)))
            combined.extend(last_child.values)  # no trailing padding needed
            inline = _inline_for(combined)
            if inline is not None:
                return inline
    # Path compaction: a single non-zero child that is a line reference.
    if (mem.config.path_compaction and len(nonzero) == 1
            and isinstance(nonzero[0][1], PlidRef)):
        idx, child = nonzero[0]
        return PlidRef(child.plid, (idx,) + child.path)
    # Materialize the interior line.
    line: Line = tuple(children)
    plid = _interned_lookup(mem, line)
    for _, c in nonzero:
        if isinstance(c, PlidRef):
            mem.decref(c.plid)
    return PlidRef(plid)


def build_entry(mem: MemorySystem, words: Sequence, level: int) -> Entry:
    """Build the canonical entry for ``words`` as a subtree at ``level``."""
    if level == 0:
        return _leaf_entry(mem, words)
    child_span = entry_capacity(mem, level - 1)
    children: List[Entry] = []
    for j in range(mem.fanout):
        chunk = words[j * child_span:(j + 1) * child_span]
        children.append(build_entry(mem, chunk, level - 1) if len(chunk) else 0)
    return _canonical_interior(mem, children, level)


def build_segment(mem: MemorySystem, words: Sequence) -> Tuple[Entry, int]:
    """Build a whole segment; returns ``(root_entry, height)``.

    The height is minimal for the content length, and the root entry
    carries one caller reference.
    """
    height = height_for(mem, max(1, len(words)))
    return build_entry(mem, words, height), height


def _wrap_run(mem: MemorySystem, entry: Entry, level: int,
              run: Sequence[int]) -> Entry:
    """Hang ``entry`` (a subtree at ``level``) below a single-child run.

    ``run`` lists the child positions of the elided levels, top-down;
    the result is the canonical entry at ``level + len(run)`` whose only
    non-zero content is ``entry`` at those positions. That is what
    :func:`_canonical_interior` gives applied once per level with zero
    siblings, taken in one step wherever the outcome is known: ``0``
    stays ``0``, a line reference takes the run as its path prefix
    (under path compaction), and an inline pack on the leftmost spine
    comes back unchanged. Only a pack off the leftmost spine, or a
    reference without path compaction, goes through
    :func:`_canonical_interior` level by level, materializing the lines
    the canonical form needs. Consumes the caller's reference on
    ``entry``; returns the result with one caller reference.
    """
    k = len(run)
    while k:
        if type(entry) is PlidRef:
            if mem.config.path_compaction:
                return PlidRef(entry.plid, tuple(run[:k]) + entry.path)
        elif not entry:
            return 0
        elif mem.config.data_compaction and not any(run[:k]):
            return entry
        k -= 1
        level += 1
        children: List[Entry] = [0] * mem.fanout
        children[run[k]] = entry
        entry = _canonical_interior(mem, children, level)
    return entry


def grow_entry(mem: MemorySystem, entry: Entry, height: int, new_height: int) -> Entry:
    """Raise a segment's height (content unchanged; capacity grows).

    Consumes the caller's reference on ``entry``; this is the "DAG simply
    extended with additional lines" growth of section 4.1: the old root
    becomes the leftmost child of a single-child run.
    """
    return _wrap_run(mem, entry, height, (0,) * (new_height - height))


# ----------------------------------------------------------------------
# reading

def read_word(mem: MemorySystem, entry: Entry, level: int, index: int):
    """Read the word at ``index`` within a subtree at ``level``.

    Returns a plain data ``int`` or, for segments that store references in
    their leaves (e.g. a map of value-segment roots), a tagged
    :class:`PlidRef` word.
    """
    if index >= entry_capacity(mem, level):
        raise SegmentRangeError("index %d beyond height-%d capacity" % (index, level))
    levels = mem.levels(level)
    while True:
        if type(entry) is not PlidRef:
            if not entry:
                return 0
            return entry.values[index] if index < len(entry.values) else 0
        path = entry.path
        if path:
            # cross the compacted path in one step: the elided levels
            # leave one target subtree, at a fixed offset
            index -= _path_offset(levels, path, level)
            level -= len(path)
            if not 0 <= index < levels[level]:
                return 0
        line = mem.read(entry.plid)
        if level == 0:
            return line[index]
        level -= 1
        j, index = divmod(index, levels[level])
        entry = line[j]


def _path_offset(levels: List[int], path: Tuple[int, ...], level: int) -> int:
    """Words from the start of an entry at ``level`` to the target of
    its compacted ``path``: the elided single-child nodes place it at
    ``sum(path[i] * capacity(level - 1 - i))``."""
    return sum(map(mul, path, reversed(levels[level - len(path):level])))


def gather_words(mem: MemorySystem, entry: Entry, level: int,
                 start: int, count: int) -> List:
    """Read ``count`` consecutive words starting at ``start``.

    Descends each touched line once (as an iterator register's cached
    path would), not once per word.
    """
    out = [0] * count
    if count <= 0:
        return out
    if start + count > entry_capacity(mem, level):
        raise SegmentRangeError("range [%d, %d) beyond capacity" % (start, start + count))

    levels = mem.levels(level)
    end = start + count

    def visit(entry: Entry, level: int, base: int) -> None:
        if not entry:
            return
        if base >= end or base + levels[level] <= start:
            return
        if type(entry) is not PlidRef:  # Inline
            for k, v in enumerate(entry.values):
                pos = base + k
                if start <= pos < end and v:
                    out[pos - start] = v
            return
        if entry.path:
            base += _path_offset(levels, entry.path, level)
            level -= len(entry.path)
            if base >= end or base + levels[level] <= start:
                return
        line = mem.read(entry.plid)
        if level == 0:
            for k in range(mem.words_per_line):
                pos = base + k
                if start <= pos < end:
                    word = line[k]
                    if word != 0:
                        out[pos - start] = word
            return
        child_span = levels[level - 1]
        for j in range(mem.fanout):
            visit(line[j], level - 1, base + j * child_span)

    visit(entry, level, 0)
    return out


def iter_nonzero(mem: MemorySystem, entry: Entry, level: int,
                 start: int = 0, stop: Optional[int] = None) -> Iterator[Tuple[int, object]]:
    """Yield ``(index, word)`` for each non-zero word, in index order.

    This is the hardware behaviour behind iterator-register increment:
    moving directly to the next non-null element, skipping zero subtrees
    without touching memory (section 3.3).
    """
    levels = mem.levels(level)
    limit = levels[level] if stop is None else stop

    def visit(entry: Entry, level: int, base: int) -> Iterator[Tuple[int, object]]:
        if not entry:
            return
        if base + levels[level] <= start or base >= limit:
            return
        if type(entry) is not PlidRef:  # Inline
            for k, v in enumerate(entry.values):
                pos = base + k
                if v and start <= pos < limit:
                    yield pos, v
            return
        if entry.path:
            base += _path_offset(levels, entry.path, level)
            level -= len(entry.path)
            if base + levels[level] <= start or base >= limit:
                return
        line = mem.read(entry.plid)
        if level == 0:
            for k in range(mem.words_per_line):
                word = line[k]
                pos = base + k
                if word != 0 and start <= pos < limit:
                    yield pos, word
            return
        child_span = levels[level - 1]
        for j in range(mem.fanout):
            child_base = base + j * child_span
            if child_base + child_span <= start or child_base >= limit:
                continue
            for item in visit(line[j], level - 1, child_base):
                yield item

    return visit(entry, level, 0)


# ----------------------------------------------------------------------
# writing

def _expand_children(mem: MemorySystem, entry: Entry, level: int) -> List[Entry]:
    """Expand an entry at ``level > 0`` into its ``fanout`` child entries.

    The returned child entries carry one caller reference each (so they
    can be fed back to :func:`_canonical_interior` uniformly).
    """
    fan = mem.fanout
    if entry == 0:
        return [0] * fan
    if isinstance(entry, Inline):
        child_span = entry_capacity(mem, level - 1)
        vals = list(entry.values)  # trailing zeros are implicit
        children = []
        for j in range(fan):
            lo = j * child_span
            chunk = _trim(vals[lo:lo + child_span]) if lo < len(vals) else ()
            children.append(_inline_for(chunk) if chunk else 0)
        return children
    if entry.path:
        j = entry.path[0]
        children: List[Entry] = [0] * fan
        child = PlidRef(entry.plid, entry.path[1:])
        children[j] = child  # inherits the caller's reference
        return children
    line = mem.read(entry.plid)
    children = list(line)
    for c in children:
        if isinstance(c, PlidRef):
            mem.incref(c.plid)
    # The caller's reference on the expanded line itself is released: the
    # children references above stand in for it during rebuilding.
    mem.decref(entry.plid)
    return children


def _expand_leaf(mem: MemorySystem, entry: Entry) -> List:
    """Expand a level-0 entry into its words.

    Consumes the caller's reference on the leaf line. Tagged reference
    words inside the leaf are returned with one caller-owned reference
    each (taken before the line reference is dropped, so a cascading
    deallocation cannot free them mid-rebuild).
    """
    w = mem.words_per_line
    if entry == 0:
        return [0] * w
    if isinstance(entry, Inline):
        return list(entry.values) + [0] * (w - len(entry.values))
    line = mem.read(entry.plid)
    words = list(line)
    for word in words:
        if isinstance(word, PlidRef):
            mem.incref(word.plid)
    mem.decref(entry.plid)
    return words


def write_word(mem: MemorySystem, entry: Entry, level: int,
               index: int, value) -> Entry:
    """Functional update: new canonical entry with ``index`` set to ``value``.

    Consumes the caller's reference on ``entry`` and returns the new entry
    with one caller reference. Unchanged subtrees are shared between the
    old and new DAG (copy-on-write, section 2.2).
    """
    return write_words_bulk(mem, entry, level, {index: value})


def write_words_bulk(mem: MemorySystem, entry: Entry, level: int,
                     updates: Dict[int, object]) -> Entry:
    """Apply many word updates in one canonical rebuild pass.

    This is what an iterator-register commit does: transient writes are
    accumulated and the affected paths are converted to content-unique
    lines bottom-up in a single sweep (section 3.3), amortizing the
    lookup-by-content cost over many writes.

    The work is one step per real line on the touched paths plus the
    lines the update changes, not one step per level: a *single-child
    run* — levels where every update falls into one child and the entry
    is ``0``, a line reference whose compacted path continues into that
    child, or an inline pack that fits the leftmost child — is descended
    by index arithmetic alone, with no expansion and no
    canonicalization, and the rebuilt subtree below it is re-wrapped
    with :func:`_wrap_run`.
    """
    if not updates:
        return entry
    cap = entry_capacity(mem, level)
    for index in updates:
        if not 0 <= index < cap:
            raise SegmentRangeError("write at %d beyond capacity %d" % (index, cap))
    levels = mem.levels(level)

    def apply(entry: Entry, level: int, updates: Dict[int, object]) -> Entry:
        # Peel the single-child run: ``off`` is the run's target offset
        # within this subtree, ``lo``/``hi`` the update range below it.
        run: List[int] = []
        off = 0
        if level:
            path = entry.path if type(entry) is PlidRef else None
            lo, hi = min(updates), max(updates)
            while level:
                span = levels[level - 1]
                j = lo // span
                if hi // span != j:
                    break
                if path is not None:
                    if len(run) == len(path) or path[len(run)] != j:
                        break
                elif entry and (j or len(entry.values) > span):
                    break  # an inline pack spilling past the leftmost child
                run.append(j)
                shift = j * span
                lo -= shift
                hi -= shift
                off += shift
                level -= 1
            if path and run:
                # the crossed prefix of the path is the run itself; the
                # reference (and the caller's count on it) carries on
                entry = PlidRef(entry.plid, path[len(run):])
        if level == 0:
            words = _expand_leaf(mem, entry)
            owned = {i for i, word in enumerate(words) if isinstance(word, PlidRef)}
            for i, v in updates.items():
                i -= off
                if i in owned:
                    mem.decref(words[i].plid)
                    owned.discard(i)
                words[i] = v
            new_entry = _leaf_entry(mem, words)
            # Release the expansion-owned references: the new leaf (if
            # materialized) took its own on creation.
            for i in owned:
                mem.decref(words[i].plid)
        else:
            child_span = levels[level - 1]
            by_child: Dict[int, Dict[int, object]] = {}
            for i, v in updates.items():
                j, i = divmod(i - off, child_span)
                by_child.setdefault(j, {})[i] = v
            children = _expand_children(mem, entry, level)
            for j, child_updates in by_child.items():
                children[j] = apply(children[j], level - 1, child_updates)
            new_entry = _canonical_interior(mem, children, level)
        return _wrap_run(mem, new_entry, level, run)

    return apply(entry, level, dict(updates))


# ----------------------------------------------------------------------
# inspection

def walk_lines(store, entry: Entry,
               skip: Optional[set] = None) -> Iterator[Tuple[int, Line]]:
    """Yield ``(plid, line)`` for every line reachable from ``entry``,
    children strictly before parents, each line exactly once.

    The traversal order is a pure function of the DAG content (children
    visited in word order, duplicates suppressed), so two machines
    holding the same canonical segment walk it in the same sequence —
    the replication layer relies on this both for delta shipping (a
    receiver installing lines in walk order always holds every child a
    line references) and for pairing PLID spaces across machines.

    ``skip`` names subtree roots to prune: a PLID in ``skip`` is neither
    yielded nor descended into (the delta engine passes the set of lines
    the receiver is known to hold — knowledge of a line implies
    knowledge of its whole subtree). Reads go through the store's
    ``peek``, charging no DRAM traffic.
    """
    if skip is None:
        skip = set()
    if not isinstance(entry, PlidRef) or entry.plid in skip:
        return
    seen = set()
    # iterative postorder: (plid, children_expanded) frames
    stack: List[List] = [[entry.plid, False]]
    while stack:
        frame = stack[-1]
        plid, expanded = frame
        if plid == ZERO_PLID or plid in seen or plid in skip:
            stack.pop()
            continue
        line = store.peek(plid)
        if expanded:
            stack.pop()
            seen.add(plid)
            yield plid, line
            continue
        frame[1] = True
        # push children in reverse word order so they pop in word order
        children = [w.plid for w in line if isinstance(w, PlidRef)]
        for child in reversed(children):
            if child != ZERO_PLID and child not in seen and child not in skip:
                stack.append([child, False])


def reachable_plids(store, entries: Iterable[Entry]) -> set:
    """The set of PLIDs reachable from the given root entries."""
    out = set()
    for entry in entries:
        for plid, _ in walk_lines(store, entry, skip=out):
            out.add(plid)
    return out


def content_fingerprint(store, entry: Entry,
                        memo: Optional[Dict[int, bytes]] = None) -> bytes:
    """Machine-independent digest of a subtree: equal iff the canonical
    structures are equal, regardless of how PLIDs were assigned.

    Within one machine, content uniqueness makes root comparison O(1);
    across machines PLID numbering differs, so replication compares
    roots by this digest instead — each PLID reference is replaced by
    its target's fingerprint, bottom-up. ``memo`` (plid → digest) makes
    repeated fingerprinting of overlapping DAGs linear overall.

    When no per-call ``memo`` is given and the store's structural memo
    is enabled, its machine-level digest cache is used instead: digests
    then persist across calls (replication delta pruning, convergence
    checks) and are invalidated through the store's dealloc listeners,
    so a reused PLID can never serve a stale digest.
    """
    tracker = None
    if memo is None:
        smemo = getattr(store, "memo", None)
        if smemo is not None and smemo.enabled:
            memo = smemo.digests
            tracker = smemo
        else:
            memo = {}

    def word_material(word) -> bytes:
        if isinstance(word, PlidRef):
            return b"P" + line_digest(word.plid) + bytes(word.path)
        return encode_word(word)

    def line_digest(plid: int) -> bytes:
        if plid == ZERO_PLID:
            return b"\x00" * 16
        cached = memo.get(plid)
        if tracker is not None:
            tracker.note_digest(cached is not None)
        if cached is not None:
            return cached
        # resolve children first, iteratively (DAGs can be deep). The
        # skip view is live: subtrees digested earlier in this very walk
        # are pruned too, not just ones memoized before the call.
        for child, _ in walk_lines(store, PlidRef(plid),
                                   skip=memo.keys()):
            material = b"".join(word_material(w)
                                for w in store.peek(child))
            memo[child] = hashlib.blake2b(material,
                                          digest_size=16).digest()
        return memo[plid]

    if entry == 0:
        return hashlib.blake2b(b"Z", digest_size=16).digest()
    material = word_material(entry)
    if tracker is not None:
        tracker.trim_digests()
    return hashlib.blake2b(material, digest_size=16).digest()


def segment_fingerprint(machine, vsid: int) -> bytes:
    """Digest of a whole mapped segment: root content + height + length.

    Two machines hold the same version of a replicated segment exactly
    when these digests match (the cross-machine analogue of the paper's
    O(1) root compare).
    """
    entry = machine.segmap.entry(vsid)
    root = content_fingerprint(machine.mem.store, entry.root)
    # sparse segments (HMap slots) have lengths past 2**64 — encode the
    # length as minimal big-endian bytes rather than a fixed field
    length = entry.length.to_bytes(max(1, (entry.length.bit_length() + 7)
                                       // 8), "big")
    material = root + bytes((entry.height,)) + length
    return hashlib.blake2b(material, digest_size=16).digest()


def count_unique_lines(mem: MemorySystem, entries: Iterable[Entry]) -> int:
    """Number of distinct lines reachable from the given root entries.

    Walks the DAGs without charging DRAM traffic (uses the store's
    ``peek``); used by footprint accounting.
    """
    seen = set()

    def visit(plid: int) -> None:
        if plid == ZERO_PLID or plid in seen:
            return
        seen.add(plid)
        for word in mem.store.peek(plid):
            if isinstance(word, PlidRef):
                visit(word.plid)

    for entry in entries:
        if isinstance(entry, PlidRef):
            visit(entry.plid)
    return len(seen)
