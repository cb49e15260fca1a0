"""The composed HICAMP memory system: deduplicating DRAM behind the
HICAMP cache.

This is the interface the rest of the simulator programs against. It
exposes the architecture's two fundamental operations plus hardware
reference counting:

* :meth:`MemorySystem.read` — line by PLID;
* :meth:`MemorySystem.lookup` — find-or-allocate by content (the returned
  reference is counted);
* :meth:`MemorySystem.incref` / :meth:`MemorySystem.decref` — reference
  management, with recursive deallocation handled by the store.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.cache import HicampCache
from repro.memory.dedup_store import DedupStore
from repro.memory.line import Line, zero_line
from repro.memory.stats import DramStats
from repro.params import MachineConfig

#: levels precomputed in the level table (level 63 addresses 2**127 words
#: at the default geometry; deeper levels are appended on demand)
_PRESET_LEVELS = 64


class MemorySystem:
    """Deduplicated DRAM + HICAMP cache, with unified traffic accounting."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.store = DedupStore(self.config.memory,
                                verify_reads=self.config.memory.verify_reads)
        self.cache = HicampCache(self.store, self.config.cache)
        self._zero = zero_line(self.config.memory.words_per_line)
        words, fan = self.words_per_line, self.fanout
        self._levels: List[int] = [words * fan ** level
                                   for level in range(_PRESET_LEVELS)]

    # ------------------------------------------------------------------

    @property
    def words_per_line(self) -> int:
        """Data words per leaf line."""
        return self.config.memory.words_per_line

    @property
    def fanout(self) -> int:
        """Child entries per interior line (the DAG fan-out)."""
        return self.config.memory.fanout

    def levels(self, level: int) -> List[int]:
        """The level table, covering at least ``level``.

        ``levels(h)[l]`` is the word capacity of a DAG entry at level
        ``l`` (``words_per_line * fanout ** l``) for every ``l <= h``,
        so the DAG walks index it instead of raising big-int powers.
        Deep levels (sparse map slots reach past level 64) are appended
        on demand; growth rebinds a fresh list, so a reader holding the
        old table still sees correct values.
        """
        table = self._levels
        if level >= len(table):
            grown = list(table)
            while len(grown) <= level:
                grown.append(grown[-1] * self.fanout)
            self._levels = table = grown
        return table

    @property
    def line_bytes(self) -> int:
        """Line size in bytes."""
        return self.config.memory.line_bytes

    @property
    def dram(self) -> DramStats:
        """Off-chip DRAM access counters (the paper's headline metric)."""
        return self.store.stats

    @property
    def memo(self):
        """The store's structural memo (:mod:`repro.memory.memo`).

        Disabled by default so modeled statistics are untouched; the
        serving stack enables it for host-level speed.
        """
        return self.store.memo

    def dram_probe(self):
        """Context manager capturing the DRAM-access delta of a block.

        The observability layer's attribution primitive::

            with mem.dram_probe() as probe:
                kvp.put(key, value)
            probe.delta  # a DramStats of just this operation's traffic

        Deferred traffic (cache writebacks, RC evictions) lands when it
        reaches DRAM, not necessarily inside the probed block — call
        :meth:`drain` first for exact per-operation attribution.
        """
        from repro.obs.trace import DramProbe
        return DramProbe(self.dram)

    def read(self, plid: int) -> Line:
        """Read a line by PLID through the cache."""
        return self.cache.read(plid)

    def lookup(self, line: Line) -> int:
        """Find-or-allocate a line by content; the reference is counted."""
        return self.cache.lookup(line)

    def incref(self, plid: int, count: int = 1) -> None:
        """Add references to a line (a PLID value was copied/stored)."""
        self.store.incref(plid, count)

    def decref(self, plid: int, count: int = 1) -> None:
        """Drop references; lines reaching zero are recursively freed."""
        self.store.decref(plid, count)

    def refcount(self, plid: int) -> int:
        """Current reference count of a line."""
        return self.store.refcount(plid)

    def zero(self) -> Line:
        """The all-zero line for this geometry."""
        return self._zero

    # ------------------------------------------------------------------
    # replication surface

    def has_line(self, plid: int) -> bool:
        """True when ``plid`` names an allocated line (known-PLID test)."""
        return self.store.is_allocated(plid)

    def export_line(self, plid: int) -> Line:
        """A line's content for shipping to another machine (uncharged)."""
        return self.store.export_line(plid)

    def install_line(self, line: Line) -> "tuple[int, bool]":
        """Install a received line by content; returns ``(plid, created)``.

        Idempotent: already-present content dedups to its existing PLID.
        The returned reference is counted and owned by the caller.
        """
        return self.store.install_line(line)

    # ------------------------------------------------------------------

    def footprint_lines(self) -> int:
        """Unique allocated lines in DRAM."""
        return self.store.footprint_lines()

    def footprint_bytes(self) -> int:
        """Bytes of DRAM consumed by unique lines."""
        return self.store.footprint_bytes()

    def drain(self) -> None:
        """Flush caches so all deferred traffic reaches the DRAM counters.

        Call at the end of a measured run before reading :attr:`dram`.
        Quiesces the epoch reclaimer first (a no-op under ``immediate``
        reclamation), so every observer that drains before looking —
        machine auditors, HI fingerprints, persistence images — sees
        quiesced, immediate-equivalent state. The quiesce runs before
        the cache flush so dealloc listeners can invalidate cached
        copies of freed lines before they would be written back.
        """
        self.store.reclaim_quiesce()
        self.cache.flush()
        self.store.flush_rc_cache()
