"""Workload definitions and the seeded request stream.

A workload fixes the traffic mix, the key popularity, the value content
and the open-loop arrival rate. Everything a run sends is drawn from a
``random.Random`` seeded with the run's ``--seed`` and the hash of the
workload's parameters, so one seed always yields the same requests.

Sizes are set against the serving stack on a 2-core box, where one set
costs about 2.5 to 4.5 ms of server CPU and one get about 0.45 ms. Every
rate below keeps the server about a third busy in the open loop, where
queueing shows in the tail but does not swamp it. Every preload (1,000 keys)
fits the program's ``StructuralMemo`` (8,192 segments, 65,536 lines);
``write-unique`` grows past its line table within the run.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple



@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preload_keys: int
    #: keys are drawn from ``[0, key_space)``; sets may insert new keys
    key_space: int
    #: Zipf exponent of key popularity; 0 means uniform
    zipf_s: float
    #: gets draw from keys already written instead of the whole space
    gets_from_written: bool
    value_bytes: int
    #: ``padded`` (dedups to shared lines), ``entropy`` (every line
    #: unique) or ``pool`` (one of ``pool_size`` fixed values)
    value_kind: str
    pool_size: int
    #: gets+cas targets: the ``hot_keys`` most popular keys
    hot_keys: int
    #: open-loop arrivals per second (Poisson)
    rate: float
    #: op kind → share of arrivals
    mix: Tuple[Tuple[str, float], ...]
    #: closed-loop requests in flight per connection
    pipeline: int

    def param_hash(self) -> str:
        """Hash of every parameter; results compare only when equal."""
        doc = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(doc).hexdigest()[:16]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="read-hot",
        why="Zipf-skewed gets on a small hot set: per-request costs "
            "dominate and the commit path does little (bypass workload "
            "for commit-path work)",
        preload_keys=1000, key_space=1000, zipf_s=0.99,
        gets_from_written=False, value_bytes=100, value_kind="padded",
        pool_size=0, hot_keys=0, rate=400.0,
        mix=(("get", 0.90), ("set", 0.10)), pipeline=16),
    Workload(
        name="write-unique",
        why="sets of line-unique values on mostly new keys: DAG rebuild, "
            "dedup lookup misses and index growth dominate",
        preload_keys=1000, key_space=50000, zipf_s=0.0,
        gets_from_written=True, value_bytes=128, value_kind="entropy",
        pool_size=0, hot_keys=0, rate=100.0,
        mix=(("set", 0.60), ("get", 0.40)), pipeline=8),
    Workload(
        name="churn",
        why="pooled values, deletes and gets+cas on hot keys: dedup "
            "hits, refcounts dropping to zero, reclaim drains and true "
            "write conflicts",
        preload_keys=1000, key_space=1000, zipf_s=0.99,
        gets_from_written=False, value_bytes=96, value_kind="pool",
        pool_size=64, hot_keys=16, rate=110.0,
        mix=(("get", 0.30), ("set", 0.40),
             ("delete", 0.15), ("cas", 0.15)), pipeline=8),
)}


def key_name(index: int) -> bytes:
    return b"key:%06d" % index


def key_index(key: bytes) -> int:
    return int(key.split(b":")[1])


class KeyChooser:
    """Seeded key picker: Zipf over a shuffled rank order, or uniform."""

    def __init__(self, rng: random.Random, key_space: int,
                 zipf_s: float) -> None:
        self.rng = rng
        self.key_space = key_space
        self.order = list(range(key_space))
        rng.shuffle(self.order)
        self.cdf: Optional[List[float]] = None
        if zipf_s > 0:
            total, cdf = 0.0, []
            for rank in range(1, key_space + 1):
                total += rank ** -zipf_s
                cdf.append(total)
            self.cdf = [c / total for c in cdf]

    def pick(self) -> int:
        if self.cdf is None:
            return self.rng.randrange(self.key_space)
        rank = bisect.bisect_left(self.cdf, self.rng.random())
        return self.order[min(rank, self.key_space - 1)]

    def hot(self, count: int) -> List[int]:
        return self.order[:count]


@dataclass
class Op:
    kind: str
    key: bytes
    #: arrival time relative to the phase start, seconds (open loop)
    due: float = 0.0
    value: Optional[bytes] = None


class OpStream:
    """The seeded op generator for one workload and seed.

    Independent streams (the open loop, each closed-loop connection)
    take distinct ``stream`` numbers, so they never share draws.
    ``owner``/``owners`` restrict keys to ``index % owners == owner``,
    which keeps every key single-writer when two connections run.
    """

    def __init__(self, workload: Workload, seed: int, stream: int,
                 owner: int = 0, owners: int = 1,
                 written: Iterable[bytes] = ()) -> None:
        self.w = workload
        base = "%s/%d/%d" % (workload.param_hash(), seed, stream)
        self.rng = random.Random(base)
        # key popularity is shared by every stream of one seed
        self.keys = KeyChooser(random.Random("%s/%d/keys"
                                             % (workload.param_hash(), seed)),
                               workload.key_space, workload.zipf_s)
        self.owner, self.owners = owner, owners
        self.pool = make_pool(workload, seed)
        self.kinds = [k for k, _ in workload.mix]
        self.weights = [p for _, p in workload.mix]
        self.hot = self.keys.hot(max(workload.hot_keys, 1))
        self.written: List[int] = []
        self.written_set: Set[int] = set()
        self.seq = 0
        self.clock = 0.0
        self.stream = stream
        for key in written:
            index = key_index(key)
            if index % owners == owner:
                self.note_written(index)

    def note_written(self, index: int) -> None:
        if index not in self.written_set:
            self.written_set.add(index)
            self.written.append(index)

    def _owned(self, index: int) -> int:
        # move a key into this stream's residue class (a no-op when
        # there is one owner)
        index += (self.owner - index) % self.owners
        return index if index < self.w.key_space else index - self.owners

    def _key_index(self, kind: str) -> int:
        if kind == "cas":
            return self._owned(self.rng.choice(self.hot))
        if kind == "get" and self.w.gets_from_written \
                and self.written:
            return self.rng.choice(self.written)
        return self._owned(self.keys.pick())

    def value(self, index: int) -> bytes:
        self.seq += 1
        return make_value(self.w, self.rng, self.pool, index,
                          self.stream, self.seq)

    def next_op(self) -> Op:
        kind = self.rng.choices(self.kinds, self.weights)[0]
        index = self._key_index(kind)
        op = Op(kind=kind, key=key_name(index))
        if kind == "set":
            op.value = self.value(index)
            if self.w.gets_from_written:
                self.note_written(index)
        self.clock += self.rng.expovariate(self.w.rate)
        op.due = self.clock
        return op

    def cas_value(self, key: bytes) -> bytes:
        return self.value(key_index(key))

    def preload(self) -> Iterator[Op]:
        for index in range(self.w.preload_keys):
            if index % self.owners != self.owner:
                continue
            if self.w.gets_from_written:
                self.note_written(index)
            yield Op(kind="set", key=key_name(index),
                     value=self.value(index))


def make_pool(workload: Workload, seed: int) -> List[bytes]:
    rng = random.Random("%s/%d/pool" % (workload.param_hash(), seed))
    return [_hex(rng, workload.value_bytes)
            for _ in range(workload.pool_size)]


def _hex(rng: random.Random, size: int) -> bytes:
    return b"%0*x" % (size, rng.getrandbits(4 * size))


def make_value(workload: Workload, rng: random.Random, pool: List[bytes],
               index: int, stream: int, seq: int) -> bytes:
    if workload.value_kind == "pool":
        return rng.choice(pool)
    if workload.value_kind == "entropy":
        return _hex(rng, workload.value_bytes)
    head = b"v%d.%d.%d." % (index, stream, seq)
    return head.ljust(workload.value_bytes, b".")
