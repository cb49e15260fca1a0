"""Spans around calls into the program's layers, and their arithmetic.

:class:`Tracer` wraps a function so that each call records one span:
``(id, parent, name, shard, duration, child time, value)``. Durations
are thread CPU time, so the spans of the serving thread never cover more
than the process's CPU time and ``other`` (CPU not covered by any span)
is never negative. Coroutine and generator functions are timed step by
step: the time a coroutine sits suspended in ``await`` is not its own,
and the steps of other tasks that run meanwhile are not its children.

A span's *self* time is its duration minus the time its child spans
cover. Self times partition the top-level spans, so the self times of
all spans plus ``other`` add up to the process CPU time.

The wrappers are installed by :func:`install` and removed by
:func:`uninstall`; with them removed the program runs its own code
unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: fields of one recorded span, in storage order
FIELDS = ("id", "parent", "name", "shard", "dur", "child", "value")


class Tracer:
    """Records spans into flat integer arrays (seven fields per span)."""

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.data = array("q")
        self._stack: List[list] = []
        self._next_id = 1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # a live span is a list: [id, parent, name, shard, dur, child, value,
    # step start]; the stack holds the spans whose step is running now
    def open(self, name_id: int, shard: int = -1) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if shard < 0 and parent is not None:
            shard = parent[3]
        span = [self._next_id, parent[0] if parent is not None else 0,
                name_id, shard, 0, 0, 0, 0]
        self._next_id += 1
        return span

    def enter(self, span: list) -> None:
        self._stack.append(span)
        span[7] = self.clock()

    def leave(self, span: list) -> None:
        elapsed = self.clock() - span[7]
        span[4] += elapsed
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][5] += elapsed

    def close(self, span: list) -> None:
        self.data.extend(span[:7])

    def spans(self) -> List[Tuple[int, ...]]:
        return unflatten(self.data)

    def dump(self) -> Dict:
        return {"names": self.names, "fields": list(FIELDS),
                "data": list(self.data)}


def unflatten(data: Sequence[int]) -> List[Tuple[int, ...]]:
    """Recorded spans as tuples of :data:`FIELDS`."""
    n = len(FIELDS)
    return [tuple(data[i:i + n]) for i in range(0, len(data), n)]


# ----------------------------------------------------------------------
# wrappers


def wrap(tracer: Tracer, name: str, fn: Callable,
         value: Optional[Callable] = None,
         shard_arg: Optional[int] = None) -> Callable:
    """A traced stand-in for ``fn``.

    ``value(args, kwargs, result)`` computes the span's integer value
    (frames decoded, hit or miss, lines shipped...); ``shard_arg`` is
    the positional index of a shard argument the span should carry.
    """
    nid = tracer.name_id(name)

    def shard_of(args) -> int:
        if shard_arg is not None and len(args) > shard_arg:
            return int(args[shard_arg])
        return -1

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        def coro_wrapper(*args, **kwargs):
            return _TimedAwaitable(tracer, nid, shard_of(args),
                                   fn(*args, **kwargs))
        return coro_wrapper

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = tracer.open(nid, shard_of(args))
            sent = None
            try:
                while True:
                    tracer.enter(span)
                    try:
                        item = inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.leave(span)
                    sent = yield item
            finally:
                tracer.close(span)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(nid, shard_of(args))
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(span)
            tracer.close(span)
        if value is not None:
            span_value = value(args, kwargs, result)
            tracer.data[-1] = int(span_value)
        return result
    return wrapper


class _TimedAwaitable:
    """Drives a coroutine one step at a time, timing each step."""

    __slots__ = ("tracer", "nid", "shard", "coro")

    def __init__(self, tracer: Tracer, nid: int, shard: int, coro) -> None:
        self.tracer, self.nid, self.shard, self.coro = \
            tracer, nid, shard, coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        span = tracer.open(self.nid, self.shard)
        sent, thrown = None, None
        try:
            while True:
                tracer.enter(span)
                try:
                    if thrown is not None:
                        item = coro.throw(thrown)
                    else:
                        item = coro.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer.leave(span)
                try:
                    sent, thrown = (yield item), None
                except BaseException as exc:  # relayed into the coroutine
                    sent, thrown = None, exc
        finally:
            tracer.close(span)


# ----------------------------------------------------------------------
# installation: replace every reference the program holds


def _owner_targets(target: str):
    """Resolve ``module:Class.attr`` or ``module:func`` to (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        owner = __import__(module_name, fromlist=["_"])
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """The set of patches applied by :func:`install`, for undoing."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, specs: Sequence[Tuple]) -> Installation:
    """Patch each ``(name, target, value, shard_arg)`` spec.

    Class attributes are patched on the class. Module functions are
    patched in their module and in every loaded ``repro`` module that
    imported them by name.
    """
    done = Installation()
    for name, target, value, shard_arg in specs:
        owner, attr = _owner_targets(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrap(tracer, name, raw.__func__, value,
                                       shard_arg))
        else:
            wrapped = wrap(tracer, name, raw, value, shard_arg)
        done.patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is owner:
                continue
            for key, obj in list(vars(module).items()):
                if obj is raw:
                    done.patches.append((module, key, raw))
                    setattr(module, key, wrapped)
    return done


# ----------------------------------------------------------------------
# arithmetic


def layer_table(spans: Sequence[Tuple[int, ...]], names: Sequence[str],
                cpu_ns: int) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals plus ``net.server.other``.

    Returns ``{name: {"calls", "self_ns", "dur_ns", "value"}}``; the
    ``net.server.other`` row holds the CPU time no top-level span
    covers, so the ``self_ns`` column sums to ``cpu_ns``.
    """
    table: Dict[str, Dict[str, float]] = {}
    covered = 0
    for span in spans:
        row = table.setdefault(names[span[2]], {
            "calls": 0, "self_ns": 0, "dur_ns": 0, "value": 0})
        row["calls"] += 1
        row["self_ns"] += span[4] - span[5]
        row["dur_ns"] += span[4]
        row["value"] += span[6]
        if span[1] == 0:
            covered += span[4]
    table["net.server.other"] = {"calls": 0, "self_ns": cpu_ns - covered,
                                 "dur_ns": cpu_ns - covered, "value": 0}
    return table
