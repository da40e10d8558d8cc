"""Spans: the one timing primitive (latency, self time, call tree).

``with span("chunkstore.map_walk", pid=3):`` times its body on the
monotonic clock and does up to three things with the duration:

* records it in the latency histogram **of the same name**
  (:mod:`repro.obs.metrics`);
* while tracing is on, charges it to the span's *self time* — its duration
  minus the time spent in spans nested inside it on the same thread, the
  paper's Figure 12 accounting ("the time reported for each module
  excludes nested calls to other reported modules", §9.5.3).  Self times
  are summed per span name, and a span's layer is its name's prefix
  (``collection.``, ``objectstore.``, ``server.``, ``chunkstore.``,
  ``crypto.``, ``platform.untrusted.``, ``platform.tr.``);
* while tracing is on, appends a :class:`SpanRecord` (name, duration,
  nesting depth, parent, tags) to a bounded ring, so a trace view can
  re-indent the records into the call tree.

Tracing is **off by default**.  Off, only the spans named in
:data:`OPERATIONS` do anything — one histogram sample each; every other
span marks a layer boundary on a hot path and is one shared null context
manager (no allocation, no clock read), which is what keeps the seam
affordable.  On, the cost per span is two ``perf_counter`` calls, two
small objects, and a ring append.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional

from repro.obs import metrics

#: default ring capacity; a bench run emits a few thousand spans
DEFAULT_CAPACITY = 8192

#: spans timed even while tracing is off: whole operations, rare and long
#: enough (a commit, a cache-miss read, a recovery) that one histogram
#: sample each stays inside the < 5 % overhead budget ``python -m
#: repro.bench store --check`` enforces.  Catalogued in docs/OBSERVABILITY.md.
OPERATIONS = frozenset(
    {
        "chunkstore.commit",
        "chunkstore.checkpoint",
        "chunkstore.read",
        "chunkstore.read_batch",
        "chunkstore.snapshot_read",
        "chunkstore.map_walk",
        "chunkstore.scrub",
        "chunkstore.cleaner_pass",
        "chunkstore.recovery",
        "objectstore.tx_commit",
        "server.group_commit",
        "xdb.page_read",
        "xdb.commit",
        "xdb.recovery",
    }
)


class SpanRecord(NamedTuple):
    """One finished span."""

    seq: int
    name: str
    start: float  # perf_counter timestamp, comparable within a process
    duration: float  # seconds
    depth: int  # 0 = top-level for its thread
    parent: Optional[str]  # enclosing span's name, if any
    thread: int
    tags: Dict[str, Any] = {}  # never mutated: records are read-only

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v!r}" for k, v in sorted(self.tags.items()))
        indent = "  " * self.depth
        return (
            f"{indent}{self.name} {self.duration * 1e3:.3f}ms"
            + (f" {extras}" if extras else "")
        )


class Tracer:
    """Bounded span recorder with per-thread nesting state."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self.dropped = 0
        #: span name -> summed self seconds (not bounded by the ring)
        self._self_seconds: Dict[str, float] = {}

    def _stack(self) -> List["_Span"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, record: SpanRecord, self_seconds: float = 0.0) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(record)
            self._self_seconds[record.name] = (
                self._self_seconds.get(record.name, 0.0) + self_seconds
            )

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._ring)

    def self_times(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._self_seconds)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._self_seconds.clear()
            self.dropped = 0


class _Timer:
    """An operation span while tracing is off: one histogram sample."""

    __slots__ = ("name", "start")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        metrics.observe(self.name, time.perf_counter() - self.start)


class _Span(_Timer):
    """Any span while tracing is on: histogram, self time, and ring."""

    __slots__ = ("tracer", "tags", "depth", "parent", "nested")

    def __init__(self, tracer: Tracer, name: str, tags: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.tags = tags

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.depth = len(stack)
        self.parent = stack[-1] if stack else None
        self.nested = 0.0  # seconds spent in spans nested inside this one
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.start
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if self.parent is not None:
            self.parent.nested += duration
        metrics.observe(self.name, duration)
        self.tracer.record(
            SpanRecord(
                next(self.tracer._seq),
                self.name,
                self.start,
                duration,
                self.depth,
                self.parent.name if self.parent is not None else None,
                threading.get_ident(),
                self.tags,
            ),
            duration - self.nested,
        )


class _NullSpan:
    """Shared no-op span handed out while a span has nothing to record."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()

# -- module-level singleton ---------------------------------------------------

_tracer = Tracer()
_enabled = False


def span(name: str, **tags: Any):
    """A context manager timing its body (see the module docstring)."""
    if _enabled:
        return _Span(_tracer, name, tags)
    if name in OPERATIONS and not metrics._suspended:
        return _Timer(name)
    return _NULL_SPAN


def enabled() -> bool:
    return _enabled


def enable(capacity: Optional[int] = None) -> None:
    """Turn tracing on (optionally resizing the ring)."""
    global _enabled, _tracer
    if capacity is not None and capacity != _tracer._ring.maxlen:
        _tracer = Tracer(capacity)
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def records() -> List[SpanRecord]:
    return _tracer.records()


def self_times() -> Dict[str, float]:
    """Summed self seconds per span name since the last :func:`reset`
    (a copy; survives ring eviction)."""
    return _tracer.self_times()


def dropped() -> int:
    return _tracer.dropped


def reset() -> None:
    _tracer.clear()
