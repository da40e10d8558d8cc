"""``repro.obs`` — zero-dependency observability: spans, metrics, events.

One consistent instrumentation seam for the whole stack (PAPER §9 needs
per-layer cost attribution; raw counters alone cannot give it):

* :mod:`repro.obs.trace` — ``span``, the one timing primitive: nestable,
  feeds the latency histogram of its own name, and while tracing is on
  keeps nested-exclusive self time per name plus a bounded call-tree ring;
* :mod:`repro.obs.metrics` — the log-scale latency histograms
  (p50/p95/p99) spans feed, cheap enough to stay on;
* :mod:`repro.obs.events` — a structured log of rare-but-critical
  transitions (quarantine, repair, deadlock broken, recovery replay,
  cache invalidation) that harnesses assert against.

Tallies are not kept here: each is a plain int on the object that does
the work, read through that object's ``stats()``.

The facade re-exports the hot helpers so instrumented code reads as
``obs.span("chunkstore.commit", ops=n)``, ``obs.emit("quarantine",
chunk=...)``.  ``suspend()`` turns the whole layer into no-ops for
overhead baselines; ``reset()`` clears all state between tests or bench
phases.

Span and event names are catalogued in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import events, metrics, trace
from repro.obs.events import emit
from repro.obs.metrics import observe
from repro.obs.trace import span

__all__ = [
    "events",
    "metrics",
    "trace",
    "emit",
    "observe",
    "span",
    "enable_tracing",
    "disable_tracing",
    "suspend",
    "reset",
    "snapshot",
]


def enable_tracing(capacity=None) -> None:
    trace.enable(capacity)


def disable_tracing() -> None:
    trace.disable()


def snapshot() -> dict:
    """Everything at once: latency histograms + event counts."""
    snap = metrics.snapshot()
    snap["events"] = events.counts()
    return snap


def reset() -> None:
    """Clear spans, metrics, and events (tracing on/off state is kept)."""
    trace.reset()
    metrics.reset()
    events.reset()


@contextmanager
def suspend() -> Iterator[None]:
    """No-op the entire layer for the duration (overhead baselines)."""
    was_tracing = trace._enabled
    trace._enabled = False
    metrics._suspended = True
    events._suspended = True
    try:
        yield
    finally:
        trace._enabled = was_tracing
        metrics._suspended = False
        events._suspended = False
