"""Metrics registry: named log-scale latency histograms.

Tallies live as plain ints on the object that does the work and are read
through its ``stats()`` (docs/OBSERVABILITY.md lists the owners); this
registry holds what an int cannot express: latency *distributions*, one
per span name (:mod:`repro.obs.trace`).
Histograms use power-of-two microsecond buckets — ``record()`` is one
``bit_length()`` call and a list increment, cheap enough to leave on —
and report p50/p95/p99 as the upper bound of the bucket containing that
rank, the standard trade of resolution (±2×) for constant-time capture.

Everything here is process-global and thread-tolerant under the GIL:
increments are plain ``int`` adds and list-index bumps, so contention can
at worst drop a count, never corrupt a structure.  The facade's
``suspend()`` turns recording into a no-op for overhead baselines.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

#: histogram buckets: bucket ``b`` holds samples in [2^(b-1), 2^b) µs;
#: 48 buckets covers ~8.9 years, comfortably everything
BUCKETS = 48


class LatencyHistogram:
    """Log₂-scale latency histogram over microseconds.

    ``record(seconds)`` buckets by ``int(µs).bit_length()`` — sub-µs
    samples land in bucket 0.  Percentiles return the bucket's upper
    bound in seconds (an overestimate by at most 2×), clamped to the
    observed maximum: still an upper bound on the true quantile (any
    sample ≤ max, and any bucket at or below the max's own bucket has
    its upper bound ≥ the samples it holds), but never the absurd
    "p50 > max" that a raw bucket bound produces when every sample sits
    just past a power of two.  The bias stays right for a floor check:
    reported p99 ≥ true p99.
    """

    __slots__ = ("name", "buckets", "count", "total", "max_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: List[int] = [0] * BUCKETS
        self.count = 0
        self.total = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        bucket = int(seconds * 1e6).bit_length()
        if bucket >= BUCKETS:  # pragma: no cover - ~9 years
            bucket = BUCKETS - 1
        self.buckets[bucket] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, p: float) -> float:
        """Upper bound (seconds) of the bucket holding the p-quantile,
        clamped to the observed max (see the class docstring)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(p * self.count + 0.999999))
        seen = 0
        for bucket, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                return min((1 << bucket) / 1e6, self.max_seconds)
        return self.max_seconds  # pragma: no cover - unreachable

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": round(self.mean, 9),
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "max_s": round(self.max_seconds, 9),
        }


class MetricsRegistry:
    """Thread-safe name → LatencyHistogram registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[str, LatencyHistogram] = {}

    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(name, LatencyHistogram(name))
        return hist

    def histograms(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: h.snapshot() for name, h in items}

    def snapshot(self) -> Dict[str, object]:
        return {"histograms": self.histograms()}

    def clear(self) -> None:
        with self._lock:
            self._histograms.clear()


# -- module-level singleton ---------------------------------------------------

_registry = MetricsRegistry()
_suspended = False


def registry() -> MetricsRegistry:
    return _registry


def observe(name: str, seconds: float) -> None:
    """Record one latency sample into the named histogram."""
    if _suspended:
        return
    _registry.histogram(name).record(seconds)


def histogram_for(name: str) -> Optional[LatencyHistogram]:
    return _registry._histograms.get(name)


def snapshot() -> Dict[str, object]:
    return _registry.snapshot()


def reset() -> None:
    _registry.clear()
