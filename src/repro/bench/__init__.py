"""Benchmark support: the Figure 10 workload and its two adapters, and the
four phases ``python -m repro.bench`` runs (see :mod:`repro.bench.__main__`).

Each phase module exports ``run(tiny) -> dict`` and one ``FLOORS`` table of
:class:`Floor` s; the pieces every phase shares live here: the store
configuration, the best-of timer, the least-squares fit and the
latency-percentile block.
"""

from __future__ import annotations

import operator
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro import obs
from repro.chunkstore import StoreConfig

#: the comparisons a floor may make
OPS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt, "==": operator.eq,
}


@dataclass(frozen=True)
class Floor:
    """An acceptance bound: the value at ``path`` in a phase's results must
    be ``op`` ``bound`` (times the value at ``of``, when given).

    A ``"*"`` in ``path`` stands for every key at that level, one verdict
    each.  A floor whose path names nothing fails, unless it lies under one
    of the :data:`AEAD_TIERS` and this machine has no AEAD backend.
    """

    name: str
    path: Tuple[str, ...]
    op: str
    bound: float
    of: Tuple[str, ...] = ()


#: the first path key of each tier that exists only with the AEAD backend
AEAD_TIERS = {("crypto", "aead_ciphers"), ("store", "default")}


def bench_config(**overrides) -> StoreConfig:
    """The benches' chunk-store configuration: the cheap ``ctr-sha256``
    system cipher, so pure-Python crypto does not swamp what is measured
    (paper-parameter crypto is the crypto phase's job)."""
    settings = dict(
        segment_size=64 * 1024,
        system_cipher="ctr-sha256",
        system_hash="sha1",
        validation_mode="counter",
        delta_ut=5,
    )
    settings.update(overrides)
    return StoreConfig(**settings)


def best_of(works: Sequence[Callable[[], object]], rounds: int = 7) -> List[float]:
    """Best-of-``rounds`` thread CPU seconds of each of ``works``, their
    rounds interleaved: a drift in the machine's speed falls on all alike,
    as a ratio needs, and a preemption is charged to none."""
    best = [float("inf")] * len(works)
    for _ in range(rounds):
        for index, work in enumerate(works):
            start = time.thread_time()
            work()
            best[index] = min(best[index], time.thread_time() - start)
    return best


def fit(ys: Sequence[float], *columns: Sequence[float]) -> Dict[str, object]:
    """Least squares of ``ys`` on one or two regressors plus an intercept
    (the centred normal equations, solved directly): ``intercept``, one
    slope per column and ``r_squared``."""
    mean = statistics.fmean(ys)
    dy = [y - mean for y in ys]
    dx = [[x - statistics.fmean(column) for x in column] for column in columns]

    def dot(a: Sequence[float], b: Sequence[float]) -> float:
        return sum(p * q for p, q in zip(a, b))

    if len(dx) == 1:
        slopes = [dot(dx[0], dy) / dot(dx[0], dx[0])]
    else:
        s11, s12, s22 = dot(dx[0], dx[0]), dot(dx[0], dx[1]), dot(dx[1], dx[1])
        s1y, s2y = dot(dx[0], dy), dot(dx[1], dy)
        det = s11 * s22 - s12 * s12
        slopes = [(s1y * s22 - s2y * s12) / det, (s2y * s11 - s1y * s12) / det]
    residual = sum((d - dot(slopes, xs)) ** 2 for d, xs in zip(dy, zip(*dx)))
    return {
        "intercept": mean - sum(b * statistics.fmean(c) for b, c in zip(slopes, columns)),
        "slopes": slopes,
        "r_squared": 1 - residual / dot(dy, dy),
    }


def latency(prefix: str = "") -> Dict[str, Dict[str, float]]:
    """Percentiles of the obs histograms named ``prefix…`` since the last
    ``obs.reset()``, in ms."""
    return {
        name: {
            "count": snap["count"],
            "p50_ms": round(snap["p50_s"] * 1e3, 4),
            "p95_ms": round(snap["p95_s"] * 1e3, 4),
            "p99_ms": round(snap["p99_s"] * 1e3, 4),
            "max_ms": round(snap["max_s"] * 1e3, 4),
        }
        for name, snap in sorted(obs.metrics.snapshot()["histograms"].items())
        if name.startswith(prefix)
    }
