"""Observability smoke check: ``python -m repro.obs.smoke``.

Runs a short traced workload against a scratch in-memory store —
commits, uncached reads, a checkpoint, a crash-reopen (recovery replay),
and an object-store transaction — then asserts the shape of what the
``repro.obs`` layer recorded:

* the read and commit latency histograms are populated and their
  percentiles are monotone (p50 ≤ p95 ≤ p99 ≤ max);
* tracing captured spans, including at least one *nested* span
  (``chunkstore.map_walk`` inside ``chunkstore.read_chunks``), and the
  spans' self times add up to the time under the top-level spans;
* the event log holds the expected rare-transition kinds
  (``recovery_replay``, ``cache_invalidation``).

``make obs-smoke`` (and the CI workflow) run :func:`main`, which exits
non-zero on any violation.  :func:`run_workload` alone is reused by
``tools/inspect.py --metrics``/``--trace`` to give a fresh CLI process
something to display.
"""

from __future__ import annotations

import sys
from typing import Dict

from repro import obs
from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.objectstore.store import ObjectStore
from repro.platform.trusted_platform import TrustedPlatform

#: small enough for sub-second runtime, large enough for real percentiles
CHUNKS = 12
CHUNK_SIZE = 1024


def _config() -> StoreConfig:
    return StoreConfig(
        segment_size=64 * 1024,
        system_cipher="ctr-sha256",
        system_hash="sha1",
        validation_mode="counter",
        delta_ut=5,
        payload_cache_bytes=0,  # uncached reads feed the read histogram
    )


def run_workload() -> None:
    """Exercise every obs surface: spans, histograms, and events."""
    obs.reset()
    obs.enable_tracing()

    platform = TrustedPlatform.create_in_memory(untrusted_size=4 * 1024 * 1024)
    store = ChunkStore.format(platform, _config())
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
    )
    payload = bytes(i & 0xFF for i in range(CHUNK_SIZE))
    for rank in range(CHUNKS):
        store.partitions[pid].allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, rank, payload)])
    for rank in range(CHUNKS):  # cache-miss reads: the read histogram
        store.read_chunk(pid, rank)
    store.read_chunks(pid, list(range(CHUNKS)))  # batched walk span
    store.checkpoint()
    # leave a residual log so the reopen replays it (recovery events)
    store.commit([ops.WriteChunk(pid, 0, payload)])
    store.close(checkpoint=False)
    store = ChunkStore.open(platform, _config())

    # one object-store transaction: tx_commit histogram + lock stats
    objects = ObjectStore(store)
    opid = objects.create_partition()
    with objects.transaction() as tx:
        tx.create(opid, {"smoke": list(range(8))})
    store.close()


def _check_histogram(name: str, failures: list) -> None:
    hist = obs.metrics.histogram_for(name)
    snap = hist.snapshot() if hist is not None else None
    if not snap or snap["count"] == 0:
        failures.append(f"histogram {name!r} is empty")
        return
    p50, p95, p99 = snap["p50_s"], snap["p95_s"], snap["p99_s"]
    if not (0 < p50 <= p95 <= p99 <= max(snap["max_s"], p99)):
        failures.append(
            f"histogram {name!r} percentiles not monotone: "
            f"p50={p50} p95={p95} p99={p99}"
        )


def main() -> int:
    run_workload()
    failures: list = []

    for name in ("chunkstore.read", "chunkstore.commit",
                 "chunkstore.recovery", "objectstore.tx_commit"):
        _check_histogram(name, failures)

    records = obs.trace.records()
    if not records:
        failures.append("tracing enabled but no spans recorded")
    elif not any(r.depth > 0 for r in records):
        failures.append("no nested span recorded (expected "
                        "chunkstore.map_walk inside chunkstore.read_chunks)")
    self_total = sum(obs.trace.self_times().values())
    root_total = sum(r.duration for r in records if r.depth == 0)
    if abs(self_total - root_total) > 0.01 * root_total:
        failures.append(
            f"span self times sum to {self_total:.6f}s but the top-level "
            f"spans lasted {root_total:.6f}s"
        )

    counts: Dict[str, int] = obs.events.counts()
    for kind in ("recovery_replay", "cache_invalidation"):
        if not counts.get(kind):
            failures.append(f"expected event kind {kind!r} missing")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    snap = obs.metrics.snapshot()
    print(
        f"obs smoke OK: {len(snap['histograms'])} histograms, "
        f"{sum(counts.values())} events, {len(records)} spans"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
