"""The layer boundaries the traced run records, the counters read at them,
and the per-layer metrics derived from both.

Layers are the repo's packages.  Span names are
``<layer>.<Class>.<method>``; counts come from the public ``stats()`` /
``IOStats`` / cache attributes read before and after the window.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import mean, median
from typing import Any, Dict, Tuple

from harness import percentile
from tracer import DRIVER, Trace, Tracer

from repro.chunkstore import ChunkStore
from repro.chunkstore.cleaner import Cleaner
from repro.chunkstore.snapshot import SnapshotView
from repro.collection import CollectionStore
from repro.crypto import Cipher, HashFunction
from repro.objectstore import LockManager, Transaction
from repro.platform import (
    DiskModel,
    IOStats,
    TamperResistantCounter,
    TamperResistantStore,
    UntrustedStore,
)
from repro.server import GroupCommitter, Snapshot, SnapshotManager

LAYERS = ("collection", "objectstore", "server", "chunkstore", "crypto", "platform")

COMMIT = "chunkstore.ChunkStore.commit"
CLEAN_ONE = "chunkstore.Cleaner.clean_one"
GROUP_COMMIT = "server.GroupCommitter.commit"
ACQUIRE = "server.SnapshotManager.acquire"
CHUNK_READS = (
    "chunkstore.ChunkStore.read_chunk",
    "chunkstore.ChunkStore.read_chunks",
    "chunkstore.SnapshotView.read_chunk",
    "chunkstore.SnapshotView.read_chunks",
)
LOCKS = (
    "objectstore.LockManager.acquire_shared",
    "objectstore.LockManager.acquire_exclusive",
)
#: a commit this many times the median counts as a stall (checkpoint or
#: cleaning ran inside it)
STALL_FACTOR = 10

#: (layer, class, methods).  Generator methods (``range``,
#: ``scan_values``) are timed for the call only, not the iteration.
BOUNDARIES = (
    ("collection", CollectionStore,
     ("insert", "update", "remove", "exact", "range", "scan_values")),
    ("objectstore", Transaction,
     ("get", "get_many", "get_for_update", "update", "create", "delete",
      "commit", "abort")),
    ("objectstore", LockManager, ("acquire_shared", "acquire_exclusive")),
    ("server", GroupCommitter, ("commit",)),
    ("server", SnapshotManager, ("acquire", "release")),
    ("server", Snapshot, ("get", "get_many")),
    ("chunkstore", ChunkStore,
     ("commit", "read_chunk", "read_chunks", "checkpoint", "clean", "open",
      "open_snapshot_view")),
    # the snapshot read path bypasses ChunkStore.read_chunk; without this
    # boundary its map walk and validation would be booked to ``server``
    ("chunkstore", SnapshotView, ("read_chunk", "read_chunks")),
    ("platform", UntrustedStore, ("read", "read_many", "flush")),
    ("platform", TamperResistantStore, ("write",)),
    ("platform", TamperResistantCounter, ("increment", "advance_to")),
)


def _superblock_write(args: tuple, _result: Any):
    # every checkpoint ends by rewriting the superblock at offset 0
    return ("chunkstore.checkpoint.count", 1) if args[1] == 0 else None


def install(tracer: Tracer) -> None:
    for layer, cls, methods in BOUNDARIES:
        for method in methods:
            tracer.install(cls, method, f"{layer}.{cls.__name__}.{method}")
    tracer.install(
        UntrustedStore, "write", "platform.UntrustedStore.write", _superblock_write
    )
    tracer.install(
        Cipher, "encrypt", "crypto.Cipher.encrypt",
        lambda args, _result: ("crypto.encrypt.bytes", len(args[1])),
    )
    tracer.install(
        Cipher, "decrypt", "crypto.Cipher.decrypt",
        lambda _args, result: ("crypto.decrypt.bytes", len(result)),
    )
    tracer.install(
        HashFunction, "hash", "crypto.HashFunction.hash",
        lambda args, _result: ("crypto.hash.bytes", len(args[1])),
    )

    original = Cleaner.clean_one

    def clean_one(self):
        appended = self.store.logbuf.bytes_appended
        with tracer.span(CLEAN_ONE):
            segment = original(self)
        if segment is not None:
            tracer.count(
                "chunkstore.clean.bytes_rewritten",
                self.store.logbuf.bytes_appended - appended,
            )
        return segment

    tracer.patch(Cleaner, "clean_one", clean_one)


def counters(workload) -> Dict[str, Any]:
    """The public counters of a set-up workload, read in one go."""
    store = workload.store
    stats = store.stats()
    objects = getattr(workload, "objects", None)
    server = getattr(workload, "server", None)
    platform = workload.platform
    return {
        "io": platform.untrusted.stats.snapshot(),
        "tr_writes": platform.counter.write_count + platform.tamper_resistant.write_count,
        "desc_cache": stats["cache"],
        "payload_cache": stats["payload_cache"],
        "walk": stats["walk"],
        "log": stats["log"],
        "hash_digests": sum(h.get("digests", 0) for h in stats["hashing"].values()),
        "object_cache": (objects.cache.hits, objects.cache.misses) if objects else (0, 0),
        "locks": objects.locks.stats() if objects else {},
        "server": server.stats() if server else {},
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """``after - before`` for every numeric counter; a missing one reads 0."""
    changed: Dict[str, float] = defaultdict(float)
    for key, value in after.items():
        if isinstance(value, (int, float)):
            changed[key] = value - before.get(key, 0)
    return changed


def _hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    return _ratio(hits, hits + after["misses"] - before["misses"])


def per_layer_metrics(
    window: Trace,
    reopen: Trace,
    before: Dict[str, Any],
    after: Dict[str, Any],
    txns: int,
    rec,
    window_s: float,
    traced_s: float,
    untraced_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, as ``name -> (value, unit)``.

    ``window_s`` is the traced window's wall time, which the spans add up
    to; ``traced_s`` and ``untraced_s`` are the speed-corrected times of
    the same operations with and without the tracer."""
    io: IOStats = after["io"].delta(before["io"])
    tr_writes = after["tr_writes"] - before["tr_writes"]
    model = DiskModel()
    log = _delta(before["log"], after["log"])
    walk = _delta(before["walk"], after["walk"])
    object_hits = after["object_cache"][0] - before["object_cache"][0]
    object_misses = after["object_cache"][1] - before["object_cache"][1]
    locks = _delta(before["locks"], after["locks"])
    group = _delta(
        before["server"].get("group_commit", {}), after["server"].get("group_commit", {})
    )
    snapshots = _delta(
        before["server"].get("snapshots", {}), after["server"].get("snapshots", {})
    )
    commits = window.durations.get(COMMIT, [])
    stall_floor = STALL_FACTOR * median(commits) if commits else 0.0
    encrypt_bytes = window.counts.get("crypto.encrypt.bytes", 0)
    hash_bytes = window.counts.get("crypto.hash.bytes", 0)
    collection_calls = window.layer_calls("collection")
    chunk_reads = window.calls(*CHUNK_READS)

    metrics: Dict[str, Tuple[float, str]] = {
        "collection.self_s": (window.layer_self_s("collection"), "s"),
        "collection.calls": (collection_calls, "count"),
        "collection.obj_ops_per_call": (
            _ratio(window.edges.get(("collection", "objectstore"), 0), collection_calls),
            "ratio",
        ),
        "objectstore.self_s": (window.layer_self_s("objectstore"), "s"),
        "objectstore.get.calls": (
            window.calls(
                "objectstore.Transaction.get",
                "objectstore.Transaction.get_many",
                "objectstore.Transaction.get_for_update",
            ),
            "count",
        ),
        "objectstore.commit.calls": (window.calls("objectstore.Transaction.commit"), "count"),
        "objectstore.cache.hit_ratio": (
            _ratio(object_hits, object_hits + object_misses), "ratio",
        ),
        "objectstore.locks.wait_s": (window.total_s(*LOCKS), "s"),
        "objectstore.locks.waits": (locks["waits"], "count"),
        "objectstore.locks.deadlocks_broken": (locks["deadlocks_broken"], "count"),
        "objectstore.read_txn.p50_us": (percentile(rec.read_txn_s, 0.5) * 1e6, "us"),
        "server.self_s": (window.layer_self_s("server"), "s"),
        "server.group_commit.mean_batch": (
            _ratio(group["txs_committed"], group["batches"]), "ratio",
        ),
        "server.group_commit.wait_s": (window.self_s(GROUP_COMMIT), "s"),
        "server.group_commit.fallbacks": (group["fallbacks"], "count"),
        "server.snapshot.acquire_s": (window.total_s(ACQUIRE), "s"),
        "server.snapshot.created": (snapshots["created"], "count"),
        "server.snapshot.reuse_ratio": (
            _ratio(snapshots["reused"], snapshots["reused"] + snapshots["created"]),
            "ratio",
        ),
        "server.snapshot.stale_reads": (rec.stale_reads, "count"),
        "chunkstore.self_s": (window.layer_self_s("chunkstore"), "s"),
        "chunkstore.desc_cache.hit_ratio": (
            _hit_ratio(before["desc_cache"], after["desc_cache"]), "ratio",
        ),
        "chunkstore.desc_cache.evictions": (
            after["desc_cache"]["evictions"] - before["desc_cache"]["evictions"], "count",
        ),
        "chunkstore.payload_cache.hit_ratio": (
            _hit_ratio(before["payload_cache"], after["payload_cache"]), "ratio",
        ),
        "chunkstore.payload_cache.evictions": (
            after["payload_cache"]["evictions"] - before["payload_cache"]["evictions"],
            "count",
        ),
        "chunkstore.walk.map_chunks_per_read": (
            _ratio(walk["map_chunks_fetched"], chunk_reads), "ratio",
        ),
        "chunkstore.read.calls": (chunk_reads, "count"),
        "chunkstore.read.self_s": (window.self_s(*CHUNK_READS), "s"),
        "chunkstore.commit.calls": (window.calls(COMMIT), "count"),
        "chunkstore.commit.self_s": (window.self_s(COMMIT), "s"),
        "chunkstore.commit.stall_s": (
            sum(d for d in commits if d > stall_floor), "s",
        ),
        "chunkstore.log.bytes_appended": (log["bytes_appended"], "B"),
        "chunkstore.log.coalesce_ratio": (
            _ratio(log["writes_coalesced"], log["appends"]), "ratio",
        ),
        "chunkstore.checkpoint.count": (
            window.counts.get("chunkstore.checkpoint.count", 0), "count",
        ),
        "chunkstore.clean.calls": (window.calls(CLEAN_ONE), "count"),
        "chunkstore.clean.busy_s": (window.total_s(CLEAN_ONE), "s"),
        "chunkstore.clean.bytes_rewritten": (
            window.counts.get("chunkstore.clean.bytes_rewritten", 0), "B",
        ),
        "chunkstore.open.self_s": (reopen.self_s("chunkstore.ChunkStore.open"), "s"),
        "crypto.self_s": (window.layer_self_s("crypto"), "s"),
        "crypto.encrypt.calls": (window.calls("crypto.Cipher.encrypt"), "count"),
        "crypto.encrypt.bytes": (encrypt_bytes, "B"),
        "crypto.encrypt.busy_s": (window.total_s("crypto.Cipher.encrypt"), "s"),
        "crypto.decrypt.calls": (window.calls("crypto.Cipher.decrypt"), "count"),
        "crypto.decrypt.bytes": (window.counts.get("crypto.decrypt.bytes", 0), "B"),
        "crypto.decrypt.busy_s": (window.total_s("crypto.Cipher.decrypt"), "s"),
        # one-shot HashFunction.hash calls are timed; the streaming hashes
        # the log codec runs are counted by the store but not timed
        "crypto.hash.calls": (after["hash_digests"] - before["hash_digests"], "count"),
        "crypto.hash.bytes": (hash_bytes, "B"),
        "crypto.hash.busy_s": (window.total_s("crypto.HashFunction.hash"), "s"),
        "crypto.bytes_per_txn": (_ratio(encrypt_bytes + hash_bytes, txns), "B"),
        "platform.self_s": (window.layer_self_s("platform"), "s"),
        "platform.untrusted.reads": (io.reads, "count"),
        "platform.untrusted.read_bytes": (io.bytes_read, "B"),
        "platform.untrusted.writes": (io.writes, "count"),
        "platform.untrusted.write_bytes": (io.bytes_written, "B"),
        "platform.untrusted.flushes": (io.flushes, "count"),
        "platform.untrusted.round_trips": (io.reads + io.writes + io.flushes, "count"),
        # self time, so a subclass flush that calls the base one counts once
        "platform.untrusted.busy_s": (
            sum(t[2] for n, t in window.spans.items()
                if n.startswith("platform.UntrustedStore.")),
            "s",
        ),
        "platform.untrusted.io_errors": (io.io_errors, "count"),
        "platform.untrusted.retries": (io.retries, "count"),
        "platform.untrusted.model_s": (
            model.read_time(io) + model.write_time(io)
            + model.tamper_resistant_time(tr_writes),
            "s",
        ),
        "platform.tr.writes": (tr_writes, "count"),
        # the driver's own timings that cannot hold an end-to-end bound: on
        # server_mixed a commit either meets the other client's commit or
        # does not, and the share that do moves with the machine's load, so
        # mean and median jump between two humps; the tails have too few
        # samples beyond them in a 10 s window
        "commit_mean_ms": (mean(rec.commit_s or [0.0]) * 1e3, "ms"),
        "commit_p50_ms": (percentile(rec.commit_s, 0.5) * 1e3, "ms"),
        "read_p50_us": (percentile(rec.read_s, 0.5) * 1e6, "us"),
        "commit_p99_ms": (percentile(rec.commit_s, 0.99) * 1e3, "ms"),
        "read_p99_us": (percentile(rec.read_s, 0.99) * 1e6, "us"),
        "bench.driver_self_s": (window.self_s(DRIVER), "s"),
        "bench.window_s": (window_s, "s"),
        "bench.trace_overhead_pct": (
            (traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0, "%",
        ),
    }
    return metrics
