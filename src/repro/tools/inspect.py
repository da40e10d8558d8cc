"""tdb-inspect: offline inspection of a TDB store.

Two views, mirroring the trust model:

* the **attacker view** (no secret needed): what an untrusted program can
  learn from the raw device — the plaintext superblock, segment geometry,
  and nothing else.  Useful to demonstrate (and regression-test) how
  little the untrusted store leaks;
* the **trusted view** (given the platform): validated store statistics —
  partitions, chunk counts, log utilization, residual-log length, free and
  deferred segments against the checkpoint reserve, whether
  the chunk map is resident (map-chunk vectors the descriptor cache holds
  and has room for, against what each partition's map needs), what the
  log's bytes were spent on, and what the cleaner has done.

Two more views read the process-wide ``repro.obs`` layer:

* the **metrics view**: latency histograms (p50/p95/p99 for reads,
  commits, map walks, …) and event-kind tallies;
* the **trace view**: the most recent tracing spans, indented by
  nesting depth (tracing must have been enabled).

Usage (library)::

    from repro.tools.inspect import attacker_view, trusted_view
    print(render(attacker_view(untrusted_store)))
    print(render(trusted_view(chunk_store)))
    print(render(metrics_view()))

Usage (CLI)::

    python -m repro.tools.inspect /path/to/store.img   # attacker view
    python -m repro.tools.inspect --metrics            # p50/p95/p99 table
    python -m repro.tools.inspect --trace              # recent spans

``--metrics``/``--trace`` run a short traced workload against a scratch
in-memory store first (a fresh CLI process has no history to show), so
the output demonstrates exactly what a live process would expose.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro import obs
from repro.chunkstore.store import ChunkStore
from repro.errors import ChunkStoreError, TamperDetectedError
from repro.platform.untrusted import UntrustedStore


def attacker_view(untrusted: UntrustedStore) -> Dict[str, Any]:
    """Everything an untrusted program can see (requires no secrets)."""
    result: Dict[str, Any] = {"device_size": untrusted.size}
    head = untrusted.tamper_read(0, 4)
    if head != b"TDB1":
        result["format"] = "not a TDB store (or superblock destroyed)"
        return result
    result["format"] = "TDB v1"

    class _Probe:
        def __init__(self, store):
            self.untrusted = store

    try:
        config, leader_location = ChunkStore._read_superblock(_Probe(untrusted))
        result["segment_size"] = config.segment_size
        result["fanout"] = config.fanout
        result["validation_mode"] = config.validation_mode
        result["system_cipher"] = config.system_cipher
        result["system_hash"] = config.system_hash
        result["leader_location"] = leader_location
    except (ChunkStoreError, TamperDetectedError) as exc:
        result["superblock"] = f"unreadable: {exc}"
    # Entropy probe: everything beyond the superblock should look random
    # (ciphertext).  Sample a few regions and count zero bytes.
    samples = []
    for fraction in (0.1, 0.4, 0.7):
        offset = int(untrusted.size * fraction)
        blob = untrusted.tamper_read(offset, 4096)
        nonzero = sum(1 for b in blob if b)
        samples.append(round(nonzero / 4096, 3))
    result["nonzero_density_samples"] = samples
    return result


def _hit_ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return round(hits / total, 3) if total else 0.0


def map_vectors_needed(ranks: Iterable[int], fanout: int) -> int:
    """Map chunks in the position map of a partition whose written data
    chunks are ``ranks``: what the descriptor cache must hold for that map
    to be resident."""
    needed = 0
    nodes = set(ranks)
    while nodes:
        nodes = {rank // fanout for rank in nodes}
        needed += len(nodes)
        if nodes == {0}:  # the root
            break
    return needed


def trusted_view(store: ChunkStore) -> Dict[str, Any]:
    """Validated statistics, as trusted code sees them."""
    segman = store.segman
    stats = store.stats()
    cache = stats["cache"]
    partitions: List[Dict[str, Any]] = []
    for pid in store.partition_ids():
        info = store.partition_info(pid)
        partitions.append(
            {
                "pid": pid,
                "name": info["name"] or None,
                "cipher": info["cipher"],
                "hash": info["hash"],
                "chunks": info["chunk_count"],
                "copies": info["copies"],
                "copy_of": info["copy_of"],
                "map_vectors_needed": map_vectors_needed(
                    store.data_ranks(pid), store.config.fanout
                ),
            }
        )
    return {
        "validation_mode": store.config.validation_mode,
        "partitions": partitions,
        "stored_bytes": store.stored_bytes(),
        "live_bytes": store.live_bytes(),
        "utilization": round(
            store.live_bytes() / store.stored_bytes(), 3
        )
        if store.stored_bytes()
        else 1.0,
        "segments": {
            "total": segman.segment_count,
            "residual": len(segman.residual_segments),
        },
        # free and deferred (cleaned, free once the next checkpoint is
        # durable, unless an open snapshot view holds them) segments,
        # against what the next checkpoint may need
        "log_space": stats["log_space"],
        "cache": {
            "dirty_descriptors": cache["dirty_entries"],
            "hits": cache["hits"],
            "misses": cache["misses"],
            "evictions": cache["evictions"],
            "hit_ratio": _hit_ratio(cache["hits"], cache["misses"]),
            # resident when every partition's map_vectors_needed fits
            "vectors_held": cache["vectors"],
            "vector_capacity": cache["vector_capacity"],
        },
        "payload_cache": {
            **store.payloads.stats(),
            "hit_ratio": _hit_ratio(store.payloads.hits, store.payloads.misses),
        },
        "commits": store.commit_count_stat,
        "log_bytes_by_kind": stats["log"]["bytes_by_kind"],
        "cleaner": stats["cleaner"],
        "io_health": {
            "io_errors": store.platform.untrusted.stats.io_errors,
            "retries": store.platform.untrusted.stats.retries,
            "gave_up": store.platform.untrusted.stats.gave_up,
            "quarantined_total": store.readpath.quarantined_total,
            "quarantine": store.quarantined_chunks() or None,
        },
    }


def _format_hist(snapshot: Dict[str, float]) -> Dict[str, Any]:
    """Histogram snapshot with latencies converted to milliseconds."""
    return {
        "count": snapshot["count"],
        "mean_ms": round(snapshot["mean_s"] * 1e3, 4),
        "p50_ms": round(snapshot["p50_s"] * 1e3, 4),
        "p95_ms": round(snapshot["p95_s"] * 1e3, 4),
        "p99_ms": round(snapshot["p99_s"] * 1e3, 4),
        "max_ms": round(snapshot["max_s"] * 1e3, 4),
    }


def metrics_view() -> Dict[str, Any]:
    """The process-wide ``repro.obs`` registry: latency percentiles per
    histogram and event-kind tallies."""
    snap = obs.metrics.snapshot()
    return {
        "latency": {
            name: _format_hist(hist)
            for name, hist in snap["histograms"].items()
        },
        "events": obs.events.counts(),
    }


def trace_view(limit: int = 50) -> Dict[str, Any]:
    """The last ``limit`` tracing spans, oldest first, indented by
    nesting depth.  Empty unless tracing was enabled."""
    records = obs.trace.records()[-limit:]
    return {
        "tracing_enabled": obs.trace.enabled(),
        "spans": [
            "  " * r.depth
            + f"{r.name} {r.duration * 1e3:.3f}ms"
            + (
                " [" + " ".join(
                    f"{k}={v}" for k, v in sorted(r.tags.items())
                ) + "]"
                if r.tags
                else ""
            )
            for r in records
        ],
        "dropped": obs.trace.dropped(),
    }


def render(view: Dict[str, Any], indent: int = 0) -> str:
    """Human-readable rendering of a view dict."""
    lines: List[str] = []
    pad = "  " * indent
    for key, value in view.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                rendered = ", ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"{pad}  - {rendered}")
        elif isinstance(value, list) and value and isinstance(value[0], str):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (see the module docstring for the views)."""
    parser = argparse.ArgumentParser(
        description="offline inspection of a TDB store"
    )
    parser.add_argument(
        "image", nargs="?", help="store image file (attacker view)"
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="run a short traced workload and print the metrics view "
             "(p50/p95/p99 latency table, event tallies)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="run a short traced workload and print the trace view",
    )
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if not args.image and not (args.metrics or args.trace):
        parser.print_usage()
        return 2

    if args.image:
        import os

        from repro.platform.untrusted import FileUntrustedStore

        store = FileUntrustedStore(args.image, os.path.getsize(args.image))
        print(render(attacker_view(store)))
        store.close()

    if args.metrics or args.trace:
        from repro.obs.smoke import run_workload

        run_workload()
        if args.metrics:
            print(render(metrics_view()))
        if args.trace:
            print(render(trace_view()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
