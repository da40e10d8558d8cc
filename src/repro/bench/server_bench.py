"""Serving-layer benchmark: ``python -m repro.bench.server_bench``.

Measures what the concurrent serving layer buys over the single-session
commit path, on a device whose ``flush`` has realistic latency (the cost
group commit exists to amortize):

* ``baseline`` — one session committing ``writers * txs`` transactions
  sequentially through the plain ``ObjectStore`` path: one log flush per
  transaction, the pre-server behavior;
* ``concurrent`` — the same total transaction count issued from
  ``writers`` threads through :class:`~repro.server.server.TDBServer`,
  so concurrently-arriving commits share one flush via the
  :class:`~repro.server.group_commit.GroupCommitter`.  ``readers``
  threads serve themselves MVCC snapshots the whole time and count reads
  that complete *inside* an in-flight commit's flush window — the proof
  that snapshot reads never queue behind the commit path.

* ``two_client`` — the end-to-end benchmark's configuration in small: two
  closed-loop clients, each 50 % update transactions / 25 % snapshot
  batches / 25 % live read-only transactions, on the same slow-flush
  device.  Reports ``txs_per_sec`` with the commit p50 **beside** it (a
  throughput gain bought with commit latency is no gain) and the reads
  that completed inside a flush window.  The same loop is run first over
  a device that holds ``ChunkStore._lock`` for the length of its flush —
  the single-lock store of before, emulated in the device so the product
  keeps one commit path — and the floor is the ratio of the two.
* ``snapshot_open_us`` — median cost of ``open_snapshot_view`` + close on
  a partition with a few hundred map vectors and dirty descriptors (what
  a fresh ``Session.snapshot`` pays under both store locks), with a
  ceiling.

Per-transaction commit latency feeds the obs histograms
(``server.tx_commit`` / ``server.tx_commit_baseline``; the committer's
own ``server.group_commit`` histogram times each batch flush), and the
JSON reports their p50/p99.

Results go to ``BENCH_server.json``; ``--check`` exits non-zero unless
the acceptance floors hold (mean commit-batch size > 1, concurrent
throughput ≥ 2× the single-session baseline, at least one snapshot read
completed during an in-flight commit, two-client throughput over the
single-lock emulation, reads inside a flush window against the
emulation's, the snapshot-open ceiling), which CI uses as a
concurrency-regression smoke test.  ``--tiny`` shrinks the run for CI.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.chunkstore import ChunkStore, StoreConfig, WriteChunk, WritePartition
from repro.objectstore.pickling import ObjectRef
from repro.objectstore.store import ObjectStore
from repro.platform.archival import MemoryArchivalStore
from repro.platform.crash import CrashInjector
from repro.platform.secret_store import SecretStore
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import MemoryUntrustedStore
from repro.server import TDBServer

#: acceptance floor: transactions per durable batch, concurrent phase
#: (strictly above 1.0 — otherwise group commit amortized nothing)
MEAN_BATCH_FLOOR = 1.0

#: acceptance floor: concurrent throughput over the sequential baseline
SPEEDUP_FLOOR = 2.0

#: acceptance floor: snapshot reads completed entirely inside a commit's
#: flush window (proof that readers do not block behind the commit path)
READS_DURING_COMMIT_FLOOR = 1

#: acceptance floor: two closed-loop clients over the same loop on a device
#: that holds the store's ``_lock`` across its flush.  Both runs sit just
#: under the device's ceiling (one 2 ms flush per commit: 500/s) and last a
#: second, so the ratio is small and noisy — 0.99–1.19 over 20 pairs, mean
#: 1.04 — and the floor only catches a store that got *slower* (a commit
#: p50 that doubled would); the sensitive floor is the next one, and the
#: 1.3–1.5x of the 8 s end-to-end run is EXPERIMENTS.md's to show
TWO_CLIENT_SPEEDUP_FLOOR = 0.9

#: acceptance floor: live and snapshot reads of the two-client loop that
#: started and finished inside one flush window, as a multiple of what the
#: single-lock emulation lets through — cached objects and lock-free views
#: only (measured 53–74 against 5–14)
READS_IN_FLUSH_WINDOW_FACTOR = 2.0

#: acceptance ceiling (µs): median ``open_snapshot_view`` + close over
#: ``SNAPSHOT_OPEN_OBJECTS`` objects (measured ≈ 100; the seed construction
#: it replaced took ≈ 390 at the same size)
SNAPSHOT_OPEN_CEILING_US = 300.0
SNAPSHOT_OPEN_OBJECTS = 16384

#: the two-client loop: operations per client, objects, reads per batch,
#: padding per object
TWO_CLIENT_OPS = 400
TWO_CLIENT_OBJECTS = 2048
TWO_CLIENT_BATCH = 8
TWO_CLIENT_PAD = 200

#: partition cipher/hash: the cheap stream suite, so device flush latency
#: (what group commit amortizes) dominates the numbers, not crypto
PARTITION_CIPHER = "ctr-sha256"
PARTITION_HASH = "sha1"


class SlowFlushStore(MemoryUntrustedStore):
    """In-memory untrusted store whose ``flush`` takes real time.

    The delay runs *before* ``super().flush()`` — i.e. outside the I/O
    mutex, per the :class:`~repro.platform.untrusted.UntrustedStore`
    contract — modeling a disk whose cache flush stalls the flusher but
    not concurrent readers.  ``flushing`` is readable by other threads
    so the bench can tell which snapshot reads overlapped a flush.
    """

    def __init__(
        self,
        size: int,
        crash_injector: Optional[CrashInjector] = None,
        fault_injector=None,
        flush_delay: float = 0.002,
    ) -> None:
        super().__init__(size, crash_injector, fault_injector)
        self.flush_delay = flush_delay
        #: set to a store's ``_lock`` to hold it for the length of the
        #: flush: the single-lock store this benchmark compares against
        self.hold_across_flush = None
        self.flushing = False
        self.flushes_timed = 0
        self.reads_during_flush = 0
        self._tally_mutex = threading.Lock()

    def read(self, location: int, size: int) -> bytes:
        if self.flushing:
            with self._tally_mutex:
                self.reads_during_flush += 1
        return super().read(location, size)

    def flush(self) -> None:
        held = self.hold_across_flush
        if held is not None:
            held.acquire()
        self.flushing = True
        try:
            time.sleep(self.flush_delay)
        finally:
            self.flushing = False
            if held is not None:
                held.release()
        with self._tally_mutex:
            self.flushes_timed += 1
        super().flush()


def _platform(flush_delay: float) -> TrustedPlatform:
    injector = CrashInjector()
    return TrustedPlatform(
        secret_store=SecretStore(os.urandom(SecretStore.SIZE)),
        tamper_resistant=TamperResistantStore(),
        counter=TamperResistantCounter(),
        untrusted=SlowFlushStore(
            16 * 1024 * 1024, injector, flush_delay=flush_delay
        ),
        archival=MemoryArchivalStore(),
        injector=injector,
    )


def _config() -> StoreConfig:
    return StoreConfig(
        segment_size=64 * 1024,
        system_cipher="ctr-sha256",
        system_hash="sha1",
        validation_mode="counter",
        delta_ut=5,
    )


def _setup(
    flush_delay: float, writers: int
) -> Tuple[TrustedPlatform, ObjectStore, int, List[ObjectRef]]:
    """A fresh store with one counter object per writer, all zero."""
    platform = _platform(flush_delay)
    chunks = ChunkStore.format(platform, _config())
    objects = ObjectStore(chunks)
    pid = objects.create_partition(
        cipher_name=PARTITION_CIPHER, hash_name=PARTITION_HASH
    )
    refs = [ObjectRef(pid, rank) for rank in range(writers)]
    with objects.transaction() as tx:
        for ref in refs:
            tx.create_at(ref, 0)
    return platform, objects, pid, refs


def _run_baseline(
    objects: ObjectStore, refs: List[ObjectRef], txs_per_writer: int
) -> Dict[str, object]:
    """One session, one commit (and one flush) per transaction."""
    total = len(refs) * txs_per_writer
    start = time.perf_counter()
    for _ in range(txs_per_writer):
        for ref in refs:
            tx_start = time.perf_counter()
            with objects.transaction() as tx:
                tx.update(ref, tx.get_for_update(ref) + 1)
            obs.observe("server.tx_commit_baseline", time.perf_counter() - tx_start)
    elapsed = time.perf_counter() - start
    return {
        "txs": total,
        "seconds": round(elapsed, 4),
        "txs_per_sec": round(total / elapsed, 1),
    }


def _run_concurrent(
    objects: ObjectStore,
    pid: int,
    refs: List[ObjectRef],
    txs_per_writer: int,
    readers: int,
    max_batch: int,
) -> Dict[str, object]:
    """N writer sessions + M snapshot readers through the server."""
    device: SlowFlushStore = objects.chunks.platform.untrusted
    errors: List[BaseException] = []
    stop_readers = threading.Event()
    reads_during_commit = [0] * readers
    snapshot_reads = [0] * readers

    with TDBServer(objects, max_batch=max_batch) as server:

        def write_loop(ref: ObjectRef) -> None:
            try:
                with server.session() as session:
                    for _ in range(txs_per_writer):
                        tx_start = time.perf_counter()
                        with session.transaction() as tx:
                            tx.update(ref, tx.get_for_update(ref) + 1)
                        obs.observe(
                            "server.tx_commit", time.perf_counter() - tx_start
                        )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        def read_loop(slot: int) -> None:
            try:
                with server.session() as session:
                    while not stop_readers.is_set():
                        with session.snapshot(pid) as snapshot:
                            for ref in refs:
                                in_flush = device.flushing
                                value = snapshot.get(ref)
                                assert 0 <= value <= txs_per_writer, value
                                snapshot_reads[slot] += 1
                                if in_flush and device.flushing:
                                    # started and finished inside one
                                    # commit's flush window: the reader
                                    # never queued behind the commit path
                                    reads_during_commit[slot] += 1
                        # pace like a real client; an unthrottled spin
                        # would measure GIL contention, not the server
                        time.sleep(0.0005)
            except BaseException as exc:
                errors.append(exc)

        writer_threads = [
            threading.Thread(target=write_loop, args=(ref,)) for ref in refs
        ]
        reader_threads = [
            threading.Thread(target=read_loop, args=(slot,))
            for slot in range(readers)
        ]
        start = time.perf_counter()
        for thread in writer_threads + reader_threads:
            thread.start()
        for thread in writer_threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stop_readers.set()
        for thread in reader_threads:
            thread.join()
        if errors:
            raise errors[0]

        # every counter must show every one of its writer's commits
        with server.session() as session, session.snapshot(pid) as snapshot:
            for ref in refs:
                assert snapshot.get(ref) == txs_per_writer, (
                    f"{ref} lost updates: {snapshot.get(ref)}"
                )
        stats = server.stats()

    total = len(refs) * txs_per_writer
    return {
        "txs": total,
        "seconds": round(elapsed, 4),
        "txs_per_sec": round(total / elapsed, 1),
        "snapshot_reads": sum(snapshot_reads),
        "reads_during_commit": sum(reads_during_commit),
        "device_reads_during_flush": device.reads_during_flush,
        "group_commit": stats["group_commit"],
        "snapshots": stats["snapshots"],
    }


def _run_two_client(
    flush_delay: float, single_lock: bool, seed: int = 7
) -> Dict[str, object]:
    """Two closed-loop clients over the e2e mix (see the module docstring);
    ``single_lock`` makes the device hold ``ChunkStore._lock`` across its
    flush."""
    platform = _platform(flush_delay)
    device: SlowFlushStore = platform.untrusted
    # caches an eighth of the objects, as the e2e workload's are a fraction
    # of its 16k: reads have to reach the chunk store to queue on its lock
    chunks = ChunkStore.format(
        platform,
        dataclasses.replace(
            _config(), payload_cache_bytes=TWO_CLIENT_OBJECTS // 8 * TWO_CLIENT_PAD
        ),
    )
    objects = ObjectStore(chunks, cache_size=TWO_CLIENT_OBJECTS // 8)
    pid = objects.create_partition(
        cipher_name=PARTITION_CIPHER, hash_name=PARTITION_HASH
    )
    pad = bytes(TWO_CLIENT_PAD)
    refs: List[ObjectRef] = []
    for _ in range(0, TWO_CLIENT_OBJECTS, 256):
        with objects.transaction() as tx:
            for _ in range(256):
                refs.append(tx.create(pid, {"count": 0, "pad": pad}))
    chunks.checkpoint()
    if single_lock:
        device.hold_across_flush = chunks._lock
    errors: List[BaseException] = []
    commit_s: List[List[float]] = [[], []]
    in_window = [0, 0]
    increments = [0, 0]
    barrier = threading.Barrier(2)

    with TDBServer(objects) as server:

        def client(number: int) -> None:
            rng = random.Random(seed * 1000 + number)
            try:
                with server.session() as session:
                    barrier.wait()
                    for _ in range(TWO_CLIENT_OPS):
                        kind = rng.random()
                        if kind < 0.5:
                            tx = session.transaction()
                            for ref in sorted(rng.sample(refs, 2)):
                                value = tx.get_for_update(ref)
                                tx.update(ref, {**value, "count": value["count"] + 1})
                            started = time.perf_counter()
                            tx.commit()
                            commit_s[number].append(time.perf_counter() - started)
                            increments[number] += 2
                            continue
                        batch = rng.sample(refs, TWO_CLIENT_BATCH)
                        in_flush = device.flushing
                        if kind < 0.75:
                            with session.snapshot(pid) as snapshot:
                                snapshot.get_many(batch)
                        else:
                            with session.transaction() as tx:
                                for ref in sorted(batch):
                                    tx.get(ref)
                        if in_flush and device.flushing:
                            in_window[number] += 1
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(2)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        with server.session() as session, session.snapshot(pid) as snapshot:
            total = sum(value["count"] for value in snapshot.get_many(refs))
            assert total == sum(increments), f"lost updates: {total}"
        stats = server.stats()
    device.hold_across_flush = None
    chunks.close()
    commits = sorted(commit_s[0] + commit_s[1])
    return {
        "ops": 2 * TWO_CLIENT_OPS,
        "txs": len(commits),
        "seconds": round(elapsed, 4),
        "txs_per_sec": round(len(commits) / elapsed, 1),
        "commit_p50_ms": round(statistics.median(commits) * 1e3, 3),
        "commit_mean_ms": round(statistics.fmean(commits) * 1e3, 3),
        "reads_in_flush_window": sum(in_window),
        "mean_batch_size": stats["group_commit"]["mean_batch_size"],
    }


def _snapshot_open_us(objects_count: int, opens: int = 200) -> Dict[str, object]:
    """Median ``open_snapshot_view`` + close, over a checkpointed partition
    of ``objects_count`` chunks with a few hundred of them dirty again."""
    platform = _platform(0.0)
    chunks = ChunkStore.format(platform, _config())
    pid = chunks.allocate_partition()
    chunks.commit(
        [WritePartition(pid, cipher_name=PARTITION_CIPHER, hash_name=PARTITION_HASH)]
    )
    body = bytes(64)
    for _ in range(0, objects_count, 512):
        chunks.commit(
            [WriteChunk(pid, chunks.allocate_chunk(pid), body) for _ in range(512)]
        )
    chunks.checkpoint()
    chunks.read_chunks(pid, range(objects_count))  # the map is resident
    rng = random.Random(7)
    for _ in range(150):
        chunks.commit(
            [WriteChunk(pid, rank, body) for rank in rng.sample(range(objects_count), 4)]
        )
    cache = chunks.stats()["cache"]
    samples = []
    for _ in range(opens):
        started = time.perf_counter()
        chunks.open_snapshot_view(pid).close()
        samples.append(time.perf_counter() - started)
    chunks.close()
    return {
        "objects": objects_count,
        "vectors": cache["vectors"],
        "dirty_descriptors": cache["dirty_entries"],
        "opens": opens,
        "median_us": round(statistics.median(samples) * 1e6, 1),
    }


def run(
    writers: int,
    txs_per_writer: int,
    readers: int,
    flush_delay_ms: float,
    max_batch: int,
    snapshot_objects: int = SNAPSHOT_OPEN_OBJECTS,
) -> Dict[str, object]:
    obs.reset()  # the latency section below covers this run only
    flush_delay = flush_delay_ms / 1e3
    results: Dict[str, object] = {
        "writers": writers,
        "txs_per_writer": txs_per_writer,
        "readers": readers,
        "flush_delay_ms": flush_delay_ms,
        "max_batch": max_batch,
        "partition_cipher": PARTITION_CIPHER,
        "partition_hash": PARTITION_HASH,
    }

    # -- single-session baseline: one flush per transaction ------------------
    _, objects, _, refs = _setup(flush_delay, writers)
    results["baseline"] = _run_baseline(objects, refs, txs_per_writer)
    objects.chunks.close()

    # -- concurrent sessions through the server ------------------------------
    _, objects, pid, refs = _setup(flush_delay, writers)
    results["concurrent"] = _run_concurrent(
        objects, pid, refs, txs_per_writer, readers, max_batch
    )
    objects.chunks.close()

    baseline_tps = results["baseline"]["txs_per_sec"]
    concurrent_tps = results["concurrent"]["txs_per_sec"]
    results["speedup_vs_baseline"] = round(concurrent_tps / baseline_tps, 2)

    # -- two closed-loop clients: the single-lock emulation, then the store ---
    single_lock = _run_two_client(flush_delay, single_lock=True)
    two_client = _run_two_client(flush_delay, single_lock=False)
    two_client["single_lock"] = single_lock
    two_client["speedup_vs_single_lock"] = round(
        two_client["txs_per_sec"] / single_lock["txs_per_sec"], 2
    )
    results["two_client"] = two_client
    results["snapshot_open_us"] = _snapshot_open_us(snapshot_objects)

    results["floors"] = {
        "mean_batch_size": MEAN_BATCH_FLOOR,
        "speedup": SPEEDUP_FLOOR,
        "reads_during_commit": READS_DURING_COMMIT_FLOOR,
        "two_client_speedup": TWO_CLIENT_SPEEDUP_FLOOR,
        "reads_in_flush_window_factor": READS_IN_FLUSH_WINDOW_FACTOR,
        "snapshot_open_ceiling_us": SNAPSHOT_OPEN_CEILING_US,
    }

    # commit/batch latency percentiles from the obs histograms this run fed
    results["latency"] = {
        name: {
            "count": snap["count"],
            "p50_ms": round(snap["p50_s"] * 1e3, 4),
            "p95_ms": round(snap["p95_s"] * 1e3, 4),
            "p99_ms": round(snap["p99_s"] * 1e3, 4),
            "max_ms": round(snap["max_s"] * 1e3, 4),
        }
        for name, snap in sorted(obs.metrics.snapshot()["histograms"].items())
        if name.startswith("server.")
    }
    return results


def check(results: Dict[str, object]) -> int:
    """Enforce the acceptance floors; returns a process exit status."""
    failed = False
    mean_batch = results["concurrent"]["group_commit"]["mean_batch_size"]
    if mean_batch <= MEAN_BATCH_FLOOR:
        print(
            f"FAIL: mean commit-batch size is {mean_batch:.2f}, must exceed "
            f"{MEAN_BATCH_FLOOR:.1f} (group commit amortized nothing)",
            file=sys.stderr,
        )
        failed = True
    speedup = results["speedup_vs_baseline"]
    if speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: concurrent throughput is {speedup:.2f}x the "
            f"single-session baseline, floor is {SPEEDUP_FLOOR:.1f}x",
            file=sys.stderr,
        )
        failed = True
    overlapped = results["concurrent"]["reads_during_commit"]
    if overlapped < READS_DURING_COMMIT_FLOOR:
        print(
            f"FAIL: {overlapped} snapshot reads completed during an "
            f"in-flight commit, floor is {READS_DURING_COMMIT_FLOOR}",
            file=sys.stderr,
        )
        failed = True
    two_client = results["two_client"]
    if two_client["speedup_vs_single_lock"] < TWO_CLIENT_SPEEDUP_FLOOR:
        print(
            f"FAIL: two closed-loop clients run at "
            f"{two_client['speedup_vs_single_lock']:.2f}x the single-lock "
            f"emulation, floor is {TWO_CLIENT_SPEEDUP_FLOOR:.2f}x (commit p50 "
            f"{two_client['commit_p50_ms']:.2f} ms vs "
            f"{two_client['single_lock']['commit_p50_ms']:.2f} ms)",
            file=sys.stderr,
        )
        failed = True
    in_window = two_client["reads_in_flush_window"]
    in_window_floor = (
        READS_IN_FLUSH_WINDOW_FACTOR * two_client["single_lock"]["reads_in_flush_window"]
    )
    if in_window <= in_window_floor:
        print(
            f"FAIL: {in_window} reads of the two-client loop completed inside "
            f"a flush window, must exceed {in_window_floor:.0f} "
            f"({READS_IN_FLUSH_WINDOW_FACTOR:.0f}x the single-lock emulation's)",
            file=sys.stderr,
        )
        failed = True
    snapshot_open = results["snapshot_open_us"]["median_us"]
    if snapshot_open > SNAPSHOT_OPEN_CEILING_US:
        print(
            f"FAIL: opening a snapshot view takes {snapshot_open:.0f} us, "
            f"ceiling is {SNAPSHOT_OPEN_CEILING_US:.0f} us",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("acceptance floors met")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_server.json", help="output JSON path"
    )
    parser.add_argument(
        "--writers", type=int, default=8, help="concurrent writer sessions"
    )
    parser.add_argument(
        "--txs", type=int, default=12, help="transactions per writer"
    )
    parser.add_argument(
        "--readers", type=int, default=4, help="concurrent snapshot readers"
    )
    parser.add_argument(
        "--flush-delay-ms", type=float, default=2.0,
        help="simulated device flush latency (what group commit amortizes)"
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="group-commit batch cap (transactions per store commit)"
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke sizing (6 writers x 6 txs, 2 readers)"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the acceptance floors are met"
    )
    args = parser.parse_args(argv)
    snapshot_objects = SNAPSHOT_OPEN_OBJECTS
    if args.tiny:
        args.writers, args.txs, args.readers = 6, 6, 2
        snapshot_objects //= 4

    results = run(
        args.writers, args.txs, args.readers, args.flush_delay_ms,
        args.max_batch, snapshot_objects=snapshot_objects,
    )

    baseline = results["baseline"]
    concurrent = results["concurrent"]
    batching = concurrent["group_commit"]
    print(
        f"{'baseline':>11}: {baseline['txs_per_sec']:8.1f} txs/s  "
        f"({baseline['txs']} txs, {baseline['seconds']:.4f} s, 1 session)"
    )
    print(
        f"{'concurrent':>11}: {concurrent['txs_per_sec']:8.1f} txs/s  "
        f"({concurrent['txs']} txs, {concurrent['seconds']:.4f} s, "
        f"{results['writers']} writers + {results['readers']} readers)"
    )
    print(
        f"{'batching':>11}: mean {batching['mean_batch_size']:.2f} txs/commit "
        f"(largest {batching['largest_batch']}, "
        f"{batching['batches']} batches, {batching['fallbacks']} fallbacks)"
    )
    print(
        f"{'snapshots':>11}: {concurrent['snapshot_reads']} reads, "
        f"{concurrent['reads_during_commit']} inside a commit's flush window"
    )
    print(f"speedup vs single session: {results['speedup_vs_baseline']:.2f}x")
    two_client = results["two_client"]
    for label, row in (("single lock", two_client["single_lock"]), ("two clients", two_client)):
        print(
            f"{label:>11}: {row['txs_per_sec']:8.1f} txs/s  commit p50 "
            f"{row['commit_p50_ms']:.2f} ms (mean {row['commit_mean_ms']:.2f}), "
            f"{row['reads_in_flush_window']} reads inside a flush window"
        )
    print(
        f"two clients vs single lock: {two_client['speedup_vs_single_lock']:.2f}x; "
        f"snapshot open {results['snapshot_open_us']['median_us']:.0f} us"
    )

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
