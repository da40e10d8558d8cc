"""The ``server`` phase of ``python -m repro.bench``: what the concurrent
serving layer buys over the single-session commit path.

Runs on a device whose ``flush`` has realistic latency (the cost group
commit exists to amortize):

* ``baseline`` — one session committing ``writers * txs`` transactions
  sequentially, with no server: they go through the same
  :class:`~repro.objectstore.group_commit.GroupCommitter` as every
  commit, but one at a time, so every batch holds one transaction and
  pays one log flush;
* ``concurrent`` — the same total transaction count issued from
  ``writers`` threads through :class:`~repro.server.server.TDBServer`,
  so concurrently-arriving commits share one flush in the committer's
  batches.  ``readers``
  threads serve themselves MVCC snapshots the whole time and count reads
  that complete *inside* an in-flight commit's flush window — the proof
  that snapshot reads never queue behind the commit path.

  Both run once per row of ``ROWS`` (``TINY_ROWS`` under ``--tiny``).
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
  a partition with a few hundred map vectors (what a fresh
  ``Session.snapshot`` pays under both store locks), with a ceiling: once
  with a few hundred dirty descriptors, once with as many as the
  checkpoint threshold lets pile up (the view's seed copies them all).

Per-transaction commit latency feeds the obs histograms
(``server.tx_commit`` / ``server.tx_commit_baseline``; the committer's
own ``server.group_commit`` histogram times each batch flush, the
baseline's batches of one included), and the results report their
p50/p99.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.bench import Floor, bench_config, latency
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

FLOORS = (
    # transactions per durable batch: above 1.0, or group commit amortized
    # nothing
    Floor(
        "mean_batch_size", ("rows", "*", "concurrent", "group_commit", "mean_batch_size"),
        ">", 1.0,
    ),
    # concurrent throughput over the sequential baseline
    Floor("speedup", ("rows", "*", "speedup_vs_baseline"), ">=", 2.0),
    # snapshot reads completed entirely inside a commit's flush window:
    # readers do not block behind the commit path
    Floor("reads_during_commit", ("rows", "*", "concurrent", "reads_during_commit"), ">=", 1),
    # two closed-loop clients over the same loop on a device that holds the
    # store's ``_lock`` across its flush.  Both runs sit just under the
    # device's ceiling (one 2 ms flush per commit: 500/s) and last a second,
    # so the ratio is small and noisy — 0.99–1.19 over 20 pairs, mean 1.04 —
    # and the floor only catches a store that got *slower* (a commit p50
    # that doubled would); the sensitive floor is the next one, and the
    # 1.3–1.5x of the 8 s end-to-end run is EXPERIMENTS.md's to show
    Floor("two_client_speedup", ("two_client", "speedup_vs_single_lock"), ">=", 0.9),
    # live and snapshot reads of the two-client loop that started and
    # finished inside one flush window, over what the single-lock emulation
    # lets through — cached objects and lock-free views only (measured
    # 53–74 against 5–14)
    Floor(
        "reads_in_flush_window", ("two_client", "reads_in_flush_window"), ">", 2.0,
        of=("two_client", "single_lock", "reads_in_flush_window"),
    ),
    # µs, median ``open_snapshot_view`` + close over ``SNAPSHOT_OPEN_OBJECTS``
    # objects, per dirty-set size (measured ≈ 45 with 600 dirty descriptors
    # and ≈ 70 with 4,085; a seed that filtered out other partitions' keys
    # in Python took ≈ 185 at 4,085)
    Floor("snapshot_open_us", ("snapshot_open_us", "*", "median_us"), "<=", 300.0),
)

#: (writers, transactions per writer, snapshot readers) of the baseline /
#: concurrent pair: the default sizing, then a deeper 16-writer row.  The
#: tiny row is short but wide: 16 writers batch ≈ 5× (3.1–4.4× with both
#: cores of a 2-core box busy), where 6 writers' ≈ 2.4× fell under the 2×
#: floor on a busy machine
ROWS = ((8, 12, 4), (16, 16, 8))
TINY_ROWS = ((16, 6, 2),)

#: simulated device flush latency (what group commit amortizes)
FLUSH_DELAY = 0.002

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


def _setup(writers: int) -> Tuple[ObjectStore, int, List[ObjectRef]]:
    """A fresh store with one counter object per writer, all zero."""
    objects = ObjectStore(ChunkStore.format(_platform(FLUSH_DELAY), bench_config()))
    pid = objects.create_partition(
        cipher_name=PARTITION_CIPHER, hash_name=PARTITION_HASH
    )
    refs = [ObjectRef(pid, rank) for rank in range(writers)]
    with objects.transaction() as tx:
        for ref in refs:
            tx.create_at(ref, 0)
    return objects, pid, refs


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
) -> Dict[str, object]:
    """N writer sessions + M snapshot readers through the server."""
    device: SlowFlushStore = objects.chunks.platform.untrusted
    errors: List[BaseException] = []
    stop_readers = threading.Event()
    reads_during_commit = [0] * readers
    snapshot_reads = [0] * readers

    with TDBServer(objects) as server:

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


def _run_two_client(single_lock: bool, seed: int = 7) -> Dict[str, object]:
    """Two closed-loop clients over the e2e mix (see the module docstring);
    ``single_lock`` makes the device hold ``ChunkStore._lock`` across its
    flush."""
    platform = _platform(FLUSH_DELAY)
    device: SlowFlushStore = platform.untrusted
    # caches an eighth of the objects, as the e2e workload's are a fraction
    # of its 16k: reads have to reach the chunk store to queue on its lock
    chunks = ChunkStore.format(
        platform,
        bench_config(payload_cache_bytes=TWO_CLIENT_OBJECTS // 8 * TWO_CLIENT_PAD),
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


def _snapshot_open_us(
    objects_count: int, dirty: int, opens: int = 200
) -> Dict[str, object]:
    """Median ``open_snapshot_view`` + close, over a checkpointed partition
    of ``objects_count`` chunks with about ``dirty`` of them dirty again
    (below the checkpoint threshold, which would clean them)."""
    platform = _platform(0.0)
    chunks = ChunkStore.format(platform, bench_config())
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
    while chunks.stats()["cache"]["dirty_entries"] < dirty - 4:
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


def run(tiny: bool) -> Dict[str, object]:
    obs.reset()  # the latency section below covers this run only
    results: Dict[str, object] = {
        "flush_delay_ms": FLUSH_DELAY * 1e3,
        "partition_cipher": PARTITION_CIPHER,
        "partition_hash": PARTITION_HASH,
        "rows": {},
    }
    for writers, txs_per_writer, readers in TINY_ROWS if tiny else ROWS:
        row: Dict[str, object] = {
            "writers": writers, "txs_per_writer": txs_per_writer, "readers": readers,
        }
        # single-session baseline: one flush per transaction
        objects, _, refs = _setup(writers)
        row["baseline"] = _run_baseline(objects, refs, txs_per_writer)
        objects.chunks.close()
        # concurrent sessions through the server
        objects, pid, refs = _setup(writers)
        row["concurrent"] = _run_concurrent(objects, pid, refs, txs_per_writer, readers)
        objects.chunks.close()
        row["speedup_vs_baseline"] = round(
            row["concurrent"]["txs_per_sec"] / row["baseline"]["txs_per_sec"], 2
        )
        results["rows"][f"{writers}w{txs_per_writer}t{readers}r"] = row

    # two closed-loop clients: the single-lock emulation, then the store
    single_lock = _run_two_client(single_lock=True)
    two_client = _run_two_client(single_lock=False)
    two_client["single_lock"] = single_lock
    two_client["speedup_vs_single_lock"] = round(
        two_client["txs_per_sec"] / single_lock["txs_per_sec"], 2
    )
    results["two_client"] = two_client
    threshold = StoreConfig().checkpoint_dirty_threshold - 8
    results["snapshot_open_us"] = {
        "few_dirty": _snapshot_open_us(
            SNAPSHOT_OPEN_OBJECTS // 4 if tiny else SNAPSHOT_OPEN_OBJECTS, 600
        ),
        # four writes a commit stay under the threshold: no checkpoint
        "threshold_dirty": _snapshot_open_us(
            max(SNAPSHOT_OPEN_OBJECTS, 4 * threshold), threshold
        ),
    }
    results["latency"] = latency("server.")  # commit and batch percentiles
    return results
