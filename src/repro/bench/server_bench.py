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

  Both run per row of ``ROWS`` (``TINY_ROWS`` under ``--tiny``), and each
  side of every pair is the best of ``PAIR_REPEATS`` alternating runs.
* ``cpu_bound`` — the same pair, four writers, on a device whose flush
  takes no time: §2.2's "geared to low concurrency" — with no I/O to
  overlap, commits are mutually exclusive CPU work and do not scale (nor
  are they pipelined: the store overlaps only a flush that takes time,
  ``PIPELINE_MIN_FLUSH_S``, so this pair and the ones above sit on the
  two sides of that choice).
* ``two_client`` — the end-to-end benchmark's configuration in small: two
  closed-loop clients, each 50 % update transactions / 25 % snapshot
  batches / 25 % live read-only transactions, on the same slow-flush
  device.  Reports ``txs_per_sec`` with the commit p50 **beside** it (a
  throughput gain bought with commit latency is no gain) and the reads
  that completed inside a flush window, and the snapshot batches among
  them that opened a fresh view (a view opens on the last durable state
  without waiting for the flush: a store whose views waited had none),
  and the commit sets sealed while another set's flush was in flight
  (the next commit appends while the previous one flushes: a store whose
  commit held the writers' lock across its flush had none; the device
  counts them, as the flushes begun inside another one's window).
  The same loop is run first over the single-lock store of before,
  emulated without a second commit path: no commit is pipelined (the
  store's threshold for a flush worth overlapping is raised out of
  reach), and the device holds ``ChunkStore._lock`` for the length of its
  flush — and the floors are the ratios of the two.
* ``snapshot_open_us`` — median cost of ``open_snapshot_view`` + close
  right after a commit, on a partition with a few hundred map vectors
  (what a fresh ``Session.snapshot`` pays under the store's ``_lock``
  once a commit has moved the image on), with a ceiling: once with a few
  hundred dirty descriptors, once with as many as the checkpoint
  threshold lets pile up.  Beside it, the descriptor-cache entries the
  freezes copied per open, as a share of the cache: the view's seed
  shares the base the last freeze built and copies the delta since, so a
  return to whole-cache copies reads 1.0 at any machine speed.

Per-transaction commit latency feeds the obs histograms
(``server.tx_commit`` / ``server.tx_commit_baseline``; the committer's
own ``server.group_commit`` histogram times each batch flush, the
baseline's batches of one included), and the results report their
p50/p99.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.bench import Floor, bench_config, latency
from repro.chunkstore import ChunkStore, StoreConfig, WriteChunk, WritePartition
from repro.chunkstore import store as store_module
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
    # two closed-loop clients over the same loop on the single-lock
    # emulation (nothing pipelined, ``_lock`` held across each flush).  The
    # store's commit waits about one 2 ms flush (the next client's commit
    # appends and flushes during it: ≈ 2.8 ms p50, ≈ 475 txs/s); the
    # emulation's longer, as a commit flushing holds both locks (≈ 3.2–4
    # ms, ≈ 250–300 txs/s, as the single-lock store read before commits
    # were pipelined).  Each run lasts about a second, so the ratio is
    # noisy, and the floor only catches a store that got *slower* than
    # that emulation; the sensitive floors are the window counts below, and
    # the gain of the 8 s end-to-end run is EXPERIMENTS.md's to show
    Floor("two_client_speedup", ("two_client", "speedup_vs_single_lock"), ">=", 0.9),
    # live and snapshot reads of the two-client loop that started and
    # finished inside one flush window, over what the single-lock emulation
    # lets through — cached objects and lock-free views only (measured
    # ≈ 370 against 5–7 with commits pipelined; 53–85 against 4–14 before)
    Floor(
        "reads_in_flush_window", ("two_client", "reads_in_flush_window"), ">", 2.0,
        of=("two_client", "single_lock", "reads_in_flush_window"),
    ),
    # snapshot batches of the two-client loop that opened a fresh view and
    # finished inside the flush window they started in: a view opens on
    # the last durable state while another session's commit flushes.  A
    # store whose views waited for the writers' lock had none by
    # construction (the flusher holds it for the whole window)
    Floor(
        "fresh_views_in_flush_window",
        ("two_client", "fresh_views_in_flush_window"), ">=", 1,
    ),
    # commit sets of the two-client loop sealed while another set's device
    # flush was in flight — the device's flushes begun inside another
    # one's window: the next batch appends and flushes while the previous
    # one flushes.  A store whose commit held the writers' lock across its
    # flush (the emulation's) had none by construction
    Floor(
        "sets_sealed_in_flush_window",
        ("two_client", "sets_sealed_in_flush_window"), ">=", 1,
    ),
    # µs, median ``open_snapshot_view`` + close right after a commit over
    # ``SNAPSHOT_OPEN_OBJECTS`` objects, per dirty-set size (measured ≈ 21
    # with 600 dirty descriptors and ≈ 22 with 4,085; a seed that copied
    # the whole cache and keyed its own crypto took ≈ 90 and ≈ 140 there)
    Floor("snapshot_open_us", ("snapshot_open_us", "*", "median_us"), "<=", 300.0),
    # descriptor-cache entries the freezes copied per open, over the
    # entries the cache holds: a seed shares its base and copies the delta
    # since (measured ≈ 0.1; a whole-cache copy per open reads 1.0)
    Floor(
        "snapshot_open_copied_share",
        ("snapshot_open_us", "*", "copied_share"), "<=", 0.5,
    ),
    # §2.2, "geared to low concurrency": on a device with no flush latency
    # the concurrent writers stay under twice the one session's throughput
    # (1.43–1.67 over 20 runs on a 2-core box: batches of ≈ 2.4 save only
    # the per-commit fixed cost.  Such a flush is not pipelined; when it
    # was, hand-offs at the seal with nothing to overlap cut batches to
    # ≈ 1.6 and the ratio to 0.8)
    Floor("cpu_bound_speedup", ("cpu_bound", "speedup_vs_baseline"), "<", 2.0),
)

#: (writers, transactions per writer, snapshot readers) of the baseline /
#: concurrent pair: the default sizing, then a deeper 16-writer row.  The
#: tiny row is short but wide: 16 writers batch ≈ 5× (3.1–4.4× with both
#: cores of a 2-core box busy), where 6 writers' ≈ 2.4× fell under the 2×
#: floor on a busy machine
ROWS = ((8, 12, 4), (16, 16, 8))
TINY_ROWS = ((16, 6, 2),)

#: writers and transactions each of the no-latency pair (§2.2)
CPU_BOUND_WRITERS = 4
CPU_BOUND_TXS = 40
#: alternating baseline / concurrent runs of every pair, each side's
#: fastest kept: a load spike on the machine does not land on one side only
PAIR_REPEATS = 3

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
    not concurrent readers.  Flushes may overlap (a pipelined commit
    flushes while the one sealed before it still does): a *flush window*
    runs from a flush that finds none in flight to the moment none is.
    ``flushing`` is readable by other threads so the bench can tell which
    snapshot reads overlapped a window.
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
        #: a flush window is open
        self.flushing = False
        #: flush windows opened: while ``flushing``, the number of this one
        self.windows = 0
        #: flushes begun inside another one's window: each is a commit
        #: set's that was sealed while that one flushed
        self.overlapped_flushes = 0
        self.reads_during_flush = 0
        self._in_flight = 0
        self._tally_mutex = threading.Lock()

    def window(self) -> Optional[int]:
        """The number of the open flush window, or ``None``.  Work that
        finds the same number at its start and at its end ran inside that
        one window."""
        number = self.windows
        return number if self.flushing and self.windows == number else None

    def _tally_read(self) -> None:
        if self.flushing:
            with self._tally_mutex:
                self.reads_during_flush += 1

    def read(self, location: int, size: int) -> bytes:
        self._tally_read()
        return super().read(location, size)

    def read_many(self, extents: List[Tuple[int, int]]) -> List[bytes]:
        self._tally_read()  # one round trip, as IOStats counts it
        return super().read_many(extents)

    def flush(self) -> None:
        held = self.hold_across_flush
        if held is not None:
            held.acquire()
        with self._tally_mutex:
            if self._in_flight:
                self.overlapped_flushes += 1
            else:
                self.windows += 1
                self.flushing = True
            self._in_flight += 1
        try:
            time.sleep(self.flush_delay)
        finally:
            with self._tally_mutex:
                self._in_flight -= 1
                self.flushing = self._in_flight > 0
            if held is not None:
                held.release()
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


def _setup(writers: int, flush_delay: float) -> Tuple[ObjectStore, int, List[ObjectRef]]:
    """A fresh store with one counter object per writer, all zero."""
    objects = ObjectStore(ChunkStore.format(_platform(flush_delay), bench_config()))
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
                                window = device.window()
                                value = snapshot.get(ref)
                                assert 0 <= value <= txs_per_writer, value
                                snapshot_reads[slot] += 1
                                if window is not None and device.window() == window:
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


@contextmanager
def _single_lock(chunks: ChunkStore) -> Iterator[None]:
    """Make ``chunks`` the single-lock store of before: no commit is
    pipelined (no flush is worth overlapping to it), so each keeps the
    writers' lock through its flush, and the device holds ``_lock`` across
    the flush as well."""
    threshold = store_module.PIPELINE_MIN_FLUSH_S
    store_module.PIPELINE_MIN_FLUSH_S = math.inf
    chunks.platform.untrusted.hold_across_flush = chunks._lock
    try:
        yield
    finally:
        store_module.PIPELINE_MIN_FLUSH_S = threshold
        chunks.platform.untrusted.hold_across_flush = None


def _run_two_client(single_lock: bool, seed: int = 7) -> Dict[str, object]:
    """Two closed-loop clients over the e2e mix (see the module docstring);
    ``single_lock`` runs them over :func:`_single_lock`."""
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
    overlapped_before = device.overlapped_flushes
    errors: List[BaseException] = []
    commit_s: List[List[float]] = [[], []]
    in_window = [0, 0]
    fresh_in_window = [0, 0]
    increments = [0, 0]
    barrier = threading.Barrier(2)

    with _single_lock(chunks) if single_lock else nullcontext(), TDBServer(
        objects
    ) as server:

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
                        window = device.window()
                        opened = chunks.snapshot_views_opened
                        if kind < 0.75:
                            with session.snapshot(pid) as snapshot:
                                snapshot.get_many(batch)
                        else:
                            with session.transaction() as tx:
                                for ref in sorted(batch):
                                    tx.get(ref)
                        if window is not None and device.window() == window:
                            in_window[number] += 1
                            # the other client is the flusher: a view
                            # opened in the window is this batch's own
                            if chunks.snapshot_views_opened > opened:
                                fresh_in_window[number] += 1
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
        "fresh_views_in_flush_window": sum(fresh_in_window),
        "sets_sealed_in_flush_window": device.overlapped_flushes - overlapped_before,
        "mean_batch_size": stats["group_commit"]["mean_batch_size"],
    }


def _snapshot_open_us(
    objects_count: int, dirty: int, opens: int = 200
) -> Dict[str, object]:
    """Median ``open_snapshot_view`` + close right after a commit, over a
    checkpointed partition of ``objects_count`` chunks with about ``dirty``
    of them dirty again (below the checkpoint threshold, which would clean
    them), and the descriptor-cache entries the freezes copied.  Each
    commit rewrites four of the dirty chunks, so the dirty set keeps its
    size and no checkpoint runs."""
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
    written: List[int] = []
    while chunks.stats()["cache"]["dirty_entries"] < dirty - 4:
        ranks = rng.sample(range(objects_count), 4)
        chunks.commit([WriteChunk(pid, rank, body) for rank in ranks])
        written.extend(ranks)
    cache = chunks.stats()["cache"]
    samples = []
    for _ in range(opens):
        chunks.commit(
            [WriteChunk(pid, rank, body) for rank in set(rng.sample(written, 4))]
        )
        started = time.perf_counter()
        chunks.open_snapshot_view(pid).close()
        samples.append(time.perf_counter() - started)
    after = chunks.stats()["cache"]
    chunks.close()
    copied = (after["frozen_entries"] - cache["frozen_entries"]) / opens
    return {
        "objects": objects_count,
        "vectors": after["vectors"],
        "dirty_descriptors": after["dirty_entries"],
        "opens": opens,
        "median_us": round(statistics.median(samples) * 1e6, 1),
        "copied_per_open": round(copied, 1),
        "copied_share": round(copied / (after["vectors"] + after["dirty_entries"]), 3),
    }


def _pair(
    writers: int,
    txs_per_writer: int,
    readers: int,
    flush_delay: float,
) -> Dict[str, object]:
    """The single-session baseline (one flush per transaction) and the same
    transactions from ``writers`` concurrent sessions through the server,
    each on a fresh store whose flush takes ``flush_delay``: ``PAIR_REPEATS``
    alternating runs of each, and each side's fastest kept."""
    row: Dict[str, object] = {
        "writers": writers, "txs_per_writer": txs_per_writer, "readers": readers,
    }
    for _ in range(PAIR_REPEATS):
        objects, _, refs = _setup(writers, flush_delay)
        baseline = _run_baseline(objects, refs, txs_per_writer)
        objects.chunks.close()
        objects, pid, refs = _setup(writers, flush_delay)
        concurrent = _run_concurrent(objects, pid, refs, txs_per_writer, readers)
        objects.chunks.close()
        for side, result in (("baseline", baseline), ("concurrent", concurrent)):
            if side not in row or result["txs_per_sec"] > row[side]["txs_per_sec"]:
                row[side] = result
    row["speedup_vs_baseline"] = round(
        row["concurrent"]["txs_per_sec"] / row["baseline"]["txs_per_sec"], 2
    )
    return row


def run(tiny: bool) -> Dict[str, object]:
    obs.reset()  # the latency section below covers this run only
    results: Dict[str, object] = {
        "flush_delay_ms": FLUSH_DELAY * 1e3,
        "partition_cipher": PARTITION_CIPHER,
        "partition_hash": PARTITION_HASH,
        "rows": {},
    }
    for writers, txs_per_writer, readers in TINY_ROWS if tiny else ROWS:
        results["rows"][f"{writers}w{txs_per_writer}t{readers}r"] = _pair(
            writers, txs_per_writer, readers, FLUSH_DELAY
        )
    # §2.2: with nothing to overlap (a flush that takes no time) the same
    # pair does not scale: commits are mutually exclusive CPU work
    results["cpu_bound"] = _pair(CPU_BOUND_WRITERS, CPU_BOUND_TXS, 0, 0.0)

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
