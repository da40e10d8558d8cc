"""Group commit: the object store's one commit route, one log flush
amortized over N transactions.

Every :class:`~repro.objectstore.store.Transaction` hands its op batch to
its store's committer.  ``ChunkStore.commit`` makes the batch durable
before it returns — correct, and the device flush is the dominant cost of
small transactions.  When many sessions commit concurrently, group commit
amortizes it: the **first** arriving committer becomes the *leader*,
takes everything queued (its own entry is at the head) and issues a
single chunk-store commit (one log append span, one flush) on behalf of
the whole batch.  Followers just wait for their entry's wake-up.

The leader commits **one** batch and *hands leadership off* to the thread
of the first entry still queued — as soon as the chunk store has sealed
the batch and released its writers' lock (the ``sealed`` seam of
``ChunkStore.commit``), not once the batch is durable.  That follower
wakes, takes everything queued by then (up to ``max_batch``) as its
batch, and leads it: the next batch appends and starts its own flush
while the previous one's is in flight (the store finishes sets in the
order they were sealed, so the later batch is acknowledged after the
earlier).  A store commit that keeps the writers' lock to the end never
calls the seam, and the lead passes once it returns, as it always did.
A leader returns as soon as its own transaction is durable — it never
stays to flush the commits of others.  Batches form from contention
alone: while a batch is being appended, or while its predecessor's
commit holds the writers' lock, newly arriving committers enqueue; with
the queue empty at the hand-off, the next arrival leads at once.  Under
a single session the queue never holds more than one entry, and every
commit is a batch of one: one chunk-store commit, one flush.

What a concurrent reader may observe (DESIGN.md "Thread safety" has the
whole table): a transaction's writes reach *transactional* readers only
after its commit returned (2PL, below); a ``Session.snapshot`` shows only
durable batches, each atomically; so does the isolation-free
``ObjectStore.read_committed``, as the chunk store installs a batch's
chunks only once its flush has returned, and after every batch sealed
before it.  After each durable batch the committer invalidates the
store's snapshots of the partitions it touched
(``SnapshotManager.invalidate_many``).  A commit's outcome is the store's
alone: once the batch is durable every entry in it succeeds, whatever
that invalidation or the leader's thread does next.  If the store fails
a batch, every batch sealed after it fails too, with
:class:`~repro.errors.CommitOutcomeUnknownError` unless its own flush
failed (it is in the log: recovery decides, never keeping it without the
failed batch), and every batch that comes to the store afterwards is
refused at its gate with a ``ChunkStoreError``, nothing of it written; a
batch sealed *before* the failed one is durable once its flush returns,
and succeeds.

Correctness leans on two existing properties:

* **Disjoint write sets.**  Transactions hold exclusive locks on every
  object they write until *after* their commit returns (2PL shrink phase
  in ``Transaction.commit``'s finally), so two entries in one batch can
  never write the same chunk — nor can two batches in flight at once (a
  later one's entries could not lock those objects before the earlier
  commit returned; should two sets name one chunk all the same, the store
  makes the later one wait for the earlier).  ``_validate_operations``'s duplicate-write
  preflight remains as defense in depth: if a merged batch of two or more
  entries fails its preflight, the leader falls back to committing each
  entry separately, so a poison entry only fails its own transaction.  A
  batch of one is never retried: its error is its entry's.
* **Atomicity is inherited, not weakened.**  A merged batch is one
  chunk-store commit: either every transaction in it becomes durable or
  none does.  That is *stronger* than the per-transaction contract the
  callers asked for, and recovery needs no changes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.chunkstore.store import ChunkStore
from repro.errors import ChunkStoreError
from repro.objectstore.snapshots import SnapshotManager


class _Entry:
    """One transaction's commit request riding in the queue."""

    __slots__ = ("ops", "wake", "leads", "finished", "error", "batch_size")

    def __init__(self, ops: List[object]) -> None:
        self.ops = ops
        #: set once, by a leader: either this entry is ``finished`` (it
        #: rode in the leader's batch), or its thread leads the next batch
        self.wake = threading.Event()
        #: this entry's thread is the leader of the batch it rides in
        self.leads = False
        self.finished = False
        self.error: Optional[BaseException] = None
        #: size of the batch this entry was committed in (introspection)
        self.batch_size = 0


class GroupCommitter:
    """Leader/follower commit batching over one :class:`ChunkStore`."""

    def __init__(
        self, chunks: ChunkStore, snapshots: SnapshotManager, max_batch: int = 64
    ) -> None:
        self.chunks = chunks
        #: invalidated after each durable batch for the partitions it touched
        self.snapshots = snapshots
        #: largest number of transactions merged into one store commit
        self.max_batch = max(1, max_batch)
        self._mutex = threading.Lock()
        #: entries no leader has taken yet; while ``_leader_active`` the
        #: head is the next leader's own entry
        self._queue: List[_Entry] = []
        self._leader_active = False
        # -- tallies ---------------------------------------------------
        self.batches = 0
        self.txs_committed = 0
        self.largest_batch = 0
        self.fallbacks = 0

    # -- the public seam (Transaction.commit routes here) -------------------

    def commit(self, ops: Sequence[object]) -> None:
        """Commit ``ops`` durably, possibly merged with concurrent calls.

        Blocks until this request's operations are durable (or failed);
        raises exactly what ``ChunkStore.commit`` would have raised for
        them."""
        entry = _Entry(list(ops))
        with self._mutex:
            self._queue.append(entry)
            lead = not self._leader_active
            self._leader_active = True
        if not lead:
            entry.wake.wait()  # finished, or handed the lead
        if not entry.finished:
            self._lead()
        if entry.error is not None:
            raise entry.error

    # -- leader duty ---------------------------------------------------------

    def _lead(self) -> None:
        """Commit one batch — the caller's entry is at the queue's head —
        and pass the lead to the first entry queued meanwhile, or resign:
        as soon as the store has sealed the batch and released its
        writers' lock (the next batch then appends while this one
        flushes), else once the batch is done."""
        with self._mutex:
            batch = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
        batch[0].leads = True
        handed = False

        def hand_off() -> None:
            # once: from the store's seal (perhaps on the thread that
            # finished the batch before), or from the ``finally`` below —
            # whatever became of this leader, the queue must not be
            # orphaned: somebody leads it, or nobody is marked as leading
            nonlocal handed
            with self._mutex:
                if handed:
                    return
                handed = True
                successor = self._queue[0] if self._queue else None
                self._leader_active = successor is not None
            if successor is not None:
                successor.wake.set()

        try:
            self._commit_batch(batch, hand_off)
        finally:
            hand_off()

    def _commit_batch(self, batch: List[_Entry], sealed: Callable[[], None]) -> None:
        merged = [op for entry in batch for op in entry.ops]
        try:
            with obs.span("server.group_commit", txs=len(batch), ops=len(merged)):
                self.chunks.commit(merged, sealed=sealed)
        except BaseException as exc:
            if len(batch) > 1 and isinstance(exc, ChunkStoreError):
                # The store refused the merged batch before writing any of
                # it: its preflight failed (e.g. an entry with an oversized
                # chunk, or — despite 2PL — overlapping write sets), or the
                # store is failed.  Retry each entry alone so only the
                # poison entry fails.
                self.fallbacks += 1
                for entry in batch:
                    self._commit_alone(entry)
                return
            # a lone entry's error is its own (retrying it would commit it
            # twice, or hide the error behind the failed state it left); a
            # mid-commit failure (crash injection, device death) fails the
            # whole batch: the store is now in its failed state and every
            # waiter must hear about it
            for entry in batch:
                entry.error = exc
                self._finish(entry, len(batch))
            return
        self._durable(batch, merged)

    def _commit_alone(self, entry: _Entry) -> None:
        try:
            self.chunks.commit(entry.ops)
        except BaseException as exc:
            entry.error = exc
            self._finish(entry, 1)
        else:
            self._durable([entry], entry.ops)

    def _durable(self, batch: List[_Entry], ops: List[object]) -> None:
        """The store made ``batch`` durable: nothing from here on can take
        that back, so every entry completes successfully."""
        self.batches += 1
        self.txs_committed += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        try:
            self.snapshots.invalidate_many({op.partition for op in ops})
        except Exception as exc:
            # the invalidation's trouble, not the transactions': recorded
            # (the event log keeps the count), and no snapshot stays current
            # for these partitions even then (SnapshotManager.invalidate_many)
            obs.emit(
                "group_commit_hook_failed",
                error=type(exc).__name__,
                detail=str(exc),
                txs=len(batch),
            )
        finally:
            for entry in batch:
                self._finish(entry, len(batch))

    @staticmethod
    def _finish(entry: _Entry, batch_size: int) -> None:
        entry.batch_size = batch_size
        entry.finished = True
        if not entry.leads:  # the leader is awake: it is running this
            entry.wake.set()

    # -- introspection -------------------------------------------------------

    def mean_batch_size(self) -> float:
        return self.txs_committed / self.batches if self.batches else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "txs_committed": self.txs_committed,
            "mean_batch_size": round(self.mean_batch_size(), 3),
            "largest_batch": self.largest_batch,
            "fallbacks": self.fallbacks,
        }
