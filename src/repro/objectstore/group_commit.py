"""Group commit: the object store's one commit route, one log flush
amortized over N transactions.

Every :class:`~repro.objectstore.store.Transaction` hands its op batch to
its store's committer.  ``ChunkStore.commit`` holds the writers' lock
end-to-end and (by default) flushes the untrusted store before returning —
correct, durable, and the dominant cost of small transactions.  When many
sessions commit concurrently, serializing those flushes wastes exactly the
time group commit recovers: the **first** arriving committer becomes the
*leader*, takes everything queued (its own entry is at the head) and
issues a single chunk-store commit (one log append span, one flush) on
behalf of the whole batch.  Followers just wait for their entry's wake-up.

The leader commits **one** batch and then *hands leadership off* to the
thread of the first entry still queued: that follower wakes, takes
everything queued by then (up to ``max_batch``) as its batch, and leads
it.  A leader therefore returns as soon as its own transaction is durable
— it never stays to flush the commits of others, and whoever waits behind
the committer (a checkpoint waits for the writers' lock) waits out one
flush, not a drain.  Batches form from contention alone: while a
batch is inside ``ChunkStore.commit``, newly arriving committers enqueue.
Under a single session the queue never holds more than one entry, and
every commit is a batch of one: one chunk-store commit, one flush.

What a concurrent reader may observe (DESIGN.md "Thread safety" has the
whole table): a transaction's writes reach *transactional* readers only
after its commit returned (2PL, below); a ``Session.snapshot`` shows only
durable batches, each atomically; so does the isolation-free
``ObjectStore.read_committed``, as the chunk store installs a batch's
chunks only once its flush has returned.  After each durable batch the
committer invalidates the store's snapshots of the partitions it touched
(``SnapshotManager.invalidate_many``).  A commit's outcome is the store's
alone: once the batch is durable every entry in it succeeds, whatever
that invalidation or the leader's thread does next.

Correctness leans on two existing properties:

* **Disjoint write sets.**  Transactions hold exclusive locks on every
  object they write until *after* their commit returns (2PL shrink phase
  in ``Transaction.commit``'s finally), so two entries in one batch can
  never write the same chunk.  ``_validate_operations``'s duplicate-write
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
from typing import Dict, List, Optional, Sequence

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
        then pass the lead to the first entry queued meanwhile, or resign."""
        with self._mutex:
            batch = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
        batch[0].leads = True
        try:
            self._commit_batch(batch)
        finally:
            # whatever became of this leader, the queue must not be
            # orphaned: somebody leads it, or nobody is marked as leading
            with self._mutex:
                successor = self._queue[0] if self._queue else None
                self._leader_active = successor is not None
            if successor is not None:
                successor.wake.set()

    def _commit_batch(self, batch: List[_Entry]) -> None:
        merged = [op for entry in batch for op in entry.ops]
        try:
            with obs.span("server.group_commit", txs=len(batch), ops=len(merged)):
                self.chunks.commit(merged)
        except BaseException as exc:
            if len(batch) > 1 and isinstance(exc, ChunkStoreError):
                # The merged batch failed its preflight (e.g. an entry with
                # an oversized chunk, or — despite 2PL — overlapping write
                # sets).  Retry each entry alone so only the poison entry
                # fails.
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
