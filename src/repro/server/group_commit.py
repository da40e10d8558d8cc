"""Group commit: one log flush amortized over N transactions.

``ChunkStore.commit`` holds the store lock end-to-end and (by default)
flushes the untrusted store before returning — correct, durable, and the
dominant cost of small transactions.  When many sessions commit
concurrently, serializing those flushes wastes exactly the time group
commit recovers: the **first** arriving committer becomes the *leader*,
drains everything queued behind it, and issues a single chunk-store
commit (one log append span, one flush) on behalf of the whole batch.
Followers just wait for their entry's completion event.

Batches form naturally from contention: while the leader is inside
``ChunkStore.commit``, newly arriving committers enqueue; whoever arrives
first after the leader resigns becomes the next leader and drains the
accumulated queue.  Under a single session the queue never holds more
than one entry and behavior degenerates to exactly the old per-commit
path — group commit costs nothing when there is nothing to amortize.

Correctness leans on two existing properties:

* **Disjoint write sets.**  Transactions hold exclusive locks on every
  object they write until *after* their commit returns (2PL shrink phase
  in ``Transaction.commit``'s finally), so two entries in one batch can
  never write the same chunk.  ``_validate_operations``'s duplicate-write
  preflight remains as defense in depth: if a merged batch fails its
  preflight, the leader falls back to committing each entry separately,
  so a poison entry only fails its own transaction.
* **Atomicity is inherited, not weakened.**  A merged batch is one
  chunk-store commit: either every transaction in it becomes durable or
  none does.  That is *stronger* than the per-transaction contract the
  callers asked for, and recovery needs no changes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro import obs
from repro.chunkstore.store import ChunkStore
from repro.errors import ChunkStoreError


class _Entry:
    """One transaction's commit request riding in the queue."""

    __slots__ = ("ops", "done", "error", "batch_size")

    def __init__(self, ops: List[object]) -> None:
        self.ops = ops
        self.done = threading.Event()
        self.error: Optional[BaseException] = None
        #: size of the batch this entry was committed in (introspection)
        self.batch_size = 0


class GroupCommitter:
    """Leader/follower commit batching over one :class:`ChunkStore`."""

    def __init__(
        self,
        chunks: ChunkStore,
        max_batch: int = 64,
        on_commit: Optional[Callable[[Set[int]], None]] = None,
    ) -> None:
        self.chunks = chunks
        #: largest number of transactions merged into one store commit
        self.max_batch = max(1, max_batch)
        #: called after each durable batch with the set of partition ids
        #: it touched (the server invalidates snapshots through this)
        self.on_commit = on_commit
        self._mutex = threading.Lock()
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
        lead = False
        with self._mutex:
            self._queue.append(entry)
            if not self._leader_active:
                self._leader_active = True
                lead = True
        if lead:
            self._lead()
        entry.done.wait()
        if entry.error is not None:
            raise entry.error

    # -- leader duty ---------------------------------------------------------

    def _lead(self) -> None:
        while True:
            with self._mutex:
                if not self._queue:
                    self._leader_active = False
                    return
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
            self._commit_batch(batch)

    def _commit_batch(self, batch: List[_Entry]) -> None:
        merged = [op for entry in batch for op in entry.ops]
        try:
            with obs.span("server.group_commit", txs=len(batch), ops=len(merged)):
                self.chunks.commit(merged)
        except ChunkStoreError:
            # The merged batch failed its preflight (e.g. an entry with an
            # oversized chunk, or — despite 2PL — overlapping write sets).
            # Retry each entry alone so only the poison entry fails.
            self.fallbacks += 1
            self._commit_singly(batch)
            return
        except BaseException as exc:
            # a mid-commit failure (crash injection, device death) fails
            # the whole batch; the store is now in its failed state and
            # every waiter must hear about it
            for entry in batch:
                entry.error = exc
                entry.done.set()
            return
        self.batches += 1
        self.txs_committed += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        if self.on_commit is not None:
            touched = {
                op.partition for op in merged if hasattr(op, "partition")
            }
            self.on_commit(touched)
        for entry in batch:
            entry.batch_size = len(batch)
            entry.done.set()

    def _commit_singly(self, batch: List[_Entry]) -> None:
        for entry in batch:
            try:
                self.chunks.commit(entry.ops)
            except BaseException as exc:
                entry.error = exc
            else:
                self.batches += 1
                self.txs_committed += 1
                self.largest_batch = max(self.largest_batch, 1)
                if self.on_commit is not None:
                    self.on_commit(
                        {
                            op.partition
                            for op in entry.ops
                            if hasattr(op, "partition")
                        }
                    )
            finally:
                entry.batch_size = 1
                entry.done.set()

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
