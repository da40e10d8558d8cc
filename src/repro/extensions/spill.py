"""Steal buffer management (§10).

"Currently, modified objects must remain in the cache until their
transaction commits, which may degrade the security and performance of
large transactions.  Evicting dirty objects would require writing them to
the log."

:class:`SpillingObjectStore` lifts the no-steal limitation: when a
transaction's dirty set exceeds ``spill_threshold`` objects, the largest
buffered values are *stolen* — pickled and written (encrypted, validated)
to a per-transaction scratch partition via ordinary chunk-store commits —
leaving only small stubs in memory.  At commit, spilled values are read
back and committed to their real homes; the scratch partition is
deallocated afterwards (and likewise on abort).

Crash safety: a crash mid-transaction leaves an orphaned scratch
partition holding *uncommitted* data.  Scratch partitions carry the
well-known name prefix ``__tx_spill__``; :meth:`SpillingObjectStore.
collect_orphans` deallocates any found at startup (they are, by
construction, never referenced by committed state).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro import obs
from repro.chunkstore.ops import DeallocatePartition, WriteChunk, WritePartition
from repro.chunkstore.store import ChunkStore
from repro.errors import TDBError
from repro.objectstore.pickling import ObjectRef, pickle_value, unpickle_value
from repro.objectstore.store import ObjectStore, Transaction, _DELETED

_SPILL_PREFIX = "__tx_spill__"


class _SpilledValue:
    """Stub left in the transaction buffer for a stolen object."""

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        self.rank = rank


class SpillingTransaction(Transaction):
    """A transaction that may steal dirty objects to trusted storage."""

    def __init__(self, store: "SpillingObjectStore", spill_threshold: int) -> None:
        super().__init__(store)
        self.spill_threshold = spill_threshold
        self._scratch_pid: Optional[int] = None
        self.spilled_count = 0

    # -- stealing ---------------------------------------------------------------

    def _scratch(self) -> int:
        if self._scratch_pid is None:
            chunks = self.store.chunks
            pid = chunks.allocate_partition()
            chunks.commit(
                [
                    WritePartition(
                        pid,
                        cipher_name="ctr-sha256",
                        hash_name="sha1",
                        name=f"{_SPILL_PREFIX}{self.tx_id}",
                    )
                ]
            )
            self._scratch_pid = pid
        return self._scratch_pid

    def _maybe_spill(self) -> None:
        live = [
            (ref, value)
            for ref, value in self._writes.items()
            if value is not _DELETED and not isinstance(value, _SpilledValue)
        ]
        if len(live) <= self.spill_threshold:
            return
        chunks = self.store.chunks
        scratch = self._scratch()
        excess = len(live) - self.spill_threshold
        writes: List[WriteChunk] = []
        for ref, value in live[:excess]:
            rank = chunks.allocate_chunk(scratch)
            writes.append(
                WriteChunk(scratch, rank, pickle_value(value, self.store.registry))
            )
            self._writes[ref] = _SpilledValue(rank)
            self.spilled_count += 1
        chunks.commit(writes)

    def _materialise(self, ref: ObjectRef, value: Any) -> Any:
        if isinstance(value, _SpilledValue):
            data = self.store.chunks.read_chunk(self._scratch_pid, value.rank)
            return unpickle_value(data, self.store.registry)
        return value

    # -- overridden operations ----------------------------------------------------

    def get(self, ref: ObjectRef) -> Any:
        if ref in self._writes and isinstance(self._writes[ref], _SpilledValue):
            return self._materialise(ref, self._writes[ref])
        return super().get(ref)

    def get_for_update(self, ref: ObjectRef) -> Any:
        if ref in self._writes and isinstance(self._writes[ref], _SpilledValue):
            return self._materialise(ref, self._writes[ref])
        return super().get_for_update(ref)

    def update(self, ref: ObjectRef, value: Any) -> None:
        super().update(ref, value)
        self._maybe_spill()

    def create(self, partition: int, value: Any) -> ObjectRef:
        ref = super().create(partition, value)
        self._maybe_spill()
        return ref

    # -- completion -----------------------------------------------------------------

    def commit(self) -> None:
        """Materialise every stolen value, commit normally, then drop the
        scratch partition."""
        # read every stolen value back before the real commit
        for ref, value in list(self._writes.items()):
            if isinstance(value, _SpilledValue):
                self._writes[ref] = self._materialise(ref, value)
        try:
            super().commit()
        finally:
            self._drop_scratch()

    def abort(self) -> None:
        super().abort()
        self._drop_scratch()

    def _drop_scratch(self) -> None:
        if self._scratch_pid is not None:
            try:
                self.store.chunks.commit(
                    [DeallocatePartition(self._scratch_pid)]
                )
            except TDBError as exc:
                # cleanup is best-effort; collect_orphans sweeps later —
                # but the swallow is *recorded*, never silent, and only
                # typed store errors qualify (a foreign exception is a
                # bug and propagates)
                obs.emit(
                    "swallowed_error",
                    where="spill.drop_scratch",
                    error=type(exc).__name__,
                    detail=str(exc),
                )
            self._scratch_pid = None


class SpillingObjectStore(ObjectStore):
    """An object store whose transactions steal dirty objects when large.

    ``spill_threshold`` is the number of dirty objects a transaction may
    hold in trusted memory before stealing begins.
    """

    def __init__(
        self, chunk_store: ChunkStore, spill_threshold: int = 64, **kwargs
    ) -> None:
        super().__init__(chunk_store, **kwargs)
        self.spill_threshold = spill_threshold
        self.collect_orphans()

    def transaction(self) -> SpillingTransaction:
        return SpillingTransaction(self, self.spill_threshold)

    def collect_orphans(self) -> int:
        """Deallocate scratch partitions orphaned by crashes; returns the
        number collected."""
        collected = 0
        for pid in list(self.chunks.partition_ids()):
            try:
                name = self.chunks.partition_info(pid)["name"]
            except TDBError as exc:
                # an unreadable leader (quarantined, tampered) just means
                # this partition cannot be swept now; record the skip
                obs.emit(
                    "swallowed_error",
                    where="spill.collect_orphans",
                    error=type(exc).__name__,
                    partition=pid,
                )
                continue
            if name.startswith(_SPILL_PREFIX):
                self.chunks.commit([DeallocatePartition(pid)])
                collected += 1
        return collected
