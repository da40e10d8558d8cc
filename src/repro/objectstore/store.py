"""The object store (§7): type-safe, transactional access to objects.

Objects are pickled and stored **one per chunk** — the paper's deliberate
choice: it minimises the volume encrypted/hashed/logged per commit and
keeps the cache simple (no chunk ever mixes committed and uncommitted
objects), at the price of inter-object clustering, which doesn't matter
when the working set is cached (§7).

Transactions
============

:class:`Transaction` provides two-phase locking with shared/exclusive
modes and timeout-based deadlock breaking; it keeps a table of the locks
it holds, so reading or writing a ref it already holds never reaches the
lock manager.  Buffering is *no-steal*:
modified objects stay in the transaction's private buffer until commit,
when they are pickled and handed to the chunk store as a single atomic
commit — so transaction atomicity rides directly on chunk-store commit
atomicity, and aborts never touch persistent state.  Every commit goes
through the store's one :class:`~repro.objectstore.group_commit.GroupCommitter`,
which merges concurrently arriving transactions into one chunk-store
commit (a lone transaction is a batch of one) and, once a batch is
durable, invalidates the store's MVCC snapshots (``store.snapshots``,
:mod:`repro.objectstore.snapshots`).

Usage::

    store = ObjectStore(chunk_store)
    pid = store.create_partition(cipher_name="des-cbc", hash_name="sha1")
    with store.transaction() as tx:
        ref = tx.create(pid, {"balance": 100})
        root = tx.get(store.root_ref(pid))
        ...
        tx.update(ref, {"balance": 90})
    # commits on scope exit; aborts if the block raised

Mutation discipline: ``tx.get`` returns the cached object itself.  Treat
it as immutable; to change it, build (or mutate) a value and call
``tx.update(ref, value)``.  Objects touched by an aborted transaction are
evicted from the shared cache defensively.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, List, Optional

from repro import obs
from repro.chunkstore.ops import DeallocateChunk, WriteChunk, WritePartition
from repro.chunkstore.store import ChunkStore
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkNotWrittenError,
    ObjectNotFoundError,
    TDBError,
    TransactionError,
)
from repro.objectstore.cache import ObjectCache, load_objects
from repro.objectstore.group_commit import GroupCommitter
from repro.objectstore.locks import LockManager
from repro.objectstore.pickling import (
    DEFAULT_REGISTRY,
    ObjectRef,
    PicklerRegistry,
    pickle_value,
    unpickle_value,
)
from repro.objectstore.snapshots import SnapshotManager


class TxStatus(Enum):
    """Lifecycle state of a :class:`Transaction`."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class _Deleted:
    """Sentinel marking a buffered deletion."""


_DELETED = _Deleted()

#: read on every operation; a module constant is a cheaper probe than
#: the enum's class attribute
_ACTIVE = TxStatus.ACTIVE


class ObjectStore:
    """Named-object storage over a :class:`ChunkStore`."""

    def __init__(
        self,
        chunk_store: ChunkStore,
        registry: PicklerRegistry = DEFAULT_REGISTRY,
        cache_size: int = 4096,
        lock_timeout: float = 2.0,
    ) -> None:
        self.chunks = chunk_store
        self.registry = registry
        self.cache = ObjectCache(cache_size)
        self.locks = LockManager(lock_timeout, clock=chunk_store.platform.clock)
        self._tx_ids = itertools.count(1)
        #: shared MVCC snapshots of each partition's committed state
        self.snapshots = SnapshotManager(chunk_store, registry)
        #: the one commit route: every transaction hands its op batch to
        #: it, concurrent commits share one chunk-store commit, and each
        #: durable batch invalidates the snapshots it made stale
        self.committer = GroupCommitter(chunk_store, self.snapshots)

    # ------------------------------------------------------------------

    def create_partition(
        self,
        cipher_name: str = "des-cbc",
        hash_name: str = "sha1",
        key: Optional[bytes] = None,
        name: str = "",
    ) -> int:
        """Create a partition for objects (convenience wrapper)."""
        pid = self.chunks.allocate_partition()
        self.chunks.commit(
            [WritePartition(pid, cipher_name, hash_name, key, name)]
        )
        return pid

    def root_ref(self, partition: int) -> ObjectRef:
        """The conventional root object of a partition (rank 0)."""
        return ObjectRef(partition, 0)

    def transaction(self) -> "Transaction":
        """Begin a new serializable transaction (use as a context manager)."""
        return Transaction(self)

    def read_committed(self, ref: ObjectRef) -> Any:
        """Read outside any transaction (no isolation guarantees)."""
        return self._load(ref)

    # ------------------------------------------------------------------

    def _load(self, ref: ObjectRef) -> Any:
        present, value = self.cache.get(ref)
        if present:
            return value
        try:
            data = self.chunks.read_chunk(ref.partition, ref.rank)
        except (ChunkNotWrittenError, ChunkNotAllocatedError) as exc:
            raise ObjectNotFoundError(f"no object at {ref}") from exc
        value = unpickle_value(data, self.registry)
        self.cache.put(ref, value)
        return value


class Transaction:
    """One serializable unit of work (two-phase locking, no-steal)."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.tx_id = next(store._tx_ids)
        self.status = TxStatus.ACTIVE
        #: ref -> new value (or _DELETED)
        self._writes: Dict[ObjectRef, Any] = {}
        #: refs whose ranks this tx allocated (rolled back on abort only
        #: in the volatile allocator sense — allocation is cheap)
        self._created: List[ObjectRef] = []
        #: ref -> exclusive?, for every lock the lock manager granted this
        #: transaction: a ref held in a sufficient mode never reaches it
        self._locks: Dict[ObjectRef, bool] = {}

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self.status == TxStatus.ACTIVE:
            self.commit()

    # -- operations -------------------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not _ACTIVE:
            raise TransactionError(f"transaction is {self.status.value}")

    def _hold(self, ref: ObjectRef, exclusive: bool) -> None:
        """Hold ``ref`` in at least the given mode: answered from the
        transaction's own table when it already does, through the lock
        manager otherwise (an S → X upgrade included)."""
        held = self._locks.get(ref)
        if held is None or (exclusive and not held):
            if exclusive:
                self.store.locks.acquire_exclusive(self.tx_id, ref)
            else:
                self.store.locks.acquire_shared(self.tx_id, ref)
            self._locks[ref] = exclusive

    def _release(self) -> None:
        self.store.locks.release_all(self.tx_id)
        self._locks.clear()

    def get(self, ref: ObjectRef) -> Any:
        """Read an object under a shared lock."""
        self._require_active()
        with obs.span("objectstore.get"):
            if ref in self._writes:
                value = self._writes[ref]
                if value is _DELETED:
                    raise ObjectNotFoundError(f"{ref} deleted in this transaction")
                return value
            if ref not in self._locks:  # any lock this tx holds suffices
                self._hold(ref, False)
            return self.store._load(ref)

    def get_many(self, refs: List[ObjectRef]) -> List[Any]:
        """Read several objects under shared locks, batching the chunk
        fetches per partition into single round trips."""
        self._require_active()
        store = self.store
        buffered: Dict[ObjectRef, Any] = {}
        to_load: List[ObjectRef] = []
        with obs.span("objectstore.get_many"):
            for ref in refs:
                if ref in self._writes:
                    value = self._writes[ref]
                    if value is _DELETED:
                        raise ObjectNotFoundError(
                            f"{ref} deleted in this transaction"
                        )
                    buffered[ref] = value
                else:
                    self._hold(ref, False)
                    to_load.append(ref)
            loaded = load_objects(
                to_load, store.cache, store.chunks.read_chunks, store.registry
            )
            return [buffered[r] if r in buffered else loaded[r] for r in refs]

    def get_for_update(self, ref: ObjectRef) -> Any:
        """Read an object under an exclusive lock (avoids upgrade
        deadlocks in read-modify-write patterns)."""
        self._require_active()
        with obs.span("objectstore.get_for_update"):
            if ref in self._writes:
                value = self._writes[ref]
                if value is _DELETED:
                    raise ObjectNotFoundError(f"{ref} deleted in this transaction")
                return value
            self._hold(ref, True)
            return self.store._load(ref)

    def exists(self, ref: ObjectRef) -> bool:
        """True if ``ref`` names a stored object (takes a shared lock)."""
        self._require_active()
        if ref in self._writes:
            return self._writes[ref] is not _DELETED
        self._hold(ref, False)
        try:
            self.store._load(ref)
            return True
        except ObjectNotFoundError:
            return False

    def update(self, ref: ObjectRef, value: Any) -> None:
        """Buffer a new state for an existing object (exclusive lock)."""
        self._require_active()
        with obs.span("objectstore.update"):
            self._hold(ref, True)
            self._writes[ref] = value

    def create(self, partition: int, value: Any) -> ObjectRef:
        """Create a new object; returns its reference immediately so it can
        be linked from other objects in the same transaction (§4.1)."""
        self._require_active()
        with obs.span("objectstore.create"):
            rank = self.store.chunks.allocate_chunk(partition)
            ref = ObjectRef(partition, rank)
            self._hold(ref, True)
            self._writes[ref] = value
            self._created.append(ref)
            return ref

    def create_at(self, ref: ObjectRef, value: Any) -> ObjectRef:
        """Create an object at a *specific* reference (e.g. a partition's
        conventional root at rank 0)."""
        self._require_active()
        with obs.span("objectstore.create"):
            self.store.chunks.reserve_chunk(ref.partition, ref.rank)
            self._hold(ref, True)
            self._writes[ref] = value
            self._created.append(ref)
            return ref

    def delete(self, ref: ObjectRef) -> None:
        """Buffer a deletion (exclusive lock)."""
        self._require_active()
        with obs.span("objectstore.delete"):
            self._hold(ref, True)
            self._writes[ref] = _DELETED

    # -- completion -----------------------------------------------------------

    def commit(self) -> None:
        """Pickle every dirty object and commit them atomically."""
        self._require_active()
        store = self.store
        try:
            with obs.span(
                "objectstore.tx_commit", tx=self.tx_id, writes=len(self._writes)
            ):
                ops: List[object] = []
                for ref, value in self._writes.items():
                    if value is _DELETED:
                        if ref not in self._created:
                            ops.append(DeallocateChunk(ref.partition, ref.rank))
                    else:
                        data = pickle_value(value, store.registry)
                        ops.append(WriteChunk(ref.partition, ref.rank, data))
                if ops:
                    # the committer may merge ours with concurrent batches;
                    # our exclusive locks (held until the finally below)
                    # keep write sets in any one batch disjoint
                    store.committer.commit(ops)
                for ref, value in self._writes.items():
                    if value is _DELETED:
                        store.cache.evict(ref)
                    else:
                        store.cache.put(ref, value)
                self.status = TxStatus.COMMITTED
        except BaseException:
            self.abort()
            raise
        finally:
            self._release()

    def abort(self) -> None:
        """Discard buffered changes; defensively evict touched objects."""
        if self.status != TxStatus.ACTIVE:
            return
        store = self.store
        obs.emit("tx_abort", tx=self.tx_id, writes=len(self._writes))
        for ref in self._writes:
            store.cache.evict(ref)
        for ref in self._created:
            # return the volatile allocation so ranks are not leaked; a
            # store-level failure here (e.g. the partition was concurrently
            # deallocated) must not mask the abort, but it is recorded —
            # anything *outside* the store's error hierarchy propagates
            try:
                store.chunks.release_chunk(ref.partition, ref.rank)
            except TDBError as exc:
                obs.emit(
                    "swallowed_error",
                    where="transaction.abort.cancel_pending",
                    error=type(exc).__name__,
                    detail=str(exc),
                )
        self._writes.clear()
        self.status = TxStatus.ABORTED
        self._release()
