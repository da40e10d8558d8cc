"""MVCC snapshot reads: the object store's lock-free views.

Readers get a :class:`Snapshot`: a consistent, read-only view of one
partition's committed objects, served entirely through a
:class:`~repro.chunkstore.snapshot.SnapshotView` — i.e. *without* the
chunk-store lock, so a long group-commit flush never stalls a reader and
a reader never delays the commit path.

A snapshot freezes the partition's current committed state directly: no
log traffic, reusing the copy-on-write leader snapshot
(``LeaderPayload.copy_for_snapshot``) that partition copies are built
from, without materializing a copy partition.

Snapshots are **refcounted and shared**: concurrent readers of the same
partition share one snapshot (and its object cache) until a group commit
invalidates it, after which the next reader gets a fresh one.  Stale
snapshots stay fully readable until their last reader releases them —
that is the isolation guarantee: a reader's view never changes mid-use.
Each invalidation records the store's commit count for its partition, and
a snapshot frozen before that count is never installed as the shared
current: a session that acquires after its own commit returned always
sees that commit.

Every open view holds the segments the cleaner frees after it from reuse
(§4.9.5), so an idle snapshot — one no reader holds — is kept for reuse
only until the next durable batch, whichever partitions that batch
touched.

Objects load through the object store's loader (``load_objects``) with
the snapshot's own cache and chunk source: unpickled objects are cached
per snapshot, never in the store's shared ``ObjectCache``, which tracks
the latest committed state.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List

from repro.chunkstore.snapshot import SnapshotView
from repro.chunkstore.store import ChunkStore
from repro.errors import ObjectNotFoundError
from repro.objectstore.cache import ObjectCache, load_objects
from repro.objectstore.pickling import ObjectRef, PicklerRegistry


class Snapshot:
    """A consistent read-only view of one partition's objects.

    Shared by concurrent readers; thread-safe.  Release with
    :meth:`release` (or a ``with`` block) — the underlying chunk-store
    view holds cleaned segments from reuse while a reader holds it, and
    once idle until the next durable batch at most.
    """

    def __init__(
        self, manager: "SnapshotManager", source_pid: int, view: SnapshotView
    ) -> None:
        self._manager = manager
        #: the partition this snapshot was taken of
        self.source_pid = source_pid
        self.view = view
        self._cache = ObjectCache(1024)
        self._refs = 0
        self._stale = False
        self._disposed = False

    # -- reads ---------------------------------------------------------------

    def get(self, ref: ObjectRef) -> Any:
        """Read one object as of this snapshot."""
        return self.get_many([ref])[0]

    def get_many(self, refs: List[ObjectRef]) -> List[Any]:
        """Read several objects as of this snapshot, fetching the chunks
        of every object-cache miss in one ``view.read_chunks`` batch."""
        values = load_objects(refs, self._cache, self._fetch, self._manager.registry)
        return [values[ref] for ref in refs]

    def _fetch(self, pid: int, ranks: List[int]) -> Dict[int, bytes]:
        if pid != self.source_pid:
            raise ObjectNotFoundError(
                f"partition {pid} is not in snapshot of partition {self.source_pid}"
            )
        return self.view.read_chunks(ranks)

    def exists(self, ref: ObjectRef) -> bool:
        return (
            ref.partition == self.source_pid
            and self.view.chunk_exists(ref.rank)
        )

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        self._manager.release(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class SnapshotManager:
    """Hands out refcounted, shared snapshots; invalidated on commit."""

    def __init__(self, chunks: ChunkStore, registry: PicklerRegistry) -> None:
        self.chunks = chunks
        self.registry = registry
        self._mutex = threading.Lock()
        #: source pid -> the snapshot new readers currently share
        self._current: Dict[int, Snapshot] = {}
        #: source pid -> the store's commit count at the last invalidation:
        #: a view frozen before it may predate a commit to pid
        self._invalid_through: Dict[int, int] = {}
        self.created = 0
        self.reused = 0

    # -- acquisition ---------------------------------------------------------

    def acquire(self, pid: int) -> Snapshot:
        """Get a snapshot of ``pid``'s current committed state (shared
        with other readers until the next invalidation)."""
        with self._mutex:
            snapshot = self._current.get(pid)
            if snapshot is not None and not snapshot._stale:
                snapshot._refs += 1
                self.reused += 1
                return snapshot
        # build outside the manager mutex: snapshot creation takes the
        # chunk-store lock and must not serialize against release()
        fresh = self._build(pid)
        with self._mutex:
            current = self._current.get(pid)
            if current is not None and not current._stale:
                # someone else built one while we were building; share
                # theirs and discard ours
                current._refs += 1
                self.reused += 1
                self._dispose(fresh)
                return current
            fresh._refs = 1
            self.created += 1
            if fresh.view.frozen_at < self._invalid_through.get(pid, 0):
                # a commit to pid landed after the freeze and was
                # invalidated before this install: fine for this reader
                # (its own commits all returned before it asked), but a
                # later reader must not share the view — it goes out
                # unshared and already stale
                fresh._stale = True
                return fresh
            if current is not None and current._refs == 0:
                self._dispose(current)
            self._current[pid] = fresh
            return fresh

    def _build(self, pid: int) -> Snapshot:
        return Snapshot(self, pid, self.chunks.open_snapshot_view(pid))

    # -- invalidation and release -------------------------------------------

    def invalidate_many(self, pids: Iterable[int]) -> None:
        """A durable batch changed ``pids``: new readers need fresh
        snapshots.  Existing readers keep their (now stale) snapshots
        untouched.  Every idle snapshot goes, whatever its partition: it
        holds cleaned segments, and the next reader can build a fresh one.

        Every partition is marked before any view is closed, so whatever
        closing one may raise, no snapshot that predates the commit is
        still current for any of them."""
        with self._mutex:
            # the commit behind this call has returned, so it is counted
            committed = self.chunks.commit_count_stat
            for pid in pids:
                self._invalid_through[pid] = committed
                snapshot = self._current.get(pid)
                if snapshot is not None:
                    snapshot._stale = True
            unused = [s for s in self._current.values() if s._refs == 0]
            for snapshot in unused:
                del self._current[snapshot.source_pid]
            for snapshot in unused:
                self._dispose(snapshot)

    def release(self, snapshot: Snapshot) -> None:
        with self._mutex:
            if snapshot._disposed:
                return
            snapshot._refs = max(0, snapshot._refs - 1)
            if snapshot._refs == 0 and snapshot._stale:
                if self._current.get(snapshot.source_pid) is snapshot:
                    self._current.pop(snapshot.source_pid, None)
                self._dispose(snapshot)

    def close_all(self) -> None:
        """Drop every managed snapshot (server shutdown)."""
        with self._mutex:
            for snapshot in list(self._current.values()):
                self._dispose(snapshot)
            self._current.clear()

    def _dispose(self, snapshot: Snapshot) -> None:
        if snapshot._disposed:
            return
        snapshot._disposed = True
        self.chunks.close_snapshot_view(snapshot.view)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._mutex:
            return {
                "active": len(self._current),
                "created": self.created,
                "reused": self.reused,
            }
