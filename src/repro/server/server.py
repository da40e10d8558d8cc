"""The threaded multi-client front end over one trusted store.

One :class:`TDBServer` wraps one
:class:`~repro.objectstore.store.ObjectStore` (and hence one
:class:`~repro.chunkstore.store.ChunkStore`).  Clients open
:class:`Session` handles — typically one per thread — and use them for:

* **writes**: ordinary serializable transactions.  Every transaction
  commits through the object store's
  :class:`~repro.objectstore.group_commit.GroupCommitter`, so commits
  arriving concurrently from different sessions share one log flush; the
  server attaches its snapshot invalidation to that committer.
* **reads**: :meth:`Session.snapshot` hands back an MVCC snapshot served
  lock-free; heavy readers never queue behind the commit path.
  Transactional reads (``tx.get``) remain available when a reader needs
  strict serializability against its own writes.

What a reader may observe while a commit's flush is in flight (DESIGN.md
"Thread safety" has the table): a *transactional* read of an object that
commit wrote waits on the object's lock until the commit has returned
(2PL), and of any other object is served meanwhile — the chunk store
drops its ``_lock`` across the device flush; a *snapshot* shows only
states durably committed at acquire time — acquiring one waits for the
in-flight flush (``open_snapshot_view`` takes the store's writers' lock),
a group commit becomes visible to *new* snapshots the moment its batch's
flush returns, atomically for the whole batch, and snapshots already
handed out never change; only the isolation-free
``ObjectStore.read_committed`` may return an object that is appended but
not yet durable.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, Optional

from repro import obs
from repro.objectstore.pickling import ObjectRef
from repro.objectstore.store import ObjectStore, Transaction
from repro.server.snapshots import Snapshot, SnapshotManager


class TDBServer:
    """Multiplexes many client sessions onto one object/chunk store."""

    def __init__(self, objects: ObjectStore) -> None:
        self.objects = objects
        self.snapshots = SnapshotManager(objects)
        self._session_ids = itertools.count(1)
        self._mutex = threading.Lock()
        self._open_sessions = 0
        self._closed = False
        # the commit hook: newly durable partitions need fresh snapshots
        # for subsequent readers.  The manager's own method, not one of the
        # server's, and the manager keeps no ``objects``: the hook hangs on
        # ``objects.committer``, and a way back would tie server, store and
        # device into a reference cycle that only the cyclic collector frees
        objects.committer.on_commit = self.snapshots.invalidate_many

    # -- sessions ------------------------------------------------------------

    def session(self) -> "Session":
        with self._mutex:
            if self._closed:
                raise RuntimeError("server is closed")
            self._open_sessions += 1
            return Session(self, next(self._session_ids))

    def _session_closed(self) -> None:
        with self._mutex:
            self._open_sessions = max(0, self._open_sessions - 1)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        self.snapshots.close_all()
        # detach the hook: later commits have no snapshots to invalidate
        committer = self.objects.committer
        if committer.on_commit == self.snapshots.invalidate_many:
            committer.on_commit = None

    def __enter__(self) -> "TDBServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._mutex:
            open_sessions = self._open_sessions
        return {
            "open_sessions": open_sessions,
            "group_commit": self.objects.committer.stats(),
            "snapshots": self.snapshots.stats(),
            "objectstore": self.objects.stats(),
            "chunkstore_snapshots": self.objects.chunks.stats()["snapshots"],
        }


class Session:
    """One client's handle on the server (use from a single thread)."""

    def __init__(self, server: TDBServer, session_id: int) -> None:
        self.server = server
        self.session_id = session_id
        self._closed = False
        self.commits = 0
        self.snapshot_reads = 0

    # -- writes --------------------------------------------------------------

    def transaction(self) -> Transaction:
        """A serializable read-write transaction (commits are grouped)."""
        self._require_open()
        return self.server.objects.transaction()

    # -- reads ---------------------------------------------------------------

    def snapshot(self, pid: int) -> Snapshot:
        """A consistent lock-free view of ``pid``'s committed objects."""
        self._require_open()
        return self.server.snapshots.acquire(pid)

    def read(self, ref: ObjectRef) -> Any:
        """Convenience one-shot snapshot read of a single object."""
        self._require_open()
        with self.snapshot(ref.partition) as snapshot:
            value = snapshot.get(ref)
        self.snapshot_reads += 1
        return value

    # -- lifecycle -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.session_id} is closed")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.server._session_closed()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
