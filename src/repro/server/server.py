"""The threaded multi-client front end over one trusted store.

One :class:`TDBServer` wraps one
:class:`~repro.objectstore.store.ObjectStore` (and hence one
:class:`~repro.chunkstore.store.ChunkStore`).  Clients open
:class:`Session` handles — typically one per thread — and use them for:

* **writes**: ordinary serializable transactions.  Every transaction
  commits through the object store's
  :class:`~repro.objectstore.group_commit.GroupCommitter`, so commits
  arriving concurrently from different sessions share one log flush, and
  — on a device whose flushes take time — the next batch appends while
  the previous one's flush is in flight.
* **reads**: :meth:`Session.snapshot` hands back one of the object
  store's MVCC snapshots (``objects.snapshots``), served lock-free; heavy
  readers never queue behind the commit path.
  Transactional reads (``tx.get``) remain available when a reader needs
  strict serializability against its own writes.

What a reader may observe while a commit's flush is in flight (DESIGN.md
"Thread safety" has the table): a *transactional* read of an object that
commit wrote waits on the object's lock until the commit has returned
(2PL), and of any other object is served meanwhile — the chunk store
holds neither of its locks across a plain commit's device flush, and
the next batch appends meanwhile; a *snapshot* shows only states durably
committed at acquire time — acquiring one inside the flush opens at once
on the last durable state (the store installs a commit's effects only
once it is durable, in the order the commits were sealed), a group
commit becomes visible to *new* snapshots the moment its batch's commit
returns, atomically for the whole batch, and snapshots already handed
out never change; the isolation-free ``ObjectStore.read_committed``
shows durable states only, too.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict

from repro.objectstore.pickling import ObjectRef
from repro.objectstore.snapshots import Snapshot
from repro.objectstore.store import ObjectStore, Transaction


class TDBServer:
    """Multiplexes many client sessions onto one object/chunk store."""

    def __init__(self, objects: ObjectStore) -> None:
        self.objects = objects
        self._session_ids = itertools.count(1)
        self._mutex = threading.Lock()
        self._closed = False

    # -- sessions ------------------------------------------------------------

    def session(self) -> "Session":
        with self._mutex:
            if self._closed:
                raise RuntimeError("server is closed")
            return Session(self, next(self._session_ids))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
        self.objects.snapshots.close_all()

    def __enter__(self) -> "TDBServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "group_commit": self.objects.committer.stats(),
            "snapshots": self.objects.snapshots.stats(),
        }


class Session:
    """One client's handle on the server (use from a single thread)."""

    def __init__(self, server: TDBServer, session_id: int) -> None:
        self.server = server
        self.session_id = session_id
        self._closed = False

    # -- writes --------------------------------------------------------------

    def transaction(self) -> Transaction:
        """A serializable read-write transaction (commits are grouped)."""
        self._require_open()
        return self.server.objects.transaction()

    # -- reads ---------------------------------------------------------------

    def snapshot(self, pid: int) -> Snapshot:
        """A consistent lock-free view of ``pid``'s committed objects."""
        self._require_open()
        return self.server.objects.snapshots.acquire(pid)

    def read(self, ref: ObjectRef) -> Any:
        """Convenience one-shot snapshot read of a single object."""
        self._require_open()
        with self.snapshot(ref.partition) as snapshot:
            return snapshot.get(ref)

    # -- lifecycle -----------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.session_id} is closed")

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
