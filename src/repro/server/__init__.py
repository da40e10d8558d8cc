"""The concurrent serving layer: many client sessions, one trusted store.

The paper's object store assumes "only a few concurrent transactions"
(§7); the ROADMAP's north star is heavy multi-user traffic.  This package
bridges the two without touching the chunk store's single-lock discipline:

* :class:`~repro.objectstore.group_commit.GroupCommitter` — the object
  store's one commit route, re-exported here: it batches
  concurrently-arriving transaction commits into one chunk-store commit
  (one log flush amortized over N transactions), and the server hangs its
  snapshot invalidation on it;
* :class:`~repro.server.snapshots.SnapshotManager` — hands readers
  refcounted MVCC snapshots built on the chunk store's frozen-leader
  snapshot machinery, so reads never block behind the commit path;
* :class:`~repro.server.server.TDBServer` /
  :class:`~repro.server.server.Session` — the threaded front end tying
  them together over one ``ChunkStore``/``ObjectStore``.
"""

from repro.objectstore.group_commit import GroupCommitter
from repro.server.server import Session, TDBServer
from repro.server.snapshots import Snapshot, SnapshotManager

__all__ = [
    "GroupCommitter",
    "Session",
    "Snapshot",
    "SnapshotManager",
    "TDBServer",
]
