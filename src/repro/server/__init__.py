"""The concurrent serving layer: many client sessions, one trusted store.

The paper's object store assumes "only a few concurrent transactions"
(§7); the ROADMAP's north star is heavy multi-user traffic.  This package
is the front end for it: :class:`~repro.server.server.TDBServer` hands
out :class:`~repro.server.server.Session` handles, one per client thread,
over one :class:`~repro.objectstore.store.ObjectStore`.  What sessions
share lives in the object store and works without a server too: its one
:class:`~repro.objectstore.group_commit.GroupCommitter` batches
concurrent commits into one log flush and invalidates the store's
:class:`~repro.objectstore.snapshots.SnapshotManager`, whose refcounted
MVCC snapshots serve reads lock-free.  Those three classes are
re-exported here.
"""

from repro.objectstore.group_commit import GroupCommitter
from repro.objectstore.snapshots import Snapshot, SnapshotManager
from repro.server.server import Session, TDBServer

__all__ = [
    "GroupCommitter",
    "Session",
    "Snapshot",
    "SnapshotManager",
    "TDBServer",
]
