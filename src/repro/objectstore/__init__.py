"""Object store (§7): typed, transactional objects over the chunk store."""

from repro.objectstore.cache import ObjectCache
from repro.objectstore.group_commit import GroupCommitter
from repro.objectstore.locks import LockManager
from repro.objectstore.pickling import (
    DEFAULT_REGISTRY,
    ObjectRef,
    PicklerRegistry,
    pickle_value,
    register_class,
    unpickle_value,
)
from repro.objectstore.snapshots import Snapshot, SnapshotManager
from repro.objectstore.store import ObjectStore, Transaction, TxStatus

__all__ = [
    "ObjectStore",
    "Transaction",
    "TxStatus",
    "ObjectRef",
    "ObjectCache",
    "GroupCommitter",
    "Snapshot",
    "SnapshotManager",
    "LockManager",
    "PicklerRegistry",
    "DEFAULT_REGISTRY",
    "register_class",
    "pickle_value",
    "unpickle_value",
]
