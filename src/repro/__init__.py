"""TDB — a trusted database system on untrusted storage.

A from-scratch Python reproduction of Maheshwari, Vingralek & Shapiro,
"How to Build a Trusted Database System on Untrusted Storage" (OSDI 2000).

Layers (paper Figure 2)::

    CollectionStore   indexed collections, functional indexes      (§8)
    ObjectStore       typed objects, 2PL transactions, pickling    (§7)
    ChunkStore        log-structured trusted storage, Merkle map   (§4-5)
    BackupStore       full/incremental backup sets                 (§6)
    TrustedPlatform   secret store, TR store/counter, untrusted
                      store, archival store                        (§2.1)

Quickstart::

    from repro import (TrustedPlatform, ChunkStore, StoreConfig,
                       ObjectStore, CollectionStore)

    platform = TrustedPlatform.create_in_memory()
    chunks = ChunkStore.format(platform)
    objects = ObjectStore(chunks)
    pid = objects.create_partition(cipher_name="des-cbc", hash_name="sha1")
    with objects.transaction() as tx:
        ref = tx.create(pid, {"hello": "world"})
    print(objects.read_committed(ref))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro.backup import BackupStore
from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.collection import CollectionStore, field_key, register_key_function
from repro.errors import TamperDetectedError, TDBError
from repro.objectstore import ObjectRef, ObjectStore, register_class
from repro.platform import TrustedPlatform

__version__ = "1.0.0"

__all__ = [
    "TrustedPlatform",
    "ChunkStore",
    "StoreConfig",
    "ops",
    "ObjectStore",
    "ObjectRef",
    "register_class",
    "CollectionStore",
    "register_key_function",
    "field_key",
    "BackupStore",
    "TDBError",
    "TamperDetectedError",
    "__version__",
]
