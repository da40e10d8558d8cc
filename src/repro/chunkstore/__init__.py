"""The chunk store: TDB's trusted, log-structured storage core (§3–§5).

Public API re-exports::

    from repro.chunkstore import ChunkStore, StoreConfig, ops

    platform = TrustedPlatform.create_in_memory()
    store = ChunkStore.format(platform)
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid), ops.WriteChunk(pid, 0, b"hello")])
    assert store.read_chunk(pid, 0) == b"hello"
"""

from repro.chunkstore import ops
from repro.chunkstore.config import StoreConfig
from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId
from repro.chunkstore.ops import (
    CopyPartition,
    DeallocateChunk,
    DeallocatePartition,
    WriteChunk,
    WritePartition,
)
from repro.chunkstore.readpath import DiffChange
from repro.chunkstore.store import ChunkStore

__all__ = [
    "ChunkStore",
    "StoreConfig",
    "DiffChange",
    "ChunkId",
    "ChunkDescriptor",
    "ChunkStatus",
    "SYSTEM_PARTITION",
    "ops",
    "WriteChunk",
    "DeallocateChunk",
    "WritePartition",
    "CopyPartition",
    "DeallocatePartition",
]
