"""Lock-free MVCC snapshot views over the chunk store (§5.3 + ROADMAP).

``ChunkStore`` serializes everything behind one re-entrant lock — fine for
the paper's "only a few concurrent transactions", hostile to a server
whose readers would otherwise stall behind every group commit's log
flush.  A :class:`SnapshotView` is the escape hatch: an immutable,
self-contained read path over one partition's position map as of the
moment the view was opened, touching **no** chunk-store state after
construction.  Readers holding a view proceed while commits, checkpoints,
and flushes run — the "snapshot reads never block the commit path"
property the serving layer builds on.

Why this is sound
=================

* The store is log-structured: committed versions are never overwritten
  in place.  New commits and checkpoints append *new* extents; the
  extents reachable from the view's frozen root descriptor stay exactly
  as written.
* The only component that relocates or reuses live extents is the
  cleaner — so the store counts open views (``_snapshot_pins``) and the
  cleaner politely declines to run while any exist (the classic MVCC
  vacuum tradeoff; see ``Cleaner.clean_one``).
* The view validates everything it reads against its frozen root hash
  with its **own** cipher/hash/codec instances (crypto objects are not
  shared across threads) — tampering detection is exactly as strong as
  the locked read path.
* The untrusted store's operations are internally locked, so raw device
  reads interleave safely with the commit path's writes.

Consistency contract
====================

A view is a *frozen committed state*.  Reads through it are repeatable
and mutually consistent regardless of concurrent commits.  The serving
layer opens views on copy-on-write partition copies
(:class:`~repro.chunkstore.ops.CopyPartition`), which nobody writes to,
so a snapshot's object graph is stable for its whole lifetime.  Opening
a view directly on a live partition is also safe — the view keeps
showing the old state while writers move on — because the view caches
validated payloads privately rather than through the store's shared
payload cache (which tracks the *latest* committed bytes).

Close views promptly (``ChunkStore.close_snapshot_view`` or the context
manager): every open view defers cleaning store-wide.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import obs
from repro.chunkstore.cache import ValidatedChunkCache
from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    decode_map_body,
)
from repro.chunkstore.ids import ChunkId, data_id
from repro.chunkstore.log import LogCodec, VersionKind
from repro.chunkstore.partition import PartitionState
from repro.crypto.registry import make_cipher, make_hash
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkStoreError,
    TamperDetectedError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chunkstore.store import ChunkStore


class SnapshotView:
    """Immutable validated read path over one partition's committed state.

    Construct via :meth:`ChunkStore.open_snapshot_view` (which freezes the
    partition's leader payload under the store lock and registers the
    cleaner pin); never directly.

    Thread-safe: many reader threads may share one view.  A private mutex
    guards the descriptor mini-cache; payloads go through an internally
    locked :class:`ValidatedChunkCache` of the view's own.
    """

    def __init__(
        self,
        store: "ChunkStore",
        pid: int,
        frozen_state: PartitionState,
        codec: LogCodec,
        cache_bytes: int,
    ) -> None:
        self._store = store
        self.pid = pid
        self._state = frozen_state
        self._codec = codec
        self._untrusted = store.platform.untrusted
        self._fanout = store.config.fanout
        self._min_location = store.config.superblock_size
        #: the store's commit count at the freeze (the caller holds the
        #: store lock): the view shows exactly the commits up to this one
        self.frozen_at = store.commit_count_stat
        #: validated map-chunk vectors resolved so far (grows monotonically;
        #: bounded by the partition's map size).  Seeded at freeze time
        #: with the store's cached vectors and dirty descriptors: dirty
        #: entries are the only record of post-checkpoint commits (the
        #: persistent map is stale until the next checkpoint), and they
        #: shadow the frozen root exactly as they shadow the persistent
        #: map in the locked path.
        self._descriptors = store.cache.partition_entries(pid)
        self._desc_mutex = threading.Lock()
        #: private payload cache — NOT the store's shared one, which
        #: tracks the latest committed bytes rather than this snapshot
        self._payloads = ValidatedChunkCache(cache_bytes)
        self.closed = False
        self.reads = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._store.close_snapshot_view(self)

    def close(self) -> None:
        self._store.close_snapshot_view(self)

    def _require_open(self) -> None:
        if self.closed:
            raise ChunkStoreError(f"snapshot view of partition {self.pid} is closed")

    # -- reads ---------------------------------------------------------------

    def read_chunk(self, rank: int) -> bytes:
        """Validated read of data chunk ``rank`` as of the snapshot."""
        self._require_open()
        cid = data_id(self.pid, rank)
        cached = self._payloads.get(cid)
        if cached is not None:
            self.reads += 1
            return cached
        with obs.span("chunkstore.snapshot_read"):
            descriptor = self._get_descriptor(cid)
            if descriptor.status != ChunkStatus.WRITTEN:
                if self._state.is_committed_written(rank):
                    raise TamperDetectedError(
                        f"chunk {cid} should be written but its snapshot "
                        f"descriptor says {descriptor.status.name}"
                    )
                raise ChunkNotAllocatedError(
                    f"chunk {cid} was not written as of this snapshot"
                )
            body = self._read_validated(cid, descriptor)
        self._payloads.put(cid, body)
        self.reads += 1
        return body

    def read_chunks(self, ranks: Sequence[int]) -> Dict[int, bytes]:
        """Batched :meth:`read_chunk` (one result per distinct rank)."""
        return {rank: self.read_chunk(rank) for rank in ranks}

    def chunk_exists(self, rank: int) -> bool:
        self._require_open()
        return self._state.is_committed_written(rank)

    def chunk_count(self) -> int:
        self._require_open()
        payload = self._state.payload
        return payload.next_rank - len(payload.free_ranks)

    # -- map walk ------------------------------------------------------------

    def _get_descriptor(self, cid: ChunkId) -> ChunkDescriptor:
        with self._desc_mutex:
            known = self._descriptors.get(cid)
        if known is not None:
            return known
        payload = self._state.payload
        height = payload.tree_height
        if cid.height > height or height == 0:
            return ChunkDescriptor()
        if cid.height == height:
            return payload.root if cid.rank == 0 else ChunkDescriptor()
        # ascend to the first known ancestor, then descend validating
        chain: List[ChunkId] = []
        node = cid.parent(self._fanout)
        descriptor: Optional[ChunkDescriptor] = None
        while True:
            with self._desc_mutex:
                known = self._descriptors.get(node)
            if known is not None:
                descriptor = known
                break
            if node.height == height:
                descriptor = (
                    payload.root if node.rank == 0 else ChunkDescriptor()
                )
                break
            chain.append(node)
            node = node.parent(self._fanout)
        for next_id in list(reversed(chain)) + [cid]:
            if not descriptor.is_written():
                return ChunkDescriptor()
            body = self._read_validated(node, descriptor)
            vector = decode_map_body(node, body, self._fanout)
            with self._desc_mutex:
                self._descriptors.install(node, vector)
            node, descriptor = next_id, vector[next_id.rank % self._fanout]
        return descriptor

    # -- validated extent read ----------------------------------------------

    def _read_validated(
        self, cid: ChunkId, descriptor: ChunkDescriptor
    ) -> bytes:
        location, length = descriptor.location, descriptor.length
        if (
            length < self._codec.header_cipher_size
            or location < self._min_location
            or location + length > self._untrusted.size
        ):
            raise TamperDetectedError(
                f"chunk {cid}: snapshot descriptor extent [{location}, "
                f"{location + length}) is implausible"
            )
        raw = memoryview(self._untrusted.read(location, length))
        header = self._codec.parse_header(raw[: self._codec.header_cipher_size])
        if (
            self._codec.header_cipher_size + header.body_cipher_size
            != len(raw)
        ):
            raise TamperDetectedError(
                f"chunk {cid}: header declares an implausible body size "
                f"{header.body_cipher_size}"
            )
        if header.kind != VersionKind.NAMED:
            raise TamperDetectedError(f"chunk {cid}: version kind mismatch")
        if (header.height, header.rank) != (cid.height, cid.rank):
            raise TamperDetectedError(
                f"chunk {cid}: stored position {header.height}.{header.rank} "
                f"does not match"
            )
        body, computed = self._codec.validate_named(
            header,
            raw[self._codec.header_cipher_size :],
            self._state.cipher,
            self._state.hash,
        )
        if computed != descriptor.body_hash:
            raise TamperDetectedError(f"chunk {cid}: hash mismatch")
        return body

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        cached = self._descriptors.stats()
        return {
            "pid": self.pid,
            "reads": self.reads,
            "closed": self.closed,
            "descriptors_cached": cached["clean_entries"] + cached["dirty_entries"],
            "payload_cache": self._payloads.stats(),
        }


def build_snapshot_view(store: "ChunkStore", pid: int) -> SnapshotView:
    """Internal factory (caller holds ``store._lock``): freeze the
    partition's committed state and wire up private crypto instances
    (tallying into the store's per-algorithm counters)."""
    from repro.chunkstore.ids import SYSTEM_PARTITION

    if pid == SYSTEM_PARTITION:
        raise ChunkStoreError("snapshot views of the system partition are not supported")
    state = store._state(pid)
    frozen_payload = state.payload.copy_for_snapshot()
    frozen = store._open_partition(pid, frozen_payload)
    system_cipher = make_cipher(store.config.system_cipher, store._system_key)
    system_hash = make_hash(store.config.system_hash)
    store._share_tallies(system_cipher, system_hash)
    codec = LogCodec(system_cipher, system_hash)
    return SnapshotView(
        store, pid, frozen, codec, store.config.payload_cache_bytes
    )
