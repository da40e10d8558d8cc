"""Descriptor cache (§4.5, §4.6).

The chunk map keeps a cache of descriptors indexed by chunk id.  The cache
serves two distinct roles:

* *performance* — the bottom-up read path stops at the first cached
  descriptor, so a warm cache avoids re-validating the whole path from the
  leader (the data a cached descriptor came from was already decrypted and
  validated);
* *correctness* — commits update descriptors **only** in the cache, marking
  them dirty and pinned (§4.6).  The persistent map chunks become stale
  until the next checkpoint; the bottom-up search order guarantees the
  stale persistent descriptor is never consulted while a dirty one shadows
  it.  Dirty descriptors are therefore never evicted.

The clean side is cached in the unit it is validated in: one entry per
map chunk, holding that chunk's validated body as a
:class:`~repro.chunkstore.descriptor.MapVector` (wire form and nothing
else: a slot is decoded each time it is asked for, so a resident vector
costs what its bytes cost).  A chunk's clean descriptor is slot
``rank % fanout`` of its parent's vector, so loading a map chunk is one
insert, not ``fanout``.

Beside the dirty set the cache keeps the map chunks the next checkpoint
will rewrite — every ancestor of a dirty descriptor up to its partition's
root — as a running set, grown by :meth:`put_dirty` (the one place a
descriptor becomes dirty) and cleared with the dirty set.  The log-space
reserve (:class:`~repro.chunkstore.logspace.LogSpace`) is counted from it,
so nothing ever walks the dirty ids to size a checkpoint; sizing it is
that module's business alone.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.chunkstore.descriptor import ChunkDescriptor, MapVector
from repro.chunkstore.ids import ChunkId
from repro.chunkstore.partition import PartitionState


def ancestors(
    fanout: int, partition: int, height: int, rank: int, top: int, known: Set, into: Set
) -> int:
    """Add to ``into`` the ancestors of chunk ``(partition, height, rank)``
    up to height ``top`` that neither it nor ``known`` holds yet; returns
    how many.  The walk stops at the first one already there: every
    ancestor of a member is a member."""
    height += 1
    rank //= fanout
    added = 0
    while height <= top:
        key = (partition, height, rank)
        if key in known or key in into:
            break
        into.add(key)
        added += 1
        height += 1
        rank //= fanout
    return added


class DescriptorCache:
    """LRU of validated map-chunk vectors, plus the pinned dirty set.

    ``max_clean`` stays a count of *descriptors* (``StoreConfig.cache_size``):
    the LRU holds ``max_clean // fanout`` vectors.

    Thread-safety contract: **externally serialized**.  Every access to the
    store's instance runs under ``ChunkStore._lock`` — the cache
    participates in commit and checkpoint transitions (dirty pinning) that
    must be atomic with map updates, so an internal mutex would add
    overhead without removing the need for the store-level lock.  Do not
    touch it from code that does not hold the store lock.  The one
    exception is the private copy :meth:`partition_entries` hands a
    snapshot view (:class:`_SharedDescriptorCache`), which locks itself.
    """

    def __init__(self, max_clean: int = 4096, fanout: int = 64) -> None:
        self._fanout = fanout
        self._max_vectors = max_clean // fanout
        #: a map chunk's id -> its vector (an id is the tuple
        #: ``(partition, height, rank)``, so :meth:`get` probes with one)
        self._vectors: "OrderedDict[ChunkId, MapVector]" = OrderedDict()
        #: slots held in ``_vectors``, kept as vectors come and go
        self._clean_slots = 0
        self._dirty: Dict[ChunkId, ChunkDescriptor] = {}
        #: (partition, height, rank) of every map chunk the next checkpoint
        #: rewrites, and how many of them each partition has
        self._dirty_maps: Set[Tuple[int, int, int]] = set()
        self._dirty_map_counts: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- lookups and inserts -------------------------------------------------

    def get(self, chunk_id: ChunkId) -> Optional[ChunkDescriptor]:
        descriptor = self._dirty.get(chunk_id)
        if descriptor is not None:
            self.hits += 1
            return descriptor  # a dirty descriptor shadows any persistent state
        rank = chunk_id.rank
        fanout = self._fanout
        parent = (chunk_id.partition, chunk_id.height + 1, rank // fanout)
        vector = self._vectors.get(parent)
        if vector is not None:
            self._vectors.move_to_end(parent)
            self.hits += 1
            return vector[rank % fanout]
        self.misses += 1
        return None

    def vector(self, map_id: ChunkId) -> Optional[MapVector]:
        """The cached vector of map chunk ``map_id`` as last validated or
        written — dirty children are *not* overlaid."""
        return self._vectors.get(map_id)

    def dirty(self, chunk_id: ChunkId) -> Optional[ChunkDescriptor]:
        """``chunk_id``'s dirty descriptor, if a commit since the last
        checkpoint left one (what :meth:`vector` does not overlay)."""
        return self._dirty.get(chunk_id)

    def install(self, map_id: ChunkId, vector: MapVector) -> None:
        """Cache the vector of a map chunk just validated, or just written
        by a checkpoint (replacing the vector it superseded)."""
        self._clean_slots += len(vector) - len(self._vectors.get(map_id, ()))
        self._vectors[map_id] = vector
        self._vectors.move_to_end(map_id)
        while len(self._vectors) > self._max_vectors:
            _, evicted = self._vectors.popitem(last=False)
            self._clean_slots -= len(evicted)
            self.evictions += len(evicted)

    def put_dirty(
        self,
        chunk_id: ChunkId,
        descriptor: ChunkDescriptor,
        state: Optional[PartitionState] = None,
    ) -> None:
        """Record a committed update; pinned until the next checkpoint.
        ``state`` is the chunk's partition: the chunk's ancestors up to the
        root the next checkpoint writes for it join the map chunks that
        checkpoint rewrites.  None — the checkpoint's own writes — adds
        none."""
        self._dirty[chunk_id] = descriptor
        if state is None:
            return
        maps = self._dirty_maps
        partition, height, rank = chunk_id.partition, chunk_id.height, chunk_id.rank
        if (partition, height + 1, rank // self._fanout) in maps:
            return  # the common case: the parent, so all above, is in
        top = state.checkpoint_height(self._fanout)
        added = ancestors(self._fanout, partition, height, rank, top, maps, maps)
        if added:
            counts = self._dirty_map_counts
            counts[partition] = counts.get(partition, 0) + added

    def drop_partition(self, partition: int) -> None:
        """Forget everything about a deallocated partition."""
        for key in [k for k in self._vectors if k[0] == partition]:
            self._clean_slots -= len(self._vectors.pop(key))
        for cid in [c for c in self._dirty if c.partition == partition]:
            del self._dirty[cid]
        if self._dirty_map_counts.pop(partition, None):
            self._dirty_maps = {k for k in self._dirty_maps if k[0] != partition}

    def partition_entries(self, partition: int) -> "DescriptorCache":
        """Point-in-time private cache for a snapshot view of ``partition``:
        the vectors (shared by reference — immutable, see
        :class:`MapVector`) and the dirty descriptors.  Snapshot views seed
        their walk with this: dirty descriptors are the *only* record of
        post-checkpoint commits, since the persistent map is stale until
        the next checkpoint.

        Two C-level dict copies and nothing else: other partitions' entries
        ride along unfiltered, because a view's walk only ever asks for ids
        of its own partition (``tests/test_descriptor_vector_cache.py``
        pins that), so the seed costs the same at any dirty count.
        Unbounded, like the map it mirrors.  Caller holds the store's
        locks."""
        seed = _SharedDescriptorCache(sys.maxsize, self._fanout)
        seed._vectors = self._vectors.copy()
        seed._clean_slots = self._clean_slots
        seed._dirty = self._dirty.copy()
        return seed

    # -- dirty management ----------------------------------------------------

    def dirty_count(self) -> int:
        return len(self._dirty)

    def dirty_ids(self) -> List[ChunkId]:
        return list(self._dirty)

    def dirty_maps(self) -> Set[Tuple[int, int, int]]:
        """``(partition, height, rank)`` of the map chunks the next
        checkpoint rewrites (the cache's own set: read, do not change)."""
        return self._dirty_maps

    def dirty_map_counts(self) -> Dict[int, int]:
        """Per partition, the map chunks the next checkpoint rewrites."""
        return self._dirty_map_counts

    def clean_all_dirty(self) -> None:
        """After a checkpoint every dirty descriptor sits in the vector of
        the parent map chunk the checkpoint wrote (and installed)."""
        self._dirty.clear()
        self._dirty_maps.clear()
        self._dirty_map_counts.clear()

    def clear(self) -> None:
        """Evict every clean vector.  Dirty descriptors stay pinned: until
        the next checkpoint they are the only record of the commits since
        the last one."""
        self._vectors.clear()
        self._clean_slots = 0

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        partitions = {key[0] for key in self._vectors}
        partitions.update(cid.partition for cid in self._dirty)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "clean_entries": self._clean_slots,
            "vectors": len(self._vectors),
            "vector_capacity": self._max_vectors,
            "dirty_entries": len(self._dirty),
            "partitions_indexed": len(partitions),
        }


class _SharedDescriptorCache(DescriptorCache):
    """What :meth:`DescriptorCache.partition_entries` returns: a snapshot
    view's reader threads share it with no store lock, so lookups and
    installs take a private mutex — per call, never across a device read."""

    def __init__(self, max_clean: int, fanout: int) -> None:
        super().__init__(max_clean, fanout)
        self._mutex = threading.Lock()

    def get(self, chunk_id: ChunkId) -> Optional[ChunkDescriptor]:
        with self._mutex:
            return super().get(chunk_id)

    def install(self, map_id: ChunkId, vector: MapVector) -> None:
        with self._mutex:
            super().install(map_id, vector)


class ValidatedChunkCache:
    """Byte-bounded LRU of decrypted, hash-verified data-chunk payloads.

    Sits beside the :class:`DescriptorCache` in the read path: a hit skips
    the device round trip, the cipher, *and* the hasher.  Correctness rests
    on a strict population rule — entries are inserted **only** after a
    successful validated read (never write-through), so a cached payload is
    always bytes the hash-link path has already vouched for.

    Coherence is the store's responsibility: every event that can change or
    invalidate a chunk's committed bytes (write, deallocate, abort
    eviction, partition drop/reset, quarantine, repair, crash recovery)
    must call :meth:`invalidate` / :meth:`drop_partition` / :meth:`clear`.

    Thread-safety contract: **internally locked**.  Snapshot views read
    through this cache without holding ``ChunkStore._lock``, so unlike
    :class:`DescriptorCache` every public method takes a private mutex —
    concurrent get/put/invalidate cannot corrupt the LRU order, the
    per-partition index, or the byte accounting.
    """

    def __init__(self, max_bytes: int = 0) -> None:
        self.max_bytes = max_bytes
        self._mutex = threading.Lock()
        self._entries: "OrderedDict[ChunkId, bytes]" = OrderedDict()
        self._by_partition: Dict[int, Set[ChunkId]] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, chunk_id: ChunkId) -> Optional[bytes]:
        with self._mutex:
            payload = self._entries.get(chunk_id)
            if payload is None:
                if self.enabled:
                    self.misses += 1
                return None
            self._entries.move_to_end(chunk_id)
            self.hits += 1
            return payload

    def contains(self, chunk_id: ChunkId) -> bool:
        """Membership probe that perturbs neither counters nor recency."""
        with self._mutex:
            return chunk_id in self._entries

    def put(self, chunk_id: ChunkId, payload: bytes) -> None:
        if not self.enabled or len(payload) > self.max_bytes:
            return
        with self._mutex:
            old = self._entries.pop(chunk_id, None)
            if old is not None:
                self.current_bytes -= len(old)
            self._entries[chunk_id] = payload
            self.current_bytes += len(payload)
            self._by_partition.setdefault(chunk_id.partition, set()).add(
                chunk_id
            )
            while self.current_bytes > self.max_bytes:
                evicted, blob = self._entries.popitem(last=False)
                self.current_bytes -= len(blob)
                self.evictions += 1
                self._forget(evicted)

    def invalidate(self, chunk_id: ChunkId) -> None:
        with self._mutex:
            payload = self._entries.pop(chunk_id, None)
            if payload is None:
                return
            self.current_bytes -= len(payload)
            self.invalidations += 1
            self._forget(chunk_id)

    def drop_partition(self, partition: int) -> None:
        with self._mutex:
            for cid in self._by_partition.pop(partition, ()):
                payload = self._entries.pop(cid, None)
                if payload is not None:
                    self.current_bytes -= len(payload)
                    self.invalidations += 1

    def clear(self) -> None:
        with self._mutex:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._by_partition.clear()
            self.current_bytes = 0

    def _forget(self, chunk_id: ChunkId) -> None:
        # caller holds self._mutex
        ids = self._by_partition.get(chunk_id.partition)
        if ids is not None:
            ids.discard(chunk_id)
            if not ids:
                del self._by_partition[chunk_id.partition]

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
            }
