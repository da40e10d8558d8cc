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

A snapshot view's walk starts from the cache as it was at the freeze
(:meth:`DescriptorCache.freeze`), without copying it: each side — the
vectors, the dirty descriptors — is kept, from the first freeze on, as an
immutable *base* plus a *delta* of the installs and puts made since that
base.  A freeze shares the base and copies the delta.  The store never
changes a base, nor a delta once copied, in place: a removal other than
an LRU eviction (:meth:`~DescriptorCache.clean_all_dirty`,
:meth:`~DescriptorCache.clear`, :meth:`~DescriptorCache.drop_partition`)
drops the side's base and delta, and so does a delta that outgrows
:func:`_rebase_bound`; the next freeze builds a new base in one copy.  An
evicted vector stays in the base it was in, where it is still the body of
its map chunk: a checkpoint that rewrites that chunk installs the new
vector, and the install lands in the delta, which shadows the base.  A
store that never opens a view keeps no base and tracks no delta.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.chunkstore.descriptor import ChunkDescriptor, MapVector
from repro.chunkstore.ids import ChunkId
from repro.chunkstore.partition import PartitionState

#: a delta may hold a quarter of its base's entries, or ``REBASE_MIN`` if
#: that is more; one more put drops it, and the next freeze builds a new
#: base instead of copying it.  So a freeze that shares a base copies at
#: most a quarter of it, and a store whose views stop coming keeps beside
#: its cache at most its last base (what it held then) and a delta a
#: quarter that size
REBASE_MIN = 64
REBASE_SHARE = 4


def _rebase_bound(base: int) -> int:
    """Entries a delta over a base of ``base`` entries may hold."""
    return max(REBASE_MIN, base // REBASE_SHARE)


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
    touch it from code that does not hold the store lock.  What
    :meth:`freeze` hands a snapshot view (:class:`FrozenDescriptors`)
    shares no live dict: its bases are never changed again and its deltas
    are copies, so view threads read it with no lock at all.
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
        #: per side, the base the last freeze shared and the puts since it
        #: (None: no view froze since the side's last removal)
        self._vector_base: Optional[Dict[Tuple, MapVector]] = None
        self._vector_delta: Optional[Dict[Tuple, MapVector]] = None
        self._vector_bound = 0
        self._dirty_base: Optional[Dict[ChunkId, ChunkDescriptor]] = None
        self._dirty_delta: Optional[Dict[ChunkId, ChunkDescriptor]] = None
        self._dirty_bound = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries the freezes copied (the bases they built included)
        self.frozen_entries = 0

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
        delta = self._vector_delta
        if delta is not None:
            delta[map_id] = vector
            if len(delta) > self._vector_bound:
                self._rebase_vectors()
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
        delta = self._dirty_delta
        if delta is not None:
            delta[chunk_id] = descriptor
            if len(delta) > self._dirty_bound:
                self._rebase_dirty()
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
        """Forget everything about a deallocated or reset partition."""
        self._rebase_vectors()
        self._rebase_dirty()
        for key in [k for k in self._vectors if k[0] == partition]:
            self._clean_slots -= len(self._vectors.pop(key))
        for cid in [c for c in self._dirty if c.partition == partition]:
            del self._dirty[cid]
        if self._dirty_map_counts.pop(partition, None):
            self._dirty_maps = {k for k in self._dirty_maps if k[0] != partition}

    def freeze(self) -> "FrozenDescriptors":
        """The descriptors as of now, for a snapshot view's walk: the
        vectors and the dirty descriptors (the *only* record of the commits
        since the last checkpoint, whose map chunks are stale until the
        next one).  Each side is shared as the base it last built plus a
        copy of the delta since, so a freeze copies what changed since that
        base, not the cache; a side with no base (the first freeze, or after
        a removal or an outgrown delta) builds one in one C-level copy.
        Other partitions' entries ride along unfiltered: a view's walk
        only ever asks for ids of its own partition
        (``tests/test_descriptor_vector_cache.py`` pins that).  Caller
        holds the store's lock."""
        if self._vector_delta is None:
            self._vector_base = dict(self._vectors)
            self._vector_delta = {}
            self._vector_bound = _rebase_bound(len(self._vector_base))
            self.frozen_entries += len(self._vector_base)
        if self._dirty_delta is None:
            self._dirty_base = dict(self._dirty)
            self._dirty_delta = {}
            self._dirty_bound = _rebase_bound(len(self._dirty_base))
            self.frozen_entries += len(self._dirty_base)
        self.frozen_entries += len(self._vector_delta) + len(self._dirty_delta)
        return FrozenDescriptors(
            self._fanout,
            self._dirty_base,
            self._dirty_delta.copy(),
            self._vector_base,
            self._vector_delta.copy(),
        )

    def _rebase_vectors(self) -> None:
        """Drop the vector side's base: the next freeze builds a new one."""
        self._vector_base = self._vector_delta = None

    def _rebase_dirty(self) -> None:
        self._dirty_base = self._dirty_delta = None

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
        self._rebase_dirty()
        self._dirty.clear()
        self._dirty_maps.clear()
        self._dirty_map_counts.clear()

    def clear(self) -> None:
        """Evict every clean vector.  Dirty descriptors stay pinned: until
        the next checkpoint they are the only record of the commits since
        the last one."""
        self._rebase_vectors()
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
            "frozen_entries": self.frozen_entries,
        }


class FrozenDescriptors:
    """What :meth:`DescriptorCache.freeze` returns: a snapshot view's
    descriptor cache, the store's as of the freeze.  Its bases are the
    store's and never change again, its deltas are its own copies, and the
    map chunks the view validates itself go into a dict of its own that
    only grows, unbounded like the map it mirrors — so the view's reader
    threads share it with no lock (one dict operation each)."""

    def __init__(
        self,
        fanout: int,
        dirty_base: Dict[ChunkId, ChunkDescriptor],
        dirty_delta: Dict[ChunkId, ChunkDescriptor],
        vector_base: Dict[Tuple, MapVector],
        vector_delta: Dict[Tuple, MapVector],
    ) -> None:
        self._fanout = fanout
        self._dirty_base = dirty_base
        self._dirty_delta = dirty_delta
        self._vector_base = vector_base
        self._vector_delta = vector_delta
        self._loaded: Dict[Tuple, MapVector] = {}

    def get(self, chunk_id: ChunkId) -> Optional[ChunkDescriptor]:
        descriptor = self._dirty_delta.get(chunk_id)
        if descriptor is None:
            descriptor = self._dirty_base.get(chunk_id)
        if descriptor is not None:
            return descriptor
        rank = chunk_id.rank
        fanout = self._fanout
        parent = (chunk_id.partition, chunk_id.height + 1, rank // fanout)
        vector = self._vector_delta.get(parent)
        if vector is None:
            vector = self._vector_base.get(parent)
            if vector is None:
                vector = self._loaded.get(parent)
                if vector is None:
                    return None
        return vector[rank % fanout]

    def vector(self, map_id: Tuple) -> Optional[MapVector]:
        vector = self._vector_delta.get(map_id)
        if vector is None:
            vector = self._vector_base.get(map_id)
            if vector is None:
                vector = self._loaded.get(map_id)
        return vector

    def dirty(self, chunk_id: ChunkId) -> Optional[ChunkDescriptor]:
        descriptor = self._dirty_delta.get(chunk_id)
        return self._dirty_base.get(chunk_id) if descriptor is None else descriptor

    def install(self, map_id: ChunkId, vector: MapVector) -> None:
        self._loaded[map_id] = vector


class ValidatedChunkCache:
    """Byte-bounded LRU of decrypted, hash-verified data-chunk payloads.

    Sits beside the :class:`DescriptorCache` in the read path: a hit skips
    the device round trip, the cipher, *and* the hasher.  Correctness rests
    on a strict population rule — entries are inserted **only** after a
    successful validated read (never write-through), so a cached payload is
    always bytes the hash-link path has already vouched for.

    It is the store's one payload cache: the store's read path and every
    snapshot view read and fill it.  So an entry names the descriptor
    digest (the body hash) its payload was validated against, and whether
    the store's own read path filled it.  A view's :meth:`get` passes the
    digest its frozen walk resolved and hits only an entry of that
    version, so it never gets a version newer than its freeze.  The
    store's passes none and hits only an entry it filled itself: the store
    keeps those current — every event that can change or invalidate a
    chunk's committed bytes (write, deallocate, abort eviction, partition
    drop/reset, quarantine, repair, crash recovery) calls
    :meth:`invalidate` / :meth:`drop_partition` / :meth:`clear` — so it
    never gets an older version a view filled, and its hits need no walk.
    A view's :meth:`put` never replaces an entry the store filled.

    Thread-safety contract: **internally locked**.  Snapshot views read
    through this cache without holding ``ChunkStore._lock``, so unlike
    :class:`DescriptorCache` every public method takes a private mutex —
    concurrent get/put/invalidate cannot corrupt the LRU order, the
    per-partition index, or the byte accounting.
    """

    def __init__(self, max_bytes: int = 0) -> None:
        self.max_bytes = max_bytes
        self._mutex = threading.Lock()
        #: chunk id -> (digest, payload, filled by the store's read path)
        self._entries: "OrderedDict[ChunkId, Tuple[bytes, bytes, bool]]" = OrderedDict()
        self._by_partition: Dict[int, Set[ChunkId]] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, chunk_id: ChunkId, digest: Optional[bytes] = None) -> Optional[bytes]:
        """``chunk_id``'s payload as validated against ``digest``; with no
        digest (the store's read path), as the store last filled it.  An
        entry of another version is a miss."""
        with self._mutex:
            entry = self._entries.get(chunk_id)
            if entry is None or not (entry[2] if digest is None else entry[0] == digest):
                if self.enabled:
                    self.misses += 1
                return None
            self._entries.move_to_end(chunk_id)
            self.hits += 1
            return entry[1]

    def contains(self, chunk_id: ChunkId) -> bool:
        """Membership probe that perturbs neither counters nor recency."""
        with self._mutex:
            return chunk_id in self._entries

    def put(
        self, chunk_id: ChunkId, digest: bytes, payload: bytes, current: bool = True
    ) -> None:
        """Cache ``payload``, just validated against ``digest``, as
        ``chunk_id``'s: filled by the store's read path (``current``), it
        replaces whatever version was there; filled by a view, it replaces
        no entry the store filled."""
        if not self.enabled or len(payload) > self.max_bytes:
            return
        with self._mutex:
            old = self._entries.get(chunk_id)
            if old is not None:
                if old[2] and not current:
                    return
                del self._entries[chunk_id]
                self.current_bytes -= len(old[1])
            self._entries[chunk_id] = (digest, payload, current)
            self.current_bytes += len(payload)
            self._by_partition.setdefault(chunk_id.partition, set()).add(
                chunk_id
            )
            while self.current_bytes > self.max_bytes:
                evicted, (_, blob, _) = self._entries.popitem(last=False)
                self.current_bytes -= len(blob)
                self.evictions += 1
                self._forget(evicted)

    def invalidate(self, chunk_id: ChunkId) -> None:
        with self._mutex:
            entry = self._entries.pop(chunk_id, None)
            if entry is None:
                return
            self.current_bytes -= len(entry[1])
            self.invalidations += 1
            self._forget(chunk_id)

    def drop_partition(self, partition: int) -> None:
        with self._mutex:
            for cid in self._by_partition.pop(partition, ()):
                entry = self._entries.pop(cid, None)
                if entry is not None:
                    self.current_bytes -= len(entry[1])
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
