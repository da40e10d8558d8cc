"""Checkpointing (§4.7): propagate buffered descriptors up the map.

Commits update descriptors only in the descriptor cache; a checkpoint
writes every map chunk that holds a dirty descriptor (and its ancestors up
to the root), rewrites the leaders that changed, restarts the residual log
in a fresh segment with the system leader at its head, and makes the whole
durable.  Like the cleaner, it is a caller of the store's collaborators and
owns nothing: the map chunk it rewrites is read back through
:meth:`ReadPath.vectors <repro.chunkstore.readpath.ReadPath.vectors>`,
every version is appended and every set closed through the
:class:`~repro.chunkstore.writepath.LogWriter`.  ``ChunkStore`` calls
:func:`write_checkpoint` under its lock and marks itself failed if it
raises.

What the next checkpoint will write is bounded at all times by
:class:`CheckpointReserve`, the log-space reserve the write path holds
back from every other writer (DESIGN.md, "Log space"), and the segments
the cleaner freed since the last checkpoint become claimable only once
this one is durable (:meth:`SegmentManager.release_deferred
<repro.chunkstore.segments.SegmentManager.release_deferred>`).
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Tuple

from repro.chunkstore.descriptor import ChunkDescriptor, MapVector
from repro.chunkstore.ids import (
    SYSTEM_PARTITION,
    ChunkId,
    data_id,
    leader_id,
    partition_rank,
)
from repro.chunkstore.partition import PartitionState
from repro.chunkstore.readpath import UNREADABLE
from repro.chunkstore.writepath import max_version_size
from repro.errors import ChunkStoreError
from repro.util.codec import encode_uvarint

logger = logging.getLogger("repro.chunkstore")

#: bounds on encoded fields: any varint, a commit record's body (count,
#: set hash, MAC tag) and a leader's fixed fields beside its names and key
_VARINT = 10
_COMMIT_BODY = 128
_LEADER_FIXED = 96
#: bounds for sizing a commit: a new partition's leader body (names, key,
#: empty lists) and one entry of a deallocation record
NEW_LEADER_BOUND = 512
DEALLOC_ENTRY_BOUND = 32
#: the descriptor of an AEAD chunk holds the cipher's 16-byte tag in place
#: of a digest; the widest digest and ciphertext overhead registered
_AEAD_TAG = 16
_MAX_DIGEST = 32
_MAX_EXPANSION = 32


class CheckpointReserve:
    """The log-space reserve: an upper bound on what the next checkpoint
    appends, so it can always run (ROADMAP item 1).

    Phase 1 writes one version per map chunk the cache's dirty-map set
    names, at most :meth:`map_version` bytes each, and one leader per
    partition whose leader is dirty (with the system-partition map chunks
    above it); then its commit chunk.  Where a version does not fit a
    segment's rest, the rest is lost, so every segment the phase crosses
    costs up to its largest version more.  Phase 2 starts the residual log
    in a fresh segment (the system leader, the segment table, a second
    commit chunk): one whole segment.

    Sized from running counts — the cache's per-partition dirty-map counts
    and the open partitions' dirty flags — never by walking dirty ids.
    Holds no reference to the store.
    """

    def __init__(self, cache, table, codec, segman) -> None:
        self.cache = cache
        self.table = table
        self.codec = codec
        self.segman = segman
        self.fanout = table.readpath.fanout
        self.max_version_size = max_version_size(codec, segman.segment_size)
        self._commit = codec.version_size(_COMMIT_BODY, codec.system_cipher)
        device_end = segman.segment_start(segman.segment_count)
        #: a written slot less its hash: status, the widest location and
        #: length, the hash's length byte
        self._slot_written = (
            2 + len(encode_uvarint(device_end)) + len(encode_uvarint(segman.segment_size))
        )
        #: a map chunk body less its slots' hashes, every slot written
        self._map_fixed = len(encode_uvarint(self.fanout)) + self.fanout * self._slot_written
        #: every segment's table entry: free or residual index, used and
        #: live bytes
        self._segment_entry = len(encode_uvarint(segman.segment_count)) + 2 * len(
            encode_uvarint(segman.segment_size)
        )
        #: map_version per (cipher name, hash name, written slots)
        self._map_versions: Dict[Tuple[str, str, int], int] = {}
        #: per open partition, its share of ceiling() and what it is for
        self._shares: Dict[int, Tuple[tuple, int, int, int]] = {}

    def version(self, state: Optional[PartitionState], body: int) -> int:
        """Size of a version of ``state``'s partition with a ``body``-byte
        body (at the widest suite, for a partition not open yet)."""
        if state is None:
            return self.codec.header_cipher_size + body + _MAX_EXPANSION
        return self.codec.header_cipher_size + state.cipher.ciphertext_size(body)

    def map_version(self, state: Optional[PartitionState], reach: int = 0) -> int:
        """Largest version a map chunk of ``state``'s partition can have:
        as many written slots as it has committed ranks — or ``reach``, the
        ranks it will have — up to ``fanout``, each hash at its widest;
        every other slot one status byte."""
        fanout = self.fanout
        if state is None:
            return self.version(None, self._map_fixed + fanout * _MAX_DIGEST)
        written = min(fanout, max(state.payload.next_rank, reach))
        suite = (state.cipher.name, state.hash.name, written)
        size = self._map_versions.get(suite)
        if size is None:
            digest = _AEAD_TAG if state.cipher.authenticates else state.hash.digest_size
            size = self._map_versions[suite] = self.version(
                state,
                len(encode_uvarint(fanout))
                + fanout
                + written * (self._slot_written - 1 + digest),
            )
        return size

    def leader_version(self, state: PartitionState) -> int:
        """Largest version ``state``'s leader can have as it stands (the
        system leader's segment table included)."""
        payload = state.payload
        body = (
            _LEADER_FIXED
            + len(payload.cipher_name)
            + len(payload.hash_name)
            + len(payload.key)
            + len(payload.name)
            + _VARINT * (len(payload.free_ranks) + len(payload.copies))
        )
        extras = payload.system
        if extras is not None:
            body += self.segman.segment_count * self._segment_entry + 2 * _VARINT * (
                len(extras.restore_history) + len(extras.backup_bases)
            )
        return self.codec.header_cipher_size + self.codec.system_cipher.ciphertext_size(
            body
        )

    def bytes(self) -> int:
        """The reserve now."""
        partitions = self.table.partitions
        content, largest = self._content(
            self.cache.dirty_map_counts(),
            [state for state in partitions.values() if state.leader_dirty],
        )
        return self._spread(content + 2 * self._commit, largest) + self.max_version_size

    def ceiling(self) -> int:
        """What the reserve can grow to with the partitions open now: every
        map chunk of every tree dirty, every leader.  The cleaner keeps
        room for it, so that its own re-commits — which dirty the chains
        above whatever they move — never find the reserve in the way.
        Asked before every commit, so each partition's share is kept until
        its rank count, tree or leader lists change."""
        partitions = self.table.partitions
        system = partitions[SYSTEM_PARTITION]
        above = system.checkpoint_height(self.fanout) * self.map_version(system)
        shares = self._shares
        if len(shares) > len(partitions):
            for pid in [pid for pid in shares if pid not in partitions]:
                del shares[pid]
        content = largest = 0
        for pid, state in partitions.items():
            payload = state.payload
            key = (
                id(state),
                payload.next_rank,
                payload.tree_height,
                len(payload.free_ranks),
                len(payload.copies),
            )
            share = shares.get(pid)
            if share is None or share[0] != key:
                maps, size = self._content({pid: state.map_chunks(self.fanout)}, ())
                leader = 0 if state is system else self.leader_version(state)
                share = shares[pid] = (key, maps, leader, max(size, leader))
            content += share[1] + (share[2] + above if share[2] else 0)
            largest = max(largest, share[3])
        return self._spread(content + 2 * self._commit, largest) + self.max_version_size

    def growth(
        self,
        dirtied: Iterable[Tuple[int, int, int, int]],
        leaders: Iterable[PartitionState],
        fresh: bool = False,
    ) -> int:
        """Bytes the reserve grows by when each ``(partition, height, rank,
        top)`` of ``dirtied`` becomes dirty (``top`` as for
        :meth:`DescriptorCache.put_dirty`) and the leaders of ``leaders``
        with them: a commit's or a cleaner re-commit's due, checked before
        it appends; ``fresh``: right after a checkpoint, nothing dirty.  A
        partition not open yet is sized at the widest suite; its leader is
        the caller's to count."""
        dirtied = list(dirtied)
        reach: Dict[int, int] = {}
        for pid, height, rank, _ in dirtied:
            if not height:
                reach[pid] = max(reach.get(pid, 0), rank + 1)
        content, largest = self._content(
            self.cache.map_growth(dirtied, fresh),
            [state for state in leaders if fresh or not state.leader_dirty],
            reach,
        )
        return self._spread(content, largest)

    def _content(self, map_counts, leaders, reach=None) -> Tuple[int, int]:
        """What ``map_counts`` map chunks per partition and the leaders of
        ``leaders`` (each with the system-partition map chunks above it)
        append, and the largest of those versions; ``reach``: the ranks
        some partitions are about to have."""
        reach = reach or {}
        partitions = self.table.partitions
        system = partitions[SYSTEM_PARTITION]
        system_map = self.map_version(system, reach.get(SYSTEM_PARTITION, 0))
        largest = system_map
        content = 0
        for pid, count in map_counts.items():
            size = self.map_version(partitions.get(pid), reach.get(pid, 0))
            content += count * size
            largest = max(largest, size)
        above = system.checkpoint_height(self.fanout) * system_map
        for state in leaders:
            if state is not system:
                size = self.leader_version(state)
                content += size + above
                largest = max(largest, size)
        return content, largest

    def appends(self, content: int, largest: int) -> int:
        """What appending ``content`` bytes of versions, none larger than
        ``largest``, and a commit chunk may take from the writer's
        capacity."""
        return self._spread(content + self._commit, max(largest, self._commit))

    def plain_appends(self, writes: int, data: int, largest: int) -> int:
        """An upper bound on what ``writes`` chunk writes and deallocations
        of ``data`` body bytes in all, none over ``largest``, append with
        their commit: each version at the widest suite's overhead, a
        deallocation record entry and a free rank in its leader each."""
        overhead = self.version(None, DEALLOC_ENTRY_BOUND + _VARINT)
        return self.appends(data + writes * overhead, largest + overhead)

    def _spread(self, content: int, largest: int) -> int:
        """``content`` bytes in versions of at most ``largest``, with the
        rest of every segment they cross lost."""
        if not content:
            return 0
        room = max(self.max_version_size - largest, 1)
        return content + (content // room + 1) * largest

    def released(self) -> int:
        """What a checkpoint now adds to the writer's capacity, at least:
        the deferred segments it releases, less the rest of the segment its
        first phase ends in — the tail's, if that phase fits there, else
        all of one at worst — and the system leader and commit chunk it
        starts the fresh one with.  The reserve it spends it also frees."""
        segman = self.segman
        whole = self.max_version_size
        rest = whole - segman.tail_offset
        lost = rest if self.bytes() - whole <= rest else whole
        return (
            len(segman.deferred_segments) * whole
            - lost
            - self.leader_version(self.table.system)
            - self._commit
        )


def write_checkpoint(store, initial: bool) -> None:
    """Checkpoint ``store`` (caller holds its lock); ``initial`` is the
    very first one, written by ``format``: no map to persist, no old tail
    to chain from."""
    injector = store.platform.injector
    injector.point("checkpoint.begin")
    writer = store.writer
    writer.begin_set()
    appended_any = False

    if not initial:
        # Phase 1: persist map chunks for every partition with dirty
        # descriptors, then rewrite dirty leaders (user partitions are
        # data chunks of the system partition, so they come before the
        # system partition's own map).
        dirty: Dict[int, List[ChunkId]] = {SYSTEM_PARTITION: []}
        for cid in store.cache.dirty_ids():
            dirty.setdefault(cid.partition, []).append(cid)
        user_pids = sorted(
            pid for pid in store.table.partitions if pid != SYSTEM_PARTITION
        )
        for pid in user_pids:
            appended_any |= _checkpoint_partition_maps(
                store, pid, dirty.get(pid, [])
            )
        for pid in user_pids:
            state = store.table.partitions[pid]
            if state.leader_dirty:
                store._append_leader(pid, state.payload)
                dirty[SYSTEM_PARTITION].append(
                    data_id(SYSTEM_PARTITION, partition_rank(pid))
                )
                state.leader_dirty = False
                appended_any = True
        appended_any |= _checkpoint_partition_maps(
            store, SYSTEM_PARTITION, dirty[SYSTEM_PARTITION]
        )

        if appended_any:
            writer.seal_set()

    # Phase 2: start a fresh segment for the residual log, write the
    # system leader there (the head of the new residual log), and make
    # the checkpoint durable.
    system = store.table.system
    extras = system.payload.system  # never None: format and recovery see to it
    extras.checkpoint_count = writer.restart_residual(chained=not initial)
    extras.segments = store.segman.to_table()
    store._leader_location = writer.append_named(
        leader_id(SYSTEM_PARTITION),
        system.payload.encode(),
        system.cipher,
        system.hash,
    ).location
    system.leader_dirty = False
    writer.make_durable("checkpoint", store._leader_location, force=True)
    store._write_superblock()
    # durable in both disciplines now: nothing recovery can start from
    # still needs a segment cleaned before it (its table lists them free)
    store.segman.release_deferred()
    injector.point("checkpoint.end")
    store.cache.clean_all_dirty()
    logger.info(
        "checkpoint complete: leader at %d, residual restarts in segment %d",
        store._leader_location,
        store.segman.tail_segment,
    )


def _checkpoint_partition_maps(store, pid: int, need: List[ChunkId]) -> bool:
    """Write every map chunk of ``pid`` containing one of the dirty
    descriptors ``need`` (and their ancestors up to the root); returns
    True if any were written.  Updates the partition payload's root
    and height."""
    state = store.table.partitions.get(pid)
    if state is None or not need:
        return False
    fanout = store.config.fanout
    payload = state.payload
    old_height = payload.tree_height
    new_height = state.checkpoint_height(fanout)
    if new_height > old_height and old_height >= 1:
        # the old root becomes an ordinary map chunk: seed its
        # descriptor so the new levels above it get built
        old_root_id = ChunkId(pid, old_height, 0)
        store.cache.put_dirty(old_root_id, payload.root)
        need.append(old_root_id)
    #: map height -> map rank -> the dirty children that chunk holds
    rewrites: Dict[int, Dict[int, List[ChunkId]]] = {}

    def needs_rewrite(child: ChunkId) -> None:
        level = rewrites.setdefault(child.height + 1, {})
        level.setdefault(child.rank // fanout, []).append(child)

    for cid in need:
        needs_rewrite(cid)
    appended = False
    for height in range(1, new_height + 1):
        for rank, children in sorted(rewrites.get(height, {}).items()):
            map_id = ChunkId(pid, height, rank)
            _rewrite_map_chunk(store, map_id, state, children)
            needs_rewrite(map_id)
            appended = True
    root = store.cache.get(ChunkId(pid, new_height, 0))
    if root is None:
        raise ChunkStoreError(f"checkpoint failed to produce a root for {pid}")
    payload.root = root
    payload.tree_height = new_height
    state.leader_dirty = True
    return appended


def _rewrite_map_chunk(
    store, map_id: ChunkId, state: PartitionState, dirty_children: List[ChunkId]
) -> None:
    """Write a new version of ``map_id``: its current vector (cached,
    else read back and validated) with ``dirty_children`` overlaid."""
    fanout = store.config.fanout
    old_desc = ChunkDescriptor()  # above the current tree: a new chunk
    if map_id.height <= state.payload.tree_height:
        (old_desc,) = store.readpath.descriptors(state, (map_id,))
    if not old_desc.is_written():
        vector = MapVector.of(ChunkDescriptor() for _ in range(fanout))
    else:
        try:
            (vector,) = store.readpath.vectors(state, [(map_id, old_desc)])
        except UNREADABLE:
            # Degraded rebuild: a checkpoint must not be poisoned by a
            # dead map chunk if every written child descriptor it held
            # is known from elsewhere (the cache, or repairs just
            # committed).  If any committed child is unaccounted for,
            # the original error propagates — rebuilding would silently
            # drop that chunk's location.
            vector = _degraded_map_slots(store, map_id, state)
            if vector is None:
                raise
    vector = vector.replace(
        {child.rank % fanout: store.cache.get(child) for child in dirty_children}
    )
    descriptor = store.writer.append_named(
        map_id, vector.encode(), state.cipher, state.hash
    )
    if old_desc.is_written():
        store.segman.sub_live(old_desc.location, old_desc.length)
    store.segman.add_live(descriptor.location, descriptor.length)
    store.cache.install(map_id, vector)
    store.cache.put_dirty(map_id, descriptor)
    store.readpath.quarantine.pop(str(map_id), None)  # the rewrite supersedes it


def _degraded_map_slots(
    store, map_id: ChunkId, state: PartitionState
) -> Optional[MapVector]:
    """Rebuild an unreadable map chunk's slot vector from the cache.

    Returns ``None`` if any committed-written data rank covered by an
    uncached child subtree exists — its descriptor lives only in the
    dead map chunk, so a rebuild would lose it."""
    fanout = store.config.fanout
    slots: List[ChunkDescriptor] = []
    child_span = fanout ** (map_id.height - 1)
    for slot in range(fanout):
        child = map_id.child(fanout, slot)
        cached = store.cache.get(child)
        if cached is not None:
            slots.append(cached)
            continue
        first = child.rank * child_span
        last = min((child.rank + 1) * child_span, state.payload.next_rank)
        if any(state.is_committed_written(r) for r in range(first, last)):
            return None
        slots.append(ChunkDescriptor())
    return MapVector.of(slots)
