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

What the next checkpoint will write is bounded at all times by the
log-space reserve (:class:`~repro.chunkstore.logspace.LogSpace`), which no
other writer may take (DESIGN.md, "Log space"), and the segments the
cleaner freed since the last checkpoint become claimable only once this
one is durable, if no open snapshot view predates their clean
(:meth:`SegmentManager.release_deferred
<repro.chunkstore.segments.SegmentManager.release_deferred>`).
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

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
from repro.errors import ChunkStoreError

logger = logging.getLogger("repro.chunkstore")


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
                descriptor = store._append_leader(pid, state.payload)
                store.table.leader_written(state, state.payload, descriptor)
                dirty[SYSTEM_PARTITION].append(
                    data_id(SYSTEM_PARTITION, partition_rank(pid))
                )
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
    # still needs a segment cleaned before it (its table lists them free);
    # an open view may, if it was frozen before the clean
    store.segman.release_deferred(store._oldest_view())
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
