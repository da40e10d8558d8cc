"""The partition table: the volatile image of committed state (§4.4, §5.1).

Everything a commit changes besides the log itself lives here: which
partitions are open (a :class:`~repro.chunkstore.partition.PartitionState`
each, loaded from its leader on first use), the dirty descriptors in the
descriptor cache, the validated-payload cache and the per-segment live
bytes.  A committed version has one of four effects on that image — a
chunk was written, a chunk was freed, a partition leader was written,
partitions were freed — and each is applied by exactly one method, whoever
committed the version: ``ChunkStore.commit``, the cleaner's re-commit, the
checkpoint's leader rewrites, or recovery replaying the residual log — so
replay rebuilds descriptors, allocation state and accounting with the code
that built them (``tests/test_traversals.py`` pins the calls it makes).

A table owns the ``partitions`` dict and the per-algorithm crypto tallies;
the read path, the two caches and the segment manager it is built over are
the store's.  It takes no lock: ``ChunkStore`` calls it, and lets its
collaborators (cleaner, checkpoint, recovery, scrub, ``build_snapshot_view``)
call it, only under ``ChunkStore._lock``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import (
    SYSTEM_PARTITION,
    ChunkId,
    data_id,
    partition_rank,
    rank_to_partition,
)
from repro.chunkstore.leader import LeaderPayload
from repro.chunkstore.partition import PartitionState
from repro.chunkstore.readpath import UNREADABLE, ReadPath
from repro.chunkstore.segments import SegmentManager
from repro.crypto.cipher import Cipher
from repro.crypto.counters import CipherCounters, HashCounters
from repro.crypto.hashing import HashFunction
from repro.errors import ChunkStoreError, PartitionNotFoundError


class PartitionTable:
    """Open partitions and the effects of committed versions on them."""

    def __init__(
        self, readpath: ReadPath, segman: SegmentManager, system_key: bytes
    ) -> None:
        self.readpath = readpath
        #: the caches the read path answers from are the ones the effects
        #: must keep true
        self.cache = readpath.cache
        self.payloads = readpath.payloads
        self.segman = segman
        #: the system partition's key: derived from the secret store, held
        #: in no leader (the root of the cipher-link path, §5.2)
        self.system_key = system_key
        self.partitions: Dict[int, PartitionState] = {}
        #: one tally per algorithm name, shared by every cipher/hash
        #: instance this store or its snapshot views create — so the
        #: totals in stats() outlive a deallocated partition's instances
        #: and include snapshot reads.  View threads bump them without the
        #: store lock; like every stats int, a race can drop a count.
        self.cipher_tallies: Dict[str, CipherCounters] = {}
        self.hash_tallies: Dict[str, HashCounters] = {}

    # -- opening partitions ----------------------------------------------------

    def share_tallies(self, cipher: Cipher, hash_function: HashFunction) -> None:
        """Point fresh crypto instances at this store's tally for their
        algorithm name (the first instance of a name donates its own)."""
        cipher.counters = self.cipher_tallies.setdefault(cipher.name, cipher.counters)
        hash_function.counters = self.hash_tallies.setdefault(
            hash_function.name, hash_function.counters
        )

    def open(
        self, pid: int, payload: LeaderPayload, key_override: Optional[bytes] = None
    ) -> PartitionState:
        """:meth:`PartitionState.open` with its crypto instances tallying
        into this store's per-algorithm counters."""
        state = PartitionState.open(pid, payload, key_override)
        self.share_tallies(state.cipher, state.hash)
        return state

    def open_system(self, payload: LeaderPayload) -> None:
        """Start over from the system leader ``payload`` (format, and
        recovery before its roll-forward): no other partition is open."""
        self.partitions.clear()
        self.partitions[SYSTEM_PARTITION] = self.open(
            SYSTEM_PARTITION, payload, self.system_key
        )

    @property
    def system(self) -> PartitionState:
        return self.partitions[SYSTEM_PARTITION]

    def load(self, pid: int) -> PartitionState:
        """``pid``'s open state, reading its leader on first use."""
        state = self.partitions.get(pid)
        if state is not None:
            return state
        if pid == SYSTEM_PARTITION:
            raise ChunkStoreError("system partition state missing (store not open)")
        system = self.partitions[SYSTEM_PARTITION]
        rank = partition_rank(pid)
        if not system.is_committed_written(rank):
            raise PartitionNotFoundError(f"partition {pid} is not written")
        body = self.readpath.read_chunks(system, (rank,), obs.span("chunkstore.read"))
        state = self.open(pid, LeaderPayload.decode(body[rank]))
        self.partitions[pid] = state
        return state

    def descriptor(self, cid: ChunkId) -> ChunkDescriptor:
        """``cid``'s current descriptor: the bottom-up map walk."""
        return self.readpath.descriptors(self.load(cid.partition), (cid,))[0]

    # -- what is there ---------------------------------------------------------

    def exists(self, pid: int) -> bool:
        return pid == SYSTEM_PARTITION or self.system.is_committed_written(
            partition_rank(pid)
        )

    def ids(self) -> List[int]:
        """Ids of all written partitions (excluding the system partition)."""
        return [rank_to_partition(rank) for rank in self.system.written_ranks()]

    def copy_family(self, pid: int) -> List[int]:
        """``pid`` plus all transitive copies (§5.1: deallocating a
        partition deallocates its copies)."""
        family: List[int] = []
        queue = [pid]
        seen: Set[int] = set()
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            family.append(current)
            if not self.exists(current):
                continue
            try:
                state = self.load(current)
            except (PartitionNotFoundError, *UNREADABLE):
                continue
            queue.extend(state.payload.copies)
        return family

    def locations(self, pid: int) -> Iterator[Tuple[int, int]]:
        """Yield (location, length) of every written descriptor reachable
        from ``pid``'s position map — data and map chunks.  Best-effort
        (skips unreadable subtrees); used only for utilization estimates."""
        try:
            state = self.load(pid)
        except (PartitionNotFoundError, *UNREADABLE):
            return
        height = state.payload.tree_height
        if height == 0:
            return
        root = ChunkId(pid, height, 0)
        top = self.readpath.descriptors(state, (root,))[0]
        for _, descriptor in self.readpath.subtree(state, (root, top)):
            yield descriptor.location, descriptor.length

    def is_checkpoint_clean(self) -> bool:
        """No descriptor and no leader waits for a checkpoint: the
        persistent map says what this image says."""
        return self.cache.dirty_count() == 0 and not any(
            state.leader_dirty for state in self.partitions.values()
        )

    # -- the four effects of a committed version -------------------------------

    def _retire(self, state: PartitionState, cid: ChunkId) -> None:
        """``cid`` is about to name another version (or none): take the one
        it names now off the live-byte books."""
        self.payloads.invalidate(cid)  # the cached payload is now stale
        old = self.cache.get(cid)
        if old is None and state.payload.tree_height >= max(cid.height, 1):
            try:
                old = self.readpath.descriptors(state, (cid,))[0]
            except UNREADABLE:
                old = None  # accounting only; validation happens on real reads
        if old is not None and old.is_written():
            self.segman.sub_live(old.location, old.length)

    def chunk_written(self, cid: ChunkId, descriptor: ChunkDescriptor) -> None:
        """Install a committed chunk write into cache, allocation state,
        and utilization accounting."""
        state = self.load(cid.partition)
        self._retire(state, cid)
        self.segman.add_live(descriptor.location, descriptor.length)
        if cid.height == 0:
            state.apply_committed_write(cid.rank)
        self.cache.put_dirty(cid, descriptor, state)
        state.leader_dirty = True

    def chunk_freed(self, cid: ChunkId) -> None:
        state = self.load(cid.partition)
        self._retire(state, cid)
        self.cache.put_dirty(cid, ChunkDescriptor(ChunkStatus.FREE), state)
        state.apply_committed_dealloc(cid.rank)

    def leader_written(
        self, pid: int, payload: LeaderPayload, descriptor: ChunkDescriptor
    ) -> None:
        """A partition leader chunk was committed (create, copy, or leader
        rewrite): refresh the open partition state."""
        existing = self.partitions.get(pid)
        if existing is not None and existing.payload is payload:
            # rewrite of the live payload (e.g. a copy source's updated
            # copies list): state — including volatile allocations — stays
            existing.leader_dirty = False
        else:
            self.partitions[pid] = self.open(pid, payload)
        self.chunk_written(data_id(SYSTEM_PARTITION, partition_rank(pid)), descriptor)

    def partitions_freed(self, family: Iterable[int]) -> None:
        system = self.system
        # subtract live bytes once per distinct version across the family
        locations: Set[Tuple[int, int]] = set()
        for pid in family:
            locations.update(self.locations(pid))
        for location, length in locations:
            self.segman.sub_live(location, length)
        for pid in family:
            state = self.partitions.get(pid)
            parent = state.payload.copy_of if state else None
            if parent is not None and parent not in family:
                # loaded on demand (after a reopen or in replay the source
                # is not resident): an entry left behind here outlives the
                # id's reuse, and deallocating the source would then take
                # the unrelated partition holding that id with it
                parent_state = self.load(parent)
                if pid in parent_state.payload.copies:
                    parent_state.payload.copies.remove(pid)
                    parent_state.leader_dirty = True
            self.cache.drop_partition(pid)
            self.payloads.drop_partition(pid)
            self.partitions.pop(pid, None)
            rank = partition_rank(pid)
            if system.is_committed_written(rank):
                self.chunk_freed(data_id(SYSTEM_PARTITION, rank))
        system.leader_dirty = True

    def reset(self, pid: int, payload: LeaderPayload) -> None:
        """``WritePartition`` over the existing partition ``pid``, about to
        get the fresh leader ``payload``: old contents become obsolete;
        copy relationships survive (copies keep their own state)."""
        old = self.load(pid).payload
        for location, length in self.locations(pid):
            self.segman.sub_live(location, length)
        payload.copies = list(old.copies)
        payload.copy_of = old.copy_of
        self.cache.drop_partition(pid)
        self.payloads.drop_partition(pid)
