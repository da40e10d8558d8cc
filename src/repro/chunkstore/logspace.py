"""Log space (§4.7, §4.9.5): room in the log for the next checkpoint.

A checkpoint appends every map chunk above the descriptors commits left
dirty, then restarts the residual log in a fresh segment; the cleaner
frees segments only by appending what they still hold.  Both need room,
so the log keeps a *reserve* — an upper bound on what the next checkpoint
appends — that no other writer may take (ROADMAP item 1; DESIGN.md, "Log
space").  :class:`LogSpace` is the only code that turns log state into
byte counts and byte counts into decisions:

* **the reserve and the capacity.**  :meth:`LogSpace.room` is the rest of
  the tail segment plus every free segment; :meth:`LogSpace.capacity` is
  that less :meth:`LogSpace.reserve`, sized from running counts — the
  cache's per-partition dirty-map counts (kept by ``put_dirty``) and the
  open partitions' dirty leader flags — never by walking dirty ids;
* **one cost route.**  An application commit and a cleaner re-commit cost
  the same way (:meth:`LogSpace._cost`): the versions they append, and
  what the chunks they make dirty add to the reserve, by a dry run of the
  cache's ancestor walk.  The common commit — chunk writes and
  deallocations of ranks its partitions have — is bounded in one pass
  instead (:meth:`LogSpace._plain_bound`);
* **one policy.**  :meth:`LogSpace.make_room` cleans and checkpoints
  before a commit, :meth:`LogSpace.clean` before giving up on an explicit
  clean, :meth:`LogSpace.move_fits` answers the cleaner, and
  :meth:`LogSpace.checkpoint_fits` a checkpoint.

A segment the cleaner frees is *deferred* until a later checkpoint is
durable and no open snapshot view predates its clean
(:mod:`repro.chunkstore.segments`): it counts towards the cleaning target,
towards what a checkpoint releases only once the next checkpoint would free
it (:meth:`LogSpace.releasable`), and never towards ``room``.

``ChunkStore`` builds one and calls it under both of its locks, as it does
the cleaner and the checkpoint; it holds the store weakly, like the
cleaner.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.chunkstore.cache import ancestors
from repro.chunkstore.ids import SYSTEM_PARTITION, partition_rank, required_height
from repro.chunkstore.ops import (
    CopyPartition,
    DeallocateChunk,
    WriteChunk,
    WritePartition,
)
from repro.chunkstore.partition import PartitionState
from repro.errors import StorageFullError
from repro.util.codec import encode_uvarint

#: bounds on encoded fields: any varint, a commit record's body (count,
#: set hash, MAC tag) and a leader's fixed fields beside its names and key
_VARINT = 10
_COMMIT_BODY = 128
_LEADER_FIXED = 96
#: bounds for sizing a commit: a new partition's leader body (names, key,
#: empty lists) and one entry of a deallocation record
_NEW_LEADER = 512
_DEALLOC_ENTRY = 32
#: the descriptor of an AEAD chunk holds the cipher's 16-byte tag in place
#: of a digest; the widest digest and ciphertext overhead registered
_AEAD_TAG = 16
_MAX_DIGEST = 32
_MAX_EXPANSION = 32


class LogSpace:
    """The checkpoint reserve, the cost of every append but a checkpoint's,
    and the clean-and-checkpoint policy (see the module docstring).

    The reserve: phase 1 of a checkpoint writes one version per map chunk
    the cache's dirty-map set names, at most :meth:`_map_version` bytes
    each, and one leader per partition whose leader is dirty (with the
    system-partition map chunks above it); then its commit chunk.  Where a
    version does not fit a segment's rest, the rest is lost, so every
    segment the phase crosses costs up to its largest version more.  Phase
    2 starts the residual log in a fresh segment (the system leader, the
    segment table, a second commit chunk): one whole segment.
    """

    def __init__(self, store) -> None:
        #: weak: the store owns this, and a cycle would leave a dropped
        #: store to the cyclic collector
        self.store = weakref.proxy(store)
        self.cache = store.cache
        self.table = store.table
        self.codec = codec = store.codec
        self.segman = segman = store.segman
        config = store.config
        self.fanout = config.fanout
        self.threshold = config.checkpoint_dirty_threshold
        #: the cleaning target (never fewer than two segments: one to move
        #: survivors into, one the checkpoint releasing them may leave
        #: unfinished)
        self.low_water = max(config.clean_low_water, 2) * config.segment_size
        self.max_version_size = store.writer.max_version_size
        self._commit = codec.version_size(_COMMIT_BODY, codec.system_cipher)
        device_end = segman.segment_start(segman.segment_count)
        #: a written slot less its hash: status, the widest location and
        #: length, the hash's length byte
        self._slot_written = (
            2 + len(encode_uvarint(device_end)) + len(encode_uvarint(segman.segment_size))
        )
        #: a map chunk body less its slots' hashes, every slot written
        self._map_fixed = (
            len(encode_uvarint(self.fanout)) + self.fanout * self._slot_written
        )
        #: every segment's table entry: free or residual index, used and
        #: live bytes
        self._segment_entry = len(encode_uvarint(segman.segment_count)) + 2 * len(
            encode_uvarint(segman.segment_size)
        )
        #: _map_version per (cipher name, hash name, written slots)
        self._map_versions: Dict[Tuple[str, str, int], int] = {}
        #: per open partition, its share of ceiling() and what it is for
        self._shares: Dict[int, Tuple[tuple, int, int, int]] = {}
        #: checkpoints a commit wrote because ``checkpoint_dirty_threshold``
        #: descriptors were dirty, and because the log ran short of space
        self.checkpoints_for_dirty = 0
        self.checkpoints_for_space = 0

    # -- the policy ------------------------------------------------------------

    def make_room(self, operations: Sequence[object]) -> None:
        """Make room in the log for a commit of ``operations`` (validated),
        writing the threshold checkpoint first if it is due; raises
        :class:`StorageFullError` if the commit cannot be made to fit.

        * While the commit fits — after the due checkpoint, if one is due —
          clean towards the low-water target: that much room beyond the
          reserve's :meth:`ceiling` — every map chunk dirty — so that a
          clean, which dirties the chains above what it moves, always
          fits.  A deferred segment counts towards it, less the one
          segment the checkpoint releasing it may leave — one an open
          snapshot view holds too: cleaning more frees nothing before the
          view closes, and would spend the room the commit needs.  When
          nothing outside the residual log is left to clean, checkpoint
          once to unpin it.  Then write the due checkpoint: it releases
          what was just cleaned.
        * While it does not: checkpoint if releasing the
          :meth:`releasable` segments is enough; else clean; else, once a
          clean made progress and if a checkpoint now adds capacity or
          unpins the residual log, checkpoint anyway.  A due checkpoint
          that cannot be made to fit is skipped this time.

        A commit is sized against the dirty set it will find: a checkpoint
        empties it, and every chain above the commit's chunks is new then.
        """
        store, segman = self.store, self.segman
        checkpoint_due = self.cache.dirty_count() >= self.threshold
        # a plain commit cannot take the reserve past its ceiling, so room
        # beyond the ceiling that holds its versions is room enough: the
        # common case needs no exact sizing
        plain = self._plain_bound(operations)
        # a checkpoint makes the survivors a clean moved cleanable again:
        # the clean budget is what bounds the loop
        cleans = segman.segment_count
        cleaned = True  # since the last checkpoint this call wrote
        while True:
            room, ceiling = self.room(), self.ceiling()
            # room once the reserve grew to its ceiling, a deferred segment
            # counted less the one its releasing checkpoint may leave
            reclaimed = max(len(segman.deferred_segments) - 1, 0) * self.max_version_size
            below_low_water = room - ceiling + reclaimed < self.low_water
            if checkpoint_due:
                fits = room - self.reserve() + self.released() >= self._commit_cost(
                    operations, fresh=True
                )
            elif plain is not None and room - ceiling >= plain:
                fits = True
            else:
                fits = room - self.reserve() >= self._commit_cost(operations)
            if fits and below_low_water and cleans:
                if store.cleaner.clean_one() is not None:
                    cleans -= 1
                    cleaned = True
                    continue
            if fits and checkpoint_due:
                for_space = False
            elif fits and not (below_low_water and cleaned and self._unpins()):
                return
            elif fits:
                # nothing left to clean outside the residual log: a
                # checkpoint makes it cleanable (§4.9.5)
                for_space = True
            elif (
                not checkpoint_due
                and self.releasable()
                and room - self.reserve() + self.released()
                >= self._commit_cost(operations, fresh=True)
            ):
                for_space = True  # releasing the deferred segments is enough
            elif cleans and store.cleaner.clean_one() is not None:
                cleans -= 1
                cleaned = True
                continue
            elif checkpoint_due:
                checkpoint_due = False  # the commit may fit without it
                continue
            elif cleaned and (self.released() > 0 or self._unpins()):
                for_space = True
            else:
                held = len(segman.deferred_segments) - self.releasable()
                raise StorageFullError(
                    f"no room for a commit of {len(operations)} operation(s) after "
                    f"cleaning: {self.capacity()} bytes left; {held} segment(s) held "
                    f"by open snapshot views frozen at {sorted(store._open_views)}"
                )
            store._write_checkpoint()
            if for_space:
                self.checkpoints_for_space += 1
            else:
                self.checkpoints_for_dirty += 1
                checkpoint_due = False
            cleaned = False

    def _unpins(self) -> bool:
        """Would a checkpoint now make segments of the residual log
        cleanable, and leave the reserve covered for the one after it?"""
        return (
            len(self.segman.residual_segments) > 1
            and self.capacity() + self.released() >= 0
        )

    def clean(self, max_segments: int) -> int:
        """Clean up to ``max_segments`` segments; returns how many.  When
        nothing is left to clean, one checkpoint: what is left may be
        pinned in the residual log, or its move may need the segments
        cleaned so far — the checkpoint bounds the one and releases the
        other (§4.9.5)."""
        store, segman = self.store, self.segman
        cleaned = 0
        checkpointed = False
        while cleaned < max_segments:
            if store.cleaner.clean_one() is not None:
                cleaned += 1
                continue
            if checkpointed or not (
                self.releasable() or len(segman.residual_segments) > 1
            ):
                break
            store._write_checkpoint()
            checkpointed = True
        return cleaned

    def move_fits(self, segment: int, record: bytes, survivors) -> bool:
        """The cleaner's question: does moving ``segment``'s ``survivors``
        — ``(chunk id, body, partitions where current)`` each, announced
        by the CLEANER ``record`` — fit the capacity, what it adds to the
        reserve included?  A move that does not is declined."""
        codec = self.codec
        versions = [codec.version_size(len(record), codec.system_cipher)]
        versions += [
            self._version(self.table.load(pids[0]), len(body))
            for _, body, pids in survivors
        ]
        chunks = [
            (pid, cid.height, cid.rank) for cid, _, pids in survivors for pid in pids
        ]
        need, capacity = self._cost(versions, chunks), self.capacity()
        if need > capacity:
            obs.emit("clean_declined", segment=segment, need=need, capacity=capacity)
            return False
        return True

    def checkpoint_fits(self) -> bool:
        """Is the reserve covered?  Only not once a checkpoint took the
        last free segment: then the next checkpoint is refused before it
        appends anything, and ``close`` leaves the residual log to
        recovery."""
        return self.capacity() >= 0

    def stats(self) -> Dict[str, int]:
        segman = self.segman
        return {
            "free_segments": len(segman.free_segments),
            "deferred_segments": len(segman.deferred_segments),
            "reserve_bytes": self.reserve(),
            "capacity_bytes": self.capacity(),
            "checkpoints_for_dirty": self.checkpoints_for_dirty,
            "checkpoints_for_space": self.checkpoints_for_space,
        }

    # -- what the log can take -------------------------------------------------

    def room(self) -> int:
        """Bytes of versions the log can still take: the rest of the tail
        segment plus every free segment (deferred ones are not free yet)."""
        segman = self.segman
        return (
            self.max_version_size
            - segman.tail_offset
            + len(segman.free_segments) * self.max_version_size
        )

    def capacity(self) -> int:
        """What :meth:`room` leaves to anything but a checkpoint: the rest,
        less the reserve the next checkpoint may need.  A commit or a
        cleaner re-commit appends only what fits here, the reserve it adds
        included, so the next checkpoint always fits."""
        return self.room() - self.reserve()

    def reserve(self) -> int:
        """What the next checkpoint may append now."""
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
        above = system.checkpoint_height(self.fanout) * self._map_version(system)
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
                leader = 0 if state is system else self._leader_version(state)
                share = shares[pid] = (key, maps, leader, max(size, leader))
            content += share[1] + (share[2] + above if share[2] else 0)
            largest = max(largest, share[3])
        return self._spread(content + 2 * self._commit, largest) + self.max_version_size

    def releasable(self) -> int:
        """How many deferred segments a checkpoint now frees: those no open
        snapshot view was frozen before the clean of."""
        return self.segman.releasable(self.store._oldest_view())

    def released(self) -> int:
        """What a checkpoint now adds to the capacity, at least: the
        :meth:`releasable` segments, less the rest of the segment its
        first phase ends in — the tail's, if that phase fits there, else
        all of one at worst — and the system leader and commit chunk it
        starts the fresh one with.  The reserve it spends it also frees."""
        segman = self.segman
        whole = self.max_version_size
        rest = whole - segman.tail_offset
        lost = rest if self.reserve() - whole <= rest else whole
        return (
            self.releasable() * whole
            - lost
            - self._leader_version(self.table.system)
            - self._commit
        )

    # -- the cost of a commit or a move ---------------------------------------

    def _commit_cost(self, operations: Sequence[object], fresh: bool = False) -> int:
        """What a commit of ``operations`` takes from the capacity —
        ``fresh``: right after a checkpoint, when nothing is dirty.  Runs
        after validation, which opened every partition involved that
        exists."""
        partitions = self.table.partitions
        versions: List[int] = []
        #: (partition, height, rank) of every chunk the commit makes dirty
        chunks: List[Tuple[int, int, int]] = []
        freed = 0
        for op in operations:
            kind = type(op)
            if kind is WriteChunk or kind is DeallocateChunk:
                chunks.append((op.partition, 0, op.rank))
            else:  # a partition leader: a data chunk of the system partition
                chunks.append((SYSTEM_PARTITION, 0, partition_rank(op.partition)))
            if kind is WriteChunk:
                # a partition this commit creates is not open yet: sized at
                # the widest suite
                versions.append(self._version(partitions.get(op.partition), len(op.data)))
            elif kind is DeallocateChunk:
                freed += 1
            elif kind is CopyPartition:
                # the copy's leader and the source's, each the source's size
                versions += [self._leader_version(partitions[op.source])] * 2
            elif kind is WritePartition:
                owner = partitions.get(op.partition)
                versions.append(
                    self._version(None, _NEW_LEADER)
                    if owner is None
                    else self._leader_version(owner)
                )
            else:
                freed += len(self.table.copy_family(op.partition))
        if freed:  # the deallocation record: a few varints per id
            codec = self.codec
            versions.append(
                codec.version_size(_DEALLOC_ENTRY * (freed + 1), codec.system_cipher)
            )
        return self._cost(versions, chunks, fresh)

    def _cost(
        self,
        versions: List[int],
        chunks: Sequence[Tuple[int, int, int]],
        fresh: bool = False,
    ) -> int:
        """The one cost route: what appending ``versions`` (their sizes)
        and a commit chunk takes from the capacity, plus what making each
        ``(partition, height, rank)`` of ``chunks`` dirty — and the
        leaders of their partitions — adds to the reserve, by a dry run of
        ``put_dirty``'s ancestor walk against the cache's dirty-map set;
        ``fresh``: against an empty one, as a checkpoint leaves it.  A
        partition not open yet is sized at the widest suite; its leader is
        the caller's to count."""
        fanout = self.fanout
        partitions = self.table.partitions
        scratch: set = set()
        known = scratch if fresh else self.cache.dirty_maps()
        #: pid -> its open state (None: not open), the height of the root
        #: its next checkpoint writes, and the first rank above that
        touched: Dict[int, Tuple[Optional[PartitionState], int, int]] = {}
        #: per partition, the map chunks the walk adds, and the ranks it is
        #: about to have
        maps: Dict[int, int] = {}
        reach: Dict[int, int] = {}
        for pid, height, rank in chunks:
            entry = touched.get(pid)
            if entry is None:
                state = partitions.get(pid)
                top = 1 if state is None else state.checkpoint_height(fanout)
                entry = touched[pid] = (state, top, fanout**top)
            _, top, limit = entry
            if rank >= limit:  # the write grows the tree
                top = required_height(fanout, rank + 1)
            elif not fresh and (pid, height + 1, rank // fanout) in known:
                # its parent map chunk, so every ancestor, is dirty already
                continue
            if not height:
                reach[pid] = max(reach.get(pid, 0), rank + 1)
            added = ancestors(fanout, pid, height, rank, top, known, scratch)
            if added:
                maps[pid] = maps.get(pid, 0) + added
        leaders = [
            state
            for state, _, _ in touched.values()
            if state is not None and (fresh or not state.leader_dirty)
        ]
        largest = max(max(versions, default=0), self._commit)
        cost = self._spread(sum(versions) + self._commit, largest)
        if maps or leaders:
            cost += self._spread(*self._content(maps, leaders, reach))
        return cost

    def _plain_bound(self, operations: Sequence[object]) -> Optional[int]:
        """For the common commit — chunk writes and deallocations of ranks
        its partitions have already — an upper bound on what it appends,
        from one pass; ``None`` for any other commit.  Such a commit adds
        no map chunk and no leader the :meth:`ceiling` does not hold: each
        version at the widest suite's overhead, a deallocation record
        entry and a free rank in its leader each."""
        partitions = self.table.partitions
        total = largest = 0
        pid = ranks = None
        for op in operations:
            kind = type(op)
            if kind is WriteChunk:
                size = len(op.data)
            elif kind is DeallocateChunk:
                size = 0
            else:
                return None
            if op.partition != pid:
                pid = op.partition
                state = partitions.get(pid)
                if state is None:
                    return None
                ranks = state.payload.next_rank
            if op.rank >= ranks:
                return None
            total += size
            largest = max(largest, size)
        overhead = self._version(None, _DEALLOC_ENTRY + _VARINT)
        content = total + len(operations) * overhead + self._commit
        return self._spread(content, max(largest + overhead, self._commit))

    # -- version sizes ---------------------------------------------------------

    def _version(self, state: Optional[PartitionState], body: int) -> int:
        """Size of a version of ``state``'s partition with a ``body``-byte
        body (at the widest suite, for a partition not open yet)."""
        if state is None:
            return self.codec.header_cipher_size + body + _MAX_EXPANSION
        return self.codec.header_cipher_size + state.cipher.ciphertext_size(body)

    def _map_version(self, state: Optional[PartitionState], reach: int = 0) -> int:
        """Largest version a map chunk of ``state``'s partition can have:
        as many written slots as it has committed ranks — or ``reach``, the
        ranks it will have — up to ``fanout``, each hash at its widest;
        every other slot one status byte."""
        fanout = self.fanout
        if state is None:
            return self._version(None, self._map_fixed + fanout * _MAX_DIGEST)
        written = min(fanout, max(state.payload.next_rank, reach))
        suite = (state.cipher.name, state.hash.name, written)
        size = self._map_versions.get(suite)
        if size is None:
            digest = _AEAD_TAG if state.cipher.authenticates else state.hash.digest_size
            size = self._map_versions[suite] = self._version(
                state,
                len(encode_uvarint(fanout))
                + fanout
                + written * (self._slot_written - 1 + digest),
            )
        return size

    def _leader_version(self, state: PartitionState) -> int:
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

    def _content(self, map_counts, leaders, reach=None) -> Tuple[int, int]:
        """What ``map_counts`` map chunks per partition and the leaders of
        ``leaders`` (each with the system-partition map chunks above it)
        append, and the largest of those versions; ``reach``: the ranks
        some partitions are about to have."""
        reach = reach or {}
        partitions = self.table.partitions
        system = partitions[SYSTEM_PARTITION]
        system_map = self._map_version(system, reach.get(SYSTEM_PARTITION, 0))
        largest = system_map
        content = 0
        for pid, count in map_counts.items():
            size = self._map_version(partitions.get(pid), reach.get(pid, 0))
            content += count * size
            largest = max(largest, size)
        above = system.checkpoint_height(self.fanout) * system_map
        for state in leaders:
            if state is not system:
                size = self._leader_version(state)
                content += size + above
                largest = max(largest, size)
        return content, largest

    def _spread(self, content: int, largest: int) -> int:
        """``content`` bytes in versions of at most ``largest``, with the
        rest of every segment they cross lost."""
        if not content:
            return 0
        room = max(self.max_version_size - largest, 1)
        return content + (content // room + 1) * largest
