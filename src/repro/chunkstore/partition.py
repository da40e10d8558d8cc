"""In-memory state of an open partition.

A :class:`PartitionState` pairs a partition's decoded leader payload with
instantiated (keyed) cipher and hash objects, and manages *allocation*.

Allocation state is split in two, which is the key to crash-correct
bookkeeping:

* the **committed view** lives in the leader payload (``next_rank``,
  ``free_ranks``) and changes only when a commit (or recovery roll-forward)
  applies chunk writes and deallocations — deterministically, from the log
  alone;
* the **volatile view** (``_alloc_pool``, ``_alloc_next``, ``pending_ranks``)
  tracks ranks handed out by ``allocate`` that have not been committed.
  It is never persisted: allocation "is not persistent until the chunk is
  written" (§4.4), so allocated-but-unwritten ranks return to the free
  pool automatically on restart.

When a write commits a rank beyond the committed high-water mark, the
skipped ranks become members of the committed free set ("holes").  Ranks
that are merely pending fall in that category too — harmless, because the
volatile allocator never hands them out twice, and a later commit of such
a rank removes it from the free set again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.chunkstore.ids import required_height
from repro.chunkstore.leader import LeaderPayload
from repro.crypto.cipher import Cipher
from repro.crypto.hashing import HashFunction
from repro.crypto.registry import KEY_SIZES, make_cipher, make_hash
from repro.errors import ChunkNotAllocatedError


@dataclass
class PartitionState:
    """Volatile handle on one partition (including the system partition)."""

    pid: int
    payload: LeaderPayload
    cipher: Cipher
    hash: HashFunction
    #: leader payload changed since the leader chunk was last written
    leader_dirty: bool = False
    #: ranks allocated but not yet committed (volatile, §4.4)
    pending_ranks: Set[int] = field(default_factory=set)
    _alloc_pool: Set[int] = field(default_factory=set)
    _alloc_next: int = 0
    #: (checkpoint_height, map_chunks), and the (next_rank, tree_height)
    #: they are for
    _shape: Tuple[int, int] = (1, 1)
    _shape_for: Tuple[int, int] = (-1, -1)

    @classmethod
    def open(
        cls, pid: int, payload: LeaderPayload, key_override: Optional[bytes] = None
    ) -> "PartitionState":
        """Instantiate crypto from the leader payload.

        ``key_override`` supplies the system partition's key, which is
        derived from the secret store rather than stored in any leader
        (the root of the cipher-link path, §5.2).
        """
        key = key_override if key_override is not None else payload.key
        state = cls(
            pid=pid,
            payload=payload,
            cipher=make_cipher(payload.cipher_name, key),
            hash=make_hash(payload.hash_name),
        )
        state.reset_allocator()
        return state

    def reset_allocator(self) -> None:
        """Resynchronise the volatile allocator with the committed view
        (at open, and after recovery roll-forward)."""
        self.pending_ranks = set()
        self._alloc_pool = set(self.payload.free_ranks)
        self._alloc_next = self.payload.next_rank

    # -- allocation ------------------------------------------------------------

    def allocate_rank(self) -> int:
        """Hand out a data rank (volatile until the chunk is committed)."""
        if self._alloc_pool:
            rank = self._alloc_pool.pop()
        else:
            rank = self._alloc_next
            self._alloc_next += 1
        self.pending_ranks.add(rank)
        return rank

    def allocate_specific(self, rank: int) -> None:
        """Reserve a *specific* rank (volatile until committed); no-op if
        the rank is already allocated or written."""
        if rank in self.pending_ranks or self.is_committed_written(rank):
            return
        if rank in self._alloc_pool:
            self._alloc_pool.remove(rank)
        elif rank >= self._alloc_next:
            for hole in range(self._alloc_next, rank):
                self._alloc_pool.add(hole)
            self._alloc_next = rank + 1
        self.pending_ranks.add(rank)

    def is_committed_written(self, rank: int) -> bool:
        return rank < self.payload.next_rank and rank not in self.payload.free_ranks

    def written_ranks(self) -> List[int]:
        """All committed-written data ranks, ascending."""
        free = self.payload.free_ranks
        return [rank for rank in range(self.payload.next_rank) if rank not in free]

    def status(self, rank: int) -> str:
        """Introspection: 'written', 'unwritten', 'free', or 'unallocated'."""
        if rank in self.pending_ranks:
            return "unwritten"
        if self.is_committed_written(rank):
            return "written"
        if rank in self.payload.free_ranks:
            return "free"
        return "unallocated"

    def checkpoint_height(self, fanout: int) -> int:
        """Height of the root the next checkpoint writes for this
        partition: the tree grows to cover every committed rank.  Asked
        on every committed write, so kept until the rank count or the
        tree changes."""
        return self._tree_shape(fanout)[0]

    def map_chunks(self, fanout: int) -> int:
        """Map chunks in the tree of that height over the committed ranks:
        the most the next checkpoint can rewrite for this partition."""
        return self._tree_shape(fanout)[1]

    def _tree_shape(self, fanout: int) -> Tuple[int, int]:
        payload = self.payload
        key = (payload.next_rank, payload.tree_height)
        if key != self._shape_for:
            height = max(
                payload.tree_height, required_height(fanout, payload.next_rank), 1
            )
            chunks, width = 0, payload.next_rank
            for _ in range(height):
                width = max(-(-width // fanout), 1)
                chunks += width
            self._shape_for, self._shape = key, (height, chunks)
        return self._shape

    def require_allocated(self, rank: int) -> None:
        if rank in self.pending_ranks or self.is_committed_written(rank):
            return
        raise ChunkNotAllocatedError(f"chunk {self.pid}:0.{rank} is not allocated")

    # -- committed-view transitions (called by commit and by recovery) ---------

    def apply_committed_write(self, rank: int) -> None:
        """A write of ``rank`` committed; make the allocation durable."""
        self.pending_ranks.discard(rank)
        self.payload.free_ranks.discard(rank)
        if rank >= self.payload.next_rank:
            for hole in range(self.payload.next_rank, rank):
                self.payload.free_ranks.add(hole)
            self.payload.next_rank = rank + 1
        self._alloc_next = max(self._alloc_next, self.payload.next_rank)
        self.leader_dirty = True

    def apply_committed_dealloc(self, rank: int) -> None:
        """A deallocation of a previously-written ``rank`` committed."""
        self.pending_ranks.discard(rank)
        self.payload.free_ranks.add(rank)
        self._alloc_pool.add(rank)
        self.leader_dirty = True

    def cancel_pending(self, rank: int) -> None:
        """Deallocate a rank that was allocated but never written —
        purely volatile, nothing reaches the log."""
        self.pending_ranks.discard(rank)
        self._alloc_pool.add(rank)


def generate_partition_key(cipher_name: str) -> bytes:
    """A fresh random key sized for ``cipher_name``."""
    import os

    size = KEY_SIZES[cipher_name]
    return os.urandom(size) if size else b""
