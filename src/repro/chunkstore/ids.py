"""Chunk identifiers and chunk-map position arithmetic (§4.3, §5.1).

A chunk id comprises the id of the containing partition and the chunk's
*position* in that partition's position map.  The position encodes the
chunk's place in the map tree: its *height* (0 for data chunks, ≥1 for map
chunks) and its *rank* from the left among chunks at that height.  As the
tree grows, chunks are added to the right and to the top, so positions of
existing chunks never change — which is what lets ids navigate the map
without the map storing ids explicitly.

The partition leader's position changes as the tree grows, so leaders get
a reserved position instead (``LEADER_HEIGHT``).

Applications only ever see ``(partition_id, rank)`` pairs for height-0
data chunks; heights are internal to the chunk store.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Tuple

#: partition id of the system partition (holds the partition map)
SYSTEM_PARTITION = 0

#: reserved height marking a partition leader chunk
LEADER_HEIGHT = 0xFF

#: maximum tree height (a fanout-64 tree of height 9 addresses 64^9 chunks)
MAX_HEIGHT = 0xFE


class ChunkId(tuple):
    """Identifier of a chunk: partition + position (height, rank).

    The id is the 3-tuple ``(partition, height, rank)``, so hashing and
    equality run in C on every cache probe; it therefore compares equal to
    the plain tuple and orders as one.
    """

    __slots__ = ()

    def __new__(cls, partition: int, height: int, rank: int) -> "ChunkId":
        if partition < 0 or height < 0 or rank < 0:
            raise ValueError(f"invalid chunk id {partition}:{height}.{rank}")
        return tuple.__new__(cls, (partition, height, rank))

    partition = property(itemgetter(0))
    height = property(itemgetter(1))
    rank = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[int, int, int]:
        return tuple(self)

    def is_data(self) -> bool:
        return self.height == 0

    def is_map(self) -> bool:
        return 0 < self.height <= MAX_HEIGHT

    def is_leader(self) -> bool:
        return self.height == LEADER_HEIGHT

    def parent(self, fanout: int) -> "ChunkId":
        """The map chunk whose descriptor vector contains this chunk."""
        if self.is_leader():
            raise ValueError("leader chunks have no parent map chunk")
        return ChunkId(self.partition, self.height + 1, self.rank // fanout)

    def slot(self, fanout: int) -> int:
        """This chunk's slot index within its parent's descriptor vector."""
        return self.rank % fanout

    def child(self, fanout: int, slot: int) -> "ChunkId":
        """The chunk described by ``slot`` of this map chunk."""
        if not self.is_map():
            raise ValueError(f"{self} is not a map chunk")
        return ChunkId(self.partition, self.height - 1, self.rank * fanout + slot)

    def __str__(self) -> str:
        if self.is_leader():
            return f"{self.partition}:leader"
        return f"{self.partition}:{self.height}.{self.rank}"

    def __repr__(self) -> str:
        return f"ChunkId(partition={self[0]}, height={self[1]}, rank={self[2]})"


def leader_id(partition: int) -> ChunkId:
    """The reserved id of a partition's leader chunk."""
    return ChunkId(partition, LEADER_HEIGHT, 0)


def data_id(partition: int, rank: int) -> ChunkId:
    """The id of a data chunk (what applications hold)."""
    return ChunkId(partition, 0, rank)


def tree_capacity(fanout: int, height: int) -> int:
    """Number of data ranks addressable by a tree of ``height`` levels."""
    return fanout**height


def required_height(fanout: int, next_rank: int) -> int:
    """Smallest tree height whose root covers data ranks < ``next_rank``."""
    if next_rank <= 0:
        return 0
    height = 1
    capacity = fanout
    while capacity < next_rank:
        capacity *= fanout
        height += 1
    return height


def partition_rank(partition_id: int) -> int:
    """Position (rank) of a partition's leader among the system data chunks.

    Partition ids are allocated from the system partition's chunk id space:
    user partition *pid* stores its leader at system data rank ``pid - 1``
    (the system partition itself, pid 0, has the reserved system leader).
    """
    if partition_id <= SYSTEM_PARTITION:
        raise ValueError(f"partition {partition_id} has no leader rank")
    return partition_id - 1


def rank_to_partition(rank: int) -> int:
    """Inverse of :func:`partition_rank`."""
    return rank + 1
