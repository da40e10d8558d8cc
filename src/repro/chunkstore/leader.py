"""Partition leader payloads (§4.3, §5.2).

Every partition has a *leader chunk* holding what is needed to manage its
position map: the descriptor of the root map chunk, the tree height, the
allocation high-water mark, the free list, the partition's cryptographic
parameters (cipher name, hash name, secret key), and the ids of its direct
copies (needed by the cleaner, §5.5).

Leaders of user partitions are stored as data chunks of the *system*
partition, so they are encrypted with the system cipher — which creates
the cipher-link path from the secret store to every partition key.

The *system leader* is the leader of the system partition itself.  It is
written last during a checkpoint and heads the residual log.  Besides the
regular leader fields it carries the segment table (free segments, per-
segment usage and live-byte estimates, tail position) and bookkeeping for
counter-based validation and backup restore chains.

Deviation from the paper, documented: the paper threads the free list
through the descriptors themselves with its head in the leader; we store
the free ranks as an explicit list in the leader payload.  This keeps
recovery's free-list reconstruction trivially deterministic at the cost of
leader size proportional to the free count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.chunkstore.descriptor import ChunkDescriptor
from repro.util.codec import Decoder, Encoder


@dataclass
class SegmentTable:
    """Persistent view of log segmentation (inside the system leader)."""

    #: index of the segment holding the log tail at checkpoint time
    tail_segment: int = 0
    #: segments with no live data, available for the log to claim
    free_segments: List[int] = field(default_factory=list)
    #: bytes appended to each segment (0 for never-used)
    used_bytes: List[int] = field(default_factory=list)
    #: estimated live bytes per segment (cleaning policy input, §4.9.5)
    live_bytes: List[int] = field(default_factory=list)
    #: segment chain from the checkpoint leader's segment to the tail
    residual_segments: List[int] = field(default_factory=list)

    # One bulk varint call per list: the table grows with the device, and
    # every open decodes it and every checkpoint encodes it.

    def encode(self, enc: Encoder) -> None:
        enc.uint(self.tail_segment)
        enc.uint(len(self.free_segments)).uints(self.free_segments)
        enc.uint(len(self.used_bytes)).uints(self.used_bytes).uints(self.live_bytes)
        enc.uint(len(self.residual_segments)).uints(self.residual_segments)

    @classmethod
    def decode(cls, dec: Decoder) -> "SegmentTable":
        tail_segment = dec.uint()
        free_segments = dec.uints(dec.uint())
        count = dec.uint()
        used_bytes = dec.uints(count)
        live_bytes = dec.uints(count)
        residual = dec.uints(dec.uint())
        return cls(tail_segment, free_segments, used_bytes, live_bytes, residual)


@dataclass
class SystemExtras:
    """Extra system-leader state beyond the regular leader fields."""

    segments: SegmentTable = field(default_factory=SegmentTable)
    #: counter mode: commit count of the checkpoint's own commit chunk;
    #: recovery expects the first commit chunk in the residual log to
    #: carry exactly this count (defeats deletion right after checkpoint)
    checkpoint_count: int = 0
    #: backup restore chains: source partition -> last restored snapshot id
    restore_history: Dict[int, int] = field(default_factory=dict)
    #: backup bases: source partition -> snapshot id of the latest backup
    backup_bases: Dict[int, int] = field(default_factory=dict)

    def encode(self, enc: Encoder) -> None:
        self.segments.encode(enc)
        enc.uint(self.checkpoint_count)
        enc.uint(len(self.restore_history))
        for pid, snap in sorted(self.restore_history.items()):
            enc.uint(pid)
            enc.uint(snap)
        enc.uint(len(self.backup_bases))
        for pid, snap in sorted(self.backup_bases.items()):
            enc.uint(pid)
            enc.uint(snap)

    @classmethod
    def decode(cls, dec: Decoder) -> "SystemExtras":
        segments = SegmentTable.decode(dec)
        checkpoint_count = dec.uint()
        restore_history = {}
        for _ in range(dec.uint()):
            pid = dec.uint()
            restore_history[pid] = dec.uint()
        backup_bases = {}
        for _ in range(dec.uint()):
            pid = dec.uint()
            backup_bases[pid] = dec.uint()
        return cls(segments, checkpoint_count, restore_history, backup_bases)


@dataclass
class LeaderPayload:
    """Decoded contents of a partition leader chunk."""

    cipher_name: str = "null"
    hash_name: str = "null"
    key: bytes = b""
    #: optional well-known name (e.g. the backup registry); stored in the
    #: leader so lookup survives crashes without extra metadata plumbing
    name: str = ""
    #: height of the position map tree (0 = no chunks ever written)
    tree_height: int = 0
    #: descriptor of the root map chunk (meaningful when tree_height > 0)
    root: ChunkDescriptor = field(default_factory=ChunkDescriptor)
    #: allocation high-water mark for *committed* data ranks
    next_rank: int = 0
    #: deallocated (or never-committed) data ranks available for reuse
    free_ranks: Set[int] = field(default_factory=set)
    #: partition ids of direct copies (§5.5)
    copies: List[int] = field(default_factory=list)
    #: the partition this one was copied from, if any
    copy_of: Optional[int] = None
    #: present only on the system leader
    system: Optional[SystemExtras] = None

    def copy_for_snapshot(self) -> "LeaderPayload":
        """Payload for a copy-on-write partition copy (§5.3).

        The copy shares the root descriptor (and thus all map and data
        chunks) and inherits the cryptographic parameters.  Its own copy
        list starts empty.
        """
        return LeaderPayload(
            cipher_name=self.cipher_name,
            hash_name=self.hash_name,
            key=self.key,
            tree_height=self.tree_height,
            root=self.root.copy(),
            next_rank=self.next_rank,
            free_ranks=set(self.free_ranks),
            copies=[],
            copy_of=None,
            system=None,
        )

    def encode(self) -> bytes:
        enc = Encoder()
        enc.text(self.cipher_name)
        enc.text(self.hash_name)
        enc.bytes(self.key)
        enc.text(self.name)
        enc.uint(self.tree_height)
        self.root.encode(enc)
        enc.uint(self.next_rank)
        enc.uint(len(self.free_ranks)).uints(sorted(self.free_ranks))
        enc.uint(len(self.copies)).uints(self.copies)
        enc.opt_uint(self.copy_of)
        if self.system is not None:
            enc.bool(True)
            self.system.encode(enc)
        else:
            enc.bool(False)
        return enc.finish()

    @classmethod
    def decode(cls, data: bytes) -> "LeaderPayload":
        dec = Decoder(data)
        cipher_name = dec.text()
        hash_name = dec.text()
        key = dec.bytes()
        name = dec.text()
        tree_height = dec.uint()
        root = ChunkDescriptor.decode(dec)
        next_rank = dec.uint()
        free_ranks = set(dec.uints(dec.uint()))
        copies = dec.uints(dec.uint())
        copy_of = dec.opt_uint()
        system = SystemExtras.decode(dec) if dec.bool() else None
        dec.expect_exhausted()
        return cls(
            cipher_name=cipher_name,
            hash_name=hash_name,
            key=key,
            name=name,
            tree_height=tree_height,
            root=root,
            next_rank=next_rank,
            free_ranks=free_ranks,
            copies=copies,
            copy_of=copy_of,
            system=system,
        )
