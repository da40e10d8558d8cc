"""Chunk descriptors — the slots of the chunk map (§4.3).

A descriptor records everything needed to *locate* and *validate* the
current version of a chunk:

* status (unallocated / free / written — "unwritten" exists only in
  volatile memory: allocation is not persistent until the chunk is
  committed, §4.4);
* if written: the byte offset of the current version in the untrusted
  store and the total stored length of that version;
* if written: the expected hash of the chunk (computed over the plaintext
  header and body, so the hash binds the chunk's identity and size, not
  just its contents).

The arrows of Figure 3 are exactly these descriptors: embedding the hash
next to the location is what merges the Merkle tree into the location map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, List, Mapping

from repro.chunkstore.ids import ChunkId
from repro.errors import TamperDetectedError
from repro.util.codec import Decoder, Encoder, decode_uvarint, encode_uvarint


class ChunkStatus(IntEnum):
    """Persistent chunk states (volatile UNWRITTEN is not encoded)."""

    UNALLOCATED = 0
    FREE = 1  # deallocated, rank available for reuse
    WRITTEN = 2


@dataclass
class ChunkDescriptor:
    """One slot of a map chunk (or a leader's root slot)."""

    status: ChunkStatus = ChunkStatus.UNALLOCATED
    location: int = 0
    length: int = 0
    body_hash: bytes = b""

    def is_written(self) -> bool:
        return self.status == ChunkStatus.WRITTEN

    def copy(self) -> "ChunkDescriptor":
        return ChunkDescriptor(self.status, self.location, self.length, self.body_hash)

    def same_version(self, other: "ChunkDescriptor") -> bool:
        """True if both descriptors denote the same chunk *content*.

        Used by partition diff (§5.3): hash equality means equal content
        even if the cleaner relocated one of the versions.  For partitions
        with a null hash function there is no content hash, so we fall
        back to comparing locations (a relocation then shows up as a
        difference — a documented over-approximation).
        """
        if self.status != other.status:
            return False
        if not self.is_written():
            return True
        if self.body_hash or other.body_hash:
            return self.body_hash == other.body_hash and self.length == other.length
        return self.location == other.location and self.length == other.length

    def encode(self, enc: Encoder) -> None:
        enc.uint(int(self.status))
        if self.status == ChunkStatus.WRITTEN:
            enc.uint(self.location)
            enc.uint(self.length)
            enc.bytes(self.body_hash)

    @classmethod
    def decode(cls, dec: Decoder) -> "ChunkDescriptor":
        status = ChunkStatus(dec.uint())
        if status == ChunkStatus.WRITTEN:
            location = dec.uint()
            length = dec.uint()
            body_hash = dec.bytes()
            return cls(status, location, length, body_hash)
        return cls(status)


_VARINT = rb"[\x80-\xff]{0,9}[\x00-\x7f]"
#: one slot as the store writes it: a bare status byte, or WRITTEN followed
#: by location, length and a length-prefixed hash of a registered size.
#: Slots outside the pattern are still valid — they take the reference route.
_SLOT = re.compile(
    rb"[\x00\x01]|\x02" + _VARINT + _VARINT
    + rb"(?:\x00|\x10.{16}|\x14.{20}|\x20.{32})",
    re.DOTALL,
)


def _encode_slot(descriptor: ChunkDescriptor) -> bytes:
    """What ``descriptor.encode`` appends, without the ``Encoder`` round
    trip — a checkpoint of freshly written ranks encodes every slot."""
    if not descriptor.is_written():
        return encode_uvarint(descriptor.status)
    body_hash = descriptor.body_hash
    return b"".join(
        (
            b"\x02",
            encode_uvarint(descriptor.location),
            encode_uvarint(descriptor.length),
            encode_uvarint(len(body_hash)),
            body_hash,
        )
    )


_STATUSES = tuple(ChunkStatus)


def _decode_slot(wire: bytes) -> ChunkDescriptor:
    """What ``ChunkDescriptor.decode`` makes of one slot a vector holds,
    without the ``Decoder``: status byte, two varints inline, and the hash
    is whatever follows its length.  ``wire`` is one whole valid slot — it
    matched ``_SLOT`` or came out of ``_encode_slot`` — so nothing is
    checked again."""
    if len(wire) == 1:
        return ChunkDescriptor(_STATUSES[wire[0]])
    byte = wire[1]
    pos = 2
    location = byte & 0x7F
    shift = 7
    while byte & 0x80:
        byte = wire[pos]
        pos += 1
        location |= (byte & 0x7F) << shift
        shift += 7
    byte = wire[pos]
    pos += 1
    length = byte & 0x7F
    shift = 7
    while byte & 0x80:
        byte = wire[pos]
        pos += 1
        length |= (byte & 0x7F) << shift
        shift += 7
    if wire[pos] & 0x80:  # a hash of 128 bytes or more (none registered)
        pos = decode_uvarint(wire, pos)[1]
    else:
        pos += 1
    return ChunkDescriptor(ChunkStatus.WRITTEN, location, length, wire[pos:])


class MapVector:
    """A map chunk body kept in wire form: one encoding per slot and
    nothing else, so a cached vector costs what its bytes cost; a slot is
    decoded each time it is indexed, into a descriptor the caller owns.

    Immutable — :meth:`replace` returns a new vector — so vectors are
    shared by reference between the store's cache and snapshot views, and
    indexing needs no lock."""

    __slots__ = ("_wire",)

    def __init__(self, wire: List[bytes]) -> None:
        self._wire = wire

    @classmethod
    def of(cls, descriptors: Iterable[ChunkDescriptor]) -> "MapVector":
        """The vector of descriptors already in hand (a new map chunk, a
        degraded rebuild, the reference route's output)."""
        return cls([_encode_slot(d) for d in descriptors])

    @classmethod
    def decode(cls, data: bytes) -> "MapVector":
        """Split a map chunk body into its slots.  Truncation anywhere,
        over-long varints, out-of-range statuses and trailing bytes raise
        ``ValueError`` here, not on first touch."""
        if not isinstance(data, bytes):
            data = bytes(data)
        count, start = decode_uvarint(data)
        wire = _SLOT.findall(data, start)
        if len(wire) == count and sum(map(len, wire)) == len(data) - start:
            return cls(wire)
        # not what the pattern covers (non-canonical varints, other hash
        # sizes) or not valid at all: the reference route tells which, and
        # what it accepts is kept re-encoded, one canonical slot each
        dec = Decoder(data, start)
        slots = [ChunkDescriptor.decode(dec) for _ in range(count)]
        dec.expect_exhausted()
        return cls.of(slots)

    def __len__(self) -> int:
        return len(self._wire)

    def __getitem__(self, slot: int) -> ChunkDescriptor:
        return _decode_slot(self._wire[slot])

    def replace(self, changes: Mapping[int, ChunkDescriptor]) -> "MapVector":
        """A vector with the slots in ``changes`` overlaid; every other slot
        keeps its bytes untouched."""
        wire = list(self._wire)
        for slot, descriptor in changes.items():
            wire[slot] = _encode_slot(descriptor)
        return MapVector(wire)

    def encode(self) -> bytes:
        """The map chunk body: byte-for-byte what ``descriptor.encode`` per
        slot after the count produces."""
        return encode_uvarint(len(self._wire)) + b"".join(self._wire)


def decode_map_body(map_id: ChunkId, body: bytes, fanout: int) -> MapVector:
    """The vector of a *validated* map chunk body — the one decoder the
    store, snapshot views and recovery share.  A body that passed its hash
    check but does not hold ``fanout`` slots was not written by this store."""
    vector = MapVector.decode(body)
    if len(vector) != fanout:
        raise TamperDetectedError(
            f"map chunk {map_id} has {len(vector)} slots, expected {fanout}"
        )
    return vector
