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

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

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


_WRITTEN = ChunkStatus.WRITTEN
_STATUSES = tuple(ChunkStatus)  # indexed by encoded value
_STATUS_BYTES = tuple(bytes([status]) for status in ChunkStatus)


def encode_descriptor_vector(descriptors) -> bytes:
    """Encode a map chunk body: a fixed-size vector of descriptors.

    One pass, byte-for-byte what ``descriptor.encode(Encoder())`` per slot
    produces (a property test holds the two together)."""
    parts = [encode_uvarint(len(descriptors))]
    for descriptor in descriptors:
        if descriptor.status is _WRITTEN:
            body_hash = descriptor.body_hash
            parts += (
                b"\x02",
                encode_uvarint(descriptor.location),
                encode_uvarint(descriptor.length),
                encode_uvarint(len(body_hash)),
                body_hash,
            )
        else:
            parts.append(_STATUS_BYTES[descriptor.status])
    return b"".join(parts)


def decode_descriptor_vector(data: bytes) -> Tuple[ChunkDescriptor, ...]:
    """Decode a map chunk body into an immutable descriptor vector.

    One pass with the checks of the ``Decoder`` route it replaces:
    truncation anywhere, over-long varints, out-of-range statuses, and
    trailing bytes all raise ``ValueError``."""
    if not isinstance(data, bytes):
        data = bytes(data)
    size = len(data)
    count, pos = decode_uvarint(data)
    out = []
    try:
        for _ in range(count):
            value = data[pos]
            pos += 1
            if value >= 0x80:  # non-canonical, but the Decoder takes it
                value, pos = decode_uvarint(data, pos - 1)
            if value != 2:
                if value > 2:
                    raise ValueError(f"{value} is not a valid ChunkStatus")
                out.append(ChunkDescriptor(_STATUSES[value]))
                continue
            fields = []
            for _ in range(3):  # location, length, hash size: one varint each
                byte = data[pos]
                pos += 1
                if byte >= 0x80:
                    number = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        number |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 70:
                            raise ValueError("uvarint too long")
                    byte = number
                fields.append(byte)
            location, length, hash_size = fields
            end = pos + hash_size
            if end > size:
                raise ValueError("truncated bytes field")
            out.append(ChunkDescriptor(_WRITTEN, location, length, data[pos:end]))
            pos = end
    except IndexError:
        raise ValueError("truncated descriptor vector") from None
    if pos != size:
        raise ValueError(f"{size - pos} trailing bytes after decode")
    return tuple(out)
