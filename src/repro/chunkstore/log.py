"""Log representation: chunk versions and unnamed chunks (§4.9, §5.4).

The log is a sequence of chunk *versions*.  Each version is a fixed-size
encrypted header followed by an encrypted body:

* the header contains the version kind, the chunk id (for named chunks),
  and the plaintext/ciphertext body sizes.  Headers are always encrypted
  with the *system* cipher so that cleaning and recovery can demarcate
  versions without knowing which partition a chunk belongs to (§5.4);
* the body of a named chunk is encrypted with its partition's cipher;
  bodies of unnamed chunks use the system cipher.

Unnamed chunks have no position in the chunk map; they exist solely for
recovery from the residual log and are always obsolete in the checkpointed
log (§4.8.1).  The kinds:

``DEALLOCATE``
    records chunk and partition deallocations so recovery can redo them —
    and so an attacker cannot *un*-deallocate a chunk by suppressing its
    effect (the record is covered by the residual-log hash / commit MAC);
``COMMIT``
    counter-based validation (§4.8.2.2): the signed commit chunk carrying
    the commit count and the hash of the commit set;
``NEXT_SEGMENT``
    ends a segment with the index of the next segment in the (possibly
    non-adjacent) chain (§4.9.4);
``CLEANER``
    names the partitions in which a rewritten version is current, keyed by
    the rewritten version's new location (§5.5).

The expected chunk hash stored in descriptors is computed over
``header_plaintext ‖ body_plaintext``, which binds a chunk's identity and
size — not merely its contents — to the Merkle tree, defeating version-
swapping between positions.

**AEAD one-pass layout.**  When a cipher *authenticates*
(``cipher.authenticates``, the AES-GCM / ChaCha20-Poly1305 tier), the
separate hash pass above is redundant: the codec passes the plaintext
header as *associated data* to the body encryption, so one AEAD pass
already binds content, identity, and size; the value stored in the
descriptor is then the body ciphertext's trailing auth tag instead of
``H_p(header ‖ body)``.  Validation becomes a single ``decrypt`` (which
verifies the tag against key, nonce, ciphertext, and header) plus a
constant-time-irrelevant equality check of the stored tag against the
descriptor — catching replays of *older valid versions* of the same
chunk, because every encryption draws a fresh nonce and therefore a
distinct tag.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Tuple

from repro import obs
from repro.chunkstore.ids import ChunkId
from repro.crypto.cipher import Cipher
from repro.crypto.hashing import HashFunction
from repro.errors import TamperDetectedError
from repro.util.codec import Decoder, Encoder


class VersionKind(IntEnum):
    """Discriminates the five version layouts in the log (§4.9.1)."""

    NAMED = 1
    DEALLOCATE = 2
    COMMIT = 3
    NEXT_SEGMENT = 4
    CLEANER = 5


#: header plaintext: kind, partition, height, rank, body sizes
_HEADER_STRUCT = struct.Struct(">BIBIII")
HEADER_PLAIN_SIZE = _HEADER_STRUCT.size


@dataclass
class VersionHeader:
    """Decoded fixed-size version header (encrypted with the system
    cipher on the wire)."""

    kind: VersionKind
    partition: int = 0
    height: int = 0
    rank: int = 0
    body_plain_size: int = 0
    body_cipher_size: int = 0

    @property
    def chunk_id(self) -> ChunkId:
        return ChunkId(self.partition, self.height, self.rank)

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(
            int(self.kind),
            self.partition,
            self.height,
            self.rank,
            self.body_plain_size,
            self.body_cipher_size,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "VersionHeader":
        try:
            kind, partition, height, rank, plain, cipher = _HEADER_STRUCT.unpack(data)
            return cls(VersionKind(kind), partition, height, rank, plain, cipher)
        except (struct.error, ValueError) as exc:
            raise TamperDetectedError(f"malformed version header: {exc}") from exc


class LogCodec:
    """Builds and parses chunk versions for one store instance.

    Holds the system cipher (headers, unnamed bodies) and offers helpers
    parameterised by partition cipher/hash for named bodies.
    """

    def __init__(self, system_cipher: Cipher, system_hash: HashFunction) -> None:
        self.system_cipher = system_cipher
        self.system_hash = system_hash
        self.header_cipher_size = system_cipher.ciphertext_size(HEADER_PLAIN_SIZE)

    # -- sizes ---------------------------------------------------------------

    def version_size(self, body_plain_size: int, body_cipher: Cipher) -> int:
        return self.header_cipher_size + body_cipher.ciphertext_size(body_plain_size)

    # -- building ------------------------------------------------------------

    def build_named(
        self,
        chunk_id: ChunkId,
        body: bytes,
        body_cipher: Cipher,
        body_hash: HashFunction,
    ) -> Tuple[bytes, bytes]:
        """Encode a named chunk version.

        Returns ``(version_bytes, expected_hash)`` where ``expected_hash``
        is the descriptor hash: H_p(header_plain ‖ body_plain) — or, for
        an authenticating cipher, the body ciphertext's trailing AEAD tag
        (the header rides along as associated data, so identity and size
        are bound in the same pass and the hash pass is skipped).
        """
        header = VersionHeader(
            VersionKind.NAMED,
            chunk_id.partition,
            chunk_id.height,
            chunk_id.rank,
            len(body),
            body_cipher.ciphertext_size(len(body)),
        )
        header_plain = header.pack()
        with obs.span("crypto.encrypt"):
            if body_cipher.authenticates:
                body_ct = body_cipher.encrypt(body, aad=header_plain)
                digest = body_ct[-body_cipher.TAG_SIZE :]
            else:
                body_ct = body_cipher.encrypt(body)
                digest = self.descriptor_hash(header, body, body_hash)
            return self.system_cipher.encrypt(header_plain) + body_ct, digest

    def build_unnamed(self, kind: VersionKind, body: bytes) -> bytes:
        """Encode an unnamed chunk version (system-encrypted body).  Under
        an authenticating system cipher the header is bound as associated
        data, so e.g. commit records arrive transport-authenticated."""
        header = VersionHeader(
            kind, 0, 0, 0, len(body), self.system_cipher.ciphertext_size(len(body))
        )
        header_plain = header.pack()
        if self.system_cipher.authenticates:
            body_ct = self.system_cipher.encrypt(body, aad=header_plain)
        else:
            body_ct = self.system_cipher.encrypt(body)
        return self.system_cipher.encrypt(header_plain) + body_ct

    def descriptor_hash(
        self, header: VersionHeader, body: bytes, body_hash: HashFunction
    ) -> bytes:
        """The expected-hash value stored in descriptors:
        ``H_p(header_plain ‖ body_plain)`` — binding identity and size."""
        with obs.span("crypto.hash"):
            hasher = body_hash.new()
            hasher.update(header.pack())
            hasher.update(body)
            body_hash.counters.digests += 1
            body_hash.counters.bytes_hashed += HEADER_PLAIN_SIZE + len(body)
            return hasher.digest()

    # -- parsing -------------------------------------------------------------

    def parse_header(self, header_ct: bytes) -> VersionHeader:
        """Decrypt and decode a version header; undecryptable or malformed
        bytes raise :class:`TamperDetectedError`."""
        try:
            plain = self.system_cipher.decrypt(header_ct)
        except ValueError as exc:
            raise TamperDetectedError(f"undecryptable version header: {exc}") from exc
        if len(plain) != HEADER_PLAIN_SIZE:
            raise TamperDetectedError("version header has wrong plaintext size")
        return VersionHeader.unpack(plain)

    def decrypt_body(self, header: VersionHeader, body_ct: bytes, cipher: Cipher) -> bytes:
        """Decrypt a version body and check it against the header's
        declared plaintext size (mismatch ⇒ tampering).  Authenticating
        ciphers additionally verify the header as associated data, so a
        body spliced under a different header fails here.  Accepts any
        bytes-like ``body_ct`` (recovery and batched reads pass
        ``memoryview`` slices of whole-span reads)."""
        try:
            if cipher.authenticates:
                body = cipher.decrypt(body_ct, aad=header.pack())
            else:
                body = cipher.decrypt(body_ct)
        except ValueError as exc:
            raise TamperDetectedError(f"undecryptable chunk body: {exc}") from exc
        if len(body) != header.body_plain_size:
            raise TamperDetectedError(
                f"chunk body size mismatch: header says {header.body_plain_size}, "
                f"got {len(body)}"
            )
        return body

    def validate_named(
        self,
        header: VersionHeader,
        body_ct: bytes,
        cipher: Cipher,
        body_hash: HashFunction,
    ) -> Tuple[bytes, bytes]:
        """Decrypt a named body and produce the descriptor-comparable
        digest in one place: ``(body_plain, digest)``.

        For authenticating ciphers this is the **one-pass** path — the
        AEAD decrypt has already verified content, identity (header as
        AAD), and size, and the digest is simply the stored trailing tag;
        for legacy ciphers it is decrypt + the separate hash pass.  The
        caller compares ``digest`` against the descriptor's recorded
        value either way (that comparison is what defeats replays of
        older valid versions)."""
        with obs.span("crypto.decrypt"):
            body = self.decrypt_body(header, body_ct, cipher)
            if cipher.authenticates:
                digest = bytes(body_ct[-cipher.TAG_SIZE :])
            else:
                digest = self.descriptor_hash(header, body, body_hash)
            return body, digest


# -- unnamed chunk payloads ---------------------------------------------------


@dataclass
class DeallocateRecord:
    """Body of a DEALLOCATE chunk: what this commit deallocated."""

    chunk_ids: List[ChunkId]
    partition_ids: List[int]

    def encode(self) -> bytes:
        enc = Encoder()
        enc.uint(len(self.chunk_ids))
        for cid in self.chunk_ids:
            enc.uint(cid.partition)
            enc.uint(cid.height)
            enc.uint(cid.rank)
        enc.uint(len(self.partition_ids))
        for pid in self.partition_ids:
            enc.uint(pid)
        return enc.finish()

    @classmethod
    def decode(cls, data: bytes) -> "DeallocateRecord":
        dec = Decoder(data)
        chunk_ids = []
        for _ in range(dec.uint()):
            partition = dec.uint()
            height = dec.uint()
            rank = dec.uint()
            chunk_ids.append(ChunkId(partition, height, rank))
        partition_ids = [dec.uint() for _ in range(dec.uint())]
        dec.expect_exhausted()
        return cls(chunk_ids, partition_ids)


@dataclass
class CommitRecord:
    """Body of a COMMIT chunk (counter-based validation, §4.8.2.2)."""

    count: int
    set_hash: bytes
    mac_tag: bytes

    def signed_message(self) -> bytes:
        return Encoder().uint(self.count).bytes(self.set_hash).finish()

    def encode(self) -> bytes:
        enc = Encoder()
        enc.uint(self.count)
        enc.bytes(self.set_hash)
        enc.bytes(self.mac_tag)
        return enc.finish()

    @classmethod
    def decode(cls, data: bytes) -> "CommitRecord":
        dec = Decoder(data)
        count = dec.uint()
        set_hash = dec.bytes()
        mac_tag = dec.bytes()
        dec.expect_exhausted()
        return cls(count, set_hash, mac_tag)


@dataclass
class NextSegmentRecord:
    """Body of a NEXT_SEGMENT chunk: where the log continues (§4.9.4).

    Fixed-width encoding so that the size of a next-segment version is a
    constant — the segment manager reserves exactly that much room at the
    end of every segment.
    """

    next_segment: int

    BODY_SIZE = 4

    def encode(self) -> bytes:
        return struct.pack(">I", self.next_segment)

    @classmethod
    def decode(cls, data: bytes) -> "NextSegmentRecord":
        if len(data) != cls.BODY_SIZE:
            raise TamperDetectedError("malformed next-segment record")
        return cls(struct.unpack(">I", data)[0])


@dataclass
class CleanerRecord:
    """Body of a CLEANER chunk (§5.5).

    A version the cleaner rewrites keeps its original header identity
    (partition, height, rank) but may be current only in *copies* of that
    partition.  The cleaner therefore announces, **before** the rewritten
    versions, the exact set of partitions each one is current in: entry
    *i* describes the *i*-th rewritten version that follows in the same
    commit set.  Recovery consumes the queue in order and installs each
    rewritten version's descriptor into exactly those partitions — never
    into a partition where the version is obsolete.
    """

    #: ordered (height, rank, [pids]) for the rewritten versions that follow
    entries: List[Tuple[int, int, List[int]]]

    def encode(self) -> bytes:
        enc = Encoder()
        enc.uint(len(self.entries))
        for height, rank, pids in self.entries:
            enc.uint(height)
            enc.uint(rank)
            enc.uint(len(pids))
            for pid in pids:
                enc.uint(pid)
        return enc.finish()

    @classmethod
    def decode(cls, data: bytes) -> "CleanerRecord":
        dec = Decoder(data)
        entries: List[Tuple[int, int, List[int]]] = []
        for _ in range(dec.uint()):
            height = dec.uint()
            rank = dec.uint()
            pids = [dec.uint() for _ in range(dec.uint())]
            entries.append((height, rank, pids))
        dec.expect_exhausted()
        return cls(entries)
