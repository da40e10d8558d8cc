"""Lightweight perf counters for the crypto layer.

Every :class:`~repro.crypto.cipher.Cipher` and
:class:`~repro.crypto.hashing.HashFunction` instance bumps one of these
tally objects through plain integer attributes (no locks, no dict
lookups).  A standalone instance owns its tally; a ``ChunkStore`` holds one
tally per cipher/hash *name* and points every instance it or its snapshot
views create at it, so :meth:`ChunkStore.stats` reads totals that neither
drop when a partition is deallocated nor miss snapshot reads.

The byte counts are payload bytes: plaintext in, plaintext out.  IVs,
nonces, and padding are excluded so the numbers line up with the
application data that crossed the layer.
"""

from __future__ import annotations

from typing import Dict


class CipherCounters:
    """Byte/call tallies for one cipher instance."""

    __slots__ = (
        "bytes_encrypted",
        "bytes_decrypted",
        "encrypt_calls",
        "decrypt_calls",
        "bulk_calls",
        "fallback_calls",
    )

    def __init__(self) -> None:
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0
        self.encrypt_calls = 0
        self.decrypt_calls = 0
        #: calls served by a bulk fast path (CBC hook / big-int XOR)
        self.bulk_calls = 0
        #: calls served by the generic per-block/per-byte loop
        self.fallback_calls = 0

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}


class HashCounters:
    """Byte/digest tallies for one hash-function instance."""

    __slots__ = ("bytes_hashed", "digests")

    def __init__(self) -> None:
        self.bytes_hashed = 0
        self.digests = 0

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}
