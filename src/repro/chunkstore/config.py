"""Chunk-store configuration and key derivation.

The system partition is protected "using a fixed cipher and hash function
that are considered secure, such as 3DES and SHA-1" (§5.2), keyed from the
secret store.  We derive independent keys for the system cipher and the
commit-chunk MAC from the 16-byte platform secret with SHA-256 in a simple
KDF arrangement (domain-separated by label).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

from repro.crypto.registry import KEY_SIZES
from repro.platform.retry import RetryPolicy


#: bytes reserved at offset 0 for the superblock
SUPERBLOCK_SIZE = 4096

#: how untrusted-store I/O retries transient faults
RETRY_POLICY = RetryPolicy()


@dataclass
class StoreConfig:
    """Static parameters fixed when the store is formatted.

    These are persisted (in plaintext) in the superblock; they are *hints*
    for reopening — all security-relevant checks derive from the
    tamper-resistant store, never from superblock contents.
    """

    #: log segment size in bytes (paper: ~100 KB for disk; smaller default
    #: keeps tests and in-memory stores nimble)
    segment_size: int = 64 * 1024
    #: descriptor fanout of map chunks (paper: 64)
    fanout: int = 64
    #: "direct" (§4.8.2.1) or "counter" (§4.8.2.2)
    validation_mode: str = "counter"
    #: cipher and hash protecting the system partition and chunk headers
    system_cipher: str = "3des-cbc"
    system_hash: str = "sha1"
    #: counter mode: how far the TR counter may lag the log (Δut, §4.8.2.2)
    delta_ut: int = 5
    #: counter mode: how far the TR counter may lead the log (Δtu)
    delta_tu: int = 0
    #: auto-checkpoint when this many descriptors are dirty in cache: the
    #: checkpoint interval, map rewrites traded against the residual log a
    #: crash replays (EXPERIMENTS.md, "Checkpoint less often", has the curve
    #: the default is the knee of)
    checkpoint_dirty_threshold: int = 4096
    #: maximum clean descriptor-cache entries before LRU eviction (runtime-
    #: only).  Held as ``cache_size // fanout`` map-chunk vectors in wire
    #: form, ≈75 B a descriptor: the default keeps the whole map of a
    #: 100k-chunk partition resident in ≈8 MB (EXPERIMENTS.md, "The
    #: resident map", has the curve it is the knee of)
    cache_size: int = 131072
    #: byte budget for the validated-payload cache (decrypted, verified
    #: data-chunk bodies); 0 disables it (runtime-only, like cache_size)
    payload_cache_bytes: int = 2 * 1024 * 1024
    #: not a field: every store has the one size, which the superblock
    #: records and :meth:`ChunkStore.open` checks
    superblock_size: ClassVar[int] = SUPERBLOCK_SIZE
    #: auto-clean when free segments drop below this count
    clean_low_water: int = 2
    #: flush the untrusted store on every commit (paper's configuration)
    flush_every_commit: bool = True

    def __post_init__(self) -> None:
        if self.validation_mode not in ("direct", "counter"):
            raise ValueError(f"unknown validation mode {self.validation_mode!r}")
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")
        if self.segment_size < 1024:
            raise ValueError("segment size must be at least 1 KiB")
        if self.delta_ut < 1:
            raise ValueError("delta_ut must be >= 1 (1 = flush TR every commit)")
        if self.delta_tu < 0:
            raise ValueError("delta_tu must be >= 0")
        if self.payload_cache_bytes < 0:
            raise ValueError("payload_cache_bytes must be >= 0")


def derive_key(secret: bytes, label: str, size: int) -> bytes:
    """Derive a ``size``-byte key from the platform secret for ``label``."""
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(
            secret + label.encode("utf-8") + counter.to_bytes(4, "big")
        ).digest()
        counter += 1
    return out[:size]


def system_cipher_key(secret: bytes, cipher_name: str) -> bytes:
    return derive_key(secret, "tdb.system.cipher", KEY_SIZES[cipher_name])


def mac_key(secret: bytes) -> bytes:
    return derive_key(secret, "tdb.mac", 32)


def backup_key(secret: bytes) -> bytes:
    return derive_key(secret, "tdb.backup", 32)
