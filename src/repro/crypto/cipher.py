"""Cipher interfaces.

A :class:`Cipher` instance is *keyed*: it is constructed with a secret key
and exposes whole-message ``encrypt`` / ``decrypt``.  Block ciphers are
wrapped in CBC mode with PKCS#7 padding and a random IV prepended to the
ciphertext (see :mod:`repro.crypto.modes`), so ciphertext length is
``iv + padded length`` and is deterministic given the plaintext length —
a property the log format relies on to demarcate chunk versions.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from repro.crypto.counters import CipherCounters


class BlockCipher(ABC):
    """A raw block cipher over fixed-size blocks (ECB primitive).

    Subclasses may additionally implement the *bulk CBC hooks*::

        encrypt_cbc(iv, data) -> ciphertext   # data already padded
        decrypt_cbc(iv, data) -> padded plaintext

    operating on whole messages (a multiple of ``block_size``; the IV is
    *not* included in either argument or result).  When the hooks exist,
    :class:`~repro.crypto.modes.CbcCipher` dispatches to them instead of
    its generic per-block loop.  DES and 3DES have them only when the
    OpenSSL backend (:mod:`repro.crypto.accel`) imports; XTEA always has
    its own, which keep the whole message as integers.  A hook must
    produce byte-for-byte the same output as the generic loop — the
    on-disk format depends on it.
    """

    #: block size in bytes
    block_size: int = 8

    @abstractmethod
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one block."""

    @abstractmethod
    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one block."""


class Cipher(ABC):
    """A keyed whole-message cipher."""

    #: registry name, stored in partition leaders
    name: str = "abstract"

    #: True when ``decrypt`` itself authenticates the message (AEAD):
    #: the log codec then binds the header as associated data and the
    #: chunk validation path skips its separate hash pass — one crypto
    #: pass per chunk instead of two.  Authenticating ciphers must
    #: accept an ``aad=`` keyword on ``encrypt``/``decrypt``.
    authenticates: bool = False

    def __init__(self) -> None:
        #: payload-byte and call tallies (see ``ChunkStore.stats()``)
        self.counters = CipherCounters()

    @abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext``; the result embeds any IV needed."""

    @abstractmethod
    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt`.  Raises ``ValueError`` on malformed input."""

    @abstractmethod
    def ciphertext_size(self, plaintext_size: int) -> int:
        """Size of the ciphertext for a plaintext of ``plaintext_size`` bytes.

        Must be a function of the plaintext size alone; the log format uses
        it to lay out chunk versions.
        """


class NullCipher(Cipher):
    """Identity "cipher" for partitions that need no secrecy (§2.2).

    Tamper detection still applies to such partitions — hashing is
    orthogonal to encryption.
    """

    name = "null"

    def __init__(self, key: bytes = b"") -> None:
        # The key is accepted (and ignored) so the registry can treat all
        # ciphers uniformly.
        super().__init__()
        del key

    def encrypt(self, plaintext: bytes) -> bytes:
        counters = self.counters
        counters.encrypt_calls += 1
        counters.bytes_encrypted += len(plaintext)
        return bytes(plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        counters = self.counters
        counters.decrypt_calls += 1
        counters.bytes_decrypted += len(ciphertext)
        return bytes(ciphertext)

    def ciphertext_size(self, plaintext_size: int) -> int:
        return plaintext_size


def random_iv(size: int) -> bytes:
    """A fresh random IV.  Centralised so tests can monkeypatch it."""
    return os.urandom(size)
