"""Symmetric-key message authentication (the paper's "signature").

Commit chunks and backup signatures are "signed with the secret key; the
signature need not be publicly verifiable, so it may be based on
symmetric-key encryption" (§4.8.2.2, citing MOV96).  We use HMAC, written
out explicitly (RFC 2104) rather than via :mod:`hmac`, keyed with the
secret-store key and parameterised by a hash function; only the tag
comparison is the library's (:func:`hmac.compare_digest`).
"""

from __future__ import annotations

import hmac

from repro.crypto.hashing import HashFunction

_IPAD = 0x36
_OPAD = 0x5C


class Mac:
    """HMAC over a :class:`HashFunction`, keyed at construction."""

    def __init__(self, key: bytes, hash_function: HashFunction) -> None:
        if hash_function.digest_size == 0:
            raise ValueError("MAC requires a real hash function, not null")
        self._hash = hash_function
        block_size = 64  # SHA-1 and SHA-256 both use 64-byte blocks
        if len(key) > block_size:
            key = hash_function.hash(key)
        key = key.ljust(block_size, b"\x00")
        self._inner_key = bytes(b ^ _IPAD for b in key)
        self._outer_key = bytes(b ^ _OPAD for b in key)

    def sign(self, message: bytes) -> bytes:
        """HMAC tag for ``message`` under the construction key."""
        inner = self._hash.new()
        inner.update(self._inner_key)
        inner.update(message)
        outer = self._hash.new()
        outer.update(self._outer_key)
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time check that ``tag`` signs ``message``."""
        # constant-time (in C): the simulated attacker is in-process
        return hmac.compare_digest(self.sign(message), tag)
