"""AEAD cipher tier: AES-256-GCM and ChaCha20-Poly1305.

Both suites come from the ``cryptography`` package's OpenSSL bindings,
probed at import time exactly like :mod:`repro.crypto.accel` probes the
legacy CBC backend.  Unlike the legacy suites, the AEAD tier has **no
pure-Python fallback**: re-implementing GCM or Poly1305 from scratch adds
nothing to the reproduction, and a slow lookalike of an *authenticating*
cipher invites silently weaker deployments.  When the backend is missing
(or disabled via ``REPRO_NO_CRYPTO_ACCEL``) the factories raise
:class:`~repro.errors.CryptoUnavailableError` — a typed, loud refusal,
never a downgrade.

Ciphertext layout (``ciphertext_size(n) = 12 + n + 16``)::

    nonce (12 bytes) ‖ ciphertext (n bytes) ‖ auth tag (16 bytes)

The trailing tag doubles as the chunk's descriptor hash on AEAD
partitions (see :mod:`repro.chunkstore.log`): the log codec passes the
plaintext version header as *associated data*, so one ``decrypt`` call
authenticates content, identity, and size in a single pass, and the
separate per-chunk hash pass is skipped.  Tag verification failure is
surfaced as ``ValueError`` so every existing call site converts it to
:class:`~repro.errors.TamperDetectedError` unchanged.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.crypto.cipher import Cipher, random_iv
from repro.errors import CryptoUnavailableError

_IMPORT_ERROR: Optional[str] = None

try:
    if os.environ.get("REPRO_NO_CRYPTO_ACCEL"):
        raise ImportError("disabled by REPRO_NO_CRYPTO_ACCEL")
    from cryptography.exceptions import InvalidTag as _InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import (
        AESGCM as _AesGcm,
        ChaCha20Poly1305 as _ChaCha,
    )
except ImportError as exc:  # pragma: no cover - environment-dependent
    _AesGcm = None
    _ChaCha = None
    _InvalidTag = None
    _IMPORT_ERROR = str(exc)


def available() -> bool:
    """True when the OpenSSL AEAD backend can serve both suites."""
    return _AesGcm is not None


def unavailable_reason() -> Optional[str]:
    return _IMPORT_ERROR


#: key size shared by both suites (AES-256 key; ChaCha20 key)
KEY_SIZE = 32


class AeadCipher(Cipher):
    """Adapter from a ``cryptography`` AEAD primitive to :class:`Cipher`.

    ``encrypt``/``decrypt`` take an optional ``aad=`` keyword: associated
    data that is authenticated by the tag but not encrypted.  The log
    codec binds the plaintext version header through it.
    """

    authenticates = True

    NONCE_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, name: str, backend) -> None:
        super().__init__()
        self.name = name
        self._backend = backend

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        nonce = random_iv(self.NONCE_SIZE)
        counters = self.counters
        counters.encrypt_calls += 1
        counters.bulk_calls += 1
        counters.bytes_encrypted += len(plaintext)
        sealed = self._backend.encrypt(nonce, bytes(plaintext), bytes(aad))
        return nonce + sealed

    def decrypt(self, ciphertext: bytes, aad: bytes = b"") -> bytes:
        if len(ciphertext) < self.NONCE_SIZE + self.TAG_SIZE:
            raise ValueError("AEAD ciphertext shorter than nonce + tag")
        nonce = bytes(ciphertext[: self.NONCE_SIZE])
        sealed = bytes(ciphertext[self.NONCE_SIZE :])
        counters = self.counters
        counters.decrypt_calls += 1
        counters.bulk_calls += 1
        try:
            plain = self._backend.decrypt(nonce, sealed, bytes(aad))
        except _InvalidTag as exc:
            raise ValueError(f"{self.name}: authentication tag mismatch") from exc
        counters.bytes_decrypted += len(plain)
        return plain

    def ciphertext_size(self, plaintext_size: int) -> int:
        return self.NONCE_SIZE + plaintext_size + self.TAG_SIZE

    @classmethod
    def tag_of(cls, ciphertext) -> bytes:
        """The trailing auth tag of an :meth:`encrypt` result — the value
        AEAD partitions store as the descriptor hash."""
        return bytes(ciphertext[-cls.TAG_SIZE :])


def _make(name: str, primitive: Optional[Callable], key: bytes) -> AeadCipher:
    if primitive is None:
        raise CryptoUnavailableError(
            f"cipher {name!r} needs the 'cryptography' AEAD backend, which is "
            f"unavailable ({_IMPORT_ERROR}); the AEAD tier has no pure-Python "
            f"fallback — choose a legacy suite or restore the backend"
        )
    if len(key) != KEY_SIZE:
        raise ValueError(f"{name} requires a {KEY_SIZE}-byte key, got {len(key)}")
    return AeadCipher(name, primitive(bytes(key)))


def make_aes_256_gcm(key: bytes) -> AeadCipher:
    return _make("aes-256-gcm", _AesGcm, key)


def make_chacha20_poly1305(key: bytes) -> AeadCipher:
    return _make("chacha20-poly1305", _ChaCha, key)
