"""AEAD cipher tier: AES-256-GCM and ChaCha20-Poly1305.

Both suites come from the ``cryptography`` package's OpenSSL bindings,
taken from the one backend probe, :mod:`repro.crypto.accel` — ask it
whether they are available.  Unlike the legacy suites, the AEAD tier has
**no pure-Python fallback**: re-implementing GCM or Poly1305 from scratch
adds nothing to the reproduction, and a slow lookalike of an
*authenticating* cipher invites silently weaker deployments.  When the
backend is missing (or disabled via ``REPRO_NO_CRYPTO_ACCEL``) the
factories raise
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

from typing import Callable, Optional

from repro.crypto import accel
from repro.crypto.cipher import Cipher, random_iv
from repro.errors import CryptoUnavailableError

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
        """``ciphertext`` and ``aad`` may be any bytes-like object: the
        backend reads the nonce, the sealed body and the associated data
        through buffer views, so nothing is copied before the one pass."""
        view = memoryview(ciphertext)
        if len(view) < self.NONCE_SIZE + self.TAG_SIZE:
            raise ValueError("AEAD ciphertext shorter than nonce + tag")
        counters = self.counters
        counters.decrypt_calls += 1
        counters.bulk_calls += 1
        try:
            plain = self._backend.decrypt(
                view[: self.NONCE_SIZE], view[self.NONCE_SIZE :], aad
            )
        except accel.InvalidTag as exc:
            raise ValueError(f"{self.name}: authentication tag mismatch") from exc
        counters.bytes_decrypted += len(plain)
        return plain

    def ciphertext_size(self, plaintext_size: int) -> int:
        return self.NONCE_SIZE + plaintext_size + self.TAG_SIZE


def _make(name: str, primitive: Optional[Callable], key: bytes) -> AeadCipher:
    if not accel.available():
        raise CryptoUnavailableError(
            f"cipher {name!r} needs the 'cryptography' AEAD backend, which is "
            f"unavailable ({accel.unavailable_reason()}); the AEAD tier has no "
            f"pure-Python fallback — choose a legacy suite or restore the backend"
        )
    if len(key) != KEY_SIZE:
        raise ValueError(f"{name} requires a {KEY_SIZE}-byte key, got {len(key)}")
    return AeadCipher(name, primitive(bytes(key)))


def make_aes_256_gcm(key: bytes) -> AeadCipher:
    return _make("aes-256-gcm", accel.AESGCM, key)


def make_chacha20_poly1305(key: bytes) -> AeadCipher:
    return _make("chacha20-poly1305", accel.ChaCha20Poly1305, key)
