"""Name → factory registry for ciphers and hash functions.

Partition leaders store the *names* of their cipher and hash function
(§5.2); this registry turns those names back into keyed instances when a
partition is opened.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.crypto import accel, aead
from repro.crypto.cipher import Cipher, NullCipher
from repro.crypto.des import Des, TripleDes
from repro.crypto.hashing import HashFunction, NullHash, Sha1Hash, Sha256Hash
from repro.crypto.modes import CbcCipher, CtrStreamCipher
from repro.crypto.xtea import Xtea

_CIPHERS: Dict[str, Callable[[bytes], Cipher]] = {
    "null": NullCipher,
    "des-cbc": lambda key: CbcCipher(Des(key), "des-cbc"),
    "3des-cbc": lambda key: CbcCipher(TripleDes(key), "3des-cbc"),
    "xtea-cbc": lambda key: CbcCipher(Xtea(key), "xtea-cbc"),
    "ctr-sha256": CtrStreamCipher,
    # AEAD tier: registered unconditionally so names, key sizes, and
    # leader payloads stay stable; the factories raise a typed
    # CryptoUnavailableError when the backend is absent (never a
    # silent downgrade to a non-authenticating suite).
    "aes-256-gcm": aead.make_aes_256_gcm,
    "chacha20-poly1305": aead.make_chacha20_poly1305,
}

#: names whose factory needs the OpenSSL AEAD backend
AEAD_CIPHER_NAMES = ("aes-256-gcm", "chacha20-poly1305")

_HASHES: Dict[str, Callable[[], HashFunction]] = {
    "null": NullHash,
    "sha1": Sha1Hash,
    "sha256": Sha256Hash,
}

CIPHER_NAMES = tuple(sorted(_CIPHERS))
HASH_NAMES = tuple(sorted(_HASHES))

#: expected key sizes per cipher name (for validation and key generation)
KEY_SIZES: Dict[str, int] = {
    "null": 0,
    "des-cbc": 8,
    "3des-cbc": 24,
    "xtea-cbc": 16,
    "ctr-sha256": 16,
    "aes-256-gcm": aead.KEY_SIZE,
    "chacha20-poly1305": aead.KEY_SIZE,
}


def cipher_available(name: str) -> bool:
    """Whether ``make_cipher(name, ...)`` can succeed in this build."""
    if name not in _CIPHERS:
        raise ValueError(f"unknown cipher {name!r}; known: {CIPHER_NAMES}")
    if name in AEAD_CIPHER_NAMES:
        return accel.available()
    return True


def make_cipher(name: str, key: bytes) -> Cipher:
    """Instantiate the cipher registered under ``name`` with ``key``."""
    try:
        factory = _CIPHERS[name]
    except KeyError:
        raise ValueError(f"unknown cipher {name!r}; known: {CIPHER_NAMES}") from None
    return factory(key)


def make_hash(name: str) -> HashFunction:
    """Instantiate the hash function registered under ``name``."""
    try:
        factory = _HASHES[name]
    except KeyError:
        raise ValueError(f"unknown hash {name!r}; known: {HASH_NAMES}") from None
    return factory()
