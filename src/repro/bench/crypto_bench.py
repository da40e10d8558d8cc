"""The ``crypto`` phase of ``python -m repro.bench``: the cipher fast paths.

Measures each legacy cipher in two configurations:

* ``fast`` — the default construction: OpenSSL-backed CBC for DES/3DES
  when the ``cryptography`` wheel imports (the per-block loop otherwise),
  XTEA's int-native CBC hooks, ctr-sha256's bulk keystream;
* ``fallback`` — the generic per-block / per-byte loops (``bulk=False``),
  the reference the equivalence tests hold every fast path to.

Both produce byte-identical ciphertext for the same IV, so the speedups
are free: the on-disk format does not depend on which path ran.  The
``backend`` section records whether the one OpenSSL probe
(:mod:`repro.crypto.accel`) succeeded, and why not.

The AEAD tier (aes-256-gcm, chacha20-poly1305) is measured in its only
configuration — the OpenSSL backend; it has no pure-Python fallback — and
with a representative header-sized AAD, since the one-pass chunk format
always binds the version header through it.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import Floor, best_of
from repro.crypto import accel, aead
from repro.crypto.cipher import Cipher
from repro.crypto.des import Des, TripleDes
from repro.crypto.modes import CbcCipher, CtrStreamCipher
from repro.crypto.xtea import Xtea

_KEYS = {
    "des-cbc": bytes(range(8)),
    "3des-cbc": bytes(range(24)),
    "xtea-cbc": bytes(range(16)),
    "ctr-sha256": bytes(range(16)),
}

_AEAD_KEYS = {
    "aes-256-gcm": bytes(range(32)),
    "chacha20-poly1305": bytes(range(32, 64)),
}

FLOORS = (
    # the fast path over the fallback loop, the lower of encrypt and decrypt
    Floor("des-cbc_speedup", ("ciphers", "des-cbc", "speedup"), ">=", 3.0),
    Floor("ctr-sha256_speedup", ("ciphers", "ctr-sha256", "speedup"), ">=", 2.0),
    # each AEAD suite, MB/s: the ≥ 50 MB/s partition-cipher target; absent
    # (so not evaluated) without the backend, which has no fallback to time
    Floor("aead_mb_s", ("aead_ciphers", "*", "mb_s"), ">=", 50.0),
)

#: a version header's worth of associated data, as the one-pass format binds
_AAD = bytes(range(48))

VARIANTS = ("fast", "fallback")

_BLOCK_CIPHERS = {"des-cbc": Des, "3des-cbc": TripleDes, "xtea-cbc": Xtea}


def build_cipher(name: str, variant: str) -> Cipher:
    """Construct ``name`` in one of the two benchmark configurations."""
    key = _KEYS[name]
    bulk = variant == "fast"
    if name == "ctr-sha256":
        return CtrStreamCipher(key, bulk=bulk)
    return CbcCipher(_BLOCK_CIPHERS[name](key), name, bulk=bulk)


def _bandwidths(encrypt, decrypt, size: int, repeat: int) -> Dict[str, float]:
    """Best-of-``repeat`` MB/s each way, and the lower of the two."""
    seconds = best_of([encrypt, decrypt], repeat)
    encrypt_mb_s, decrypt_mb_s = (round(size / s / 1e6, 3) for s in seconds)
    return {
        "encrypt_mb_s": encrypt_mb_s,
        "decrypt_mb_s": decrypt_mb_s,
        "mb_s": min(encrypt_mb_s, decrypt_mb_s),
    }


def run(tiny: bool) -> Dict[str, object]:
    size, repeat = (16 * 1024 if tiny else 64 * 1024), 3
    buffer = bytes(i & 0xFF for i in range(size))
    ciphers: Dict[str, Dict[str, object]] = {}
    for name in _KEYS:
        entry: Dict[str, object] = {}
        for variant in VARIANTS:
            cipher = build_cipher(name, variant)
            ciphertext = cipher.encrypt(buffer)
            entry[variant] = _bandwidths(
                lambda: cipher.encrypt(buffer), lambda: cipher.decrypt(ciphertext),
                size, repeat,
            )
        for way in ("encrypt", "decrypt"):
            entry[f"speedup_{way}"] = round(
                entry["fast"][f"{way}_mb_s"] / entry["fallback"][f"{way}_mb_s"], 2
            )
        entry["speedup"] = min(entry["speedup_encrypt"], entry["speedup_decrypt"])
        ciphers[name] = entry

    aead_ciphers: Dict[str, Dict[str, float]] = {}
    if accel.available():
        for name, key in _AEAD_KEYS.items():
            cipher = aead.make_aes_256_gcm(key) if name == "aes-256-gcm" \
                else aead.make_chacha20_poly1305(key)
            ciphertext = cipher.encrypt(buffer, aad=_AAD)
            aead_ciphers[name] = _bandwidths(
                lambda: cipher.encrypt(buffer, aad=_AAD),
                lambda: cipher.decrypt(ciphertext, aad=_AAD),
                size, repeat,
            )

    return {
        "buffer_bytes": size,
        "repeat": repeat,
        "backend": {
            "available": accel.available(),
            "reason_unavailable": accel.unavailable_reason(),
        },
        "ciphers": ciphers,
        "aead_ciphers": aead_ciphers,
    }
