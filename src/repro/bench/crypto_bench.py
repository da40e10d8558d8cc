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

§9.2.1's shape is read off the same timings: 3DES about three times DES
on the per-block primitive (three DES passes), the "faster than DES"
stream cipher ahead of DES, SHA-1 (``hashes``) ahead of the DES a store
runs, and a small fixed finalization cost per hash.  Every encrypt,
decrypt and hash is timed in one interleaved :func:`~repro.bench.best_of`,
so a drift in the machine's speed falls on both sides of each ratio.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bench import Floor, best_of
from repro.crypto import accel, aead
from repro.crypto.cipher import Cipher
from repro.crypto.des import Des, TripleDes
from repro.crypto.hashing import Sha1Hash
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
    # §9.2.1: per-block 3DES is three DES passes (paper: 7.2 / 2.5 MB/s)
    Floor("des_3des_ratio_low", ("des_3des_ratio",), ">", 2.0),
    Floor("des_3des_ratio_high", ("des_3des_ratio",), "<", 4.5),
    # the "faster than DES" stream cipher beats per-block DES
    Floor(
        "ctr_beats_des", ("ciphers", "ctr-sha256", "fast", "encrypt_mb_s"), ">", 1.0,
        of=("ciphers", "des-cbc", "fallback", "encrypt_mb_s"),
    ),
    # hashing outruns the DES a store runs
    Floor(
        "sha1_beats_des", ("hashes", "sha1", "mb_s"), ">", 1.0,
        of=("ciphers", "des-cbc", "fast", "encrypt_mb_s"),
    ),
    # finalization is a small fixed cost, not a bandwidth term (paper: 5 µs)
    Floor("sha1_finalize_us", ("hashes", "sha1", "finalize_us"), "<", 50.0),
)

#: ``sha1.new().digest()`` calls per timed finalization pass
FINALIZE_CALLS = 10_000

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


def _mb_s(size: int, seconds: float) -> float:
    return round(size / seconds / 1e6, 3)


def run(tiny: bool) -> Dict[str, object]:
    size, repeat = (16 * 1024 if tiny else 64 * 1024), 3
    buffer = bytes(i & 0xFF for i in range(size))

    def both_ways(cipher, **aad) -> Tuple[Callable[[], object], Callable[[], object]]:
        ciphertext = cipher.encrypt(buffer, **aad)
        return lambda: cipher.encrypt(buffer, **aad), lambda: cipher.decrypt(ciphertext, **aad)

    # the key path of each entry -> its (encrypt, decrypt) works
    pairs = {
        ("ciphers", name, variant): both_ways(build_cipher(name, variant))
        for name in _KEYS for variant in VARIANTS
    }
    if accel.available():
        for name, key in _AEAD_KEYS.items():
            cipher = aead.make_aes_256_gcm(key) if name == "aes-256-gcm" \
                else aead.make_chacha20_poly1305(key)
            pairs[("aead_ciphers", name)] = both_ways(cipher, aad=_AAD)
    sha1 = Sha1Hash()

    def finalize() -> None:
        for _ in range(FINALIZE_CALLS):
            sha1.new().digest()

    seconds = best_of(
        [work for pair in pairs.values() for work in pair] + [lambda: sha1.hash(buffer), finalize],
        repeat,
    )
    results: Dict[str, Dict] = {"ciphers": {}, "aead_ciphers": {}}
    for (section, *keys), encrypt_s, decrypt_s in zip(pairs, seconds[0::2], seconds[1::2]):
        entry = results[section]
        for key in keys:
            entry = entry.setdefault(key, {})
        entry["encrypt_mb_s"] = _mb_s(size, encrypt_s)
        entry["decrypt_mb_s"] = _mb_s(size, decrypt_s)
        entry["mb_s"] = min(entry["encrypt_mb_s"], entry["decrypt_mb_s"])
    for entry in results["ciphers"].values():
        for way in ("encrypt", "decrypt"):
            entry[f"speedup_{way}"] = round(
                entry["fast"][f"{way}_mb_s"] / entry["fallback"][f"{way}_mb_s"], 2
            )
        entry["speedup"] = min(entry["speedup_encrypt"], entry["speedup_decrypt"])
    hash_s, finalize_s = seconds[-2:]
    ciphers = results["ciphers"]
    return {
        "buffer_bytes": size,
        "repeat": repeat,
        "backend": {
            "available": accel.available(),
            "reason_unavailable": accel.unavailable_reason(),
        },
        **results,
        "hashes": {
            "sha1": {
                "mb_s": _mb_s(size, hash_s),
                "finalize_us": round(finalize_s / FINALIZE_CALLS * 1e6, 3),
            },
        },
        "des_3des_ratio": round(
            ciphers["des-cbc"]["fallback"]["encrypt_mb_s"]
            / ciphers["3des-cbc"]["fallback"]["encrypt_mb_s"], 2,
        ),
    }
