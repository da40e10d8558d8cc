"""Cipher modes: CBC with PKCS#7 padding, and a SHA-256 counter stream.

``CbcCipher`` turns any :class:`~repro.crypto.cipher.BlockCipher` into a
whole-message :class:`~repro.crypto.cipher.Cipher`.  A random IV is
generated per message and prepended to the ciphertext.  When the block
cipher implements the bulk CBC hooks (``encrypt_cbc``/``decrypt_cbc``),
whole messages are dispatched to them; otherwise the generic per-block
loop runs.  Both paths produce byte-identical output for the same IV —
the on-disk format does not depend on which path ran.

``CtrStreamCipher`` is a keystream cipher built from SHA-256 in counter
mode: keystream block *i* = SHA-256(key ‖ nonce ‖ i).  Because hashlib runs
at C speed, this is the fast cipher option in a pure-Python build — the
analogue of the paper's "faster than DES" remark.  An 8-byte random nonce
is prepended to the ciphertext; the plaintext length is preserved.  The
keystream is assembled with ``b"".join`` over a cloned hash prefix and
XORed against the payload as one big-int operation; ``bulk=False`` keeps
the original per-byte generator path for benchmarking the fallback.
"""

from __future__ import annotations

import hashlib

from repro.crypto.cipher import BlockCipher, Cipher, random_iv


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` (always adds ≥1 byte)."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Strip PKCS#7 padding; raises ``ValueError`` on malformed padding."""
    if not data or len(data) % block_size:
        raise ValueError("invalid padded length")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise ValueError("invalid padding byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("corrupt padding")
    return data[:-pad_len]


class CbcCipher(Cipher):
    """CBC mode over a block cipher, PKCS#7 padded, random IV prepended.

    ``bulk=False`` forces the generic per-block loop even when the block
    cipher offers bulk hooks (for benchmarks and equivalence tests).
    """

    def __init__(self, block_cipher: BlockCipher, name: str, bulk: bool = True) -> None:
        super().__init__()
        self._bc = block_cipher
        self.name = name
        self._bulk_enc = getattr(block_cipher, "encrypt_cbc", None) if bulk else None
        self._bulk_dec = getattr(block_cipher, "decrypt_cbc", None) if bulk else None

    def encrypt(self, plaintext: bytes) -> bytes:
        bs = self._bc.block_size
        iv = random_iv(bs)
        padded = pkcs7_pad(plaintext, bs)
        counters = self.counters
        counters.encrypt_calls += 1
        counters.bytes_encrypted += len(plaintext)
        if self._bulk_enc is not None:
            counters.bulk_calls += 1
            return iv + self._bulk_enc(iv, padded)
        counters.fallback_calls += 1
        out = bytearray(iv)
        prev = iv
        encrypt_block = self._bc.encrypt_block
        for i in range(0, len(padded), bs):
            block = bytes(a ^ b for a, b in zip(padded[i : i + bs], prev))
            prev = encrypt_block(block)
            out += prev
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        bs = self._bc.block_size
        if len(ciphertext) < 2 * bs or len(ciphertext) % bs:
            raise ValueError("ciphertext length invalid for CBC")
        if not isinstance(ciphertext, bytes):
            # bytes-like input (memoryview spans from whole-segment
            # reads): slices below must be real bytes for the block
            # primitives and the bulk backends
            ciphertext = bytes(ciphertext)
        counters = self.counters
        counters.decrypt_calls += 1
        if self._bulk_dec is not None:
            counters.bulk_calls += 1
            padded = self._bulk_dec(ciphertext[:bs], ciphertext[bs:])
            plain = pkcs7_unpad(padded, bs)
        else:
            counters.fallback_calls += 1
            prev = ciphertext[:bs]
            out = bytearray()
            decrypt_block = self._bc.decrypt_block
            for i in range(bs, len(ciphertext), bs):
                block = ciphertext[i : i + bs]
                dec = decrypt_block(block)
                out += bytes(a ^ b for a, b in zip(dec, prev))
                prev = block
            plain = pkcs7_unpad(bytes(out), bs)
        counters.bytes_decrypted += len(plain)
        return plain

    def ciphertext_size(self, plaintext_size: int) -> int:
        bs = self._bc.block_size
        padded = plaintext_size + (bs - plaintext_size % bs)
        return bs + padded  # IV + padded payload


class CtrStreamCipher(Cipher):
    """SHA-256 counter-mode keystream cipher (length-preserving + nonce)."""

    name = "ctr-sha256"

    _NONCE_SIZE = 8
    _BLOCK = 32  # sha256 digest size

    def __init__(self, key: bytes, bulk: bool = True) -> None:
        super().__init__()
        if not key:
            raise ValueError("ctr-sha256 requires a non-empty key")
        self._key = bytes(key)
        self._bulk = bulk

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        if not self._bulk:
            out = bytearray()
            counter = 0
            prefix = self._key + nonce
            while len(out) < length:
                out += hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
                counter += 1
            return bytes(out[:length])
        # hash the fixed key‖nonce prefix once and clone per counter;
        # sha256(p).copy().update(c) digests exactly sha256(p ‖ c)
        base = hashlib.sha256(self._key + nonce)
        pieces = []
        append = pieces.append
        for counter in range((length + self._BLOCK - 1) // self._BLOCK):
            clone = base.copy()
            clone.update(counter.to_bytes(8, "big"))
            append(clone.digest())
        return b"".join(pieces)[:length]

    def _xor(self, data: bytes, stream: bytes) -> bytes:
        if self._bulk:
            self.counters.bulk_calls += 1
            value = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
            return value.to_bytes(len(data), "big")
        self.counters.fallback_calls += 1
        return bytes(a ^ b for a, b in zip(data, stream))

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = random_iv(self._NONCE_SIZE)
        stream = self._keystream(nonce, len(plaintext))
        self.counters.encrypt_calls += 1
        self.counters.bytes_encrypted += len(plaintext)
        return nonce + self._xor(plaintext, stream)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < self._NONCE_SIZE:
            raise ValueError("ciphertext shorter than nonce")
        # accepts bytes-like input: the nonce feeds key‖nonce hashing and
        # must be bytes; the body only meets len() and int.from_bytes,
        # both of which take memoryview spans directly
        nonce = bytes(ciphertext[: self._NONCE_SIZE])
        body = ciphertext[self._NONCE_SIZE :]
        stream = self._keystream(nonce, len(body))
        self.counters.decrypt_calls += 1
        self.counters.bytes_decrypted += len(body)
        return self._xor(body, stream)

    def ciphertext_size(self, plaintext_size: int) -> int:
        return self._NONCE_SIZE + plaintext_size
