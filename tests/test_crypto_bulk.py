"""Bulk CBC/CTR fast paths must be byte-identical to the generic loops.

The chunk store's on-disk format must not depend on which implementation
encrypted a version: same key + same IV ⇒ same bytes.  Each cipher has
one fast path, held here to its ``bulk=False`` reference: DES and 3DES
run on OpenSSL (only when the backend imports) against their per-block
primitive, XTEA's int-native CBC hooks against its per-block primitive,
and ctr-sha256's bulk keystream against the per-byte loop.  These tests
pin the IV (both ``repro.crypto.cipher`` and ``repro.crypto.modes``
import ``random_iv`` by name) and compare each pair, plus decrypt across
paths, plus published known-answer vectors for DES and 3DES.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.crypto.cipher as cipher_mod
import repro.crypto.modes as modes_mod
from repro.crypto import accel
from repro.crypto.des import Des, TripleDes
from repro.crypto.modes import CbcCipher, CtrStreamCipher
from repro.crypto.xtea import Xtea

SRC = Path(__file__).resolve().parents[1] / "src"

# the fixed_iv fixture is deterministic and idempotent, so reusing it
# across hypothesis examples is safe
_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_BLOCK_CIPHERS = {"des": Des, "3des": TripleDes, "xtea": Xtea}

requires_openssl = pytest.mark.skipif(
    not accel.available(), reason=f"OpenSSL backend unavailable: {accel.unavailable_reason()}"
)

#: every (cipher, key length) with a bulk path; DES and 3DES have one
#: only when the OpenSSL backend imports
_CASES = [
    pytest.param("des", 8, id="des-8", marks=requires_openssl),
    pytest.param("3des", 16, id="3des-16", marks=requires_openssl),
    pytest.param("3des", 24, id="3des-24", marks=requires_openssl),
    pytest.param("xtea", 16, id="xtea-16"),
]


@pytest.fixture
def fixed_iv(monkeypatch):
    """Make IV/nonce generation deterministic so ciphertexts compare."""

    def deterministic_iv(size: int) -> bytes:
        return bytes(range(1, size + 1))

    monkeypatch.setattr(cipher_mod, "random_iv", deterministic_iv)
    monkeypatch.setattr(modes_mod, "random_iv", deterministic_iv)


class TestCbcEquivalence:
    @pytest.mark.parametrize("kind,key_len", _CASES)
    @_SETTINGS
    @given(data=st.data())
    def test_bulk_matches_fallback(self, fixed_iv, kind, key_len, data):
        key = data.draw(st.binary(min_size=key_len, max_size=key_len))
        plaintext = data.draw(st.binary(min_size=0, max_size=200))
        bc = _BLOCK_CIPHERS[kind](key)
        bulk = CbcCipher(bc, kind, bulk=True)
        fallback = CbcCipher(bc, kind, bulk=False)
        ct_bulk = bulk.encrypt(plaintext)
        assert ct_bulk == fallback.encrypt(plaintext)
        # decrypt across paths: either implementation reads the other's output
        assert bulk.decrypt(ct_bulk) == plaintext
        assert fallback.decrypt(ct_bulk) == plaintext
        assert bulk.counters.bulk_calls == 2 and bulk.counters.fallback_calls == 0

    @pytest.mark.parametrize("kind,key_len", [c for c in _CASES if c.id != "xtea-16"])
    @_SETTINGS
    @given(data=st.data())
    def test_accel_matches_python(self, kind, key_len, data):
        """The OpenSSL hooks on their own, without ``CbcCipher``'s IV and
        padding around them: raw CBC over whole blocks equals a chain
        written out over the from-scratch block primitive."""
        key = data.draw(st.binary(min_size=key_len, max_size=key_len))
        iv = data.draw(st.binary(min_size=8, max_size=8))
        nblocks = data.draw(st.integers(min_value=0, max_value=25))
        body = data.draw(st.binary(min_size=8 * nblocks, max_size=8 * nblocks))
        bc = _BLOCK_CIPHERS[kind](key)
        chained, prev = [], iv
        for i in range(0, len(body), 8):
            block = bytes(a ^ b for a, b in zip(body[i : i + 8], prev))
            prev = bc.encrypt_block(block)
            chained.append(prev)
        python_ct = b"".join(chained)
        assert bc.encrypt_cbc(iv, body) == python_ct
        assert bc.decrypt_cbc(iv, python_ct) == body

    @pytest.mark.parametrize("kind,key_len", _CASES)
    @pytest.mark.parametrize("size",[0, 8, 16, 64, 8 * 37])
    def test_empty_and_exact_block_multiples(self, fixed_iv, kind, key_len, size):
        """PKCS#7 always adds a full pad block at exact multiples; the bulk
        path must agree on those boundary layouts."""
        key = bytes(range(17, 17 + key_len))
        bc = _BLOCK_CIPHERS[kind](key)
        plaintext = bytes(i & 0xFF for i in range(size))
        ct_bulk = CbcCipher(bc, kind, bulk=True).encrypt(plaintext)
        ct_fb = CbcCipher(bc, kind, bulk=False).encrypt(plaintext)
        assert ct_bulk == ct_fb
        assert len(ct_bulk) == 8 + size + (8 - size % 8)

    def test_counters_distinguish_paths(self, fixed_iv):
        bc = Xtea(bytes(16))
        bulk = CbcCipher(bc, "xtea-cbc", bulk=True)
        fallback = CbcCipher(bc, "xtea-cbc", bulk=False)
        bulk.encrypt(b"payload")
        fallback.encrypt(b"payload")
        assert bulk.counters.bulk_calls == 1 and bulk.counters.fallback_calls == 0
        assert fallback.counters.fallback_calls == 1 and fallback.counters.bulk_calls == 0
        assert bulk.counters.bytes_encrypted == len(b"payload")

    @pytest.mark.parametrize(
        "block_cipher,key_len",
        [(Des, 8), (TripleDes, 16), (TripleDes, 24)],
        ids=["des-8", "3des-16", "3des-24"],
    )
    def test_des_has_cbc_hooks_exactly_with_openssl(self, block_cipher, key_len):
        """DES and 3DES run on OpenSSL or on their block primitive — there
        is no third, Python bulk path.  A ``CbcCipher`` over one without
        the backend counts every call as a fallback."""
        bc = block_cipher(bytes(range(key_len)))
        assert hasattr(bc, "encrypt_cbc") is accel.available()
        assert hasattr(bc, "decrypt_cbc") is accel.available()
        cipher = CbcCipher(bc, "cbc")
        cipher.decrypt(cipher.encrypt(b"payload"))
        assert cipher.counters.bulk_calls == (2 if accel.available() else 0)

    def test_no_crypto_accel_disables_every_backend(self):
        """``REPRO_NO_CRYPTO_ACCEL=1`` switches off the one probe: DES and
        3DES lose their CBC hooks and both AEAD factories refuse, each with
        the probe's reason."""
        script = (
            "from repro.crypto import accel\n"
            "from repro.crypto.des import Des, TripleDes\n"
            "from repro.crypto.registry import AEAD_CIPHER_NAMES, cipher_available, make_cipher\n"
            "from repro.errors import CryptoUnavailableError\n"
            "assert not accel.available() and accel.cbc_backend(bytes(24)) is None\n"
            "print(accel.unavailable_reason())\n"
            "assert not hasattr(Des(bytes(8)), 'encrypt_cbc')\n"
            "assert not hasattr(TripleDes(bytes(24)), 'encrypt_cbc')\n"
            "for name in AEAD_CIPHER_NAMES:\n"
            "    assert not cipher_available(name)\n"
            "    try:\n"
            "        make_cipher(name, bytes(32))\n"
            "    except CryptoUnavailableError as exc:\n"
            "        print(exc)\n"
            "    else:\n"
            "        raise AssertionError(name)\n"
        )
        env = dict(os.environ, REPRO_NO_CRYPTO_ACCEL="1", PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        reason, *refusals = done.stdout.splitlines()
        assert reason == "disabled by REPRO_NO_CRYPTO_ACCEL"
        assert len(refusals) == 2
        assert all(f"({reason})" in line for line in refusals)


class TestCtrEquivalence:
    @_SETTINGS
    @given(
        key=st.binary(min_size=16, max_size=16),
        plaintext=st.binary(min_size=0, max_size=300),
    )
    def test_bulk_matches_fallback(self, fixed_iv, key, plaintext):
        ct_bulk = CtrStreamCipher(key, bulk=True).encrypt(plaintext)
        ct_fb = CtrStreamCipher(key, bulk=False).encrypt(plaintext)
        assert ct_bulk == ct_fb
        assert CtrStreamCipher(key, bulk=False).decrypt(ct_bulk) == plaintext
        assert CtrStreamCipher(key, bulk=True).decrypt(ct_fb) == plaintext

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 64, 1000])
    def test_keystream_block_boundaries(self, fixed_iv, size):
        key = bytes(range(16))
        plaintext = b"\xa5" * size
        assert (
            CtrStreamCipher(key, bulk=True).encrypt(plaintext)
            == CtrStreamCipher(key, bulk=False).encrypt(plaintext)
        )


# NIST/FIPS single-block DES vectors (ECB: one block, no chaining), from
# the variable-key / substitution-table tests; verified against OpenSSL.
_DES_KATS = [
    ("8000000000000000", "0000000000000000", "95a8d72813daa94d"),
    ("0000000000000000", "8000000000000000", "95f8a5e5dd31d900"),
    ("0123456789abcdef", "1111111111111111", "17668dfc7292532d"),
    ("1111111111111111", "0123456789abcdef", "8a5ae1f81ab8f2dd"),
    ("133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"),
    ("0101010101010101", "0101010101010101", "994d4dc157b96c52"),
    ("7ca110454a1a6e57", "01a1d6d039776742", "690f5b0d9a26939b"),
    ("0131d9619dc1376e", "5cd54ca83def57da", "7a389d10354bd271"),
    ("07a1133e4a0b2686", "0248d43806f67172", "868ebb51cab4599a"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,pt_hex,ct_hex", _DES_KATS)
    def test_des_single_block(self, key_hex, pt_hex, ct_hex):
        des = Des(bytes.fromhex(key_hex))
        assert des.encrypt_block(bytes.fromhex(pt_hex)).hex() == ct_hex
        assert des.decrypt_block(bytes.fromhex(ct_hex)).hex() == pt_hex

    def test_3des_three_key_ecb(self):
        key = bytes.fromhex(
            "0123456789abcdef23456789abcdef01456789abcdef0123"
        )
        tdes = TripleDes(key)
        plaintext = b"The quick brown fox jump"
        expected = "1ccf23869d09333ecce21c8112256fe668d5c05dd9b6b900"
        ct = b"".join(
            tdes.encrypt_block(plaintext[i : i + 8]) for i in range(0, 24, 8)
        )
        assert ct.hex() == expected
        assert (
            b"".join(tdes.decrypt_block(ct[i : i + 8]) for i in range(0, 24, 8))
            == plaintext
        )

    def test_3des_two_key_ecb(self):
        key = bytes.fromhex("0123456789abcdef23456789abcdef01")
        tdes = TripleDes(key)
        plaintext = b"TDB 2-key 3DES K"
        expected = "1f7922009770029c6bb46155352f1395"
        ct = b"".join(
            tdes.encrypt_block(plaintext[i : i + 8]) for i in range(0, 16, 8)
        )
        assert ct.hex() == expected
