"""AEAD tier: RFC known-answer tests, tamper rejection, typed refusal.

The known answers pin the adapter to the published algorithms — a
registry wiring mistake (wrong primitive, swapped key, truncated tag)
cannot survive them:

* ChaCha20-Poly1305: RFC 7539 §2.8.2 (the "sunscreen" vector);
* AES-256-GCM: McGrew & Viega, "The Galois/Counter Mode of Operation",
  test case 16 (the RFC 5116-registered AEAD_AES_256_GCM algorithm).
"""

import pytest

from repro.crypto import aead
from repro.crypto.aead import AeadCipher
from repro.crypto.registry import (
    AEAD_CIPHER_NAMES,
    KEY_SIZES,
    cipher_available,
    make_cipher,
)
from repro.errors import CryptoUnavailableError

requires_backend = pytest.mark.skipif(
    not aead.available(),
    reason=f"AEAD backend unavailable: {aead.unavailable_reason()}",
)

# -- RFC 7539 §2.8.2 ----------------------------------------------------------

CHACHA_KEY = bytes(range(0x80, 0xA0))
CHACHA_NONCE = bytes.fromhex("070000004041424344454647")
CHACHA_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
CHACHA_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
CHACHA_SEALED = bytes.fromhex(  # ciphertext ‖ tag
    "d31a8d34648e60db7b86afbc53ef7ec2"
    "a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b"
    "1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58"
    "fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b"
    "6116"
    "1ae10b594f09e26a7e902ecbd0600691"
)

# -- McGrew & Viega test case 16 (AEAD_AES_256_GCM) ---------------------------

GCM_KEY = bytes.fromhex(
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
)
GCM_NONCE = bytes.fromhex("cafebabefacedbaddecaf888")
GCM_PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a"
    "86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525"
    "b16aedf5aa0de657ba637b39"
)
GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
GCM_SEALED = bytes.fromhex(  # ciphertext ‖ tag
    "522dc1f099567d07f47f37a32a84427d"
    "643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838"
    "c5f61e6393ba7a0abcc9f662"
    "76fc6ece0f4e1768cddf8853bb2d551b"
)

VECTORS = [
    ("chacha20-poly1305", CHACHA_KEY, CHACHA_NONCE, CHACHA_AAD,
     CHACHA_PLAINTEXT, CHACHA_SEALED),
    ("aes-256-gcm", GCM_KEY, GCM_NONCE, GCM_AAD, GCM_PLAINTEXT, GCM_SEALED),
]


def wire_format(nonce: bytes, sealed: bytes) -> bytes:
    """The adapter's ciphertext layout: nonce ‖ ct ‖ tag."""
    return nonce + sealed


@requires_backend
class TestKnownAnswers:
    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_decrypt_known_answer(self, name, key, nonce, aad, plaintext, sealed):
        cipher = make_cipher(name, key)
        assert cipher.decrypt(wire_format(nonce, sealed), aad=aad) == plaintext

    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_encrypt_known_answer(
        self, name, key, nonce, aad, plaintext, sealed, monkeypatch
    ):
        # pin the otherwise-random nonce so encrypt is deterministic
        monkeypatch.setattr(aead, "random_iv", lambda size: nonce[:size])
        cipher = make_cipher(name, key)
        assert cipher.encrypt(plaintext, aad=aad) == wire_format(nonce, sealed)

    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_tag_of_matches_vector(self, name, key, nonce, aad, plaintext, sealed):
        assert AeadCipher.tag_of(wire_format(nonce, sealed)) == sealed[-16:]


@requires_backend
class TestTamperRejection:
    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_every_byte_position_is_authenticated(
        self, name, key, nonce, aad, plaintext, sealed
    ):
        """Flipping any single byte — nonce, ciphertext, or tag — must be
        rejected; AEAD leaves no unauthenticated region in the layout."""
        cipher = make_cipher(name, key)
        wire = wire_format(nonce, sealed)
        for pos in range(len(wire)):
            tampered = bytearray(wire)
            tampered[pos] ^= 0x01
            with pytest.raises(ValueError, match="tag mismatch"):
                cipher.decrypt(bytes(tampered), aad=aad)

    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_aad_is_authenticated(self, name, key, nonce, aad, plaintext, sealed):
        cipher = make_cipher(name, key)
        wire = wire_format(nonce, sealed)
        for bad_aad in (b"", aad[:-1], aad + b"\x00", bytes(len(aad))):
            with pytest.raises(ValueError, match="tag mismatch"):
                cipher.decrypt(wire, aad=bad_aad)

    @pytest.mark.parametrize("name,key,nonce,aad,plaintext,sealed", VECTORS)
    def test_truncation_rejected(self, name, key, nonce, aad, plaintext, sealed):
        """Any truncation is rejected; cutting into the nonce+tag minimum
        is refused before the backend is even consulted."""
        cipher = make_cipher(name, key)
        wire = wire_format(nonce, sealed)
        for cut in (1, 16, len(plaintext), len(plaintext) + 16):
            with pytest.raises(ValueError):
                cipher.decrypt(wire[: len(wire) - cut], aad=aad)

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_wrong_key_rejected(self, name):
        a = make_cipher(name, bytes([0x11]) * KEY_SIZES[name])
        b = make_cipher(name, bytes([0x22]) * KEY_SIZES[name])
        wire = a.encrypt(b"secret chunk body", aad=b"header")
        with pytest.raises(ValueError, match="tag mismatch"):
            b.decrypt(wire, aad=b"header")


@requires_backend
class TestAdapterContract:
    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_roundtrip_with_aad(self, name):
        cipher = make_cipher(name, bytes(KEY_SIZES[name]))
        for size in (0, 1, 15, 16, 17, 1000):
            plaintext = bytes(range(256)) * 4
            plaintext = plaintext[:size]
            wire = cipher.encrypt(plaintext, aad=b"bound header")
            assert cipher.decrypt(wire, aad=b"bound header") == plaintext
            assert len(wire) == cipher.ciphertext_size(size)

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_authenticates_capability(self, name):
        cipher = make_cipher(name, bytes(KEY_SIZES[name]))
        assert cipher.authenticates is True
        assert cipher.ciphertext_size(100) == 12 + 100 + 16

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_memoryview_decrypt(self, name):
        """The zero-copy read path hands AEAD ciphers memoryview spans."""
        cipher = make_cipher(name, bytes(KEY_SIZES[name]))
        wire = cipher.encrypt(b"span body", aad=b"hdr")
        padded = b"\xaa" * 7 + wire + b"\xbb" * 9
        span = memoryview(padded)[7 : 7 + len(wire)]
        assert cipher.decrypt(span, aad=b"hdr") == b"span body"
        assert cipher.decrypt(span, aad=memoryview(b"-hdr")[1:]) == b"span body"

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_flipped_byte_under_a_view_rejected(self, name):
        """Decrypting from a view copies nothing first, so a byte flipped in
        the buffer under the view — nonce, body or tag — is what the
        backend authenticates."""
        cipher = make_cipher(name, bytes(KEY_SIZES[name]))
        wire = cipher.encrypt(b"viewed body", aad=b"hdr")
        for pos in (0, 11, 12, len(wire) - 17, len(wire) - 1):
            buffer = bytearray(b"\xaa" + wire)
            buffer[1 + pos] ^= 0x01
            with pytest.raises(ValueError, match="tag mismatch"):
                cipher.decrypt(memoryview(buffer)[1:], aad=b"hdr")

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_wrong_key_size_rejected(self, name):
        with pytest.raises(ValueError, match="32-byte key"):
            make_cipher(name, b"short")


class TestTypedRefusal:
    """Backend missing ⇒ CryptoUnavailableError — never a silent downgrade.

    These run on *both* CI legs: on the fallback leg
    (``REPRO_NO_CRYPTO_ACCEL=1``) the backend is genuinely absent; on the
    accelerated leg its loss is simulated by monkeypatching.
    """

    @pytest.mark.parametrize("name", AEAD_CIPHER_NAMES)
    def test_factories_refuse_without_backend(self, name, monkeypatch):
        monkeypatch.setattr(aead, "_AesGcm", None)
        monkeypatch.setattr(aead, "_ChaCha", None)
        monkeypatch.setattr(aead, "_IMPORT_ERROR", "simulated: backend removed")
        with pytest.raises(CryptoUnavailableError, match="no pure-Python"):
            make_cipher(name, bytes(KEY_SIZES[name]))

    def test_availability_probe(self, monkeypatch):
        if aead.available():
            for name in AEAD_CIPHER_NAMES:
                assert cipher_available(name)
            monkeypatch.setattr(aead, "_AesGcm", None)
        else:
            assert aead.unavailable_reason() is not None
        assert not aead.available()
        for name in AEAD_CIPHER_NAMES:
            assert not cipher_available(name)

    def test_names_stay_registered_without_backend(self, monkeypatch):
        """The names (and key sizes) must survive backend loss so stores
        formatted with AEAD suites refuse loudly instead of failing with
        an unknown-cipher error."""
        from repro.crypto.registry import CIPHER_NAMES

        monkeypatch.setattr(aead, "_AesGcm", None)
        for name in AEAD_CIPHER_NAMES:
            assert name in CIPHER_NAMES
            assert KEY_SIZES[name] == aead.KEY_SIZE
