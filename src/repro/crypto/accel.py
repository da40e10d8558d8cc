"""The one probe for the optional OpenSSL backend (the ``cryptography`` wheel).

This is the only module that imports ``cryptography`` or reads
``REPRO_NO_CRYPTO_ACCEL``.  The probe runs once, at import, and serves
two users:

* DES and 3DES (:mod:`repro.crypto.des`): :func:`cbc_backend` hands their
  ``encrypt_cbc``/``decrypt_cbc`` bulk hooks to OpenSSL, which computes the
  exact FIPS 46-3 byte stream of the from-scratch block primitive at C
  speed.  Only the raw CBC core is delegated — IV generation, PKCS#7
  padding and the IV-prefixed layout stay in :mod:`repro.crypto.modes`,
  so the on-disk format is byte-for-byte identical whichever path runs.
  Single DES is driven as 3DES with the key repeated three times (EDE
  with K1=K2=K3 *is* single DES);
* the AEAD tier (:mod:`repro.crypto.aead`): :data:`AESGCM`,
  :data:`ChaCha20Poly1305` and :data:`InvalidTag`.

Nothing is installed or required.  If the package is missing, or the
``REPRO_NO_CRYPTO_ACCEL`` environment variable is set, :func:`available`
is false and :func:`unavailable_reason` says why: DES and 3DES run the
per-block loop over their block primitive, and the AEAD factories refuse
with :class:`~repro.errors.CryptoUnavailableError`.  XTEA and ctr-sha256
never route here (XTEA is not in OpenSSL; the counter stream is already
hashlib-speed).
"""

from __future__ import annotations

import os
from typing import Optional

_REASON: Optional[str] = None

try:
    if os.environ.get("REPRO_NO_CRYPTO_ACCEL"):
        raise ImportError("disabled by REPRO_NO_CRYPTO_ACCEL")
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers import Cipher as _OsslCipher
    from cryptography.hazmat.primitives.ciphers import modes as _ossl_modes
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

    try:
        # modern home of legacy algorithms (cryptography >= 43)
        from cryptography.hazmat.decrepit.ciphers.algorithms import (
            TripleDES as _OsslTripleDES,
        )
    except ImportError:
        from cryptography.hazmat.primitives.ciphers.algorithms import (
            TripleDES as _OsslTripleDES,
        )
except ImportError as exc:  # pragma: no cover - environment-dependent
    _OsslCipher = _ossl_modes = _OsslTripleDES = None
    AESGCM = ChaCha20Poly1305 = InvalidTag = None
    _REASON = str(exc)


def available() -> bool:
    """True when the OpenSSL backend serves DES/3DES CBC and both AEAD suites."""
    return _REASON is None


def unavailable_reason() -> Optional[str]:
    return _REASON


class _OsslCbc:
    """``encrypt_cbc``/``decrypt_cbc`` provider over one 24-byte 3DES key.

    A fresh OpenSSL cipher context is built per call: CBC chaining state
    must restart at the caller's IV each time, and context setup is a few
    microseconds against a C-speed bulk pass.
    """

    def __init__(self, key24: bytes) -> None:
        self._algorithm = _OsslTripleDES(key24)

    def encrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        enc = _OsslCipher(self._algorithm, _ossl_modes.CBC(iv)).encryptor()
        return enc.update(data) + enc.finalize()

    def decrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        dec = _OsslCipher(self._algorithm, _ossl_modes.CBC(iv)).decryptor()
        return dec.update(data) + dec.finalize()


def cbc_backend(key24: bytes) -> Optional[_OsslCbc]:
    """OpenSSL 3DES-EDE CBC over ``key24`` (K1 ‖ K2 ‖ K3), or ``None``
    when the backend is unavailable."""
    return _OsslCbc(key24) if available() else None
