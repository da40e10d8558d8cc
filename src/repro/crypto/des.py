"""DES and Triple-DES (EDE) block ciphers, implemented from scratch.

The paper uses DES in CBC mode for application partitions and 3DES in CBC
mode for the system partition (§9.2.1).  This module implements the FIPS
46-3 algorithm in pure Python.

Implementation notes (these matter for making pure Python tolerable):

* permutations (IP, FP, E) are applied through precomputed per-input-byte
  lookup tables, so each permutation is a handful of table lookups and ORs
  rather than 64 bit tests;
* the S-boxes are precombined with the P permutation into "SP boxes", the
  classic optimisation from C implementations: one lookup per S-box per
  round yields an already-P-permuted 32-bit word;
* the key schedule runs once per keyed instance.

The block primitive is the only DES in this module.  When the optional
OpenSSL backend (:mod:`repro.crypto.accel`) imports, each keyed instance
also carries the bulk CBC hooks (``encrypt_cbc``/``decrypt_cbc``, see
:class:`~repro.crypto.cipher.BlockCipher`), run by OpenSSL over the same
key; without it there are no hooks, and
:class:`~repro.crypto.modes.CbcCipher` chains ``encrypt_block`` itself.
Both produce identical bytes.

Verified against the canonical FIPS test vector
(key ``133457799BBCDFF1``, plaintext ``0123456789ABCDEF`` →
ciphertext ``85E813540F0AB405``) and additional FIPS 81 / Rivest
known-answer vectors in the test suite.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto import accel
from repro.crypto.cipher import BlockCipher

# --- FIPS 46-3 tables (1-based bit positions, MSB = bit 1) -----------------

_IP = [
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
]

_FP = [
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
]

_E = [
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
]

_P = [
    16, 7, 20, 21,
    29, 12, 28, 17,
    1, 15, 23, 26,
    5, 18, 31, 10,
    2, 8, 24, 14,
    32, 27, 3, 9,
    19, 13, 30, 6,
    22, 11, 4, 25,
]

_PC1 = [
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
]

_PC2 = [
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
]

_SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]

_SBOXES = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
]


def _permute(value: int, in_bits: int, table: Sequence[int]) -> int:
    """Generic (slow) permutation; used only in the key schedule."""
    out = 0
    out_bits = len(table)
    for out_pos, in_pos in enumerate(table):
        if (value >> (in_bits - in_pos)) & 1:
            out |= 1 << (out_bits - 1 - out_pos)
    return out


def _make_byte_perm(table: Sequence[int], in_bits: int) -> List[List[int]]:
    """Precompute per-input-byte lookup tables for a permutation."""
    out_bits = len(table)
    n_bytes = in_bits // 8
    tables = [[0] * 256 for _ in range(n_bytes)]
    for out_pos, in_pos in enumerate(table):
        byte_index = (in_pos - 1) // 8
        bit_in_byte = 7 - ((in_pos - 1) % 8)
        out_mask = 1 << (out_bits - 1 - out_pos)
        for v in range(256):
            if (v >> bit_in_byte) & 1:
                tables[byte_index][v] |= out_mask
    return tables


_IP_TABLES = _make_byte_perm(_IP, 64)
_FP_TABLES = _make_byte_perm(_FP, 64)
_E_TABLES = _make_byte_perm(_E, 32)


def _make_sp_boxes() -> List[List[int]]:
    """Combine each S-box with the P permutation into a 64-entry table."""
    sp: List[List[int]] = []
    for i, sbox in enumerate(_SBOXES):
        table = [0] * 64
        for six in range(64):
            row = ((six >> 4) & 0x2) | (six & 0x1)
            col = (six >> 1) & 0xF
            s_out = sbox[row * 16 + col]
            placed = s_out << (28 - 4 * i)
            table[six] = _permute(placed, 32, _P)
        sp.append(table)
    return sp


_SP = _make_sp_boxes()


def _key_schedule(key64: int) -> List[int]:
    """Derive the 16 round subkeys (48-bit each) from a 64-bit key."""
    cd = _permute(key64, 64, _PC1)
    c = (cd >> 28) & 0xFFFFFFF
    d = cd & 0xFFFFFFF
    subkeys = []
    for shift in _SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0xFFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0xFFFFFFF
        subkeys.append(_permute((c << 28) | d, 56, _PC2))
    return subkeys


def _apply_tables(value: int, tables: List[List[int]], in_bits: int) -> int:
    out = 0
    shift = in_bits
    for table in tables:
        shift -= 8
        out |= table[(value >> shift) & 0xFF]
    return out


def _crypt_block_int(block: int, subkeys: Sequence[int]) -> int:
    v = _apply_tables(block, _IP_TABLES, 64)
    left = (v >> 32) & 0xFFFFFFFF
    right = v & 0xFFFFFFFF
    e_tables = _E_TABLES
    sp = _SP
    for k in subkeys:
        expanded = _apply_tables(right, e_tables, 32) ^ k
        f_out = (
            sp[0][(expanded >> 42) & 0x3F]
            | sp[1][(expanded >> 36) & 0x3F]
            | sp[2][(expanded >> 30) & 0x3F]
            | sp[3][(expanded >> 24) & 0x3F]
            | sp[4][(expanded >> 18) & 0x3F]
            | sp[5][(expanded >> 12) & 0x3F]
            | sp[6][(expanded >> 6) & 0x3F]
            | sp[7][expanded & 0x3F]
        )
        left, right = right, left ^ f_out
    preoutput = (right << 32) | left
    return _apply_tables(preoutput, _FP_TABLES, 64)




def _attach_openssl(cipher: BlockCipher, key24: bytes) -> None:
    """Give ``cipher`` the bulk CBC hooks, run by OpenSSL's 3DES-EDE over
    ``key24``, when the backend imports; otherwise ``cipher`` keeps only
    its block primitive and ``CbcCipher`` runs its per-block loop."""
    backend = accel.cbc_backend(key24)
    if backend is not None:
        cipher.encrypt_cbc = backend.encrypt_cbc
        cipher.decrypt_cbc = backend.decrypt_cbc


class Des(BlockCipher):
    """Single DES over 8-byte blocks with an 8-byte key."""

    block_size = 8

    def __init__(self, key: bytes) -> None:
        if len(key) != 8:
            raise ValueError(f"DES key must be 8 bytes, got {len(key)}")
        key_int = int.from_bytes(key, "big")
        self._enc_keys = _key_schedule(key_int)
        self._dec_keys = list(reversed(self._enc_keys))
        _attach_openssl(self, key * 3)

    def encrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        return _crypt_block_int(value, self._enc_keys).to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        return _crypt_block_int(value, self._dec_keys).to_bytes(8, "big")


class TripleDes(BlockCipher):
    """3DES in EDE mode.

    Accepts a 24-byte key (three independent DES keys), a 16-byte key
    (K1, K2, K1), or an 8-byte key (degenerates to single DES, per the
    standard keying options).
    """

    block_size = 8

    def __init__(self, key: bytes) -> None:
        if len(key) == 8:
            k1 = k2 = k3 = key
        elif len(key) == 16:
            k1, k2 = key[:8], key[8:]
            k3 = k1
        elif len(key) == 24:
            k1, k2, k3 = key[:8], key[8:16], key[16:]
        else:
            raise ValueError(f"3DES key must be 8/16/24 bytes, got {len(key)}")
        key1 = _key_schedule(int.from_bytes(k1, "big"))
        key2 = _key_schedule(int.from_bytes(k2, "big"))
        key3 = _key_schedule(int.from_bytes(k3, "big"))
        self._k1_enc, self._k2_enc, self._k3_enc = key1, key2, key3
        self._k1_dec = list(reversed(key1))
        self._k2_dec = list(reversed(key2))
        self._k3_dec = list(reversed(key3))
        _attach_openssl(self, k1 + k2 + k3)

    def encrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        value = _crypt_block_int(value, self._k1_enc)
        value = _crypt_block_int(value, self._k2_dec)
        value = _crypt_block_int(value, self._k3_enc)
        return value.to_bytes(8, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        value = int.from_bytes(block, "big")
        value = _crypt_block_int(value, self._k3_dec)
        value = _crypt_block_int(value, self._k2_enc)
        value = _crypt_block_int(value, self._k1_dec)
        return value.to_bytes(8, "big")
