"""§9.2.1 — cryptographic operation micro-benchmarks.

Paper: 3DES-CBC 2.5 MB/s, DES-CBC 7.2 MB/s, SHA-1 21.1 MB/s with a 5 µs
finalization cost.  Absolute numbers differ (pure Python vs C++ on a
450 MHz PC); the *shape* to check is: 3DES ≈ 3× slower than DES, hashing
much faster than encryption, finalization a small fixed cost, and the
"faster than DES" modern option (ctr-sha256) beating both.
"""

import time

import pytest

from benchmarks.conftest import PAPER, report
from repro.bench import best_of
from repro.crypto.des import Des, TripleDes
from repro.crypto.hashing import Sha1Hash
from repro.crypto.modes import CbcCipher
from repro.crypto.registry import KEY_SIZES, make_cipher

_BUFFER = 64 * 1024  # keep pure-Python DES runs short


def _bandwidth(fn, size) -> float:
    """Best-of-3 MB/s."""
    return size / best_of([fn], 3)[0] / 1e6


@pytest.mark.parametrize(
    "name,paper_mb_s",
    [
        ("3des-cbc", PAPER["3des_mb_s"]),
        ("des-cbc", PAPER["des_mb_s"]),
        ("xtea-cbc", None),
        ("ctr-sha256", None),
    ],
)
def test_encryption_bandwidth(benchmark, name, paper_mb_s):
    cipher = make_cipher(name, bytes(range(KEY_SIZES[name])))
    data = b"\xa5" * _BUFFER
    benchmark(cipher.encrypt, data)
    mb_s = _bandwidth(lambda: cipher.encrypt(data), _BUFFER)
    report(
        "§9.2.1 encryption",
        [(name, f"{mb_s:.2f} MB/s", f"{paper_mb_s} MB/s" if paper_mb_s else "n/a")],
    )


def test_relative_cipher_speeds(benchmark):
    """3DES must be ≈3× DES (it is three DES passes); the modern stream
    cipher must beat DES (the paper's 'faster than DES' remark).

    Pinned to the from-scratch per-block primitives (``bulk=False``): the
    OpenSSL backend runs single DES as a degenerate 3DES (both move at
    the same speed), so only the per-block paths preserve the paper's
    3:1 algorithmic ratio.
    """
    data = b"\xa5" * _BUFFER
    des = CbcCipher(Des(bytes(8)), "des-cbc", bulk=False)
    tdes = CbcCipher(TripleDes(bytes(24)), "3des-cbc", bulk=False)
    ctr = make_cipher("ctr-sha256", bytes(16))
    benchmark(des.encrypt, data)
    # interleaved rounds: a drift in the machine's speed falls on all three
    des_mb, tdes_mb, ctr_mb = (
        _BUFFER / seconds / 1e6
        for seconds in best_of(
            [lambda: des.encrypt(data), lambda: tdes.encrypt(data), lambda: ctr.encrypt(data)], 3
        )
    )
    assert 2.0 < des_mb / tdes_mb < 4.5
    assert ctr_mb > des_mb
    fast_des = make_cipher("des-cbc", bytes(8))
    fast_mb = _bandwidth(lambda: fast_des.encrypt(data), _BUFFER)
    report(
        "§9.2.1 relative speeds",
        [
            ("DES/3DES ratio", f"{des_mb / tdes_mb:.2f}", "≈2.9 (7.2/2.5)"),
            ("ctr-sha256 vs DES", f"{ctr_mb / des_mb:.1f}x", "faster than DES"),
            ("DES fast path", f"{fast_mb / des_mb:.1f}x python", "n/a"),
        ],
    )


def test_hashing_bandwidth(benchmark):
    data = b"\xa5" * (4 * 1024 * 1024)
    sha1 = Sha1Hash()
    benchmark(sha1.hash, data)
    mb_s = _bandwidth(lambda: sha1.hash(data), len(data))
    report(
        "§9.2.1 hashing",
        [("sha1", f"{mb_s:.1f} MB/s", f"{PAPER['sha1_mb_s']} MB/s")],
    )
    # hashing must be much faster than any block cipher we have
    des = make_cipher("des-cbc", bytes(8))
    des_mb = _bandwidth(lambda: des.encrypt(b"x" * _BUFFER), _BUFFER)
    assert mb_s > des_mb


def test_hash_finalization_cost(benchmark):
    """The fixed per-hash 'finalization' overhead (paper: 5 µs)."""
    sha1 = Sha1Hash()

    def finalize_only():
        sha1.new().digest()

    benchmark(finalize_only)
    start = time.perf_counter()
    for _ in range(10_000):
        finalize_only()
    per_call = (time.perf_counter() - start) / 10_000
    report(
        "§9.2.1 finalization",
        [("sha1 finalize", f"{per_call * 1e6:.2f} µs", f"{PAPER['sha1_finalize_us']} µs")],
    )
    assert per_call < 50e-6  # a small fixed cost, not a bandwidth term
