"""Smoke test for the read-path benchmark driver (tiny in-process run)."""

import pytest

from repro.bench.store_bench import (
    CODEC_DECODE_FLOOR,
    CODEC_ENCODE_FLOOR,
    CODEC_MIX,
    MAP_LOAD_RATIO_FLOOR,
    RESIDENT_BYTES_CEILING,
    UNCACHED_OPS_FLOOR,
    WARM_SPEEDUP_FLOOR,
    check,
    resolve_cipher,
    run,
    run_map_load,
    run_object_codec,
)
from repro.crypto import aead


def test_store_bench_tiny_run_meets_floors():
    results = run(chunks=8, chunk_size=1024, repeats=2)

    for section in ("write", "recovery", "cold_read", "warm_read",
                    "uncached_read", "scan", "payload_cache", "walk"):
        assert section in results, section
    for section in ("write", "cold_read", "warm_read", "uncached_read"):
        assert results[section]["ops_per_sec"] > 0

    # the acceptance floors the CI smoke job enforces
    assert results["warm_speedup_vs_uncached"] >= WARM_SPEEDUP_FLOOR
    assert (
        results["warm_read"]["round_trips"]
        < results["cold_read"]["round_trips"]
    )
    # a batched scan beats one device read per chunk
    assert (
        results["scan"]["batched_round_trips"]
        < results["scan"]["single_round_trips"]
    )
    assert check(results) == 0

    # MapVector against the reference route on the map-chunk bodies of a
    # two-level map: a same-process ratio, so it does not track the machine
    map_load = results["map_load"] = run_map_load(2, "ctr-sha256", loops=5)
    assert map_load["map_levels"] >= 2
    for name in ("load_one_slot", "rewrite_4_dirty"):
        assert map_load[name]["ratio"] >= MAP_LOAD_RATIO_FLOOR, map_load[name]
    # a resident vector is its wire bytes, and a map larger than the old
    # 64-vector cache stays resident under churn: a size and a count
    assert 0 < map_load["resident_bytes_per_descriptor"] <= RESIDENT_BYTES_CEILING
    assert map_load["slot_lookup_us"] > 0
    churn = map_load["steady_churn"]
    assert churn["map_chunks"] > 64 and churn["checkpoints"] >= 2
    assert churn["map_loads"] == 0
    assert check(results) == 0
    for section, key, bad in (
        ("rewrite_4_dirty", "ratio", 1.0),
        (None, "resident_bytes_per_descriptor", 310.0),
        ("steady_churn", "map_loads", 308),
    ):
        entry = map_load if section is None else map_load[section]
        good, entry[key] = entry[key], bad
        assert check(results) == 1, key
        entry[key] = good

    # the object pickler's kernels against the reference route on the
    # Figure 10 shapes (agreement is asserted inside the phase): ratios
    codec = results["object_codec"] = run_object_codec(loops=10)
    assert set(codec["shapes"]) == set(CODEC_MIX)
    for column in (0, 1):  # the shares of each mix add up
        assert sum(shares[column] for shares in CODEC_MIX.values()) == pytest.approx(1.0)
    assert codec["encode_ratio"] >= CODEC_ENCODE_FLOOR, codec
    assert codec["decode_ratio"] >= CODEC_DECODE_FLOOR, codec
    assert check(results) == 0
    for way in ("encode", "decode"):
        good, codec[f"{way}_ratio"] = codec[f"{way}_ratio"], 1.2
        assert check(results) == 1, way
        codec[f"{way}_ratio"] = good


@pytest.mark.skipif(not aead.available(), reason="AEAD backend unavailable")
def test_store_bench_aead_default_tier_meets_floor():
    """The one-pass AEAD tier: uncached reads clear the 3×-baseline ops
    floor, and the composite check enforces it."""
    slow = run(chunks=8, chunk_size=1024, repeats=2)
    tier = run(chunks=8, chunk_size=1024, repeats=2, cipher="aes-256-gcm")
    assert tier["partition_cipher"] == "aes-256-gcm"
    assert tier["uncached_read"]["ops_per_sec"] >= UNCACHED_OPS_FLOOR
    # one-pass beats the slow two-pass tier outright on every cold path
    assert (
        tier["uncached_read"]["ops_per_sec"]
        > slow["uncached_read"]["ops_per_sec"]
    )
    slow["default_tier"] = tier
    assert check(slow) == 0


def test_resolve_cipher():
    assert resolve_cipher("xtea-cbc") == "xtea-cbc"
    expected = "aes-256-gcm" if aead.available() else None
    assert resolve_cipher("auto") == expected
