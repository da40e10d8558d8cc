"""§9.2.2 — chunk store operation micro-benchmarks.

Paper results this reproduces (computational latency, I/O modeled
separately):

* allocate chunk id: 6 µs;
* write chunks + commit: 132 µs + 36 µs/chunk + 0.24 µs/byte —
  an *affine* model in chunk count and cumulative bytes, measured over
  commit sets of 1–128 chunks of 128 B–16 KB, fit by linear regression;
* read chunk (descriptor cached): 47 µs + 0.18 µs/byte;
* write partition + commit: 223 µs; copy partition: 386 µs regardless of
  source size (copy-on-write).

We fit the same regressions with numpy and check the *shape*: good affine
fit, positive coefficients, reads cheaper than commits, copies O(1) in
source size.
"""

import time

import numpy as np

from benchmarks.conftest import PAPER, bench_store, data_partition, report
from repro.chunkstore import ops


def _best_of(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_allocate_chunk_id(benchmark):
    _, store = bench_store()
    pid = data_partition(store)
    benchmark(store.allocate_chunk, pid)
    start = time.perf_counter()
    for _ in range(2000):
        store.allocate_chunk(pid)
    per_call = (time.perf_counter() - start) / 2000
    report(
        "§9.2.2 allocate",
        [("allocate chunk id", f"{per_call*1e6:.1f} µs", f"{PAPER['alloc_us']} µs")],
    )


def test_commit_regression(benchmark):
    """Fit commit latency = a + b·chunks + c·bytes over the paper's sweep."""
    platform, store = bench_store(size=256 * 1024 * 1024, segment_size=256 * 1024)
    pid = data_partition(store)
    rows = []
    times = []
    for n_chunks in (1, 4, 16, 64):
        for chunk_size in (128, 1024, 8192):
            if n_chunks * chunk_size > 192 * 1024:
                continue
            payload = b"\x42" * chunk_size

            def one_commit():
                ranks = [store.allocate_chunk(pid) for _ in range(n_chunks)]
                store.commit([ops.WriteChunk(pid, r, payload) for r in ranks])

            elapsed = _best_of(one_commit, repeat=3)
            rows.append((1.0, n_chunks, n_chunks * chunk_size))
            times.append(elapsed)
    benchmark(lambda: None)  # the sweep above is the measurement
    design = np.array(rows)
    observed = np.array(times)
    coef, residuals, _rank, _sv = np.linalg.lstsq(design, observed, rcond=None)
    fixed_us, per_chunk_us, per_byte_us = (
        coef[0] * 1e6,
        coef[1] * 1e6,
        coef[2] * 1e6,
    )
    predicted = design @ coef
    r_squared = 1 - np.sum((observed - predicted) ** 2) / np.sum(
        (observed - observed.mean()) ** 2
    )
    report(
        "§9.2.2 commit regression",
        [
            ("fixed", f"{fixed_us:.0f} µs", f"{PAPER['commit_fixed_us']} µs"),
            ("per chunk", f"{per_chunk_us:.1f} µs", f"{PAPER['commit_per_chunk_us']} µs"),
            ("per byte", f"{per_byte_us:.4f} µs", f"{PAPER['commit_per_byte_us']} µs"),
            ("R²", f"{r_squared:.3f}", "affine model holds"),
        ],
    )
    assert r_squared > 0.9, "commit cost is not affine in chunks and bytes"
    assert per_chunk_us > 0 and per_byte_us > 0


def test_read_regression(benchmark):
    """Fit cached-descriptor read latency = a + c·bytes."""
    # payload cache off: §9.2.2 prices a read that fetches, decrypts and
    # hashes the chunk (the paper's system caches no payloads); with it on
    # a warm re-read touches neither the device nor the cipher and the
    # per-byte term vanishes
    platform, store = bench_store(
        size=64 * 1024 * 1024, segment_size=256 * 1024, payload_cache_bytes=0
    )
    pid = data_partition(store)
    sizes = (128, 512, 2048, 8192, 16384)
    ranks = {}
    for size in sizes:
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"\x17" * size)])
        ranks[size] = rank
    rows, times = [], []
    for size in sizes:
        store.read_chunk(pid, ranks[size])  # warm the descriptor cache

        def one_read(size=size):
            store.read_chunk(pid, ranks[size])

        elapsed = _best_of(one_read, repeat=7)
        rows.append((1.0, size))
        times.append(elapsed)
    benchmark(lambda: store.read_chunk(pid, ranks[512]))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(times), rcond=None)
    fixed_us, per_byte_us = coef[0] * 1e6, coef[1] * 1e6
    report(
        "§9.2.2 read regression",
        [
            ("fixed", f"{fixed_us:.0f} µs", f"{PAPER['read_fixed_us']} µs"),
            ("per byte", f"{per_byte_us:.4f} µs", f"{PAPER['read_per_byte_us']} µs"),
        ],
    )
    assert per_byte_us > 0


def test_read_cold_cache_climbs_map(benchmark):
    """Uncached reads pay for map-chunk fetches (bottom-up path, §4.5)."""
    platform, store = bench_store(size=64 * 1024 * 1024)
    pid = data_partition(store)
    ranks = [store.allocate_chunk(pid) for _ in range(500)]
    store.commit([ops.WriteChunk(pid, r, b"x" * 256) for r in ranks])
    store.checkpoint()

    store.read_chunk(pid, ranks[250])
    warm = _best_of(lambda: store.read_chunk(pid, ranks[250]), repeat=7)

    def cold():
        store.cache.clear()
        store.read_chunk(pid, ranks[250])

    cold_time = _best_of(cold, repeat=7)
    benchmark(lambda: store.read_chunk(pid, ranks[250]))
    report(
        "§9.2.2 cold read",
        [
            ("warm (cached descriptor)", f"{warm*1e6:.0f} µs", "47 µs + bytes"),
            ("cold (climbs map)", f"{cold_time*1e6:.0f} µs", "reads parental map chunks"),
        ],
    )
    assert cold_time > warm


def test_partition_ops(benchmark):
    """Partition create is cheap; copy is O(1) in source size (§9.2.2)."""
    platform, store = bench_store(size=128 * 1024 * 1024, segment_size=256 * 1024)

    def create_partition():
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        return pid

    create_time = _best_of(create_partition, repeat=5)

    copy_times = {}
    for n_chunks in (10, 100, 1000):
        pid = create_partition()
        ranks = [store.allocate_chunk(pid) for _ in range(n_chunks)]
        store.commit([ops.WriteChunk(pid, r, b"d" * 200) for r in ranks])
        store.checkpoint()

        def copy_it(pid=pid):
            snap = store.allocate_partition()
            store.commit([ops.CopyPartition(snap, pid)])
            return snap

        copy_times[n_chunks] = _best_of(copy_it, repeat=5)

    benchmark(create_partition)
    report(
        "§9.2.2 partition ops",
        [
            ("create+commit", f"{create_time*1e6:.0f} µs", f"{PAPER['partition_create_us']} µs"),
            ("copy (10 chunks)", f"{copy_times[10]*1e6:.0f} µs", f"{PAPER['partition_copy_us']} µs"),
            ("copy (100 chunks)", f"{copy_times[100]*1e6:.0f} µs", "same (COW)"),
            ("copy (1000 chunks)", f"{copy_times[1000]*1e6:.0f} µs", "same (COW)"),
        ],
    )
    # copy-on-write: cost must not scale with source size (allow 3x noise)
    assert copy_times[1000] < copy_times[10] * 3 + 0.01
