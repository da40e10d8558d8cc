"""§2.2 "Database size" — the paper's scalability claims, quantified.

"TDB allows the database to scale with gradual performance degradation.
It uses scalable data structures and fetches data piecemeal on demand.
However, it relies on a cacheable working set for performance because its
log-structured storage may destroy physical clustering."

Three checks:

* cached-read and commit latency stay flat as the database grows
  (the map tree adds a level per 64× growth — 'gradual');
* cold reads grow logarithmically (map depth), not linearly;
* a working set that fits the descriptor cache keeps its hit rate as the
  rest of the database grows around it.
"""

import time

from benchmarks.conftest import bench_store, data_partition, report
from repro.chunkstore import ops


def _best_of(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _populate(store, pid, count, size=200):
    for start in range(0, count, 128):
        ranks = [store.allocate_chunk(pid) for _ in range(min(128, count - start))]
        store.commit([ops.WriteChunk(pid, r, b"\x2e" * size) for r in ranks])
    store.checkpoint()


def test_latency_vs_database_size(benchmark):
    sizes = (500, 2000, 8000)
    warm_reads = {}
    cold_reads = {}
    commits = {}
    for count in sizes:
        platform, store = bench_store(
            size=256 * 1024 * 1024, segment_size=256 * 1024, fanout=16
        )
        pid = data_partition(store)
        _populate(store, pid, count)
        probe = count // 2
        store.read_chunk(pid, probe)
        warm_reads[count] = _best_of(lambda: store.read_chunk(pid, probe))

        def cold():
            store.cache.clear()
            store.read_chunk(pid, probe)

        cold_reads[count] = _best_of(cold)

        def one_commit():
            rank = store.allocate_chunk(pid)
            store.commit([ops.WriteChunk(pid, rank, b"\x2e" * 200)])

        commits[count] = _best_of(one_commit)
    benchmark(lambda: None)  # the sweep above is the measurement
    rows = []
    for count in sizes:
        rows.append(
            (
                f"{count} chunks",
                f"warm {warm_reads[count]*1e6:.0f} µs / cold "
                f"{cold_reads[count]*1e6:.0f} µs / commit "
                f"{commits[count]*1e6:.0f} µs",
                "gradual degradation",
            )
        )
    report("§2.2 scalability", rows)
    # warm reads and commits must not degrade with size (allow 3x noise)
    assert warm_reads[8000] < warm_reads[500] * 3 + 1e-4
    assert commits[8000] < commits[500] * 3 + 1e-4
    # cold reads may grow with map depth but far sublinearly: 16x data,
    # at most ~one extra map level
    assert cold_reads[8000] < cold_reads[500] * 4 + 1e-3


def test_working_set_cache_hit_rate(benchmark):
    """A cached working set keeps its hit rate as the database grows."""
    # payload cache off: the paper's system has none (§2.2 speaks of the
    # descriptor cache), and with it on a warm re-read is answered before
    # the descriptor cache is ever consulted — hits + misses stay 0
    platform, store = bench_store(
        size=256 * 1024 * 1024, segment_size=256 * 1024, payload_cache_bytes=0
    )
    pid = data_partition(store)
    _populate(store, pid, 6000)
    working_set = list(range(0, 100))
    for rank in working_set:
        store.read_chunk(pid, rank)  # warm
    store.cache.hits = store.cache.misses = 0
    for _round in range(20):
        for rank in working_set:
            store.read_chunk(pid, rank)
    hit_rate = store.cache.hits / (store.cache.hits + store.cache.misses)
    benchmark(lambda: store.read_chunk(pid, 50))
    report(
        "§2.2 working set",
        [("descriptor-cache hit rate", f"{hit_rate:.3f}", "≈1.0 once warm")],
    )
    assert hit_rate > 0.99
