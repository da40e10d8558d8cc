"""Ablations of the design choices DESIGN.md §5 calls out.

These are not in the paper's evaluation; they quantify *why* the paper's
design decisions hold in this implementation:

1. **Checkpoint deferral** (§4.7): dirty descriptors buffer in cache and
   map chunks are written only at checkpoints — versus eagerly
   propagating the hash path on every commit.
2. **Δut lag window** (§4.8.2.2): how much TR-write traffic the
   counter-lag tolerance saves, per the paper's l_t/Δut commit-cost term.
3. **Counter vs direct validation**: TR traffic per commit of the two
   schemes.
4. **One object per chunk** (§7): commit volume vs a batched
   many-objects-per-chunk layout.
"""

from benchmarks.conftest import bench_store, data_partition, report
from repro.bench import best_of
from repro.chunkstore import ops
from repro.platform import DiskModel


def _churn(store, pid, commits=40):
    ranks = [store.allocate_chunk(pid) for _ in range(8)]
    store.commit([ops.WriteChunk(pid, r, bytes(300)) for r in ranks])
    for commit_no in range(commits):
        store.commit(
            [ops.WriteChunk(pid, ranks[commit_no % 8], bytes([commit_no % 251]) * 300)]
        )


def test_ablation_checkpoint_deferral(benchmark):
    """Eager per-commit map propagation vs deferred checkpointing."""
    # deferred (the paper's design)
    platform_a, store_a = bench_store()
    pid_a = data_partition(store_a)
    before = store_a.platform.untrusted.stats.snapshot()
    _churn(store_a, pid_a)
    store_a.checkpoint()
    deferred = store_a.platform.untrusted.stats.delta(before)

    # eager: checkpoint after every commit (map path written each time)
    platform_b, store_b = bench_store()
    pid_b = data_partition(store_b)
    before = store_b.platform.untrusted.stats.snapshot()
    ranks = [store_b.allocate_chunk(pid_b) for _ in range(8)]
    store_b.commit([ops.WriteChunk(pid_b, r, bytes(300)) for r in ranks])
    store_b.checkpoint()
    for commit_no in range(40):
        store_b.commit(
            [ops.WriteChunk(pid_b, ranks[commit_no % 8], bytes([commit_no % 251]) * 300)]
        )
        store_b.checkpoint()
    eager = store_b.platform.untrusted.stats.delta(before)

    benchmark(lambda: None)
    report(
        "ablation: checkpoint deferral",
        [
            ("deferred bytes", str(deferred.bytes_written), "the design"),
            ("eager bytes", str(eager.bytes_written), "strawman"),
            (
                "write amplification saved",
                f"{eager.bytes_written / deferred.bytes_written:.1f}x",
                "checkpointing 'defers and consolidates' (§4.7)",
            ),
        ],
    )
    assert eager.bytes_written > 2 * deferred.bytes_written


def test_ablation_delta_ut_sweep(benchmark):
    """TR writes per commit as Δut grows (the l_t/Δut term, §4.8.2.2)."""
    model = DiskModel()
    rows = []
    costs = {}
    for delta_ut in (1, 5, 20):
        platform, store = bench_store(delta_ut=delta_ut)
        pid = data_partition(store)
        tr_before = platform.counter.write_count
        _churn(store, pid, commits=40)
        tr_writes = platform.counter.write_count - tr_before
        tr_time = model.tamper_resistant_time(tr_writes)
        costs[delta_ut] = tr_writes
        rows.append(
            (
                f"Δut={delta_ut}",
                f"{tr_writes} TR writes, {tr_time*1000:.0f} ms modeled",
                "l_t/Δut per commit",
            )
        )
    benchmark(lambda: None)
    report("ablation: Δut lag window", rows)
    assert costs[1] > costs[5] > costs[20]


def test_ablation_validation_modes(benchmark):
    """Direct hash validation pays l_t on every commit; counter mode
    amortises it (§4.8.2)."""
    results = {}
    for mode in ("direct", "counter"):
        platform, store = bench_store(validation_mode=mode, delta_ut=5)
        pid = data_partition(store)
        tr_before = (
            platform.tamper_resistant.write_count + platform.counter.write_count
        )
        _churn(store, pid, commits=40)
        results[mode] = (
            platform.tamper_resistant.write_count
            + platform.counter.write_count
            - tr_before
        )
    benchmark(lambda: None)
    report(
        "ablation: validation mode",
        [
            ("direct TR writes", str(results["direct"]), "1 per commit"),
            ("counter TR writes", str(results["counter"]), "1 per Δut commits"),
        ],
    )
    assert results["counter"] < results["direct"] / 2


def test_ablation_embedded_hash_tree(benchmark):
    """§4.2/§12: 'objects can be validated as they are located' because
    the hash tree is embedded in the location map.  A separate hash tree
    would force a *second* tree traversal per cold read.  We measure the
    embedded design's cold read against a simulated two-traversal read
    (locate twice from a cold cache)."""
    # payload cache off: with it on, a read after clearing only the
    # descriptor cache is answered without walking the map at all
    platform, store = bench_store(size=64 * 1024 * 1024, payload_cache_bytes=0)
    pid = data_partition(store)
    ranks = [store.allocate_chunk(pid) for _ in range(500)]
    store.commit([ops.WriteChunk(pid, r, b"x" * 256) for r in ranks])
    store.checkpoint()

    def cold_read():
        store.cache.clear()
        store.read_chunk(pid, ranks[250])

    def two_traversals():
        # separate location map + hash tree: walk the map once to locate,
        # once more to collect hashes
        store.cache.clear()
        store.read_chunk(pid, ranks[250])
        store.cache.clear()
        store.read_chunk(pid, ranks[250])

    fetched = store.stats()["walk"]["map_chunks_fetched"]
    embedded, separate = best_of([cold_read, two_traversals])
    # every one of the 7 + 2 * 7 reads above climbed the map
    assert store.stats()["walk"]["map_chunks_fetched"] - fetched >= 21
    benchmark(lambda: store.read_chunk(pid, ranks[250]))
    report(
        "ablation: embedded hash tree",
        [
            ("embedded (locate=validate)", f"{embedded*1e6:.0f} µs", "the design"),
            ("separate trees (2 traversals)", f"{separate*1e6:.0f} µs", "strawman"),
        ],
    )
    assert separate > 1.5 * embedded


def test_ablation_object_per_chunk(benchmark):
    """One object per chunk (§7): updating one object commits one small
    chunk, versus a clustered layout where the whole cluster re-commits."""
    platform, store = bench_store()
    pid = data_partition(store)
    # one object per chunk: 16 objects of 200 B
    ranks = [store.allocate_chunk(pid) for _ in range(16)]
    store.commit([ops.WriteChunk(pid, r, bytes(200)) for r in ranks])
    before = platform.untrusted.stats.snapshot()
    for i in range(16):
        store.commit([ops.WriteChunk(pid, ranks[i], bytes([i]) * 200)])
    per_object = platform.untrusted.stats.delta(before).bytes_written

    # clustered: 16 objects in one 3200 B chunk
    cluster = store.allocate_chunk(pid)
    store.commit([ops.WriteChunk(pid, cluster, bytes(3200))])
    before = platform.untrusted.stats.snapshot()
    for i in range(16):
        store.commit([ops.WriteChunk(pid, cluster, bytes([i]) * 3200)])
    clustered = platform.untrusted.stats.delta(before).bytes_written

    benchmark(lambda: None)
    report(
        "ablation: one object per chunk",
        [
            ("per-object commits", f"{per_object} B", "smaller commit volume (§7)"),
            ("clustered commits", f"{clustered} B", "rewrites the whole cluster"),
        ],
    )
    assert per_object < clustered
