"""Perf counters: write coalescing, crypto/hash tallies, cache stats.

The interesting acceptance property lives here: a commit of an N-version
transaction must reach the untrusted store as ONE contiguous write per
segment span, not N+1 small writes — asserted via the
:class:`~repro.chunkstore.segments.LogWriteBuffer` counters that
:meth:`ChunkStore.stats` exposes.
"""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cache import DescriptorCache
from repro.chunkstore.descriptor import ChunkDescriptor
from repro.chunkstore.ids import ChunkId
from tests.conftest import make_config, make_platform


def fresh_store(**overrides) -> ChunkStore:
    return ChunkStore.format(make_platform(), make_config(**overrides))


def fresh_partition(store, cipher="ctr-sha256"):
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher, hash_name="sha1")])
    return pid


class TestWriteCoalescing:
    def test_commit_is_one_write_per_span(self):
        """An N-chunk commit appends N+1 versions (N named + COMMIT) but
        issues exactly one untrusted.write: the span never leaves the
        segment, so it never splits."""
        store = fresh_store()
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(8)]
        logbuf = store.logbuf
        appends0, writes0 = logbuf.appends, logbuf.writes_issued
        store.commit([ops.WriteChunk(pid, r, b"v" * 32) for r in ranks])
        assert logbuf.appends - appends0 == len(ranks) + 1
        assert logbuf.writes_issued - writes0 == 1
        assert logbuf.pending_bytes == 0  # commit leaves nothing buffered

    def test_segment_jump_splits_the_span(self):
        """Crossing into a fresh segment necessarily starts a new span —
        one write per contiguous run, not one write total."""
        store = fresh_store(segment_size=4 * 1024)
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(8)]
        logbuf = store.logbuf
        writes0 = logbuf.writes_issued
        # 8 × 1KB bodies overflow a 4KB segment at least once
        store.commit([ops.WriteChunk(pid, r, b"j" * 1024) for r in ranks])
        spans = logbuf.writes_issued - writes0
        assert spans >= 2  # at least one jump happened
        assert spans < len(ranks)  # but still far fewer writes than versions
        assert logbuf.pending_bytes == 0

    def test_image_bytes_identical_to_unbuffered_writes(self):
        """Coalescing must not change a single stored byte: the same
        committed state reads back after a reopen (which replays recovery
        over the raw image)."""
        platform = make_platform()
        store = ChunkStore.format(platform, make_config())
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(5)]
        store.commit([ops.WriteChunk(pid, r, bytes([r]) * 100) for r in ranks])
        store.checkpoint()
        store.close()
        reopened = ChunkStore.open(platform, make_config())
        for r in ranks:
            assert reopened.read_chunk(pid, r) == bytes([r]) * 100


class TestStoreStats:
    def test_stats_shape_and_growth(self):
        store = fresh_store()
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"x" * 500)])
        store.read_chunk(pid, rank)
        stats = store.stats()
        assert set(stats) == {
            "crypto", "hashing", "cache", "payload_cache", "walk", "log",
            "commits", "untrusted", "faults", "snapshots", "cleaner", "log_space",
        }
        space = stats["log_space"]
        segman = store.segman
        assert space["free_segments"] == len(segman.free_segments)
        assert space["deferred_segments"] == 0
        # the reserve covers at least the fresh segment a checkpoint starts
        assert space["reserve_bytes"] >= store.writer.max_version_size
        assert space["capacity_bytes"] == (
            store.writer.max_version_size - segman.tail_offset
            + len(segman.free_segments) * store.writer.max_version_size
            - space["reserve_bytes"]
        )
        assert space["checkpoints_for_dirty"] == space["checkpoints_for_space"] == 0
        # system cipher is ctr-sha256 in the test config, and the partition
        # uses it too, so one aggregated entry carries all the bytes
        ctr = stats["crypto"]["ctr-sha256"]
        assert ctr["bytes_encrypted"] > 500
        assert ctr["bytes_decrypted"] > 0
        assert ctr["encrypt_calls"] > 0
        sha1 = stats["hashing"]["sha1"]
        assert sha1["digests"] > 0
        assert sha1["bytes_hashed"] > 500
        log = stats["log"]
        assert log["writes_coalesced"] == log["appends"] - log["writes_issued"]
        assert log["appends"] > log["writes_issued"] > 0
        kinds = log["bytes_by_kind"]
        assert sum(kinds.values()) == log["bytes_appended"]
        assert kinds["data"] > 500 and kinds["leader"] > 0 and kinds["commit"] > 0
        assert stats["cleaner"]["cleaned_segments"] == 0
        assert stats["commits"] == 2  # WritePartition + WriteChunk
        io = store.platform.untrusted.stats
        assert stats["untrusted"]["writes"] == io.writes
        assert stats["untrusted"]["flushes"] == io.flushes

    def test_crypto_counters_per_cipher_name(self):
        store = fresh_store()
        pid = fresh_partition(store, cipher="xtea-cbc")
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"y" * 64)])
        crypto = store.stats()["crypto"]
        assert crypto["xtea-cbc"]["bytes_encrypted"] >= 64
        assert "ctr-sha256" in crypto  # the system cipher, counted separately

    def test_crypto_tallies_survive_dealloc_and_count_view_reads(self):
        """Regression: tallies hung off per-partition cipher/hash instances,
        so DeallocatePartition dropped its partition's counts (digests went
        26 -> 5) and a snapshot view's private instances were never summed
        (20 view reads moved bytes_decrypted by 0)."""

        def totals(store):
            stats = store.stats()
            return (
                sum(t["digests"] for t in stats["hashing"].values()),
                sum(t["bytes_encrypted"] for t in stats["crypto"].values()),
                sum(t["bytes_decrypted"] for t in stats["crypto"].values()),
            )

        store = fresh_store()
        pid = fresh_partition(store, cipher="xtea-cbc")
        ranks = [store.allocate_chunk(pid) for _ in range(10)]
        store.commit([ops.WriteChunk(pid, r, b"t" * 300) for r in ranks])
        history = [totals(store)]
        copy = store.allocate_partition()
        store.commit([ops.CopyPartition(copy, pid)])
        history.append(totals(store))
        store.commit([ops.DeallocatePartition(pid)])  # takes the copy along
        history.append(totals(store))
        for earlier, later in zip(history, history[1:]):
            assert all(a <= b for a, b in zip(earlier, later)), history
        assert "xtea-cbc" in store.stats()["crypto"]  # its partitions are gone

        pid = fresh_partition(store, cipher="xtea-cbc")
        ranks = [store.allocate_chunk(pid) for _ in range(10)]
        store.commit([ops.WriteChunk(pid, r, b"v" * 300) for r in ranks])
        digests, _, decrypted = totals(store)
        with store.open_snapshot_view(pid) as view:
            for rank in ranks:
                assert view.read_chunk(rank) == b"v" * 300
        after = totals(store)
        assert after[2] >= decrypted + 10 * 300
        assert after[0] >= digests + 10

    def test_stats_keys_the_benchmark_reads(self):
        """``benchmarks/e2e/layers.py::counters`` reads these by name; a
        renamed key would only surface in the 49 s e2e self-test."""
        from repro.objectstore import ObjectStore
        from repro.server import TDBServer

        store = fresh_store()
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"k")])
        stats = store.stats()
        for cache in ("cache", "payload_cache"):
            assert {"hits", "misses", "evictions"} <= set(stats[cache])
        assert "map_chunks_fetched" in stats["walk"]
        assert {"appends", "writes_coalesced", "bytes_appended"} <= set(stats["log"])
        assert all("digests" in tally for tally in stats["hashing"].values())
        objects = ObjectStore(store)
        assert {"waits", "deadlocks_broken"} <= set(objects.locks.stats())
        with TDBServer(objects) as server:
            served = server.stats()
        assert {"batches", "txs_committed", "fallbacks"} <= set(served["group_commit"])
        assert {"created", "reused"} <= set(served["snapshots"])


def _vector(fanout=2):
    return tuple(ChunkDescriptor() for _ in range(fanout))


class TestDescriptorCacheIndex:
    """The vector LRU needs no per-partition index; these pin what the
    index used to guarantee (fanout 2: map chunk ``1.k`` holds data ranks
    2k and 2k+1)."""

    def test_drop_partition_uses_index(self):
        cache = DescriptorCache(max_clean=64, fanout=2)
        for pid in (1, 2):
            for rank in range(3):
                cache.install(ChunkId(pid, 1, rank), _vector())
        cache.put_dirty(ChunkId(1, 1, 0), ChunkDescriptor())
        cache.drop_partition(1)
        assert cache.get(ChunkId(1, 0, 0)) is None
        assert cache.get(ChunkId(1, 1, 0)) is None
        assert cache.get(ChunkId(2, 0, 3)) is not None
        # the dropped partition leaves nothing behind
        assert cache.stats()["partitions_indexed"] == 1
        assert cache.stats()["clean_entries"] == 6
        # dropping an unknown partition is a no-op, not an error
        cache.drop_partition(999)

    def test_index_tracks_evictions(self):
        cache = DescriptorCache(max_clean=8, fanout=2)  # four vectors
        for rank in range(8):
            cache.install(ChunkId(rank % 3, 1, rank), _vector())
        stats = cache.stats()
        assert stats["clean_entries"] == 8  # slots held
        assert stats["evictions"] == 8  # descriptors dropped (4 vectors x 2)
        # ranks 4..7 survive, in partitions 1, 2, 0, 1
        assert stats["partitions_indexed"] == 3
        assert cache.get(ChunkId(0, 0, 6)) is None  # 1.3 of pid 0 went
        assert cache.get(ChunkId(0, 0, 12)) is not None

    def test_index_survives_dirty_transitions(self):
        cache = DescriptorCache(max_clean=8, fanout=2)
        cid = ChunkId(7, 0, 0)
        parent = ChunkId(7, 1, 0)
        cache.install(parent, _vector())
        dirty = ChunkDescriptor()
        cache.put_dirty(cid, dirty)  # clean → dirty
        assert cache.get(cid) is dirty
        cache.install(parent, (dirty, ChunkDescriptor()))  # the checkpoint
        cache.clean_all_dirty()  # dirty → clean
        assert cache.get(cid) is dirty
        assert cache.stats()["clean_entries"] == 2  # replaced, not added
        cache.drop_partition(7)
        assert cache.get(cid) is None
        assert cache.stats()["partitions_indexed"] == 0

    def test_hit_miss_counters_via_store_stats(self):
        # payload cache off so every read exercises the descriptor cache
        store = fresh_store(payload_cache_bytes=0)
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"z")])
        before = store.stats()["cache"]["hits"]
        for _ in range(3):
            store.read_chunk(pid, rank)
        after = store.stats()["cache"]
        assert after["hits"] >= before + 3
        assert set(after) == {
            "hits", "misses", "evictions", "clean_entries", "dirty_entries",
            "partitions_indexed", "vectors", "vector_capacity", "frozen_entries",
        }
        assert after["vectors"] * store.config.fanout == after["clean_entries"]
        assert after["vector_capacity"] == store.config.cache_size // store.config.fanout

    def test_lru_order_preserved_without_move_to_end(self):
        """install appends new vectors at the LRU tail; get() refreshes
        the recency of the vector it answered from."""
        cache = DescriptorCache(max_clean=6, fanout=2)  # three vectors
        a, b, c, d = (ChunkId(0, 1, r) for r in range(4))
        cache.install(a, _vector())
        cache.install(b, _vector())
        cache.install(c, _vector())
        cache.get(ChunkId(0, 0, 0))  # a is now most-recent; b is oldest
        cache.install(d, _vector())  # evicts b
        assert cache.get(ChunkId(0, 0, 2)) is None
        assert cache.get(ChunkId(0, 0, 0)) is not None
