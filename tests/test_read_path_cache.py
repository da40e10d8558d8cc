"""Read-path performance layer: the validated-payload cache, batched map
walks and ``read_chunks``.

The two load-bearing properties under test:

* **round trips** — a cold bottom-up miss fetches its map path in exactly
  ONE ``read_many`` batch per level (one total for a height-1 tree), and
  validated reads cost one device read instead of header-then-body;
* **coherence** — the payload cache never serves stale or unvalidated
  bytes: it is populated only by validated reads and invalidated on
  write, deallocation, partition drop, transaction abort, and eviction,
  so tampering after any of those events is still detected.
"""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cache import ValidatedChunkCache
from repro.chunkstore.ids import ChunkId, data_id
from repro.errors import ChunkNotAllocatedError, TamperDetectedError
from repro.objectstore.pickling import ObjectRef
from repro.objectstore.store import ObjectStore
from repro.tools.inspect import trusted_view

from tests.conftest import make_config, make_platform


def _fresh(**overrides):
    platform = make_platform()
    store = ChunkStore.format(platform, make_config(**overrides))
    return platform, store


def _populate(store, ranks=6, cipher="ctr-sha256"):
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher)])
    values = {}
    for rank in range(ranks):
        store.partitions[pid].allocate_specific(rank)
        values[rank] = f"p{pid}r{rank}:".encode() * 8
        store.commit([ops.WriteChunk(pid, rank, values[rank])])
    return pid, values


# ---------------------------------------------------------------------------
# ValidatedChunkCache unit behavior
# ---------------------------------------------------------------------------


class TestValidatedChunkCache:
    def test_disabled_when_zero_budget(self):
        cache = ValidatedChunkCache(0)
        assert not cache.enabled
        cache.put(ChunkId(1, 0, 0), b"x" * 16)
        assert cache.get(ChunkId(1, 0, 0)) is None
        assert cache.stats()["entries"] == 0

    def test_lru_eviction_is_byte_bounded(self):
        cache = ValidatedChunkCache(max_bytes=100)
        for rank in range(5):
            cache.put(ChunkId(1, 0, rank), b"x" * 40)  # 3rd insert evicts
        assert cache.current_bytes <= 100
        assert cache.evictions >= 3
        assert cache.get(ChunkId(1, 0, 4)) == b"x" * 40  # newest survives
        assert cache.get(ChunkId(1, 0, 0)) is None  # oldest evicted

    def test_get_refreshes_lru_order(self):
        cache = ValidatedChunkCache(max_bytes=100)
        cache.put(ChunkId(1, 0, 0), b"a" * 40)
        cache.put(ChunkId(1, 0, 1), b"b" * 40)
        assert cache.get(ChunkId(1, 0, 0)) is not None  # 0 is now MRU
        cache.put(ChunkId(1, 0, 2), b"c" * 40)  # evicts 1, not 0
        assert cache.get(ChunkId(1, 0, 0)) is not None
        assert cache.get(ChunkId(1, 0, 1)) is None

    def test_oversized_payload_is_not_cached(self):
        cache = ValidatedChunkCache(max_bytes=16)
        cache.put(ChunkId(1, 0, 0), b"x" * 64)
        assert cache.stats()["entries"] == 0
        assert cache.current_bytes == 0

    def test_drop_partition_only_hits_that_partition(self):
        cache = ValidatedChunkCache(max_bytes=1024)
        cache.put(ChunkId(1, 0, 0), b"a")
        cache.put(ChunkId(2, 0, 0), b"b")
        cache.drop_partition(1)
        assert cache.get(ChunkId(1, 0, 0)) is None
        assert cache.get(ChunkId(2, 0, 0)) == b"b"
        assert 1 not in cache._by_partition


# ---------------------------------------------------------------------------
# round trips: single-read validation, batched map walks, read_chunks
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def test_cold_miss_map_path_is_one_read_many(self):
        """The acceptance property: with a height-1 location map, a cold
        bottom-up miss fetches the whole map path in exactly one
        ``read_many`` round trip, plus one single-extent read for the
        data chunk itself — two device round trips total."""
        platform, store = _fresh()
        pid, values = _populate(store, ranks=6)
        store.checkpoint()
        # make the miss genuinely cold: no cached descriptors or payloads
        store.cache.clear()
        store.payloads.clear()
        io = platform.untrusted.stats
        before = io.snapshot()
        assert store.read_chunk(pid, 3) == values[3]
        delta = io.delta(before)
        assert delta.batched_reads == 1  # the entire map path, one batch
        assert delta.reads == 2  # map batch + the data extent

    def test_height_two_walk_is_one_batch_per_level(self):
        platform, store = _fresh()
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256")])
        fanout = store.config.fanout
        ranks = [0, 1, fanout, fanout + 1]  # spans two level-1 map chunks
        writes = []
        for rank in ranks:
            store.partitions[pid].allocate_specific(rank)
            writes.append(ops.WriteChunk(pid, rank, b"deep" * 8))
        store.commit(writes)
        store.checkpoint()
        store.cache.clear()
        store.payloads.clear()
        io = platform.untrusted.stats
        before = io.snapshot()
        assert store.read_chunk(pid, 0) == b"deep" * 8
        delta = io.delta(before)
        # level 2 (root's children) then level 1: one batch per level
        assert delta.batched_reads == 2
        assert delta.reads == 3

    def test_read_chunks_batches_data_extents(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=6)
        store.checkpoint()
        store.cache.clear()
        store.payloads.clear()
        io = platform.untrusted.stats
        before = io.snapshot()
        got = store.read_chunks(pid, list(values))
        delta = io.delta(before)
        assert got == values
        # one batch for the map path, one batch for all six data extents
        assert delta.batched_reads == 2
        assert delta.reads == 2
        walk = store.stats()["walk"]
        assert walk["chunk_batches"] == 1
        assert walk["chunks_batch_fetched"] == len(values)
        assert walk["round_trips_saved"] > 0

    def test_view_read_chunks_batches_like_the_store(self):
        """A snapshot view runs the same level-batched fetch: one batch
        for the map path, one for all the data extents."""
        platform, store = _fresh()
        pid, values = _populate(store, ranks=6)
        store.checkpoint()
        store.cache.clear()  # so the view's seeded cache starts cold
        io = platform.untrusted.stats
        with store.open_snapshot_view(pid) as view:
            before = io.snapshot()
            assert view.read_chunks(list(values)) == values
            delta = io.delta(before)
            assert (delta.batched_reads, delta.reads) == (2, 2)
            before = io.snapshot()
            assert view.read_chunks(list(values)) == values  # payload cache
            assert io.delta(before).reads == 0

    def test_a_lone_extent_is_a_plain_read(self):
        """Single-extent fetches — ``read_chunk``, or a batch with one
        miss — count as ``reads`` without a ``batched_reads`` tally."""
        platform, store = _fresh()
        pid, values = _populate(store, ranks=6)
        store.checkpoint()  # map vectors stay cached: only data is cold
        store.payloads.clear()
        io = platform.untrusted.stats
        with store.open_snapshot_view(pid) as view:
            before = io.snapshot()
            assert view.read_chunk(3) == values[3]
            assert view.read_chunks([3, 4]) == {3: values[3], 4: values[4]}
            assert store.read_chunks(pid, [5]) == {5: values[5]}
            delta = io.delta(before)
            assert (delta.batched_reads, delta.reads) == (0, 3)

    def test_read_chunks_preserves_order_and_duplicates(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=4)
        got = store.read_chunks(pid, [3, 0, 3, 1])
        assert list(got) == [3, 0, 1]  # dict keyed by rank, deduplicated
        assert got[3] == values[3] and got[0] == values[0]

    def test_read_chunks_error_matches_sequential_path(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunks(pid, [0, 1, 99])

    def test_warm_reads_issue_no_device_io(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=4)
        for rank in values:
            store.read_chunk(pid, rank)
        io = platform.untrusted.stats
        before = io.snapshot()
        for _ in range(3):
            for rank in values:
                assert store.read_chunk(pid, rank) == values[rank]
        delta = io.delta(before)
        assert delta.reads == 0
        assert store.payloads.hits >= 12


# ---------------------------------------------------------------------------
# coherence: the cache must never serve stale or unvalidated bytes
# ---------------------------------------------------------------------------


class TestCoherence:
    def test_write_invalidates_cached_payload(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=2)
        assert store.read_chunk(pid, 0) == values[0]  # warm the cache
        store.commit([ops.WriteChunk(pid, 0, b"new bytes " * 4)])
        assert store.read_chunk(pid, 0) == b"new bytes " * 4

    def test_no_write_through_tamper_still_detected(self):
        """A committed-then-tampered chunk must be detected even though
        the writer knew the plaintext: commits never populate the payload
        cache, so the next read re-validates against the device."""
        platform, store = _fresh()
        pid, values = _populate(store, ranks=2)
        store.commit([ops.WriteChunk(pid, 1, b"fresh " * 8)])
        descriptor = store._get_descriptor(data_id(pid, 1))
        blob = platform.untrusted.tamper_read(
            descriptor.location, descriptor.length
        )
        platform.untrusted.tamper_write(
            descriptor.location, bytes(b ^ 0x41 for b in blob)
        )
        with pytest.raises(TamperDetectedError):
            store.read_chunk(pid, 1)

    def test_stale_payload_not_served_after_write_then_tamper(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=2)
        assert store.read_chunk(pid, 0) == values[0]  # cache warm
        store.commit([ops.WriteChunk(pid, 0, b"second version " * 2)])
        descriptor = store._get_descriptor(data_id(pid, 0))
        platform.untrusted.tamper_write(
            descriptor.location, b"\x00" * descriptor.length
        )
        # the old payload is still correct plaintext for the OLD version;
        # serving it now would silently mask the tampering
        with pytest.raises(TamperDetectedError):
            store.read_chunk(pid, 0)

    def test_dealloc_invalidates_cached_payload(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        assert store.read_chunk(pid, 2) == values[2]
        store.commit([ops.DeallocateChunk(pid, 2)])
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunk(pid, 2)

    def test_partition_dealloc_drops_all_payloads(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        for rank in values:
            store.read_chunk(pid, rank)
        assert store.payloads.stats()["entries"] == 3
        store.commit([ops.DeallocatePartition(pid)])
        assert store.payloads.stats()["entries"] == 0

    def test_evict_payload_forces_revalidation(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=2)
        assert store.read_chunk(pid, 0) == values[0]
        store.evict_payload(pid, 0)
        descriptor = store._get_descriptor(data_id(pid, 0))
        platform.untrusted.tamper_write(
            descriptor.location, b"\xff" * descriptor.length
        )
        with pytest.raises(TamperDetectedError):
            store.read_chunk(pid, 0)

    def test_scrub_bypasses_payload_cache(self):
        """Scrub exists to exercise the device: a warm payload cache must
        not let it report tampered extents as healthy."""
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        for rank in values:
            store.read_chunk(pid, rank)  # everything cached
        descriptor = store._get_descriptor(data_id(pid, 1))
        platform.untrusted.tamper_write(
            descriptor.location, b"\x00" * descriptor.length
        )
        result = store.scrub(raise_on_first=False)
        assert any("0.1" in str(chunk) for chunk in result["corrupt"])


# ---------------------------------------------------------------------------
# object-store wiring: abort eviction and get_many batching
# ---------------------------------------------------------------------------


class TestObjectStoreWiring:
    def _object_store(self):
        platform, chunk_store = _fresh()
        store = ObjectStore(chunk_store)
        pid = store.create_partition(cipher_name="ctr-sha256")
        return platform, store, pid

    def test_abort_evicts_validated_payloads(self):
        """The satellite regression: abort's defensive eviction must drop
        payload-cache entries for touched chunks, not just object-cache
        entries."""
        platform, store, pid = self._object_store()
        with store.transaction() as tx:
            ref = tx.create(pid, {"v": 1})
        store.cache.clear()
        store.read_committed(ref)  # warms the payload cache underneath
        cid = data_id(ref.partition, ref.rank)
        assert store.chunks.payloads.contains(cid)
        tx = store.transaction()
        tx.update(ref, {"v": 2})
        tx.abort()
        assert not store.chunks.payloads.contains(cid)
        assert store.read_committed(ref) == {"v": 1}

    def test_get_many_batches_chunk_fetches(self):
        platform, store, pid = self._object_store()
        with store.transaction() as tx:
            refs = [tx.create(pid, {"i": i}) for i in range(6)]
        store.chunks.checkpoint()  # descriptors reachable from the device
        store.cache.clear()
        store.chunks.payloads.clear()
        store.chunks.cache.clear()
        io = platform.untrusted.stats
        before = io.snapshot()
        with store.transaction() as tx:
            values = tx.get_many(refs)
        delta = io.delta(before)
        assert values == [{"i": i} for i in range(6)]
        # map walk batch + one data batch, not one read per object
        assert delta.reads <= 3

    def test_get_many_sees_buffered_writes(self):
        platform, store, pid = self._object_store()
        with store.transaction() as tx:
            ref = tx.create(pid, {"v": "old"})
        with store.transaction() as tx:
            tx.update(ref, {"v": "new"})
            assert tx.get_many([ref]) == [{"v": "new"}]


# ---------------------------------------------------------------------------
# stats surfacing
# ---------------------------------------------------------------------------


class TestStatsSurfacing:
    def test_payload_and_walk_sections_in_stats(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        for _ in range(2):
            for rank in values:
                store.read_chunk(pid, rank)
        stats = store.stats()
        assert set(stats["payload_cache"]) == {
            "hits", "misses", "evictions", "invalidations",
            "entries", "bytes", "max_bytes",
        }
        assert stats["payload_cache"]["hits"] >= 3
        assert set(stats["walk"]) == {
            "batches", "map_chunks_fetched", "round_trips_saved",
            "chunk_batches", "chunks_batch_fetched",
        }
        assert stats["untrusted"]["batched_extents"] >= 0

    def test_descriptor_cache_evictions_counter(self):
        platform, store = _fresh(cache_size=4, payload_cache_bytes=0)
        pid, values = _populate(store, ranks=6)
        store.checkpoint()
        store.cache.clear()
        for rank in values:
            store.read_chunk(pid, rank)
        assert store.stats()["cache"]["evictions"] > 0

    def test_inspect_trusted_view_surfaces_cache_health(self):
        platform, store = _fresh()
        pid, values = _populate(store, ranks=3)
        for _ in range(2):
            for rank in values:
                store.read_chunk(pid, rank)
        view = trusted_view(store)
        assert "evictions" in view["cache"]
        assert 0.0 <= view["cache"]["hit_ratio"] <= 1.0
        assert view["payload_cache"]["hits"] >= 3
        assert view["payload_cache"]["hit_ratio"] > 0.0
