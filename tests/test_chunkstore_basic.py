"""Chunk store basics: the §4.1 specification surface."""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cache import DescriptorCache
from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import ChunkId, data_id
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkNotWrittenError,
    ChunkStoreError,
    StorageFullError,
)
from tests.conftest import make_config, make_platform


def fresh_partition(store, cipher="ctr-sha256", hash_name="sha1"):
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher, hash_name=hash_name)])
    return pid


class TestSpecification:
    def test_write_read(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"state")])
        assert store.read_chunk(pid, rank) == b"state"

    def test_variable_size_rewrite(self, store):
        """Write sets the state 'possibly of different size'."""
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"short")])
        store.commit([ops.WriteChunk(pid, rank, b"much longer state " * 50)])
        assert store.read_chunk(pid, rank) == b"much longer state " * 50
        store.commit([ops.WriteChunk(pid, rank, b"")])
        assert store.read_chunk(pid, rank) == b""

    def test_write_unallocated_signals(self, store):
        pid = fresh_partition(store)
        with pytest.raises(ChunkNotAllocatedError):
            store.commit([ops.WriteChunk(pid, 17, b"x")])

    def test_read_unwritten_signals(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        with pytest.raises(ChunkNotWrittenError):
            store.read_chunk(pid, rank)

    def test_read_unallocated_signals(self, store):
        pid = fresh_partition(store)
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunk(pid, 5)

    def test_deallocate_then_read_signals(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"x")])
        store.commit([ops.DeallocateChunk(pid, rank)])
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunk(pid, rank)

    def test_deallocate_unallocated_signals(self, store):
        pid = fresh_partition(store)
        with pytest.raises(ChunkNotAllocatedError):
            store.commit([ops.DeallocateChunk(pid, 3)])

    def test_deallocated_ids_are_reused(self, store):
        """Ids of deallocated chunks are reused to keep the map compact
        (§4.4)."""
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(5)]
        store.commit([ops.WriteChunk(pid, r, b"d") for r in ranks])
        store.commit([ops.DeallocateChunk(pid, ranks[2])])
        assert store.allocate_chunk(pid) == ranks[2]

    def test_multi_chunk_commit_is_atomic_group(self, store):
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(10)]
        store.commit(
            [ops.WriteChunk(pid, r, f"chunk{r}".encode()) for r in ranks]
        )
        for r in ranks:
            assert store.read_chunk(pid, r) == f"chunk{r}".encode()

    def test_commit_mixing_write_and_dealloc(self, store):
        pid = fresh_partition(store)
        a = store.allocate_chunk(pid)
        b = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, a, b"a"), ops.WriteChunk(pid, b, b"b")])
        c = store.allocate_chunk(pid)
        store.commit(
            [ops.DeallocateChunk(pid, a), ops.WriteChunk(pid, c, b"c")]
        )
        assert store.read_chunk(pid, c) == b"c"
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunk(pid, a)

    def test_dealloc_of_a_chunk_written_in_the_same_commit(self, store):
        """The commit installs its effects after its flush, but decides
        them as if each were installed in order: a never-written rank's
        deallocation is volatile, one written earlier in the same commit
        is recorded, and so is a second deallocation of one rank."""
        pid = fresh_partition(store)
        dealloc_bytes = lambda: store.stats()["log"]["bytes_by_kind"]["dealloc"]
        pending = store.allocate_chunk(pid)
        before = dealloc_bytes()
        store.commit([ops.DeallocateChunk(pid, pending)])
        assert dealloc_bytes() == before  # never persisted: no record
        assert store.chunk_status(pid, pending) == "unallocated"
        rank = store.allocate_chunk(pid)
        twice = store.allocate_chunk(pid)
        store.commit(
            [
                ops.WriteChunk(pid, rank, b"gone"),
                ops.DeallocateChunk(pid, rank),
                ops.DeallocateChunk(pid, twice),
                ops.DeallocateChunk(pid, twice),
            ]
        )
        assert dealloc_bytes() > before
        assert store.chunk_status(pid, rank) == "free"
        assert store.chunk_status(pid, twice) == "free"
        store.close()
        store.platform.reboot()
        reopened = ChunkStore.open(store.platform)
        assert reopened.chunk_status(pid, rank) == "free"
        with pytest.raises(ChunkNotAllocatedError):
            reopened.read_chunk(pid, rank)

    def test_duplicate_write_in_commit_rejected(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        with pytest.raises(ChunkStoreError):
            store.commit(
                [ops.WriteChunk(pid, rank, b"1"), ops.WriteChunk(pid, rank, b"2")]
            )

    def test_allocate_is_volatile_until_commit(self, store):
        """Allocated but unwritten chunk ids are deallocated automatically
        upon restart (§4.4)."""
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        store.close()
        store.platform.reboot()
        reopened = ChunkStore.open(store.platform)
        # the same rank is handed out again
        assert reopened.allocate_chunk(pid) == rank

    def test_chunk_id_into_other_chunk_same_commit(self, store):
        """§4.1: a newly-allocated chunk id can be stored in another chunk
        during the same commit."""
        pid = fresh_partition(store)
        directory = store.allocate_chunk(pid)
        payload = store.allocate_chunk(pid)
        store.commit(
            [
                ops.WriteChunk(pid, payload, b"the data"),
                ops.WriteChunk(pid, directory, str(payload).encode()),
            ]
        )
        stored_rank = int(store.read_chunk(pid, directory))
        assert store.read_chunk(pid, stored_rank) == b"the data"

    def test_chunk_status_introspection(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        assert store.chunk_status(pid, rank) == "unwritten"
        store.commit([ops.WriteChunk(pid, rank, b"x")])
        assert store.chunk_status(pid, rank) == "written"
        store.commit([ops.DeallocateChunk(pid, rank)])
        assert store.chunk_status(pid, rank) == "free"
        assert store.chunk_status(pid, rank + 100) == "unallocated"

    def test_large_chunk_within_segment(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        data = bytes(range(256)) * 40  # ~10 KB, within the 16 KB segment
        store.commit([ops.WriteChunk(pid, rank, data)])
        assert store.read_chunk(pid, rank) == data

    def test_oversized_chunk_rejected(self, store):
        pid = fresh_partition(store)
        rank = store.allocate_chunk(pid)
        with pytest.raises(ChunkStoreError):
            store.commit([ops.WriteChunk(pid, rank, b"x" * 17 * 1024)])

    def test_closed_store_rejects_operations(self, store):
        store.close()
        with pytest.raises(ChunkStoreError):
            store.commit([])

    def test_unknown_operation_rejected(self, store):
        with pytest.raises(ChunkStoreError):
            store.commit(["not an op"])

    def test_empty_commit_is_fine(self, store):
        store.commit([])


class TestTreeGrowth:
    def test_many_chunks_across_map_levels(self, platform):
        """With fanout 4, 100 chunks need a height-4 tree."""
        store = ChunkStore.format(platform, make_config(fanout=4))
        pid = fresh_partition(store)
        ranks = []
        for i in range(100):
            rank = store.allocate_chunk(pid)
            ranks.append(rank)
            store.commit([ops.WriteChunk(pid, rank, f"v{i}".encode())])
        store.checkpoint()
        assert store.partitions[pid].payload.tree_height >= 4
        for i, rank in enumerate(ranks):
            assert store.read_chunk(pid, rank) == f"v{i}".encode()

    def test_growth_survives_reopen(self, platform):
        store = ChunkStore.format(platform, make_config(fanout=4))
        pid = fresh_partition(store)
        for i in range(60):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        store.close()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert len(reopened.data_ranks(pid)) == 60

    def test_cold_cache_read_climbs_map(self, platform):
        """Bottom-up read path: reads work with an empty descriptor cache
        (§4.5)."""
        store = ChunkStore.format(platform, make_config(fanout=4))
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(50)]
        store.commit([ops.WriteChunk(pid, r, f"c{r}".encode()) for r in ranks])
        store.checkpoint()
        store.cache.clear()
        assert store.read_chunk(pid, ranks[37]) == f"{'c'}{ranks[37]}".encode()


#: an all-unallocated map-chunk vector at fanout 2
EMPTY = (ChunkDescriptor(), ChunkDescriptor())


class TestDescriptorCache:
    """Fanout 2 throughout: map chunk ``1.k`` holds data ranks 2k, 2k+1."""

    def test_dirty_pinned_through_eviction(self):
        cache = DescriptorCache(max_clean=4, fanout=2)  # two vectors
        dirty = ChunkDescriptor(ChunkStatus.WRITTEN, 1, 1, b"")
        cache.put_dirty(data_id(1, 0), dirty)
        for k in range(10):
            cache.install(ChunkId(1, 1, k), EMPTY)
        assert cache.get(data_id(1, 0)) is dirty
        assert cache.dirty_count() == 1

    def test_clean_lru_eviction(self):
        cache = DescriptorCache(max_clean=4, fanout=2)
        for k in range(3):
            cache.install(ChunkId(1, 1, k), EMPTY)
        assert cache.get(data_id(1, 0)) is None  # 1.0 was evicted
        assert cache.get(data_id(1, 5)) is not None
        assert cache.evictions == 2  # counted in descriptors

    def test_dirty_shadows_clean(self):
        cache = DescriptorCache(fanout=2)
        cache.put_dirty(data_id(1, 0), ChunkDescriptor(ChunkStatus.FREE))
        written = ChunkDescriptor(ChunkStatus.WRITTEN, 9, 9, b"")
        cache.install(ChunkId(1, 1, 0), (written, written))
        assert cache.get(data_id(1, 0)).status == ChunkStatus.FREE
        assert cache.get(data_id(1, 1)) is written
        # vector() is the map chunk as validated: no dirty overlay
        assert cache.vector(ChunkId(1, 1, 0))[0] is written

    def test_clean_all_dirty(self):
        """A checkpoint installs the rewritten parent, then clears the
        dirty set: the descriptor is still answered, now from the vector."""
        cache = DescriptorCache(fanout=2)
        dirty = ChunkDescriptor(ChunkStatus.WRITTEN, 5, 5, b"")
        cache.put_dirty(data_id(1, 0), dirty)
        cache.install(ChunkId(1, 1, 0), (dirty, ChunkDescriptor()))
        cache.clean_all_dirty()
        assert cache.dirty_count() == 0
        assert cache.get(data_id(1, 0)) is dirty

    def test_drop_partition(self):
        cache = DescriptorCache(fanout=2)
        cache.put_dirty(data_id(1, 0), ChunkDescriptor())
        cache.install(ChunkId(1, 1, 1), EMPTY)
        cache.install(ChunkId(2, 1, 0), EMPTY)
        cache.drop_partition(1)
        assert cache.get(data_id(1, 0)) is None
        assert cache.get(data_id(1, 2)) is None
        assert cache.get(data_id(2, 0)) is not None

    def test_hit_miss_stats(self):
        cache = DescriptorCache(fanout=2)
        cache.get(data_id(1, 0))
        cache.install(ChunkId(1, 1, 0), EMPTY)
        cache.get(data_id(1, 0))
        assert cache.misses == 1
        assert cache.hits == 1


class TestStorageLimits:
    def test_storage_full_raises(self):
        platform = make_platform(size=128 * 1024)
        store = ChunkStore.format(platform, make_config(segment_size=16 * 1024))
        pid = fresh_partition(store)
        with pytest.raises(StorageFullError):
            for i in range(200):
                rank = store.allocate_chunk(pid)
                store.commit([ops.WriteChunk(pid, rank, bytes(1000))])

    def test_churn_survives_via_cleaning(self):
        """Overwriting the same chunks forever must not exhaust space."""
        platform = make_platform(size=256 * 1024)
        store = ChunkStore.format(
            platform, make_config(segment_size=16 * 1024, delta_ut=5)
        )
        pid = fresh_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(5)]
        store.commit([ops.WriteChunk(pid, r, bytes(500)) for r in ranks])
        for round_no in range(150):
            store.commit(
                [ops.WriteChunk(pid, ranks[round_no % 5], bytes([round_no % 251]) * 500)]
            )
        assert store.read_chunk(pid, ranks[0])[:1]
