"""Multi-threaded hammer tests for the internally-locked caches.

``ValidatedChunkCache`` and ``ObjectCache`` are shared by concurrent
server sessions (and snapshot views read through the payload cache
without the chunk-store lock), so their LRU bookkeeping, per-partition
indexes, and byte accounting must survive arbitrary interleavings.  The
hammers drive mixed get/put/invalidate traffic from several threads and
then check the internal invariants the unlocked versions corrupted.
"""

import threading
from collections import namedtuple

from repro.chunkstore.cache import ValidatedChunkCache
from repro.chunkstore.ids import ChunkId
from repro.objectstore.cache import ObjectCache
from repro.platform.untrusted import MemoryUntrustedStore

THREADS = 8
ROUNDS = 400


def _run_all(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestValidatedChunkCacheHammer:
    def test_mixed_traffic_preserves_byte_accounting(self):
        cache = ValidatedChunkCache(max_bytes=16 * 1024)
        errors = []

        def worker(seed):
            try:
                for i in range(ROUNDS):
                    cid = ChunkId(seed % 4, 0, (seed * ROUNDS + i) % 64)
                    op = (seed + i) % 5
                    if op <= 1:
                        cache.put(cid, b"d", bytes(((seed + i) % 251) + 1))
                    elif op == 2:
                        payload = cache.get(cid, b"d")
                        if payload is not None:
                            assert len(payload) == ((seed + i) % 251) + 1
                    elif op == 3:
                        cache.invalidate(cid)
                    else:
                        cache.drop_partition(seed % 4)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        _run_all([lambda s=s: worker(s) for s in range(THREADS)])
        assert not errors
        stats = cache.stats()
        # byte accounting must equal the actual resident payload bytes
        actual = sum(len(b) for _, b, _ in cache._entries.values())
        assert stats["bytes"] == actual
        assert 0 <= stats["bytes"] <= cache.max_bytes
        # the per-partition index must exactly cover the entries
        indexed = set()
        for ids in cache._by_partition.values():
            indexed |= ids
        assert indexed == set(cache._entries.keys())

    def test_concurrent_clear_and_put(self):
        cache = ValidatedChunkCache(max_bytes=8 * 1024)
        stop = threading.Event()

        def putter():
            i = 0
            while not stop.is_set():
                cache.put(ChunkId(1, 0, i % 32), b"d", b"x" * 100)
                i += 1

        def clearer():
            for _ in range(200):
                cache.clear()
            stop.set()

        _run_all([putter, clearer])
        stats = cache.stats()
        actual = sum(len(b) for _, b, _ in cache._entries.values())
        assert stats["bytes"] == actual


class TestObjectCacheHammer:
    def test_mixed_traffic_preserves_lru_bound(self):
        Ref = namedtuple("Ref", "partition rank")
        cache = ObjectCache(max_entries=64)
        errors = []

        def worker(seed):
            try:
                for i in range(ROUNDS):
                    ref = Ref(seed % 3, (seed * ROUNDS + i) % 128)
                    op = (seed + i) % 4
                    if op <= 1:
                        cache.put(ref, {"owner": seed, "round": i})
                    elif op == 2:
                        present, value = cache.get(ref)
                        if present and value is not None:
                            assert value["round"] < ROUNDS
                    else:
                        cache.evict_partition(seed % 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        _run_all([lambda s=s: worker(s) for s in range(THREADS)])
        assert not errors
        assert len(cache) <= 64
        assert cache.hits + cache.misses > 0


class TestUntrustedStoreThreading:
    def test_concurrent_reads_and_writes_stay_in_lane(self):
        """Interleaved read/write traffic must never tear: every read of a
        64-byte lane returns bytes written as one unit to that lane."""
        store = MemoryUntrustedStore(64 * 64)
        for lane in range(64):
            store.write(lane * 64, bytes([lane]) * 64)
        store.flush()
        errors = []

        def writer(seed):
            try:
                for i in range(ROUNDS):
                    lane = (seed * 7 + i) % 64
                    store.write(lane * 64, bytes([(seed + i) % 256]) * 64)
                    if i % 50 == 0:
                        store.flush()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader(seed):
            try:
                for i in range(ROUNDS):
                    lane = (seed * 11 + i) % 64
                    blob = store.read(lane * 64, 64)
                    assert len(set(blob)) == 1, "torn read across a lane"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [lambda s=s: writer(s) for s in range(4)]
        workers += [lambda s=s: reader(s) for s in range(4)]
        _run_all(workers)
        assert not errors
