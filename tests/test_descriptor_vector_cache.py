"""Coherence of the map-vector descriptor cache.

A stale vector is a silent wrong answer, so every event that changes what
a map chunk says gets a scenario here.  Each one reads through the warm
cache, compares with a model *and* with a cold reopen of the same device,
and checks the white-box invariant behind both: every cached vector equals
the validated on-device body of its map chunk's current version.

Fanout 4 keeps the maps three levels deep at a few dozen chunks; the
payload cache is off so every read resolves a descriptor.
"""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.descriptor import MapVector
from repro.chunkstore.ids import ChunkId
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkStoreError,
    CrashError,
    PartitionNotFoundError,
)
from tests.conftest import make_config, make_platform

GONE = "gone"  # model value of a rank that must not be readable


def fresh(**overrides):
    platform = make_platform()
    config = make_config(**{"fanout": 4, "payload_cache_bytes": 0, **overrides})
    return platform, ChunkStore.format(platform, config)


def new_partition(store, pid=None):
    if pid is None:
        pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    return pid


def write(store, pid, values):
    """Commit ``{rank: bytes}``, allocating the ranks not yet allocated."""
    state = store._state(pid)
    for rank in values:
        if not state.is_committed_written(rank):
            state.allocate_specific(rank)
    store.commit([ops.WriteChunk(pid, rank, body) for rank, body in values.items()])


def observe(store, pid, ranks):
    seen = {}
    for rank in ranks:
        try:
            seen[rank] = store.read_chunk(pid, rank)
        except (ChunkNotAllocatedError, PartitionNotFoundError):
            seen[rank] = GONE
    return seen


def assert_vectors_match_device(store):
    """Every cached vector is what its map chunk's current version holds."""
    for (pid, height, rank), vector in list(store.cache._vectors.items()):
        map_id = ChunkId(pid, height, rank)
        state = store._state(pid)
        descriptor = store._get_descriptor(map_id)
        (body,) = store.readpath.read_validated(state, [(map_id, descriptor)])
        assert vector.encode() == body, map_id
        assert list(vector) == list(MapVector.decode(body)), map_id  # memoised slots too


def assert_coherent(platform, store, model):
    """``model``: ``{pid: {rank: bytes | GONE}}``.  Returns the cold store."""
    for pid, chunks in model.items():
        assert observe(store, pid, chunks) == chunks, f"warm, partition {pid}"
    assert_vectors_match_device(store)
    platform.reboot()
    cold = ChunkStore.open(platform)
    for pid, chunks in model.items():
        assert observe(cold, pid, chunks) == chunks, f"cold, partition {pid}"
    return cold


def values(tag, ranks):
    return {rank: f"{tag}-{rank}".encode() for rank in ranks}


class TestVectorCacheCoherence:
    def test_clear_keeps_the_dirty_descriptors(self):
        """Clearing the cache evicts clean vectors only: a commit since the
        last checkpoint lives in its dirty descriptor and nowhere else."""
        platform = make_platform(size=8 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config())
        pid = new_partition(store)
        write(store, pid, {0: b"one"})
        store.checkpoint()
        write(store, pid, {0: b"two"})
        store.cache.clear()
        assert store.read_chunk(pid, 0) == b"two"
        store.checkpoint()
        assert store.read_chunk(pid, 0) == b"two"
        assert_coherent(platform, store, {pid: {0: b"two"}})

    def test_checkpoint_rewrites_a_cached_map_chunk(self):
        platform, store = fresh()
        pid = new_partition(store)
        model = values("v0", range(40))
        write(store, pid, model)
        store.checkpoint()
        assert observe(store, pid, model) == model  # every vector is warm
        update = values("v1", range(0, 40, 3))
        write(store, pid, update)
        model.update(update)
        assert observe(store, pid, model) == model  # dirty shadows the vectors
        store.checkpoint()  # rewrites, and re-installs, the cached vectors
        assert store.cache.dirty_count() == 0
        assert_coherent(platform, store, {pid: model})

    def test_checkpoint_keeps_the_upper_levels_resident(self):
        platform, store = fresh()
        pid = new_partition(store)
        model = values("v0", range(40))  # height 3: 1.0-1.9, 2.0-2.2, root
        write(store, pid, model)
        store.checkpoint()
        observe(store, pid, model)
        reads = platform.untrusted.stats.reads
        write(store, pid, {7: b"again"})
        store.checkpoint()  # 1.1, 2.0 and the root start from cached vectors
        assert platform.untrusted.stats.reads == reads
        model[7] = b"again"
        assert_coherent(platform, store, {pid: model})

    def test_write_partition_resets_an_existing_partition(self):
        platform, store = fresh()
        pid = new_partition(store)
        old = values("old", range(20))
        write(store, pid, old)
        store.checkpoint()
        observe(store, pid, old)  # warm vectors of the old incarnation
        new_partition(store, pid)  # reset: the id now names an empty partition
        model = {rank: GONE for rank in old}
        assert observe(store, pid, model) == model
        write(store, pid, {0: b"new"})
        model[0] = b"new"
        assert_coherent(platform, store, {pid: model})

    def test_deallocated_partition_id_is_reused(self):
        platform, store = fresh()
        pid = new_partition(store)
        old = values("old", range(20))
        write(store, pid, old)
        store.checkpoint()
        observe(store, pid, old)
        store.commit([ops.DeallocatePartition(pid)])
        assert observe(store, pid, [3]) == {3: GONE}
        store.reserve_partition_id(pid)
        new_partition(store, pid)
        model = {rank: GONE for rank in old}
        assert observe(store, pid, model) == model
        write(store, pid, {3: b"reborn"})
        model[3] = b"reborn"
        store.checkpoint()
        assert_coherent(platform, store, {pid: model})

    def test_height_growth_turns_the_root_into_an_interior_chunk(self):
        platform, store = fresh()
        pid = new_partition(store)
        model = values("v0", range(4))  # height 1: the root is map chunk 1.0
        write(store, pid, model)
        store.checkpoint()
        observe(store, pid, model)
        assert store._state(pid).payload.tree_height == 1
        grown = values("v1", range(4, 20))  # height 3
        write(store, pid, grown)
        model.update(grown)
        assert observe(store, pid, model) == model  # before the checkpoint
        store.checkpoint()
        assert store._state(pid).payload.tree_height == 3
        assert_coherent(platform, store, {pid: model})

    def test_copy_source_rewritten_after_the_copy(self):
        platform, store = fresh()
        pid = new_partition(store)
        frozen = values("v0", range(20))
        write(store, pid, frozen)
        observe(store, pid, frozen)
        copy = store.allocate_partition()
        store.commit([ops.CopyPartition(copy, pid)])
        assert observe(store, copy, frozen) == frozen  # warms the copy's vectors
        live = dict(frozen)
        update = values("v1", range(0, 20, 2))
        write(store, pid, update)
        live.update(update)
        store.checkpoint()
        cold = assert_coherent(platform, store, {pid: live, copy: frozen})
        assert cold.diff(copy, pid) == {rank: "changed" for rank in update}

    @pytest.mark.parametrize("mode", ["counter", "direct"])
    def test_crash_and_recovery(self, mode):
        platform, store = fresh(validation_mode=mode)
        pid = new_partition(store)
        model = values("v0", range(30))
        write(store, pid, model)
        store.checkpoint()
        update = values("v1", range(0, 30, 4))
        write(store, pid, update)  # durable, but only in the residual log
        model.update(update)
        observe(store, pid, model)
        platform.injector.arm("commit.before_flush")
        with pytest.raises(CrashError):
            write(store, pid, values("lost", range(30)))
        platform.injector.disarm()
        platform.reboot()
        recovered = ChunkStore.open(platform)  # roll-forward warms its cache
        assert_coherent(platform, recovered, {pid: model})

    @pytest.mark.parametrize("point", ["checkpoint.before_flush", "checkpoint.after_flush"])
    @pytest.mark.parametrize(
        "trigger", ["checkpoint", "commit"], ids=["explicit", "dirty-threshold"]
    )
    def test_half_written_checkpoint_fails_the_store(self, trigger, point):
        """The map chunks (and their cached vectors) are written before the
        leader that makes them current; dying in between must not leave a
        store that carries on from them."""
        platform, store = fresh(checkpoint_dirty_threshold=8)
        pid = new_partition(store)
        model = values("v0", range(8))
        write(store, pid, model)
        store.checkpoint()
        observe(store, pid, model)
        platform.injector.arm(point)
        with pytest.raises(CrashError):
            if trigger == "checkpoint":
                write(store, pid, {1: b"v1-1"})
                model[1] = b"v1-1"
                store.checkpoint()
            else:
                for rank in range(8, 20):  # the ninth dirty entry checkpoints
                    write(store, pid, {rank: b"v1-%d" % rank})
                    model[rank] = b"v1-%d" % rank
        platform.injector.disarm()
        with pytest.raises(ChunkStoreError, match="failed state"):
            store.commit([ops.WriteChunk(pid, 0, b"carried on")])
        with pytest.raises(ChunkStoreError, match="failed state"):
            store.checkpoint()
        with pytest.raises(ChunkStoreError, match="failed state"):
            store.open_snapshot_view(pid)
        platform.reboot()
        recovered = ChunkStore.open(platform)
        assert_coherent(platform, recovered, {pid: model})

    @pytest.mark.parametrize("mode", ["counter", "direct"])
    @pytest.mark.parametrize(
        "point", ["commit.write", "commit.before_flush", "commit.after_flush"]
    )
    def test_interrupted_commit_fails_the_store_for_every_call(self, mode, point):
        """A commit that dies leaves the volatile image half-applied.  No
        public call may act on that image: ``diff`` used to checkpoint it
        (the torn commit then survived the reboot) and reads used to serve
        it.  Only what undoes or merely counts still answers."""
        platform, store = fresh(validation_mode=mode)
        pid = new_partition(store)
        old, new = (b"A0", b"B0"), (b"A1", b"B1")
        write(store, pid, dict(enumerate(old)))
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        view = store.open_snapshot_view(snap)
        platform.injector.arm(point)
        with pytest.raises(CrashError):
            write(store, pid, dict(enumerate(new)))
        platform.injector.disarm()
        for refused in (
            lambda: store.diff(snap, pid),
            lambda: store.read_chunk(pid, 0),
            lambda: store.read_chunks(pid, [0, 1]),
            lambda: store.allocate_chunk(pid),
            store.allocate_partition,
            lambda: store.reserve_partition_id(snap + 1),
            lambda: store.reserve_chunk(pid, 7),
            lambda: store.chunk_status(pid, 0),
            lambda: store.data_ranks(pid),
            lambda: store.partition_info(pid),
            lambda: store.find_partition("nobody"),
            lambda: store.partition_exists(pid),
            store.partition_ids,
            lambda: store.scrub(raise_on_first=False),
            store.clean,
        ):
            with pytest.raises(ChunkStoreError, match="failed state"):
                refused()
        store.release_chunk(pid, 7)
        assert store.stats()["snapshots"]["open_views"] == 1
        assert store.quarantined_chunks() == {}
        assert store.stored_bytes() >= store.live_bytes() > 0
        store.close_snapshot_view(view)
        assert store.stats()["snapshots"]["open_views"] == 0
        store.close()  # and writes nothing on the way out
        platform.reboot()
        recovered = ChunkStore.open(platform)
        seen = tuple(observe(recovered, pid, [0, 1]).values())
        if point == "commit.after_flush":
            assert seen in (old, new)  # atomic either way (see test_crash_sweep)
        else:
            assert seen == old
        assert_coherent(platform, recovered, {pid: dict(enumerate(seen))})


class TestSnapshotViewSharesVectors:
    def test_view_is_seeded_by_reference_and_stays_frozen(self):
        platform, store = fresh()
        pid = new_partition(store)
        model = values("v0", range(20))
        write(store, pid, model)
        store.checkpoint()
        observe(store, pid, model)
        write(store, pid, {5: b"dirty"})  # post-checkpoint: only in the dirty set
        model[5] = b"dirty"
        with store.open_snapshot_view(pid) as view:
            leaf = ChunkId(pid, 1, 1)
            assert view._readpath.cache.vector(leaf) is store.cache.vector(leaf)
            write(store, pid, values("later", range(20)))
            store.checkpoint()  # replaces the store's vectors, not the view's
            assert {r: view.read_chunk(r) for r in model} == model
        assert observe(store, pid, model) == values("later", range(20))

    @staticmethod
    def _two_dirty_partitions():
        platform, store = fresh()
        first, second = new_partition(store), new_partition(store)
        model = {}
        for pid in (first, second):
            model[pid] = values(f"p{pid}", range(40))
            write(store, pid, model[pid])
        store.checkpoint()
        for pid in (first, second):
            observe(store, pid, range(40))
            model[pid].update(values("dirty", range(0, 40, 7)))
            write(store, pid, values("dirty", range(0, 40, 7)))  # dirty again
        return platform, store, model

    def test_a_seed_shares_the_base_and_copies_the_delta(self):
        """``freeze`` copies what changed since the last base, not the
        cache: the first seed builds a base of each dict (every vector by
        reference, every dirty descriptor — other partitions' included,
        since a view never asks for them, next test), and a later one shares
        those bases and copies the puts made since.  The store's own books
        stay untouched either way."""
        platform, store, _ = self._two_dirty_partitions()
        cache = store.cache
        first, second = store.partition_ids()
        assert {cid.partition for cid in cache._dirty} == {first, second}
        seed = cache.freeze()
        assert seed._vector_base == dict(cache._vectors)
        assert all(
            seed._vector_base[key] is vector for key, vector in cache._vectors.items()
        )
        assert seed._dirty_base == cache._dirty
        assert seed._vector_delta == seed._dirty_delta == {}
        assert seed._dirty_base is not cache._dirty
        copied = cache.frozen_entries
        assert copied == len(cache._vectors) + len(cache._dirty)

        write(store, second, {3: b"after"})
        later = cache.freeze()
        assert later._dirty_base is seed._dirty_base
        assert later._vector_base is seed._vector_base
        assert set(later._dirty_delta) == {ChunkId(second, 0, 3)}
        assert cache.frozen_entries - copied == len(later._dirty_delta)
        assert later._dirty_delta is not cache._dirty_delta
        assert later.get(ChunkId(second, 0, 3)) == cache.get(ChunkId(second, 0, 3))
        assert seed.get(ChunkId(second, 0, 3)) != later.get(ChunkId(second, 0, 3))
        later._dirty_delta.clear()
        assert cache._dirty_delta and store.stats()["cache"]["dirty_entries"] > 0
        assert_vectors_match_device(store)

    def test_closing_views_keeps_no_zero_counts(self):
        """Open views are counted by ``frozen_at`` in place: a close
        decrements its count and deletes it at zero, so the oldest view
        (what ``release_deferred`` is handed) is the oldest one open."""
        platform, store = fresh()
        pid = new_partition(store)
        write(store, pid, {0: b"zero"})
        older = [store.open_snapshot_view(pid) for _ in range(2)]
        write(store, pid, {0: b"one"})
        newer = store.open_snapshot_view(pid)
        frozen = older[0].frozen_at
        assert store._open_views == {frozen: 2, newer.frozen_at: 1}
        older[0].close()
        older[0].close()  # idempotent
        assert store._open_views == {frozen: 1, newer.frozen_at: 1}
        older[1].close()
        assert store._open_views == {newer.frozen_at: 1}
        assert store._oldest_view() == newer.frozen_at
        newer.close()
        assert store._open_views == {}
        assert store._oldest_view() == store.commit_count_stat + 1

    def test_a_view_asks_only_for_its_own_partitions_ids(self):
        """What makes the unfiltered seed safe: every id a view's read
        path hands its descriptor cache — lookups, vector fetches, dirty
        probes, installs — belongs to the view's partition, on a cold
        payload cache and a walk that must load map chunks."""
        platform, store, model = self._two_dirty_partitions()
        store.cache._vectors.clear()  # the view's walk loads map chunks
        store.cache._clean_slots = 0
        for pid in store.partition_ids():
            with store.open_snapshot_view(pid) as view:
                cache = view._readpath.cache
                asked = []
                for name in ("get", "vector", "dirty", "install"):
                    method = getattr(cache, name)

                    def spy(chunk_id, *rest, _method=method):
                        asked.append(chunk_id.partition)
                        return _method(chunk_id, *rest)

                    setattr(cache, name, spy)
                assert view.read_chunks(range(40)) == model[pid]
                assert asked and set(asked) == {pid}


MODES = ["counter", "direct"]


def view_reads(view, model):
    """What ``view`` reads of ``model``'s ranks (``GONE`` if unallocated)."""
    seen = {}
    for rank in model:
        try:
            seen[rank] = view.read_chunk(rank)
        except ChunkNotAllocatedError:
            seen[rank] = GONE
    return seen


@pytest.mark.parametrize("mode", MODES)
class TestSeedsStayFrozen:
    """A view shares the store's descriptor bases and payload cache, so
    each event that removes from them or rewrites them gets a view frozen
    just before it, which must read exactly what it froze — and a view
    opened after it, which must read the new state."""

    @staticmethod
    def _store(mode, **overrides):
        platform, store = fresh(validation_mode=mode, **overrides)
        pid = new_partition(store)
        model = values("v0", range(24))
        write(store, pid, model)
        store.checkpoint()
        assert observe(store, pid, model) == model  # vectors resident
        dirty = values("dirty", range(0, 24, 5))
        write(store, pid, dirty)  # the dirty base has these
        model.update(dirty)
        return platform, store, pid, model

    def test_checkpoint(self, mode):
        platform, store, pid, model = self._store(mode)
        with store.open_snapshot_view(pid) as view:
            later = values("later", range(24))
            write(store, pid, later)
            store.checkpoint()
            assert view_reads(view, model) == model
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, later) == later
        assert_coherent(platform, store, {pid: later})

    def test_partition_reset(self, mode):
        platform, store, pid, model = self._store(mode)
        with store.open_snapshot_view(pid) as view:
            new_partition(store, pid)  # WritePartition over it: a reset
            fresh_values = values("reset", range(0, 24, 2))
            write(store, pid, fresh_values)
            assert view_reads(view, model) == model
        after = {rank: fresh_values.get(rank, GONE) for rank in model}
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, after) == after
        assert_coherent(platform, store, {pid: after})

    def test_deallocation_then_the_id_reused_as_a_copy(self, mode):
        platform, store, pid, model = self._store(mode)
        source = new_partition(store)
        theirs = values("source", range(0, 24, 3))
        write(store, source, theirs)
        with store.open_snapshot_view(pid) as view:
            store.commit([ops.DeallocatePartition(pid)])
            assert store.allocate_partition() == pid  # the id is free again
            store.commit([ops.CopyPartition(pid, source)])
            assert view_reads(view, model) == model
        after = {rank: theirs.get(rank, GONE) for rank in model}
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, after) == after
        assert_coherent(platform, store, {pid: after, source: theirs})

    def test_copy(self, mode):
        platform, store, pid, model = self._store(mode)
        with store.open_snapshot_view(pid) as view:
            copy = store.allocate_partition()
            store.commit([ops.CopyPartition(copy, pid)])
            later = values("later", range(0, 24, 4))
            write(store, pid, later)
            write(store, copy, values("copy", range(24)))
            assert view_reads(view, model) == model
        model_now = {**model, **later}
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, model_now) == model_now
        assert_coherent(platform, store, {pid: model_now, copy: values("copy", range(24))})

    def test_cleaner_pass(self, mode):
        platform, store, pid, model = self._store(mode, segment_size=8192)
        with store.open_snapshot_view(pid) as view:
            for round_ in range(4):
                write(store, pid, values(f"churn{round_}", range(24)))
            store.checkpoint()
            assert store.clean(max_segments=8) > 0
            assert view_reads(view, model) == model
        later = values("churn3", range(24))
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, later) == later
        assert_coherent(platform, store, {pid: later})

    def test_cache_clear(self, mode):
        platform, store, pid, model = self._store(mode)
        with store.open_snapshot_view(pid) as view:
            store.checkpoint()
            store.cache.clear()
            later = values("later", range(0, 24, 2))
            write(store, pid, later)
            store.checkpoint()
            assert view_reads(view, model) == model
        model_now = {**model, **later}
        with store.open_snapshot_view(pid) as view:
            assert view_reads(view, model_now) == model_now

    def test_a_delta_crossing_its_rebase_bound(self, mode):
        """Puts past the bound drop the delta; the next freeze builds a new
        base, and both views read what they froze."""
        platform, store, pid, model = self._store(mode)
        from repro.chunkstore.cache import REBASE_MIN

        first = store.open_snapshot_view(pid)
        base = first._readpath.cache._dirty_base
        ranks = range(24, 24 + REBASE_MIN + 8)
        grown = values("grown", ranks)
        write(store, pid, grown)
        assert store.cache._dirty_delta is None  # the bound was crossed
        second = store.open_snapshot_view(pid)
        assert second._readpath.cache._dirty_base is not base
        write(store, pid, values("after", list(model) + list(ranks)))
        store.checkpoint()
        assert view_reads(first, {**model, **dict.fromkeys(ranks, GONE)}) == {
            **model, **dict.fromkeys(ranks, GONE)
        }
        assert view_reads(second, {**model, **grown}) == {**model, **grown}
        first.close()
        second.close()

    def test_an_evicted_vector_rewritten_by_a_checkpoint(self, mode):
        """The view froze while the leaf map chunk was cached; the store
        evicts it, a commit dirties a chunk under it, and the checkpoint
        rewrites it (an install of a key the live LRU no longer holds).
        The view must keep the vector it froze — not the rewritten one,
        which names the newer version."""
        platform, store = fresh(validation_mode=mode, cache_size=4)  # one vector
        pid = new_partition(store)
        model = values("v0", range(16))
        write(store, pid, model)
        store.checkpoint()
        assert store.read_chunk(pid, 0) == model[0]  # leaf (1, 0) cached
        leaf = (pid, 1, 0)
        assert store.cache.vector(leaf) is not None
        with store.open_snapshot_view(pid) as view:
            assert store.read_chunk(pid, 12) == model[12]  # evicts it
            assert store.cache.vector(leaf) is None
            write(store, pid, {1: b"rewritten"})
            store.checkpoint()  # rewrites leaf (1, 0) and installs it
            assert view_reads(view, model) == model
        with store.open_snapshot_view(pid) as view:
            assert view.read_chunk(1) == b"rewritten"

    def test_the_payload_cache_never_crosses_versions(self, mode):
        """A view never gets a version newer than its freeze from the
        shared payload cache, and the store never gets an older one a view
        filled; a view's read of the store's version is a hit."""
        platform, store = fresh(validation_mode=mode, payload_cache_bytes=1 << 16)
        pid = new_partition(store)
        write(store, pid, {0: b"one", 1: b"same"})
        assert store.read_chunks(pid, [0, 1]) == {0: b"one", 1: b"same"}
        with store.open_snapshot_view(pid) as view:
            write(store, pid, {0: b"two"})
            assert store.read_chunk(pid, 0) == b"two"  # fills the new version
            hits = store.payloads.hits
            assert view.read_chunks([0, 1]) == {0: b"one", 1: b"same"}
            assert store.payloads.hits == hits + 1  # rank 1, filled by the store
            assert store.read_chunk(pid, 0) == b"two"  # the view filled "one"
            write(store, pid, {1: b"three"})
            assert view.read_chunk(1) == b"same"
            assert store.read_chunk(pid, 1) == b"three"
            assert view.read_chunk(0) == b"one"


def test_the_server_bench_freezes_copy_a_share_of_the_cache():
    """``python -m repro.bench server``'s ``snapshot_open_copied_share``
    floor, small: opens right after commits copy the deltas, not the
    cache (a whole-cache copy per open reads 1.0)."""
    from repro.bench.server_bench import _snapshot_open_us

    row = _snapshot_open_us(2048, 300, opens=40)
    assert row["dirty_descriptors"] >= 290 and row["vectors"] > 0
    assert 0 < row["copied_share"] <= 0.5
