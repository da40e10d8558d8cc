"""Model-based property tests: random operation sequences interleaved
with crashes, recoveries, checkpoints, and cleaning must always agree
with a plain in-memory model of the committed state."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chunkstore import ChunkId, ChunkStore, ops
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkNotWrittenError,
    CrashError,
)
from tests.conftest import make_config, make_platform


def op_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 11), st.binary(max_size=400)),
            st.tuples(st.just("dealloc"), st.integers(0, 11), st.just(b"")),
            st.tuples(st.just("checkpoint"), st.just(0), st.just(b"")),
            st.tuples(st.just("clean"), st.just(0), st.just(b"")),
            st.tuples(st.just("crash"), st.just(0), st.just(b"")),
            st.tuples(st.just("reopen"), st.just(0), st.just(b"")),
            st.tuples(st.just("crash_in_commit"), st.integers(0, 11), st.binary(max_size=60)),
        ),
        min_size=1,
        max_size=40,
    )


class TestChunkStoreModel:
    @given(operations=op_strategy(), mode=st.sampled_from(["counter", "direct"]))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_random_histories(self, operations, mode):
        platform = make_platform(size=2 * 1024 * 1024)
        store = ChunkStore.format(
            platform,
            make_config(validation_mode=mode, delta_ut=1, segment_size=8 * 1024),
        )
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        #: the committed state per the model: rank -> bytes
        model = {}

        def reopen():
            nonlocal store
            platform.reboot()
            store = ChunkStore.open(platform)

        for kind, rank, data in operations:
            if kind == "write":
                state = store.partitions[pid]
                if not (
                    rank in state.pending_ranks or state.is_committed_written(rank)
                ):
                    state.allocate_specific(rank)
                store.commit([ops.WriteChunk(pid, rank, data)])
                model[rank] = data
            elif kind == "dealloc":
                if rank in model:
                    store.commit([ops.DeallocateChunk(pid, rank)])
                    del model[rank]
            elif kind == "checkpoint":
                store.checkpoint()
            elif kind == "clean":
                store.clean(max_segments=3)
            elif kind == "crash":
                reopen()
            elif kind == "reopen":
                store.close()
                reopen()
            elif kind == "crash_in_commit":
                state = store.partitions[pid]
                if not (
                    rank in state.pending_ranks or state.is_committed_written(rank)
                ):
                    state.allocate_specific(rank)
                platform.injector.arm("commit.begin")
                with pytest.raises(CrashError):
                    store.commit([ops.WriteChunk(pid, rank, data)])
                platform.injector.disarm()
                reopen()  # the model is unchanged: nothing was committed
            # -- invariant: committed state matches the model exactly ----
            for model_rank, expected in model.items():
                assert store.read_chunk(pid, model_rank) == expected
            for probe in range(12):
                if probe not in model:
                    with pytest.raises(
                        (ChunkNotAllocatedError, ChunkNotWrittenError)
                    ):
                        store.read_chunk(pid, probe)

    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 30), st.binary(min_size=1, max_size=200)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_snapshot_isolation_property(self, writes):
        """Whatever happens to the source after a copy, the snapshot's
        contents never change."""
        platform = make_platform(size=4 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        state = store.partitions[pid]
        baseline = {}
        for rank in range(5):
            state.allocate_specific(rank)
            baseline[rank] = f"base-{rank}".encode()
            store.commit([ops.WriteChunk(pid, rank, baseline[rank])])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        for rank, data in writes:
            st_ = store.partitions[pid]
            if not (rank in st_.pending_ranks or st_.is_committed_written(rank)):
                st_.allocate_specific(rank)
            store.commit([ops.WriteChunk(pid, rank, data)])
        for rank, expected in baseline.items():
            assert store.read_chunk(snap, rank) == expected

    @given(
        changes=st.dictionaries(
            st.integers(0, 25),
            st.one_of(st.just(None), st.binary(min_size=1, max_size=60)),
            max_size=15,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_diff_agrees_with_model(self, changes):
        """diff(snapshot, mutated) reports exactly the model's changes."""
        platform = make_platform(size=4 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        state = store.partitions[pid]
        initial = {}
        for rank in range(0, 26, 2):  # even ranks pre-exist
            state.allocate_specific(rank)
            initial[rank] = bytes([rank]) * 20
            store.commit([ops.WriteChunk(pid, rank, initial[rank])])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])

        expected = {}
        for rank, new_value in changes.items():
            existed = rank in initial
            if new_value is None:
                if existed:
                    store.commit([ops.DeallocateChunk(pid, rank)])
                    expected[rank] = "removed"
            else:
                st_ = store.partitions[pid]
                if not (rank in st_.pending_ranks or st_.is_committed_written(rank)):
                    st_.allocate_specific(rank)
                store.commit([ops.WriteChunk(pid, rank, new_value)])
                if existed and new_value != initial[rank]:
                    expected[rank] = "changed"
                elif not existed:
                    expected[rank] = "added"
        assert store.diff(snap, pid) == expected

    @given(
        initial=st.sets(st.integers(0, 80), min_size=1, max_size=30),
        rounds=st.lists(
            st.dictionaries(
                st.integers(0, 80),
                st.one_of(st.just(None), st.binary(min_size=1, max_size=40)),
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_diff_is_the_per_rank_comparison_at_any_pair_of_heights(
        self, initial, rounds
    ):
        """With fanout 4 a few dozen ranks reach height 3–4, so growth,
        overwrites and deallocations after the snapshot leave the two trees
        at equal heights or either one taller; the cleaner relocates
        versions in between.  Both directions of ``diff`` must equal the
        brute-force comparison of every rank's descriptor."""
        platform = make_platform(size=4 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config(fanout=4))
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        state = store.partitions[pid]
        for rank in initial:
            state.allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, rank, b"%d" % rank) for rank in initial])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])

        def brute_force(old_pid, new_pid):
            changes = {}
            ranks = max(store._state(p).payload.next_rank for p in (old_pid, new_pid))
            for rank in range(ranks):
                old = store._get_descriptor(ChunkId(old_pid, 0, rank))
                new = store._get_descriptor(ChunkId(new_pid, 0, rank))
                if old.same_version(new) or not (old.is_written() or new.is_written()):
                    continue
                changes[rank] = (
                    "changed" if old.is_written() and new.is_written()
                    else "added" if new.is_written() else "removed"
                )
            return changes

        for changes in rounds:
            operations = []
            for rank, value in changes.items():
                if value is not None:
                    state.allocate_specific(rank)
                    operations.append(ops.WriteChunk(pid, rank, value))
                elif state.is_committed_written(rank):
                    operations.append(ops.DeallocateChunk(pid, rank))
            store.commit(operations)
            store.checkpoint()
            store.clean(max_segments=2)
            for old_pid, new_pid in ((snap, pid), (pid, snap)):
                assert store.diff(old_pid, new_pid) == brute_force(old_pid, new_pid)


class TestBackupRoundtripProperty:
    @given(
        documents=st.dictionaries(
            st.integers(0, 40), st.binary(max_size=150), min_size=1, max_size=25
        ),
        mutations=st.dictionaries(
            st.integers(0, 40),
            st.one_of(st.just(None), st.binary(max_size=150)),
            max_size=12,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_full_plus_incremental_equals_final_state(self, documents, mutations):
        from repro.backup import BackupStore
        from repro.platform import TrustedPlatform

        platform = make_platform(size=8 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        state = store.partitions[pid]
        model = {}
        for rank, data in documents.items():
            state.allocate_specific(rank)
            store.commit([ops.WriteChunk(pid, rank, data)])
            model[rank] = data
        backup = BackupStore(store)
        backup.create_backup([pid], "full")
        for rank, data in mutations.items():
            st_ = store.partitions[pid]
            if data is None:
                if rank in model:
                    store.commit([ops.DeallocateChunk(pid, rank)])
                    del model[rank]
            else:
                if not (rank in st_.pending_ranks or st_.is_committed_written(rank)):
                    st_.allocate_specific(rank)
                store.commit([ops.WriteChunk(pid, rank, data)])
                model[rank] = data
        backup.create_backup([pid], "incr")

        replacement = TrustedPlatform.create_in_memory(
            untrusted_size=8 * 1024 * 1024, secret=platform.secret_store.read()
        )
        replacement.archival = platform.archival
        restored_store = ChunkStore.format(replacement, make_config())
        BackupStore(restored_store).restore(["full", "incr"])
        for rank in range(41):
            if rank in model:
                assert restored_store.read_chunk(pid, rank) == model[rank]
            else:
                with pytest.raises((ChunkNotAllocatedError, ChunkNotWrittenError)):
                    restored_store.read_chunk(pid, rank)
