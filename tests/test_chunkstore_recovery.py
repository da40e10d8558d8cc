"""Crash atomicity and recovery (§4.8): systematic crash-point sweeps in
both validation modes."""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.errors import CrashError
from tests.conftest import make_config, make_platform


def build_store(mode, platform=None, **overrides):
    platform = platform or make_platform()
    config = make_config(validation_mode=mode, **overrides)
    return platform, ChunkStore.format(platform, config)


def prepared(mode, **overrides):
    platform, store = build_store(mode, **overrides)
    pid = store.allocate_partition()
    store.commit(
        [
            ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1"),
            ops.WriteChunk(pid, 0, b"stable"),
        ]
    )
    return platform, store, pid


MODES = ["counter", "direct"]


@pytest.mark.parametrize("mode", MODES)
class TestCommitAtomicity:
    def crash_and_reopen(self, platform, store, pid, point, countdown=0):
        platform.injector.arm(point, countdown)
        with pytest.raises(CrashError):
            store.commit([ops.WriteChunk(pid, 0, b"SHOULD NOT SURVIVE")])
        platform.injector.disarm()
        platform.reboot()
        return ChunkStore.open(platform)

    def test_crash_at_commit_begin(self, mode):
        platform, store, pid = prepared(mode)
        reopened = self.crash_and_reopen(platform, store, pid, "commit.begin")
        assert reopened.read_chunk(pid, 0) == b"stable"

    def test_crash_before_flush(self, mode):
        platform, store, pid = prepared(mode)
        reopened = self.crash_and_reopen(platform, store, pid, "commit.before_flush")
        assert reopened.read_chunk(pid, 0) == b"stable"

    def test_crash_during_partial_flush(self, mode):
        platform, store, pid = prepared(mode)
        reopened = self.crash_and_reopen(
            platform, store, pid, "untrusted.flush.partial", countdown=0
        )
        assert reopened.read_chunk(pid, 0) == b"stable"

    def test_crash_between_flush_and_tr(self, mode):
        """The window between untrusted-store flush and TR update: in
        direct mode the TR write is the commit point, so the commit is
        lost; in counter mode (Δut=1 here) the commit chunk is durable so
        the commit survives."""
        platform, store, pid = prepared(mode)
        platform.injector.arm("commit.after_flush")
        with pytest.raises(CrashError):
            store.commit([ops.WriteChunk(pid, 0, b"window")])
        platform.injector.disarm()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        value = reopened.read_chunk(pid, 0)
        if mode == "direct":
            assert value == b"stable"
        else:
            assert value == b"window"

    def test_committed_data_survives_crash(self, mode):
        platform, store, pid = prepared(mode)
        store.commit([ops.WriteChunk(pid, 0, b"v2")])
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, 0) == b"v2"

    def test_store_usable_after_crash_recovery(self, mode):
        platform, store, pid = prepared(mode)
        reopened = self.crash_and_reopen(platform, store, pid, "commit.before_flush")
        reopened.commit([ops.WriteChunk(pid, 0, b"after-crash")])
        platform.reboot()
        final = ChunkStore.open(platform)
        assert final.read_chunk(pid, 0) == b"after-crash"

    def test_dealloc_atomicity(self, mode):
        platform, store, pid = prepared(mode)
        platform.injector.arm("commit.before_flush")
        with pytest.raises(CrashError):
            store.commit([ops.DeallocateChunk(pid, 0)])
        platform.injector.disarm()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, 0) == b"stable"

    def test_committed_dealloc_survives(self, mode):
        from repro.errors import ChunkNotAllocatedError

        platform, store, pid = prepared(mode)
        store.commit([ops.DeallocateChunk(pid, 0)])
        platform.reboot()
        reopened = ChunkStore.open(platform)
        with pytest.raises(ChunkNotAllocatedError):
            reopened.read_chunk(pid, 0)


@pytest.mark.parametrize("mode", MODES)
class TestCheckpointAtomicity:
    def test_crash_during_each_checkpoint_phase(self, mode):
        for point in (
            "checkpoint.begin",
            "checkpoint.before_flush",
            "checkpoint.after_flush",
            "checkpoint.after_tr",
        ):
            platform, store, pid = prepared(mode)
            for i in range(20):
                rank = store.allocate_chunk(pid)
                store.commit([ops.WriteChunk(pid, rank, f"d{i}".encode())])
            platform.injector.arm(point)
            with pytest.raises(CrashError):
                store.checkpoint()
            platform.injector.disarm()
            platform.reboot()
            reopened = ChunkStore.open(platform)
            assert reopened.read_chunk(pid, 0) == b"stable", point
            assert len(reopened.data_ranks(pid)) == 21, point
            # the store remains fully usable and can checkpoint again
            reopened.commit([ops.WriteChunk(pid, 0, b"post")])
            reopened.checkpoint()
            assert reopened.read_chunk(pid, 0) == b"post", point

    def test_commits_after_interrupted_checkpoint_recover(self, mode):
        platform, store, pid = prepared(mode)
        for i in range(10):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        platform.injector.arm("checkpoint.after_flush")
        with pytest.raises(CrashError):
            store.checkpoint()
        platform.injector.disarm()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        reopened.commit([ops.WriteChunk(pid, 0, b"continued")])
        platform.reboot()
        final = ChunkStore.open(platform)
        assert final.read_chunk(pid, 0) == b"continued"


class TestCounterModeWindows:
    def test_delta_ut_lag_commits_recoverable(self):
        """With Δut=5 the TR counter lags; commits in the lag window are
        still recovered (they are durable in the untrusted store)."""
        platform, store = build_store("counter", delta_ut=5)
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        for i in range(7):
            rank = store.allocate_chunk(pid)
            store.commit([ops.WriteChunk(pid, rank, f"v{i}".encode())])
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert len(reopened.data_ranks(pid)) == 7

    def test_tr_updates_amortized(self):
        platform, store = build_store("counter", delta_ut=5)
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        before = platform.counter.write_count
        for i in range(20):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        # roughly one TR write per Δut commits
        assert platform.counter.write_count - before <= 5

    def test_direct_mode_updates_tr_every_commit(self):
        platform, store = build_store("direct")
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        before = platform.tamper_resistant.write_count
        for i in range(10):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        assert platform.tamper_resistant.write_count - before == 10


class TestRepeatedCrashes:
    @pytest.mark.parametrize("mode", MODES)
    def test_crash_loop(self, mode):
        """Crash → recover → work → crash ... state never regresses."""
        platform, store, pid = prepared(mode)
        expected = b"stable"
        for round_no in range(6):
            new_value = f"round-{round_no}".encode()
            if round_no % 2 == 0:
                store.commit([ops.WriteChunk(pid, 0, new_value)])
                expected = new_value
            else:
                platform.injector.arm("commit.before_flush")
                with pytest.raises(CrashError):
                    store.commit([ops.WriteChunk(pid, 0, new_value)])
                platform.injector.disarm()
            platform.reboot()
            store = ChunkStore.open(platform)
            assert store.read_chunk(pid, 0) == expected


def descends(residual_segments):
    """Does the residual chain jump into a lower-numbered segment?"""
    return any(b < a for a, b in zip(residual_segments, residual_segments[1:]))


class TestResidualChainWraps:
    def test_direct_mode_reopens_after_the_log_wraps_into_a_lower_segment(self):
        """Once the cleaner frees a low-numbered segment the residual
        chain jumps *down* into it, putting the recorded tail at a lower
        address than the leader.  Addresses order the log only within one
        segment, so recovery must not read that as an overrun."""
        segments, chunks = 12, 100
        platform = make_platform(size=4096 + segments * 16 * 1024)
        store = ChunkStore.format(platform, make_config(validation_mode="direct"))
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        state = store.partitions[pid]
        model = {rank: bytes([rank]) * 600 for rank in range(chunks)}
        for base in range(0, chunks, 50):
            batch = range(base, base + 50)
            for rank in batch:
                state.allocate_specific(rank)
            store.commit([ops.WriteChunk(pid, r, model[r]) for r in batch])
        # The load filled the lowest segments; after this checkpoint every
        # overwrite kills a version there, so the first segments the
        # cleaner frees are low-numbered, empty ones — and the long
        # residual log (no further checkpoint) then jumps down into them.
        store.checkpoint()
        probes = 0
        for i in range(240):
            rank = i % chunks
            model[rank] = bytes([i % 251]) * 600
            store.commit([ops.WriteChunk(pid, rank, model[rank])])
            if not descends(store.segman.residual_segments):
                continue
            probes += 1
            # direct-mode recovery writes nothing, so a second instance
            # over the live image is a faithful reopen
            reopened = ChunkStore.open(platform)
            assert reopened.segman.residual_segments == store.segman.residual_segments
            assert reopened.read_chunk(pid, rank) == model[rank]
        assert probes > 0, "the scenario no longer wraps the residual chain"
        # checkpoints that release cleaned segments restart the chain, so
        # the last probe may predate the last overwrites
        reopened = ChunkStore.open(platform)
        for rank, data in model.items():
            assert reopened.read_chunk(pid, rank) == data
        assert reopened.quarantined_chunks() == {}
