"""Log cleaning (§4.9.5, §5.5): reclamation, copy-awareness, laundering
resistance, crash interplay."""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cleaner import Cleaner
from repro.chunkstore.ids import data_id
from repro.errors import ChunkStoreError, PermanentIOError, TamperDetectedError
from tests.conftest import make_config, make_platform


def churned_store(segment_size=16 * 1024, size=1024 * 1024, rounds=30, **overrides):
    platform = make_platform(size=size)
    store = ChunkStore.format(
        platform, make_config(segment_size=segment_size, delta_ut=5, **overrides)
    )
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    ranks = [store.allocate_chunk(pid) for _ in range(10)]
    store.commit([ops.WriteChunk(pid, r, bytes(400)) for r in ranks])
    for round_no in range(rounds):
        for rank in ranks:
            store.commit(
                [ops.WriteChunk(pid, rank, bytes([round_no % 251]) * 400)]
            )
    return platform, store, pid, ranks


class TestCleaning:
    def test_cleaning_reclaims_space(self):
        platform, store, pid, ranks = churned_store()
        before = store.stored_bytes()
        cleaned = store.clean(max_segments=100)
        assert cleaned > 0
        assert store.stored_bytes() < before // 2

    def test_data_intact_after_cleaning(self):
        platform, store, pid, ranks = churned_store()
        expected = {r: store.read_chunk(pid, r) for r in ranks}
        store.clean(max_segments=100)
        for rank, value in expected.items():
            assert store.read_chunk(pid, rank) == value

    def test_cleaned_store_recovers(self):
        platform, store, pid, ranks = churned_store()
        expected = {r: store.read_chunk(pid, r) for r in ranks}
        store.clean(max_segments=100)
        platform.reboot()
        reopened = ChunkStore.open(platform)
        for rank, value in expected.items():
            assert reopened.read_chunk(pid, rank) == value

    def test_cleaner_never_cleans_residual_segments(self):
        platform, store, pid, ranks = churned_store()
        store.checkpoint()
        residual = set(store.segman.residual_segments)
        cleaner = Cleaner(store)
        while cleaner.clean_one() is not None:
            pass
        assert residual & set(store.segman.residual_segments) == residual

    def test_cleaner_preserves_snapshot_only_versions(self):
        """A version obsolete in the source but current in a snapshot must
        be preserved by cleaning (§5.5)."""
        platform, store, pid, ranks = churned_store(rounds=5)
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        snap_values = {r: store.read_chunk(snap, r) for r in ranks}
        # churn the source so the snapshot's versions become source-obsolete
        for round_no in range(20):
            for rank in ranks:
                store.commit([ops.WriteChunk(pid, rank, b"new" * 100)])
        store.clean(max_segments=100)
        for rank, value in snap_values.items():
            assert store.read_chunk(snap, rank) == value
        platform.reboot()
        reopened = ChunkStore.open(platform)
        for rank, value in snap_values.items():
            assert reopened.read_chunk(snap, rank) == value

    def test_cleaner_does_not_launder_tampered_chunks(self):
        """The cleaner validates before rewriting (§4.9.5): a tampered
        current version must raise, not get re-hashed into validity."""
        platform, store, pid, ranks = churned_store(rounds=3)
        store.checkpoint()
        descriptor = store._get_descriptor(data_id(pid, ranks[0]))
        offset = descriptor.location + descriptor.length - 2
        byte = platform.untrusted.tamper_read(offset, 1)
        platform.untrusted.tamper_write(offset, bytes([byte[0] ^ 1]))
        store.cache.clear()
        with pytest.raises(TamperDetectedError):
            # clean everything; the segment holding the tampered current
            # version must trip validation
            while store.clean(max_segments=1):
                pass

    def test_cleaning_stats(self):
        platform, store, pid, ranks = churned_store()
        store.checkpoint()
        cleaner = Cleaner(store)
        cleaner.clean_one()
        assert cleaner.cleaned_segments == 1

    def test_utilization_estimates_bounded(self):
        platform, store, pid, ranks = churned_store(rounds=10)
        for segment in range(store.segman.segment_count):
            assert (
                store.segman.live_bytes[segment]
                <= store.segman.used_bytes[segment]
                <= store.config.segment_size
            )

    def test_cleaning_empty_store_is_noop(self, store):
        assert store.clean() == 0


class TestCleanerCrashes:
    def test_crash_during_cleaning_commit(self):
        from repro.errors import CrashError

        platform, store, pid, ranks = churned_store()
        expected = {r: store.read_chunk(pid, r) for r in ranks}
        store.checkpoint()
        platform.injector.arm("commit.before_flush")
        with pytest.raises(CrashError):
            store.clean(max_segments=100)
        platform.injector.disarm()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        for rank, value in expected.items():
            assert reopened.read_chunk(pid, rank) == value

    def test_crash_after_cleaning_commit(self):
        from repro.errors import CrashError

        platform, store, pid, ranks = churned_store()
        expected = {r: store.read_chunk(pid, r) for r in ranks}
        store.checkpoint()
        # crash right after a cleaning commit has become durable
        platform.injector.arm("commit.after_flush", countdown=0)
        with pytest.raises(CrashError):
            store.clean(max_segments=100)
        platform.injector.disarm()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        for rank, value in expected.items():
            assert reopened.read_chunk(pid, rank) == value
        # and the store keeps working
        reopened.commit([ops.WriteChunk(pid, ranks[0], b"post-crash")])
        assert reopened.read_chunk(pid, ranks[0]) == b"post-crash"


@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_a_write_fault_in_the_recommit_fails_the_store(mode, monkeypatch):
    """The device refuses the write that seals the re-commit's span at a
    segment jump.  The store is failed, as by any other commit that
    raises: the next commit is refused, and the reopened store reads every
    acknowledged commit.  (The re-commit used to install its versions as
    it appended them, outside any failure guard: the store kept serving,
    and in counter mode the next acknowledged commit was lost — the
    reopen refused the log as truncated.)"""
    platform = make_platform(size=128 * 1024)
    store = ChunkStore.format(
        platform, make_config(validation_mode=mode, segment_size=4096)
    )
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    ranks = [store.allocate_chunk(pid) for _ in range(12)]
    for round_no, group in enumerate((ranks, ranks[:6])):  # six obsolete
        for rank in group:
            store.commit([ops.WriteChunk(pid, rank, bytes([rank, round_no]) * 152)])
    store.checkpoint()
    # fill the tail so that the re-commit chains into a fresh segment
    filler = store.allocate_chunk(pid)
    for fill in range(11):
        store.commit([ops.WriteChunk(pid, filler, bytes([fill]) * 200)])
    acknowledged = store.read_chunks(pid, ranks + [filler])

    device = platform.untrusted
    in_recommit, jumped = [], []
    real_write, real_rewrite = device.write, Cleaner._rewrite
    real_jump = store.writer._chain_jump

    def write(offset, data):
        if in_recommit and jumped:
            in_recommit.clear()
            raise PermanentIOError("write: device gone")
        real_write(offset, data)

    def rewrite(self, *args):
        in_recommit.append(True)
        real_rewrite(self, *args)

    def chain_jump(segment):
        jumped.append(bool(in_recommit))
        real_jump(segment)

    monkeypatch.setattr(device, "write", write)
    monkeypatch.setattr(Cleaner, "_rewrite", rewrite)
    monkeypatch.setattr(store.writer, "_chain_jump", chain_jump)
    with pytest.raises(PermanentIOError):
        store.clean()
    assert jumped == [True] and not in_recommit  # the fault hit the jump's seal
    assert store._failed
    with pytest.raises(ChunkStoreError, match="failed state"):
        store.commit([ops.WriteChunk(pid, ranks[0], b"next")])

    monkeypatch.undo()
    device.simulate_crash()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunks(pid, ranks + [filler]) == acknowledged
