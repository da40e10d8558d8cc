"""Backup store (§6): full/incremental creation, restore chains, set
completeness, signature/checksum validation, media-failure recovery."""

import pytest

from repro.backup import BackupStore
from repro.chunkstore import ChunkStore, ops
from repro.errors import (
    BackupError,
    BackupIntegrityError,
    BackupOrderingError,
    ChunkNotAllocatedError,
    ChunkStoreError,
    TamperDetectedError,
)
from tests.conftest import make_config, make_platform


@pytest.fixture
def env():
    platform = make_platform(size=8 * 1024 * 1024)
    store = ChunkStore.format(platform, make_config())
    backup = BackupStore(store)
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
    )
    for i in range(20):
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, f"orig-{i}".encode() * 4)])
    return platform, store, backup, pid


def fresh_db(platform):
    """A fresh database on a new untrusted store but the same secret
    store and archival store (the media-failure recovery scenario)."""
    from repro.platform import TrustedPlatform

    replacement = TrustedPlatform.create_in_memory(
        untrusted_size=8 * 1024 * 1024, secret=platform.secret_store.read()
    )
    replacement.archival = platform.archival
    store = ChunkStore.format(replacement, make_config())
    return replacement, store, BackupStore(store)


class TestCreation:
    def test_full_backup_then_incremental(self, env):
        platform, store, backup, pid = env
        info1 = backup.create_backup([pid], "b1")
        assert info1.incremental[pid] is False
        store.commit([ops.WriteChunk(pid, 0, b"changed")])
        info2 = backup.create_backup([pid], "b2")
        assert info2.incremental[pid] is True
        assert info2.bytes_written < info1.bytes_written

    def test_incremental_size_proportional_to_change(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "base")
        store.commit([ops.WriteChunk(pid, 0, b"x")])
        small = backup.create_backup([pid], "small")
        for rank in range(10):
            store.commit([ops.WriteChunk(pid, rank, b"y")])
        large = backup.create_backup([pid], "large")
        assert small.bytes_written < large.bytes_written

    def test_backup_does_not_disturb_source(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        assert store.read_chunk(pid, 3) == b"orig-3" * 4

    def test_multi_partition_set(self, env):
        platform, store, backup, pid = env
        pid2 = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid2, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(pid2, 0, b"second partition"),
            ]
        )
        info = backup.create_backup([pid, pid2], "multi")
        assert set(info.partitions) == {pid, pid2}

    def test_empty_partition_list_rejected(self, env):
        _, _, backup, _ = env
        with pytest.raises(BackupError):
            backup.create_backup([], "nope")

    def test_source_mutation_during_streaming_not_included(self, env):
        """The snapshot is the consistency point (§6.1): data written
        after the snapshot commit is absent from the backup."""
        platform, store, backup, pid = env
        info = backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"post-snapshot")])
        p2, store2, backup2 = fresh_db(platform)
        backup2.restore(["b1"])
        assert store2.read_chunk(pid, 0) == b"orig-0" * 4


class TestRestore:
    def test_full_restore_into_fresh_db(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        _, store2, backup2 = fresh_db(platform)
        restored = backup2.restore(["b1"])
        assert restored == [pid]
        for i in range(20):
            assert store2.read_chunk(pid, i) == f"orig-{i}".encode() * 4

    def test_incremental_chain_restore(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"v2")])
        backup.create_backup([pid], "b2")
        store.commit([ops.WriteChunk(pid, 1, b"v3")])
        new_rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, new_rank, b"brand new")])
        store.commit([ops.DeallocateChunk(pid, 5)])
        backup.create_backup([pid], "b3")
        _, store2, backup2 = fresh_db(platform)
        backup2.restore(["b1", "b2", "b3"])
        assert store2.read_chunk(pid, 0) == b"v2"
        assert store2.read_chunk(pid, 1) == b"v3"
        assert store2.read_chunk(pid, new_rank) == b"brand new"
        with pytest.raises(ChunkNotAllocatedError):
            store2.read_chunk(pid, 5)

    def test_restored_db_survives_reopen(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        p2, store2, backup2 = fresh_db(platform)
        backup2.restore(["b1"])
        store2.close()
        p2.reboot()
        reopened = ChunkStore.open(p2)
        assert reopened.read_chunk(pid, 7) == b"orig-7" * 4

    def test_restore_into_live_db_replaces_partition(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"newer than the backup")])
        backup.restore(["b1"])
        assert store.read_chunk(pid, 0) == b"orig-0" * 4

    def test_restore_approval_denied(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        with pytest.raises(BackupError):
            backup.restore(["b1"], approve=lambda descs: False)

    def test_restore_approval_sees_descriptors(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        seen = []
        backup.restore(["b1"], approve=lambda descs: seen.append(descs) or True)
        assert seen[0][0].source_pid == pid


class TestOrdering:
    def test_incremental_without_full_rejected(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"v2")])
        backup.create_backup([pid], "b2")
        _, _, backup2 = fresh_db(platform)
        with pytest.raises(BackupOrderingError):
            backup2.restore(["b2"])

    def test_skipping_a_link_rejected(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"v2")])
        backup.create_backup([pid], "b2")
        store.commit([ops.WriteChunk(pid, 0, b"v3")])
        backup.create_backup([pid], "b3")
        _, _, backup2 = fresh_db(platform)
        with pytest.raises(BackupOrderingError):
            backup2.restore(["b1", "b3"])  # b2 missing

    def test_replaying_same_incremental_rejected(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        store.commit([ops.WriteChunk(pid, 0, b"v2")])
        backup.create_backup([pid], "b2")
        _, _, backup2 = fresh_db(platform)
        backup2.restore(["b1", "b2"])
        with pytest.raises(BackupOrderingError):
            backup2.restore(["b2"])


class TestIntegrity:
    def test_tampered_stream_rejected(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        platform.archival.tamper_stream("b1", 200, b"\xff\xff")
        _, _, backup2 = fresh_db(platform)
        with pytest.raises(BackupIntegrityError):
            backup2.restore(["b1"])

    def test_truncated_stream_rejected(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        data = platform.archival.open_stream("b1")
        truncated = data.read(data.remaining - 10)
        writer = platform.archival.create_stream("b1")
        writer.write(truncated)
        platform.archival.commit_stream("b1", writer)
        _, _, backup2 = fresh_db(platform)
        with pytest.raises((BackupIntegrityError, BackupError, ValueError)):
            backup2.restore(["b1"])

    def test_backup_stream_does_not_leak_plaintext(self, env):
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        stream = platform.archival.open_stream("b1")
        raw = stream.read(stream.remaining)
        assert b"orig-0" not in raw

    def test_wrong_secret_cannot_restore(self, env):
        """A backup is only restorable on a platform holding the same
        secret (cipher-link from the secret store, §6.2)."""
        platform, store, backup, pid = env
        backup.create_backup([pid], "b1")
        from repro.platform import TrustedPlatform

        other = TrustedPlatform.create_in_memory(untrusted_size=8 * 1024 * 1024)
        other.archival = platform.archival
        store2 = ChunkStore.format(other, make_config())
        backup2 = BackupStore(store2)
        with pytest.raises((BackupIntegrityError, TamperDetectedError)):
            backup2.restore(["b1"])


class TestClock:
    def test_created_at_uses_the_platform_clock(self):
        """Regression: ``created_at`` must come from the injectable
        platform clock, not ``time.time()``, so tests (and any trusted
        program with its own time source) control backup timestamps."""
        from repro.platform.clock import FakeClock

        clock = FakeClock(start=1234.5)
        platform = make_platform(size=8 * 1024 * 1024, clock=clock)
        store = ChunkStore.format(platform, make_config())
        backup = BackupStore(store)
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"timed" * 4)])
        backup.create_backup([pid], "clocked")

        clock.advance(100.0)
        seen = []

        def approve(descriptors):
            seen.extend(d.created_at for d in descriptors)
            return False

        with pytest.raises(BackupError):
            backup.restore(["clocked"], approve=approve)
        assert seen == [1234.5]


class TestFailedRestore:
    def test_a_failed_restore_records_no_chain_link(self, env):
        """A restore whose commit raises leaves ``restore_history`` as it
        was, in memory and after a reopen: the next incremental restore of
        that chain is refused, and the live partition keeps its bytes."""
        from repro.platform import TrustedPlatform

        platform, store, backup, pid = env
        # another store on the same secret and archive, with segments wide
        # enough for a 40,000-byte chunk that the live store's 16 KiB
        # segments cannot hold
        other = TrustedPlatform.create_in_memory(
            untrusted_size=8 * 1024 * 1024, secret=platform.secret_store.read()
        )
        other.archival = platform.archival
        source = ChunkStore.format(other, make_config(segment_size=64 * 1024))
        source_backup = BackupStore(source)
        assert source.allocate_partition() == pid
        source.commit([
            ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1"),
            ops.WriteChunk(pid, 0, b"big" * 13_334),
        ])
        source_backup.create_backup([pid], "big-full")
        source.commit([ops.WriteChunk(pid, 0, b"v2" * 8)])
        source_backup.create_backup([pid], "big-incr")

        history = dict(backup._extras().restore_history)
        with pytest.raises(ChunkStoreError):  # the chunk fits no segment
            backup.restore(["big-full"])
        assert backup._extras().restore_history == history
        store.close()
        platform.reboot()
        reopened = ChunkStore.open(platform, make_config())
        reopened_backup = BackupStore(reopened)
        assert reopened_backup._extras().restore_history == history
        with pytest.raises(BackupOrderingError):
            reopened_backup.restore(["big-incr"])
        for rank in range(20):
            assert reopened.read_chunk(pid, rank) == f"orig-{rank}".encode() * 4
