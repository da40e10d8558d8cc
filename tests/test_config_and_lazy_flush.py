"""StoreConfig validation, and the lazy-flush / Δtu > 0 configuration
(§4.8.2.2: "the system might also allow t to leap ahead of u")."""

import json
import os

import pytest

from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.chunkstore.config import derive_key, mac_key, system_cipher_key
from tests.conftest import make_config, make_platform


class TestStoreConfig:
    def test_defaults_valid(self):
        StoreConfig()

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            StoreConfig(validation_mode="hope")

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            StoreConfig(fanout=1)

    def test_bad_segment_size(self):
        with pytest.raises(ValueError):
            StoreConfig(segment_size=100)

    def test_bad_delta_ut(self):
        with pytest.raises(ValueError):
            StoreConfig(delta_ut=0)

    def test_bad_delta_tu(self):
        with pytest.raises(ValueError):
            StoreConfig(delta_tu=-1)

    def test_reopen_with_mismatched_geometry_rejected(self):
        from repro.errors import ChunkStoreError

        platform = make_platform()
        store = ChunkStore.format(platform, make_config(segment_size=16 * 1024))
        store.close()
        with pytest.raises(ChunkStoreError):
            ChunkStore.open(platform, make_config(segment_size=32 * 1024))

    def test_reopen_without_config_uses_stored(self):
        platform = make_platform()
        store = ChunkStore.format(platform, make_config(fanout=8))
        store.close()
        reopened = ChunkStore.open(platform)
        assert reopened.config.fanout == 8


class TestKeyDerivation:
    def test_deterministic(self):
        secret = bytes(range(16))
        assert derive_key(secret, "label", 24) == derive_key(secret, "label", 24)

    def test_domain_separated(self):
        secret = bytes(range(16))
        assert derive_key(secret, "a", 16) != derive_key(secret, "b", 16)

    def test_secret_separated(self):
        assert derive_key(b"A" * 16, "l", 16) != derive_key(b"B" * 16, "l", 16)

    def test_lengths(self):
        secret = bytes(16)
        assert len(system_cipher_key(secret, "3des-cbc")) == 24
        assert len(system_cipher_key(secret, "des-cbc")) == 8
        assert len(mac_key(secret)) == 32


class TestLazyFlush:
    """flush_every_commit=False: the untrusted store is flushed lazily;
    the TR counter may lead the durable log by up to Δtu commits."""

    def build(self, delta_tu=2, delta_ut=3):
        platform = make_platform()
        store = ChunkStore.format(
            platform,
            make_config(
                flush_every_commit=False, delta_tu=delta_tu, delta_ut=delta_ut
            ),
        )
        pid = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(pid, 0, b"base"),
            ]
        )
        return platform, store, pid

    def test_fewer_flushes_than_commits(self):
        platform, store, pid = self.build()
        flushes_before = platform.untrusted.stats.flushes
        for i in range(12):
            store.commit([ops.WriteChunk(pid, 0, f"v{i}".encode())])
        assert (
            platform.untrusted.stats.flushes - flushes_before < 12
        ), "lazy mode must coalesce flushes"

    def test_crash_may_lose_recent_but_within_window(self):
        """Lazy flushing trades durability of the last few commits for
        latency — but recovery still validates within the Δtu window."""
        platform, store, pid = self.build()
        for i in range(10):
            store.commit([ops.WriteChunk(pid, 0, f"v{i}".encode())])
        platform.reboot()  # un-flushed commits vanish
        reopened = ChunkStore.open(platform)
        value = reopened.read_chunk(pid, 0)
        assert value == b"base" or value.startswith(b"v")

    def test_clean_close_loses_nothing(self):
        platform, store, pid = self.build()
        for i in range(10):
            store.commit([ops.WriteChunk(pid, 0, f"v{i}".encode())])
        store.close()  # checkpoint flushes everything
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, 0) == b"v9"

    def test_rollback_beyond_window_detected(self):
        from repro.errors import TamperDetectedError

        platform, store, pid = self.build(delta_tu=1, delta_ut=1)
        store.checkpoint()
        saved = platform.untrusted.tamper_image()
        for i in range(8):
            store.commit([ops.WriteChunk(pid, 0, f"v{i}".encode())])
        store.close(checkpoint=False)
        platform.untrusted.tamper_replay(saved)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)


class TestTrAdvanceCostsNoExtraFlush:
    """§4.8.2.2: the counter may lead the *durable* log by at most Δtu.  The
    commit's own flush already makes its commit chunk durable, so advancing
    the counter to it must not flush a second time."""

    COMMITS = 23
    DELTA_UT = 5

    def run(self, delta_tu, flush_every_commit):
        platform = make_platform()
        store = ChunkStore.format(
            platform,
            make_config(
                delta_ut=self.DELTA_UT,
                delta_tu=delta_tu,
                flush_every_commit=flush_every_commit,
            ),
        )
        pid = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(pid, 0, b"base"),
            ]
        )

        seen = {"appended": 0, "durable": 0, "advances": []}
        build, flush = store.validator.build_commit_record, platform.untrusted.flush
        advance_to = platform.counter.advance_to

        def spy_build():
            record = build()  # appended right after it is built
            seen["appended"] = record.count
            return record

        def spy_flush():
            flush()
            seen["durable"] = seen["appended"]

        def spy_advance_to(target):
            seen["advances"].append((target, seen["durable"]))
            advance_to(target)

        store.validator.build_commit_record = spy_build
        platform.untrusted.flush = spy_flush
        platform.counter.advance_to = spy_advance_to

        start = len(platform.injector.history)
        flushes = platform.untrusted.stats.flushes
        checkpoints = platform.injector.counts.get("checkpoint.end", 0)
        for i in range(self.COMMITS):
            store.commit([ops.WriteChunk(pid, 0, f"v{i}".encode())])
            if i == 11:
                store.checkpoint()
        return (
            seen["advances"],
            platform.untrusted.stats.flushes - flushes,
            platform.injector.counts["checkpoint.end"] - checkpoints,
            platform.injector.history[start:],
        )

    @pytest.mark.parametrize("delta_tu", [0, 2])
    @pytest.mark.parametrize("flush_every_commit", [True, False])
    def test_counter_never_leads_the_durable_log_beyond_delta_tu(
        self, delta_tu, flush_every_commit
    ):
        advances, flushes, checkpoints, _ = self.run(delta_tu, flush_every_commit)
        assert checkpoints == 1
        assert len(advances) >= self.COMMITS // self.DELTA_UT
        for target, durable in advances:
            assert target <= durable + delta_tu, (target, durable)
        # a checkpoint flushes twice: the log, then the superblock
        if flush_every_commit:
            assert flushes == self.COMMITS + 2 * checkpoints
        else:
            assert flushes <= len(advances) + 2 * checkpoints < self.COMMITS

    def test_crash_points_keep_their_order(self):
        _, _, _, history = self.run(delta_tu=0, flush_every_commit=True)
        points = [p for p in history if p.startswith("commit.")]
        per_commit = []
        for point in points:
            if point == "commit.begin":
                per_commit.append([])
            per_commit[-1].append(point)
        assert len(per_commit) == self.COMMITS
        with_tr = 0
        for sequence in per_commit:
            tail = sequence[sequence.index("commit.before_flush") :]
            assert tail in (
                ["commit.before_flush", "commit.after_flush"],
                ["commit.before_flush", "commit.after_flush", "commit.after_tr"],
            )
            with_tr += tail[-1] == "commit.after_tr"
        assert with_tr >= self.COMMITS // self.DELTA_UT


# -- golden crash-point history -------------------------------------------------

GOLDEN_HISTORY = os.path.join(
    os.path.dirname(__file__), "golden", "injector_history.json"
)


def scripted_history(mode, flush_every_commit):
    """``platform.injector.history`` of a fixed script: single and paired
    commits, an explicit checkpoint, threshold checkpoints, overwrites, a
    deallocation and a ``clean()`` that re-commits survivors."""
    platform = make_platform(size=1024 * 1024)
    store = ChunkStore.format(
        platform,
        make_config(
            validation_mode=mode,
            segment_size=8 * 1024,
            delta_ut=3,
            flush_every_commit=flush_every_commit,
            checkpoint_dirty_threshold=12,
        ),
    )
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
    state = store.partitions[pid]
    start = len(platform.injector.history)

    def write(*ranks):
        for rank in ranks:
            if not state.is_committed_written(rank):
                state.allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, r, bytes([r]) * 700) for r in ranks])

    for rank in range(5):
        write(rank)
    store.checkpoint()
    for rank in range(5, 25, 2):
        write(rank, rank + 1)
    for rank in range(12):
        write(rank)
    store.commit([ops.DeallocateChunk(pid, 24)])
    assert store.clean(max_segments=2) == 2
    write(0)
    return platform.injector.history[start:]


def by_operation(history):
    """One line per commit or checkpoint (a cleaner re-commit has no
    ``begin`` point and continues the line it runs inside); each device
    flush folds to ``flush(n)``, n being the writes it made durable."""
    lines = []
    partials = 0
    for point in history:
        if point == "untrusted.flush.begin":
            partials = 0
        elif point == "untrusted.flush.partial":
            partials += 1
        elif point == "untrusted.flush.end":
            lines[-1] += f" flush({partials})"
        elif point in ("commit.begin", "checkpoint.begin") or not lines:
            lines.append(point)
        else:
            lines[-1] += " " + point
    return lines


@pytest.mark.parametrize("flush_every_commit", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_injector_history_matches_golden(mode, flush_every_commit):
    """The crash sweep enumerates these points: their names, order and the
    number of device writes behind each flush are pinned to the history
    recorded before the write path moved into ``LogWriter``."""
    with open(GOLDEN_HISTORY, encoding="utf-8") as fh:
        golden = json.load(fh)
    key = f"{mode}-{'eager' if flush_every_commit else 'lazy'}"
    assert by_operation(scripted_history(mode, flush_every_commit)) == golden[key]
