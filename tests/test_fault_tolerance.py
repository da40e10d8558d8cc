"""Integration tests for transient-fault tolerance: retries absorbing
transient faults, quarantine isolating permanent damage, remote flush
replay, and online scrub-and-repair from backups (the ISSUE's acceptance
demo lives in ``test_quarantine_then_scrub_repair_from_backup``)."""

import pytest

from repro.backup.store import BackupStore
from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.ids import data_id
from repro.errors import (
    QuarantineError,
    RemoteTimeoutError,
    TamperDetectedError,
)
from repro.platform import (
    FakeClock,
    FaultConfig,
    FaultInjector,
    MemoryUntrustedStore,
    RemoteUntrustedStore,
)
from repro.testing.faultsweep import fault_config

from tests.conftest import make_config, make_platform


def _faulted_store(config=None, seed=0, **store_overrides):
    faults = FaultInjector(config or FaultConfig(), seed=seed)
    faults.enabled = False  # enable per-test once the store is provisioned
    platform = make_platform(faults=faults, clock=FakeClock())
    store = ChunkStore.format(platform, make_config(**store_overrides))
    return platform, store, faults


def _populate(store, partitions=2, ranks=3):
    pids = []
    for _ in range(partitions):
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256")])
        for rank in range(ranks):
            store.partitions[pid].allocate_specific(rank)
            store.commit(
                [ops.WriteChunk(pid, rank, f"p{pid}r{rank}:".encode() * 8)]
            )
        pids.append(pid)
    return pids


def _extent(store, pid, rank):
    descriptor = store._get_descriptor(data_id(pid, rank))
    return descriptor.location, descriptor.length


# ---------------------------------------------------------------------------
# retries absorb transient faults
# ---------------------------------------------------------------------------


def test_transient_faults_are_healed_by_retry():
    platform, store, faults = _faulted_store(
        FaultConfig(read_error_rate=0.2, write_error_rate=0.2,
                    flush_error_rate=0.2)
    )
    pids = _populate(store)
    faults.enabled = True
    # a workload big enough that 20% rates certainly inject faults, all of
    # which four retry attempts absorb with overwhelming probability
    for round_trip in range(10):
        for pid in pids:
            for rank in range(3):
                value = f"v{round_trip}p{pid}r{rank}:".encode() * 8
                store.commit([ops.WriteChunk(pid, rank, value)])
                assert store.read_chunk(pid, rank) == value
                with store.open_snapshot_view(pid) as view:
                    assert view.read_chunk(rank) == value
    faults.enabled = False
    stats = store.stats()
    assert stats["untrusted"]["io_errors"] > 0
    assert stats["untrusted"]["retries"] > 0
    assert stats["untrusted"]["gave_up"] == 0
    assert stats["faults"]["quarantine_active"] == 0


def test_view_reads_retry_like_locked_reads():
    """Regression: a view read ``untrusted.read`` directly, so under 20%
    transient read faults 42 of 200 cold view reads failed with a raw
    ``TransientIOError`` while the locked path served all 200."""
    platform, store, faults = _faulted_store(FaultConfig(read_error_rate=0.2))
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256")])
    values = {rank: f"r{rank}:".encode() * 8 for rank in range(200)}
    for rank in values:
        store.partitions[pid].allocate_specific(rank)
    store.commit([ops.WriteChunk(pid, r, v) for r, v in values.items()])
    store.checkpoint()
    store.cache.clear()  # cold: the view walks the map on the device too
    retries = platform.untrusted.stats.retries
    faults.enabled = True
    with store.open_snapshot_view(pid) as view:
        assert {rank: view.read_chunk(rank) for rank in values} == values
    faults.enabled = False
    assert platform.untrusted.stats.retries > retries
    assert platform.untrusted.stats.gave_up == 0


# ---------------------------------------------------------------------------
# quarantine isolates permanent damage (degraded-mode reads)
# ---------------------------------------------------------------------------


def test_quarantine_isolates_damage_to_one_chunk():
    # payload cache off: the test re-reads chunks it already read, and a
    # warm cache would (correctly) never re-hit the dead extent
    platform, store, faults = _faulted_store(payload_cache_bytes=0)
    healthy_pid, hurt_pid = _populate(store)
    before = {
        (pid, rank): store.read_chunk(pid, rank)
        for pid in (healthy_pid, hurt_pid)
        for rank in range(3)
    }
    faults.mark_bad(*_extent(store, hurt_pid, 1))

    # a snapshot view quarantines the dead extent in its own table (it
    # holds no lock, so never the store's) and serves everything else
    with store.open_snapshot_view(hurt_pid) as view:
        for _ in range(2):  # the second read short-circuits
            with pytest.raises(QuarantineError) as excinfo:
                view.read_chunk(1)
            assert excinfo.value.cause == "io"
        assert view.read_chunks([0, 2]) == {
            rank: before[hurt_pid, rank] for rank in (0, 2)
        }
    assert store.quarantined_chunks() == {}
    assert store.stats()["faults"]["quarantined"] == 0

    with pytest.raises(QuarantineError) as excinfo:
        store.read_chunk(hurt_pid, 1)
    assert excinfo.value.cause == "io"
    # the quarantine short-circuits instead of re-hitting the dead extent
    with pytest.raises(QuarantineError):
        store.read_chunk(hurt_pid, 1)
    assert store.quarantined_chunks() == {f"{hurt_pid}:0.1": "io"}

    # unrelated chunks — same and other partitions — stay readable, and
    # commits to healthy chunks still succeed
    for (pid, rank), value in before.items():
        if (pid, rank) == (hurt_pid, 1):
            continue
        assert store.read_chunk(pid, rank) == value
    store.commit([ops.WriteChunk(healthy_pid, 0, b"still-alive " * 8)])
    assert store.read_chunk(healthy_pid, 0) == b"still-alive " * 8
    assert store.stats()["faults"]["quarantined"] == 1


def test_exhausted_retries_quarantine_instead_of_poisoning():
    platform, store, faults = _faulted_store(
        FaultConfig(read_error_rate=1.0)  # every read fails, transiently
    )
    (pid, _) = _populate(store)
    faults.enabled = True
    with pytest.raises(QuarantineError):
        store.read_chunk(pid, 0)
    view = store.open_snapshot_view(pid)
    with pytest.raises(QuarantineError):
        view.read_chunk(1)
    faults.enabled = False
    # a view's quarantine dies with it: a fresh one reads the healed device
    view.close()
    with store.open_snapshot_view(pid) as fresh:
        assert fresh.read_chunk(1) == b"p1r1:" * 8
    stats = store.stats()
    assert stats["untrusted"]["gave_up"] >= 1
    # the device healed: scrub gives the quarantined extent fresh retries
    report = store.scrub(raise_on_first=False)
    assert report["unrepaired"] == []
    assert store.read_chunk(pid, 0) == b"p1r0:" * 8
    assert store.quarantined_chunks() == {}


# ---------------------------------------------------------------------------
# remote store: a timed-out flush leaves its writes replayable
# ---------------------------------------------------------------------------


def _remote_with_two_writes(size=8192):
    """A remote store holding two un-flushed writes, whose next flush
    round trip times out; also the image both writes make."""
    faults = FaultInjector(FaultConfig(timeout_rate=1.0), seed=0)
    faults.enabled = False
    remote = RemoteUntrustedStore(MemoryUntrustedStore(size, None, faults))
    remote.write(100, b"alpha")
    remote.write(500, b"beta")
    written = bytearray(size)
    written[100:105] = b"alpha"
    written[500:504] = b"beta"
    faults.enabled = True
    return remote, faults, bytes(written)


def test_remote_flush_fault_leaves_queue_replayable():
    """A timed-out flush makes neither write durable, though both are on
    the device; the next flush makes both durable."""
    remote, faults, written = _remote_with_two_writes()
    with pytest.raises(RemoteTimeoutError):
        remote.flush()
    assert remote.durable_image() == bytes(remote.size)
    assert remote.tamper_image() == written

    faults.enabled = False
    remote.flush()  # replay succeeds
    assert remote.durable_image() == written
    remote.simulate_crash()  # nothing un-flushed is left to lose
    assert remote.tamper_image() == written


def test_remote_flush_fault_then_crash_loses_both_writes():
    remote, faults, _ = _remote_with_two_writes()
    with pytest.raises(RemoteTimeoutError):
        remote.flush()
    remote.simulate_crash()
    assert remote.tamper_image() == bytes(remote.size)
    faults.enabled = False
    remote.flush()  # nothing to replay: the crash took both writes
    assert remote.durable_image() == bytes(remote.size)


def test_remote_partial_response_fails_whole_batch():
    from repro.errors import PartialResponseError

    faults = FaultInjector(FaultConfig(partial_response_rate=1.0), seed=2)
    remote = RemoteUntrustedStore(MemoryUntrustedStore(8192, None, faults))
    faults.enabled = False
    remote.write(0, b"aa")
    remote.write(10, b"bb")
    remote.flush()
    faults.enabled = True
    with pytest.raises(PartialResponseError):
        remote.read_many([(0, 2), (10, 2)])
    faults.enabled = False
    assert remote.read_many([(0, 2), (10, 2)]) == [b"aa", b"bb"]


# ---------------------------------------------------------------------------
# scrub reporting and repair (satellite: raise_on_first=False coverage)
# ---------------------------------------------------------------------------


def test_scrub_reports_damage_across_partitions():
    platform, store, faults = _faulted_store()
    pid_a, pid_b = _populate(store)
    store.checkpoint()
    # partition A: tampered bytes; partition B: a dead extent
    loc_a, len_a = _extent(store, pid_a, 0)
    body = platform.untrusted.tamper_read(loc_a, len_a)
    platform.untrusted.tamper_write(loc_a, bytes(b ^ 0xFF for b in body))
    faults.mark_bad(*_extent(store, pid_b, 2))

    with pytest.raises(TamperDetectedError):
        store.scrub()  # raise_on_first=True still fails fast

    report = store.scrub(raise_on_first=False)
    assert f"{pid_a}:0.0" in report["corrupt"]
    assert f"{pid_b}:0.2" in report["unreadable"]
    # no repair source: both stay unrepaired and quarantined for later
    assert set(report["unrepaired"]) == {f"{pid_a}:0.0", f"{pid_b}:0.2"}
    assert report["repaired"] == []
    assert store.quarantined_chunks() == {
        f"{pid_a}:0.0": "tamper",
        f"{pid_b}:0.2": "io",
    }
    # healthy chunks kept validating
    assert report["chunks_validated"] > 0


def test_quarantine_then_scrub_repair_from_backup():
    """The ISSUE's acceptance demo: back up, damage extents, watch reads
    quarantine, scrub-and-repair from the backup, then read everything
    back byte-identical."""
    platform, store, faults = _faulted_store(payload_cache_bytes=0)
    pids = _populate(store, partitions=3)
    expected = {
        (pid, rank): store.read_chunk(pid, rank)
        for pid in pids
        for rank in range(3)
    }
    backup = BackupStore(store)
    info = backup.create_backup(pids, "nightly", incremental=False)
    # retire the consistent-snapshot partitions: they share the soon-to-be
    # damaged versions copy-on-write, and this demo repairs sources only
    store.commit(
        [ops.DeallocatePartition(s) for s in info.snapshot_pids.values()]
    )
    store.checkpoint()

    # media damage on two partitions' extents
    faults.mark_bad(*_extent(store, pids[0], 1))
    faults.mark_bad(*_extent(store, pids[2], 0))
    with pytest.raises(QuarantineError):
        store.read_chunk(pids[0], 1)
    with pytest.raises(QuarantineError):
        store.read_chunk(pids[2], 0)

    report = store.scrub(
        raise_on_first=False,
        repair_source=backup.repair_source(["nightly"]),
    )
    assert set(report["repaired"]) == {
        f"{pids[0]}:0.1",
        f"{pids[2]}:0.0",
    }
    assert report["unrepaired"] == []
    assert store.quarantined_chunks() == {}
    # every chunk — repaired and untouched alike — reads byte-identical
    for (pid, rank), value in expected.items():
        assert store.read_chunk(pid, rank) == value
    # and the repairs are durable across a crash + reopen
    platform.reboot()
    store = ChunkStore.open(platform)
    for (pid, rank), value in expected.items():
        assert store.read_chunk(pid, rank) == value


def test_scrub_refuses_stale_backup_bytes():
    platform, store, faults = _faulted_store()
    (pid, _) = _populate(store)
    backup = BackupStore(store)
    backup.create_backup([pid], "old", incremental=False)
    # the chunk moves on after the backup...
    store.commit([ops.WriteChunk(pid, 0, b"newer-truth " * 8)])
    store.checkpoint()
    # ...then its current version dies
    faults.mark_bad(*_extent(store, pid, 0))
    report = store.scrub(
        raise_on_first=False, repair_source=backup.repair_source(["old"])
    )
    # the stale candidate hashes differently from the committed descriptor:
    # refused, never silently rolled back
    assert f"{pid}:0.0" in report["unrepaired"]
    assert report["repaired"] == []
    with pytest.raises(QuarantineError):
        store.read_chunk(pid, 0)


def test_sweep_cell_configs_cover_every_point():
    for point in ("read", "write", "flush", "mixed", "remote"):
        config = fault_config(point, 0.05)
        assert isinstance(config, FaultConfig)
    with pytest.raises(ValueError):
        fault_config("nonsense", 0.05)
