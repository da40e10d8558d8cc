"""The simulated trusted platform: stores, crash semantics, attacker API."""

import tracemalloc

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.errors import CrashError
from repro.platform import (
    CrashInjector,
    DiskModel,
    FileArchivalStore,
    FileUntrustedStore,
    MemoryArchivalStore,
    MemoryUntrustedStore,
    NetworkModel,
    RemoteUntrustedStore,
    SecretStore,
    TamperResistantCounter,
    TamperResistantStore,
    TrustedPlatform,
)
from repro.testing.snapshot import PlatformSnapshot
from tests.conftest import make_config


class TestSecretStore:
    def test_generate_and_read(self):
        store = SecretStore.generate()
        assert len(store.read()) == SecretStore.SIZE
        assert store.read() == store.read()

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            SecretStore(b"short")


class TestTamperResistant:
    def test_store_roundtrip(self):
        tr = TamperResistantStore()
        tr.write(b"hash-and-tail")
        assert tr.read() == b"hash-and-tail"
        assert tr.write_count == 1

    def test_store_size_limit(self):
        tr = TamperResistantStore()
        with pytest.raises(ValueError):
            tr.write(b"x" * (TamperResistantStore.SIZE + 1))

    def test_counter_monotonic(self):
        counter = TamperResistantCounter()
        assert counter.increment() == 1
        counter.advance_to(10)
        assert counter.read() == 10

    def test_counter_cannot_decrement(self):
        counter = TamperResistantCounter(5)
        with pytest.raises(ValueError):
            counter.advance_to(4)

    def test_counter_advance_to_same_is_free(self):
        counter = TamperResistantCounter(5)
        counter.advance_to(5)
        assert counter.write_count == 0

    def test_counter_negative_initial(self):
        with pytest.raises(ValueError):
            TamperResistantCounter(-1)


class TestUntrustedStore:
    def test_write_read(self):
        store = MemoryUntrustedStore(1024)
        store.write(10, b"hello")
        assert store.read(10, 5) == b"hello"

    def test_out_of_range(self):
        store = MemoryUntrustedStore(100)
        with pytest.raises(ValueError):
            store.read(90, 20)
        with pytest.raises(ValueError):
            store.write(99, b"ab")

    def test_crash_reverts_unflushed(self):
        store = MemoryUntrustedStore(1024)
        store.write(0, b"durable")
        store.flush()
        store.write(0, b"lost!!!")
        store.simulate_crash()
        assert store.read(0, 7) == b"durable"

    def test_crash_after_flush_keeps_data(self):
        store = MemoryUntrustedStore(1024)
        store.write(0, b"data")
        store.flush()
        store.simulate_crash()
        assert store.read(0, 4) == b"data"

    def test_overlapping_writes_revert_in_order(self):
        store = MemoryUntrustedStore(64)
        store.write(0, b"AAAA")
        store.flush()
        store.write(0, b"BBBB")
        store.write(2, b"CC")
        store.simulate_crash()
        assert store.read(0, 4) == b"AAAA"

    def test_partial_flush_crash(self):
        injector = CrashInjector()
        store = MemoryUntrustedStore(1024, injector)
        store.write(0, b"first")
        store.write(100, b"second")
        injector.arm("untrusted.flush.partial", 1)
        with pytest.raises(CrashError):
            store.flush()
        store.simulate_crash()
        # the first write became durable, the second did not
        assert store.read(0, 5) == b"first"
        assert store.read(100, 6) == b"\x00" * 6

    def test_io_stats(self):
        store = MemoryUntrustedStore(1024)
        store.write(0, b"abc")
        store.read(0, 3)
        store.flush()
        assert store.stats.writes == 1
        assert store.stats.bytes_written == 3
        assert store.stats.reads == 1
        assert store.stats.flushes == 1

    def test_stats_delta(self):
        store = MemoryUntrustedStore(1024)
        store.write(0, b"abc")
        snap = store.stats.snapshot()
        store.write(3, b"de")
        delta = store.stats.delta(snap)
        assert delta.writes == 1 and delta.bytes_written == 2

    def test_every_tally_round_trips(self):
        """``snapshot``, ``delta`` and ``reset`` carry every field, so a
        new tally is declared once."""
        from dataclasses import fields

        from repro.platform.untrusted import IOStats

        names = [tally.name for tally in fields(IOStats)]
        stats = IOStats(**{name: 10 * (i + 1) for i, name in enumerate(names)})
        snap = stats.snapshot()
        assert snap == stats and snap is not stats
        for i, name in enumerate(names):
            setattr(stats, name, getattr(stats, name) + i + 1)
        assert stats.delta(snap) == IOStats(**{name: i + 1 for i, name in enumerate(names)})
        stats.reset()
        assert stats == IOStats()

    def test_tamper_api(self):
        store = MemoryUntrustedStore(1024)
        store.write(0, b"secret-ish")
        store.flush()
        assert store.tamper_read(0, 6) == b"secret"
        store.tamper_write(0, b"HACKED")
        assert store.read(0, 6) == b"HACKED"

    def test_replay(self):
        store = MemoryUntrustedStore(64)
        store.write(0, b"v1")
        store.flush()
        image = store.tamper_image()
        store.write(0, b"v2")
        store.flush()
        store.tamper_replay(image)
        assert store.read(0, 2) == b"v1"

    def test_replay_size_check(self):
        store = MemoryUntrustedStore(64)
        with pytest.raises(ValueError):
            store.tamper_replay(b"short")

    def test_read_many(self):
        store = MemoryUntrustedStore(64)
        store.write(0, b"ab")
        store.write(10, b"cd")
        assert store.read_many([(0, 2), (10, 2)]) == [b"ab", b"cd"]

    def test_file_backed(self, tmp_path):
        path = str(tmp_path / "store.bin")
        store = FileUntrustedStore(path, 4096)
        store.write(100, b"persists")
        store.flush()
        store.close()
        store2 = FileUntrustedStore(path, 4096)
        assert store2.read(100, 8) == b"persists"
        store2.close()


def _peak_per_byte(call):
    """Peak bytes traced while ``call`` runs, over the bytes it returns."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(result)


class TestOneCopy:
    """Every byte the device hands out costs one copy."""

    SIZE = 8 << 20

    def store(self):
        store = MemoryUntrustedStore(self.SIZE)
        store.write(self.SIZE // 2, b"marker")
        store.flush()
        return store

    def test_whole_image_capture_is_one_copy(self):
        store = self.store()
        assert _peak_per_byte(store.tamper_image) <= 1.05
        assert _peak_per_byte(store.durable_image) <= 1.05

    def test_large_read_is_one_copy(self):
        store = self.store()
        assert _peak_per_byte(lambda: store.read(self.SIZE // 4, self.SIZE // 2)) <= 1.05
        assert _peak_per_byte(lambda: store.read_many([(0, self.SIZE // 2)])[0]) <= 1.05

    def test_reads_are_independent_bytes(self):
        store = self.store()
        before = store.read(self.SIZE // 2, 6)
        store.write(self.SIZE // 2, b"MARKER")
        assert type(before) is bytes and before == b"marker"
        assert store.read(self.SIZE // 2, 6) == b"MARKER"


class TestDurableImage:
    """``durable_image`` is the device as a crash now would leave it."""

    def test_unflushed_write_absent_from_the_copy_only(self):
        platform = TrustedPlatform.create_in_memory(untrusted_size=64 * 1024)
        device = platform.untrusted
        device.write(8192, b"durable!")
        device.flush()
        device.write(8192, b"volatile")
        device.write(8196, b"tail")
        snapshot = PlatformSnapshot.capture(platform)
        assert snapshot.image[8192:8200] == b"durable!"
        assert device.tamper_read(8192, 8) == b"volatail"
        restored = snapshot.restore()
        restored.reboot()
        assert restored.untrusted.read(8192, 8) == b"durable!"
        # the live journal is untouched: a reboot still reverts the writes
        platform.reboot()
        assert device.read(8192, 8) == b"durable!"

    def test_flushed_capture_equals_the_live_image(self):
        platform = TrustedPlatform.create_in_memory(untrusted_size=64 * 1024)
        platform.untrusted.write(100, b"x" * 5000)
        platform.untrusted.flush()
        assert PlatformSnapshot.capture(platform).image == platform.untrusted.tamper_image()


class TestCrashInjector:
    def test_countdown(self):
        injector = CrashInjector()
        injector.arm("point", countdown=2)
        injector.point("point")
        injector.point("point")
        with pytest.raises(CrashError):
            injector.point("point")

    def test_other_points_unaffected(self):
        injector = CrashInjector()
        injector.arm("a")
        injector.point("b")
        with pytest.raises(CrashError):
            injector.point("a")

    def test_disarm(self):
        injector = CrashInjector()
        injector.arm("a")
        injector.disarm()
        injector.point("a")

    def test_counts(self):
        injector = CrashInjector()
        injector.point("x")
        injector.point("x")
        assert injector.counts == {"x": 2}

    def test_state_stays_bounded_over_many_commits(self):
        """Every commit passes about ten points; what the injector keeps
        is one entry per distinct point name, however many commits ran."""
        platform = TrustedPlatform.create_in_memory(untrusted_size=1 << 20)
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        rank = store.allocate_chunk(pid)
        for i in range(10_000):
            store.commit([ops.WriteChunk(pid, rank, b"%d" % i)])
        injector = platform.injector
        names = len(injector.counts)
        assert injector.counts["commit.begin"] >= 10_000
        held = {
            attr: len(value)
            for attr, value in vars(injector).items()
            if isinstance(value, (list, dict, set, tuple))
        }
        assert all(size <= names for size in held.values()), (names, held)


class TestArchival:
    @pytest.fixture(params=["memory", "file"])
    def archival(self, request, tmp_path):
        if request.param == "memory":
            return MemoryArchivalStore()
        return FileArchivalStore(str(tmp_path / "archive"))

    def test_stream_roundtrip(self, archival):
        writer = archival.create_stream("backup-1")
        writer.write(b"hello ")
        writer.write(b"world")
        archival.commit_stream("backup-1", writer)
        reader = archival.open_stream("backup-1")
        assert reader.read_exact(11) == b"hello world"
        assert reader.exhausted()

    def test_missing_stream(self, archival):
        with pytest.raises(KeyError):
            archival.open_stream("nope")

    def test_list_and_delete(self, archival):
        writer = archival.create_stream("s1")
        writer.write(b"x")
        archival.commit_stream("s1", writer)
        assert "s1" in archival.list_streams()
        archival.delete_stream("s1")
        assert "s1" not in archival.list_streams()

    def test_truncated_read(self, archival):
        writer = archival.create_stream("s")
        writer.write(b"ab")
        archival.commit_stream("s", writer)
        reader = archival.open_stream("s")
        with pytest.raises(ValueError):
            reader.read_exact(5)

    def test_tamper_stream(self, archival):
        writer = archival.create_stream("s")
        writer.write(b"aaaa")
        archival.commit_stream("s", writer)
        archival.tamper_stream("s", 1, b"XX")
        assert archival.open_stream("s").read_exact(4) == b"aXXa"


class TestDiskModel:
    def test_commit_formula(self):
        model = DiskModel(
            untrusted_flush_latency=0.01,
            untrusted_bandwidth=1e6,
            tamper_resistant_latency=0.005,
        )
        # l_u + bytes/b_u + l_t
        assert model.commit_io_time(1, 1_000_000, 1) == pytest.approx(1.015)

    def test_write_time_counts_flushes_and_bytes(self):
        from repro.platform.untrusted import IOStats

        model = DiskModel(untrusted_flush_latency=0.02, untrusted_bandwidth=2e6)
        stats = IOStats(flushes=3, bytes_written=4_000_000)
        assert model.write_time(stats) == pytest.approx(0.06 + 2.0)


class TestTrustedPlatform:
    def test_create_in_memory(self):
        platform = TrustedPlatform.create_in_memory(untrusted_size=1 << 20)
        assert platform.untrusted.size == 1 << 20
        assert len(platform.secret_store.read()) == 16

    def test_reboot_loses_unflushed(self):
        platform = TrustedPlatform.create_in_memory(untrusted_size=1 << 16)
        platform.untrusted.write(0, b"gone")
        platform.reboot()
        assert platform.untrusted.read(0, 4) == b"\x00" * 4


class TestRemoteStore:
    def test_round_trip_accounting(self):
        remote = RemoteUntrustedStore(MemoryUntrustedStore(1 << 20))
        remote.write(0, b"abc")
        remote.flush()
        remote.read(0, 3)
        assert remote.round_trips == 2  # flush batch + read

    def test_batched_reads_one_round_trip(self):
        remote = RemoteUntrustedStore(MemoryUntrustedStore(1 << 20))
        remote.write(0, b"aa")
        remote.write(100, b"bb")
        remote.flush()
        remote.stats.reset()
        results = remote.read_many([(0, 2), (100, 2)])
        assert results == [b"aa", b"bb"]
        assert remote.round_trips == 1

    def test_batching_saves_a_round_trip_per_extent(self):
        """§10: 50 writes ride their flush's one round trip; 100 reads cost
        100 one by one and 1 batched."""
        remote = RemoteUntrustedStore(MemoryUntrustedStore(4 << 20))
        for i in range(50):
            remote.write(i * 512, b"\x11" * 512)
        remote.flush()
        assert remote.round_trips == 1
        extents = [(i * 1024, 256) for i in range(100)]
        remote.stats.reset()
        for offset, size in extents:
            remote.read(offset, size)
        assert remote.round_trips == len(extents)
        remote.stats.reset()
        remote.read_many(extents)
        assert remote.round_trips == 1

    def test_chunk_store_runs_over_remote(self):
        """The whole stack works against a remote untrusted store."""
        injector = CrashInjector()
        remote = RemoteUntrustedStore(MemoryUntrustedStore(4 << 20, injector))
        platform = TrustedPlatform(
            secret_store=SecretStore.generate(),
            tamper_resistant=TamperResistantStore(),
            counter=TamperResistantCounter(),
            untrusted=remote,
            archival=MemoryArchivalStore(),
            injector=injector,
        )
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"over the network")])
        assert store.read_chunk(pid, rank) == b"over the network"
        assert remote.round_trips > 0
        # crash + recovery also works remotely
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, rank) == b"over the network"

    def test_network_model(self):
        model = NetworkModel(round_trip_latency=0.05, bandwidth=1e6)
        assert model.time(10, 1_000_000) == pytest.approx(0.5 + 1.0)
