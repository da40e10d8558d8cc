"""Tests for the §10 extensions: trusted paging, remote storage with
batching, and steal (spill) buffer management."""

import pytest

from repro.chunkstore import ChunkStore
from repro.errors import TamperDetectedError
from repro.extensions import (
    NetworkModel,
    RemoteUntrustedStore,
    SpillingObjectStore,
    TrustedPager,
)
from repro.platform import MemoryUntrustedStore, TrustedPlatform
from tests.conftest import make_config, make_platform


class TestTrustedPaging:
    def build(self):
        platform = make_platform(size=8 * 1024 * 1024)
        chunks = ChunkStore.format(platform, make_config())
        pager = TrustedPager(chunks, page_size=1024, frames=4)
        return platform, chunks, pager

    def test_zero_fill_on_first_touch(self):
        _, _, pager = self.build()
        assert pager.read(5) == bytes(1024)

    def test_write_read_within_working_set(self):
        _, _, pager = self.build()
        pager.write(0, 100, b"hello")
        assert pager.read(0, 100, 5) == b"hello"

    def test_eviction_roundtrip(self):
        """Pages evicted past the frame limit come back intact."""
        _, _, pager = self.build()
        for page in range(10):
            pager.write(page, 0, f"page-{page}".encode())
        assert pager.resident_pages <= 4
        assert pager.evictions > 0
        for page in range(10):
            assert pager.read(page, 0, 7).startswith(f"page-{page}".encode()[:6])

    def test_faults_counted(self):
        _, _, pager = self.build()
        for page in range(8):
            pager.write(page, 0, b"x")
        before = pager.faults
        pager.read(0)  # long evicted
        assert pager.faults == before + 1

    def test_pages_encrypted_on_untrusted_store(self):
        platform, chunks, pager = self.build()
        pager.write(0, 0, b"TOPSECRET-PAGE-CONTENT")
        pager.sync()
        assert b"TOPSECRET-PAGE-CONTENT" not in platform.untrusted.tamper_image()

    def test_tampered_page_detected_at_fault(self):
        platform, chunks, pager = self.build()
        pager.write(0, 0, b"sensitive")
        # force it out and locate its chunk
        for page in range(1, 9):
            pager.write(page, 0, b"filler")
        pager.sync()
        from repro.chunkstore.ids import data_id

        descriptor = chunks._get_descriptor(data_id(pager.partition, 0))
        middle = descriptor.location + descriptor.length // 2
        byte = platform.untrusted.tamper_read(middle, 1)
        platform.untrusted.tamper_write(middle, bytes([byte[0] ^ 1]))
        chunks.cache.clear()
        # page 0 must be non-resident for the fault to hit storage
        if 0 not in pager._resident:
            with pytest.raises(TamperDetectedError):
                pager.read(0)

    def test_boundary_write_rejected(self):
        _, _, pager = self.build()
        with pytest.raises(ValueError):
            pager.write(0, 1020, b"too long")

    def test_discard_all(self):
        _, chunks, pager = self.build()
        pager.write(0, 0, b"x")
        pager.sync()
        pager.discard_all()
        assert not chunks.partition_exists(pager.partition)


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
        remote.reset_accounting()
        results = remote.read_many([(0, 2), (100, 2)])
        assert results == [b"aa", b"bb"]
        assert remote.round_trips == 1

    def test_chunk_store_runs_over_remote(self):
        """The whole stack works against a remote untrusted store."""
        from repro.chunkstore import ops
        from repro.platform import CrashInjector, SecretStore
        from repro.platform.tamper_resistant import (
            TamperResistantCounter,
            TamperResistantStore,
        )
        from repro.platform.archival import MemoryArchivalStore

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


class TestSpilling:
    def build(self, threshold=4):
        platform = make_platform(size=16 * 1024 * 1024)
        chunks = ChunkStore.format(platform, make_config(segment_size=32 * 1024))
        objects = SpillingObjectStore(chunks, spill_threshold=threshold)
        pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
        return platform, chunks, objects, pid

    def test_large_transaction_spills_and_commits(self):
        _, chunks, objects, pid = self.build(threshold=4)
        with objects.transaction() as tx:
            refs = [tx.create(pid, {"n": i, "pad": "x" * 100}) for i in range(20)]
            assert tx.spilled_count > 0
        for i, ref in enumerate(refs):
            assert objects.read_committed(ref)["n"] == i

    def test_spilled_values_readable_within_tx(self):
        _, _, objects, pid = self.build(threshold=2)
        with objects.transaction() as tx:
            refs = [tx.create(pid, {"n": i}) for i in range(10)]
            # reads must see stolen values transparently
            for i, ref in enumerate(refs):
                assert tx.get(ref)["n"] == i

    def test_abort_discards_spilled(self):
        _, chunks, objects, pid = self.build(threshold=2)
        tx = objects.transaction()
        refs = [tx.create(pid, {"n": i}) for i in range(10)]
        tx.abort()
        from repro.errors import ObjectNotFoundError

        for ref in refs:
            with pytest.raises(ObjectNotFoundError):
                objects.read_committed(ref)
        # the scratch partition is gone
        assert not any(
            chunks.partition_info(p)["name"].startswith("__tx_spill__")
            for p in chunks.partition_ids()
        )

    def test_scratch_cleaned_after_commit(self):
        _, chunks, objects, pid = self.build(threshold=2)
        with objects.transaction() as tx:
            [tx.create(pid, {"n": i}) for i in range(10)]
        assert not any(
            chunks.partition_info(p)["name"].startswith("__tx_spill__")
            for p in chunks.partition_ids()
        )

    def test_orphan_collection_after_crash(self):
        platform, chunks, objects, pid = self.build(threshold=2)
        tx = objects.transaction()
        [tx.create(pid, {"n": i}) for i in range(10)]  # spills committed scratch
        # crash before tx.commit: the scratch partition is orphaned
        chunks.close(checkpoint=False)
        platform.reboot()
        chunks2 = ChunkStore.open(platform)
        names_before = [
            chunks2.partition_info(p)["name"] for p in chunks2.partition_ids()
        ]
        assert any(name.startswith("__tx_spill__") for name in names_before)
        objects2 = SpillingObjectStore(chunks2, spill_threshold=2)
        assert not any(
            chunks2.partition_info(p)["name"].startswith("__tx_spill__")
            for p in chunks2.partition_ids()
        )

    def test_spilled_data_is_protected(self):
        """Stolen dirty objects still get secrecy and integrity — they go
        through the chunk store, not to a scratch file."""
        platform, chunks, objects, pid = self.build(threshold=1)
        tx = objects.transaction()
        tx.create(pid, {"secret": "SPILLME-" + "S" * 64})
        tx.create(pid, {"secret": "SPILLME-" + "T" * 64})
        tx.create(pid, {"secret": "SPILLME-" + "U" * 64})
        assert tx.spilled_count > 0
        assert b"SPILLME-" not in platform.untrusted.tamper_image()
        tx.abort()


class TestSwallowedErrors:
    """Best-effort cleanup may swallow *typed* store errors, but every
    swallow is recorded in the obs event log; foreign errors propagate."""

    def build(self, threshold=2):
        platform = make_platform(size=8 * 1024 * 1024)
        chunks = ChunkStore.format(platform, make_config())
        objects = SpillingObjectStore(chunks, spill_threshold=threshold)
        pid = objects.create_partition(
            cipher_name="ctr-sha256", hash_name="sha1"
        )
        return chunks, objects, pid

    def test_drop_scratch_failure_is_evented_not_silent(self):
        from repro import obs
        from repro.chunkstore.ops import DeallocatePartition
        from repro.errors import ChunkStoreError

        chunks, objects, pid = self.build()
        tx = objects.transaction()
        for i in range(5):  # exceed the threshold so a scratch exists
            tx.create(pid, f"value-{i}" * 20)
        assert tx._scratch_pid is not None

        real_commit = chunks.commit

        def failing_commit(operations):
            if any(isinstance(op, DeallocatePartition) for op in operations):
                raise ChunkStoreError("injected deallocate failure")
            return real_commit(operations)

        mark = obs.events.mark()
        before = obs.events.count("swallowed_error")
        chunks.commit = failing_commit
        try:
            tx.commit()  # must succeed despite the failed scratch drop
        finally:
            chunks.commit = real_commit
        swallowed = [
            e for e in obs.events.since(mark) if e.kind == "swallowed_error"
        ]
        assert len(swallowed) == 1
        assert swallowed[0].fields["where"] == "spill.drop_scratch"
        assert swallowed[0].fields["error"] == "ChunkStoreError"
        assert obs.events.count("swallowed_error") == before + 1

    def test_collect_orphans_skip_is_evented(self):
        from repro import obs
        from repro.errors import ChunkStoreError

        chunks, objects, pid = self.build()
        real_info = chunks.partition_info

        def flaky_info(partition):
            if partition == pid:
                raise ChunkStoreError("leader unreadable")
            return real_info(partition)

        mark = obs.events.mark()
        chunks.partition_info = flaky_info
        try:
            objects.collect_orphans()  # must not raise: pid is skipped
        finally:
            del chunks.partition_info
        swallowed = [
            e for e in obs.events.since(mark) if e.kind == "swallowed_error"
        ]
        assert len(swallowed) == 1
        assert swallowed[0].fields["where"] == "spill.collect_orphans"
        assert swallowed[0].fields["partition"] == pid

    def test_foreign_error_in_drop_scratch_propagates(self):
        chunks, objects, pid = self.build()
        tx = objects.transaction()
        for i in range(5):
            tx.create(pid, f"value-{i}" * 20)
        assert tx._scratch_pid is not None

        real_commit = chunks.commit

        def broken_commit(operations):
            from repro.chunkstore.ops import DeallocatePartition

            if any(isinstance(op, DeallocatePartition) for op in operations):
                raise RuntimeError("a bug, not a store failure")
            return real_commit(operations)

        chunks.commit = broken_commit
        try:
            with pytest.raises(RuntimeError):
                tx.commit()
        finally:
            chunks.commit = real_commit
