"""True on-disk persistence: a file-backed platform reopened through
brand-new Python objects (the closest this simulation gets to a real
process restart)."""

import os

import pytest

from repro.backup import BackupStore
from repro.chunkstore import ChunkStore, ops
from repro.collection import CollectionStore, KeyFunctionRegistry, field_key
from repro.objectstore import ObjectStore
from repro.platform import (
    CrashInjector,
    FileArchivalStore,
    FileUntrustedStore,
    SecretStore,
)
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.platform.trusted_platform import TrustedPlatform
from tests.conftest import make_config

_SIZE = 4 * 1024 * 1024


def file_platform(tmp_path, secret, counter_value=0, tr_bytes=b""):
    """Build a platform over files, with the trusted-store contents
    carried explicitly (real hardware would persist them internally)."""
    injector = CrashInjector()
    untrusted = FileUntrustedStore(str(tmp_path / "store.img"), _SIZE, injector)
    tr = TamperResistantStore()
    if tr_bytes:
        tr.write(tr_bytes)
        tr.write_count = 0
    counter = TamperResistantCounter(counter_value)
    return TrustedPlatform(
        secret_store=SecretStore(secret),
        tamper_resistant=tr,
        counter=counter,
        untrusted=untrusted,
        archival=FileArchivalStore(str(tmp_path / "archive")),
        injector=injector,
    )


def by_doc_id():
    registry = KeyFunctionRegistry()
    registry.register("id", field_key("id"))
    return registry


class TestFileBackedPersistence:
    def test_full_stack_survives_cold_reopen(self, tmp_path):
        secret = os.urandom(16)
        platform = file_platform(tmp_path, secret)
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1"),
                ops.WriteChunk(pid, 0, b"on real disk"),
            ]
        )
        store.close()
        counter_value = platform.counter.read()
        platform.untrusted.close()
        del platform, store

        # a completely fresh set of objects over the same files
        platform2 = file_platform(tmp_path, secret, counter_value=counter_value)
        store2 = ChunkStore.open(platform2)
        assert store2.read_chunk(pid, 0) == b"on real disk"
        platform2.untrusted.close()

    def test_wrong_secret_cannot_open(self, tmp_path):
        from repro.errors import TamperDetectedError

        secret = os.urandom(16)
        platform = file_platform(tmp_path, secret)
        store = ChunkStore.format(platform, make_config())
        store.close()
        platform.untrusted.close()

        imposter = file_platform(tmp_path, os.urandom(16))
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(imposter)
        imposter.untrusted.close()

    def test_counter_rollback_across_processes_detected(self, tmp_path):
        """If the 'hardware' counter were reset (here: reopened at 0), the
        log legitimately being far ahead trips validation — the counter's
        monotonicity across restarts is load-bearing."""
        from repro.errors import TamperDetectedError

        secret = os.urandom(16)
        platform = file_platform(tmp_path, secret)
        config = make_config(delta_ut=1)
        store = ChunkStore.format(platform, config)
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="null", hash_name="sha1")]
        )
        for i in range(10):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        store.close()
        platform.untrusted.close()

        rolled_back = file_platform(tmp_path, secret, counter_value=0)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(rolled_back)
        rolled_back.untrusted.close()

    def test_kv_over_files_with_backup(self, tmp_path):
        """Keyed documents in a collection over files, backed up, then read
        back through a sorted index after a cold reopen."""
        secret = os.urandom(16)
        platform = file_platform(tmp_path, secret)
        chunks = ChunkStore.format(platform, make_config())
        objects = ObjectStore(chunks)
        pid = objects.create_partition(
            cipher_name="ctr-sha256", hash_name="sha256", name="docs"
        )
        collections = CollectionStore(objects, pid, by_doc_id())
        with objects.transaction() as tx:
            docs = collections.create_collection(tx, "docs")
            collections.add_index(tx, docs, "by_id", "id", sorted_index=True)
            for i in range(20):
                collections.insert(tx, docs, {"id": f"doc:{i}", "rev": i})
        BackupStore(chunks).create_backup([pid], "nightly")
        chunks.close()
        counter_value = platform.counter.read()
        platform.untrusted.close()

        platform2 = file_platform(tmp_path, secret, counter_value=counter_value)
        objects2 = ObjectStore(ChunkStore.open(platform2))
        collections2 = CollectionStore(
            objects2, objects2.chunks.find_partition("docs"), by_doc_id()
        )
        with objects2.transaction() as tx:
            docs = collections2.open_collection(tx, "docs")
            (ref,) = collections2.exact(tx, docs, "by_id", "doc:7")
            assert tx.get(ref) == {"id": "doc:7", "rev": 7}
        platform2.untrusted.close()
