"""Robustness: oversize values, failed commits, unicode keys, and other
ways applications lean on the stack."""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.collection import CollectionStore, KeyFunctionRegistry, field_key
from repro.errors import ChunkStoreError, ObjectNotFoundError, TransactionError
from repro.objectstore import ObjectStore
from tests.conftest import make_config, make_platform


class TestOversizeValues:
    def test_chunk_store_rejects_before_mutating(self):
        platform = make_platform()
        store = ChunkStore.format(platform, make_config(segment_size=8 * 1024))
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, b"small")])
        with pytest.raises(ChunkStoreError):
            store.commit([ops.WriteChunk(pid, rank, b"x" * 9000)])
        # the failed commit mutated nothing
        assert store.read_chunk(pid, rank) == b"small"
        store.commit([ops.WriteChunk(pid, rank, b"still works")])
        assert store.read_chunk(pid, rank) == b"still works"

    def test_transaction_aborts_cleanly_on_oversize_object(self):
        platform = make_platform()
        chunks = ChunkStore.format(platform, make_config(segment_size=8 * 1024))
        objects = ObjectStore(chunks)
        pid = objects.create_partition(cipher_name="null", hash_name="sha1")
        with objects.transaction() as tx:
            keep = tx.create(pid, "keep me")
        tx = objects.transaction()
        tx.update(keep, "would be lost")
        tx.create(pid, b"y" * 9000)  # exceeds the segment limit
        with pytest.raises(ChunkStoreError):
            tx.commit()
        assert tx.status.value == "aborted"
        assert objects.read_committed(keep) == "keep me"
        # locks were released: a new transaction can proceed
        with objects.transaction() as tx2:
            tx2.update(keep, "fresh")
        assert objects.read_committed(keep) == "fresh"

    def test_failed_commit_leaves_store_recoverable(self):
        platform = make_platform()
        store = ChunkStore.format(platform, make_config(segment_size=8 * 1024))
        pid = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(pid, 0, b"base"),
            ]
        )
        with pytest.raises(ChunkStoreError):
            store.commit([ops.WriteChunk(pid, 0, b"z" * 9000)])
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, 0) == b"base"


def keyed_entries():
    """A collection of ``{"k": key, "v": value}`` entries behind a sorted
    index on ``k``: the store used as a dictionary."""
    platform = make_platform(size=16 * 1024 * 1024)
    objects = ObjectStore(ChunkStore.format(platform, make_config()))
    pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha256")
    registry = KeyFunctionRegistry()
    registry.register("k", field_key("k"))
    collections = CollectionStore(objects, pid, registry)
    with objects.transaction() as tx:
        entries = collections.create_collection(tx, "entries")
        collections.add_index(tx, entries, "by_key", "k", sorted_index=True)
    return objects, collections, entries


def value_at(objects, collections, entries, key):
    with objects.transaction() as tx:
        (ref,) = collections.exact(tx, entries, "by_key", key)
        return tx.get(ref)["v"]


class TestUnicodeAndOddKeys:
    def test_kv_unicode_keys(self):
        objects, collections, entries = keyed_entries()
        items = {"clé-française": 1, "ключ": 2, "鍵": 3, "": "empty key is a key"}
        for key, value in items.items():
            with objects.transaction() as tx:
                collections.insert(tx, entries, {"k": key, "v": value})
        assert value_at(objects, collections, entries, "ключ") == 2
        assert value_at(objects, collections, entries, "") == "empty key is a key"
        with objects.transaction() as tx:
            keys = [key for key, _ref in collections.range(tx, entries, "by_key")]
        assert keys == sorted(items)

    def test_kv_values_of_many_shapes(self):
        objects, collections, entries = keyed_entries()
        shapes = {
            "none": None,
            "bytes": b"\x00\xff" * 10,
            "nested": {"a": [1, (2, 3), {4, 5}]},
            "float": -1.5e300,
        }
        with objects.transaction() as tx:  # one commit
            for key, value in shapes.items():
                collections.insert(tx, entries, {"k": key, "v": value})
        for key, value in shapes.items():
            assert value_at(objects, collections, entries, key) == value


class TestApiMisuse:
    def test_read_of_foreign_partition_object(self):
        platform = make_platform()
        chunks = ChunkStore.format(platform, make_config())
        objects = ObjectStore(chunks)
        from repro.objectstore import ObjectRef

        with pytest.raises((ObjectNotFoundError, Exception)):
            objects.read_committed(ObjectRef(77, 0))

    def test_use_after_close(self):
        platform = make_platform()
        store = ChunkStore.format(platform, make_config())
        store.close()
        with pytest.raises(ChunkStoreError):
            store.checkpoint()
        store.close()  # idempotent

    def test_transaction_after_abort_rejected(self):
        platform = make_platform()
        chunks = ChunkStore.format(platform, make_config())
        objects = ObjectStore(chunks)
        pid = objects.create_partition(cipher_name="null", hash_name="sha1")
        tx = objects.transaction()
        tx.abort()
        with pytest.raises(TransactionError):
            tx.create(pid, "x")
