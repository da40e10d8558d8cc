"""Workload adapters: the same bind/release mix driven through TDB and
through the crypto-layered XDB baseline (§9.5.2, Figure 11).

Both systems are configured identically per the paper: the same
cryptographic parameters, comparable cache sizes, and the same frequency
of flushing the tamper-resistant store.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench import bench_config
from repro.bench.workload import CollectionSpec, DBAdapter
from repro.chunkstore.store import ChunkStore
from repro.collection.index import KeyFunctionRegistry, field_key
from repro.collection.store import CollectionStore
from repro.objectstore.store import ObjectStore
from repro.platform.secret_store import SecretStore
from repro.platform.tamper_resistant import TamperResistantStore
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import MemoryUntrustedStore
from repro.xdb.cryptolayer import SecureXDB

#: both systems' partition crypto
CIPHER = "ctr-sha256"
HASH = "sha1"


class TdbAdapter(DBAdapter):
    """The workload on TDB: collection store → object store → chunk store."""

    def __init__(self) -> None:
        super().__init__()
        self.platform = TrustedPlatform.create_in_memory(untrusted_size=64 * 1024 * 1024)
        self.stats = self.platform.untrusted.stats
        self.chunks = ChunkStore.format(self.platform, bench_config())
        self.key_functions = KeyFunctionRegistry()
        self.objects = ObjectStore(self.chunks, cache_size=4096)
        self.partition = self.objects.create_partition(cipher_name=CIPHER, hash_name=HASH)
        self.collections = CollectionStore(
            self.objects, self.partition, self.key_functions
        )
        self._tx = None

    # -- adapter interface -----------------------------------------------------

    def create_collection(self, spec: CollectionSpec) -> Any:
        for index in spec.indexes:
            self.key_functions.register(index.field, field_key(index.field), replace=True)
        coll = self.collections.create_collection(self._tx, spec.name)
        for index in spec.indexes:
            self.collections.add_index(
                self._tx, coll, index.name, index.field, sorted_index=index.sorted_index
            )
        return coll

    def begin(self) -> None:
        self._tx = self.objects.transaction()

    def commit(self) -> None:
        self._tx.commit()
        self._tx = None
        self.op_counts["commit"] += 1

    def insert(self, coll: Any, obj: Dict[str, Any]) -> Any:
        self.op_counts["add"] += 1
        return self.collections.insert(self._tx, coll, obj)

    def read(self, coll: Any, handle: Any) -> Dict[str, Any]:
        self.op_counts["read"] += 1
        return self._tx.get(handle)

    def update(self, coll: Any, handle: Any, obj: Dict[str, Any]) -> None:
        self.op_counts["update"] += 1
        self.collections.update(self._tx, coll, handle, obj)

    def delete(self, coll: Any, handle: Any) -> None:
        self.op_counts["delete"] += 1
        self.collections.remove(self._tx, coll, handle)

    def exact(self, coll: Any, index_name: str, key: Any) -> List[Any]:
        return self.collections.exact(self._tx, coll, index_name, key)

    def stored_bytes(self) -> int:
        return self.chunks.stored_bytes()

    def tr_writes(self) -> int:
        return self.platform.counter.write_count + self.platform.tamper_resistant.write_count

    def close(self) -> None:
        self.chunks.close()


class XdbAdapter(DBAdapter):
    """The workload on the layered-crypto XDB baseline."""

    def __init__(self) -> None:
        super().__init__()
        self.store = MemoryUntrustedStore(64 * 1024 * 1024)
        self.stats = self.store.stats
        self.tr = TamperResistantStore()
        self.db = SecureXDB.format(
            self.store,
            SecretStore.generate(),
            self.tr,
            cipher_name=CIPHER,
            hash_name=HASH,
            cache_pages=2048,
            tr_period=5,  # match TDB's Δut = 5 (§9.1)
        )

    def create_collection(self, spec: CollectionSpec) -> Any:
        return self.db.create_collection(
            spec.name,
            {index.name: field_key(index.field) for index in spec.indexes},
        )

    def begin(self) -> None:
        pass  # XDB batches until commit

    def commit(self) -> None:
        self.db.commit()
        self.op_counts["commit"] += 1

    def insert(self, coll: Any, obj: Dict[str, Any]) -> Any:
        self.op_counts["add"] += 1
        return self.db.insert(coll, obj)

    def read(self, coll: Any, handle: Any) -> Dict[str, Any]:
        self.op_counts["read"] += 1
        return self.db.read(coll, handle)

    def update(self, coll: Any, handle: Any, obj: Dict[str, Any]) -> None:
        self.op_counts["update"] += 1
        self.db.update(coll, handle, obj)

    def delete(self, coll: Any, handle: Any) -> None:
        self.op_counts["delete"] += 1
        self.db.delete(coll, handle)

    def exact(self, coll: Any, index_name: str, key: Any) -> List[Any]:
        return self.db.exact(coll, index_name, key)

    def stored_bytes(self) -> int:
        return self.db.stored_bytes()

    def tr_writes(self) -> int:
        return self.tr.write_count

    def close(self) -> None:
        self.db.close()
