"""Crypto layered on top of XDB — the architecture §1.2 argues against.

``SecureXDB`` does what a developer would do with an off-the-shelf
embedded database and a crypto library:

* objects are pickled, then **encrypted before insertion**, so the
  database only ever sees ciphertext records;
* tamper detection comes from a **Merkle tree maintained as ordinary
  records**: per-record hashes grouped into fanout-64 nodes, the root
  anchored in the tamper-resistant store.  Every object update therefore
  performs 2–3 *extra* record updates (leaf node + path to root) inside
  XDB — which turn into extra dirty pages, WAL volume, and forced page
  writes at commit;
* index keys are encrypted **deterministically** (truncated MAC), so
  exact-match lookups work but *ordered* indexes and range queries are
  impossible — the metadata/functionality gap the paper calls out.

And crucially, the layer cannot protect XDB's own metadata: flipping bits
in an index page or in the table catalog silently corrupts query results
(an attack could "effectively delete an object by modifying the indexes",
§1.2).  The test suite demonstrates exactly that asymmetry against TDB.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional

from repro.chunkstore.config import derive_key, mac_key
from repro.crypto.mac import Mac
from repro.crypto.registry import KEY_SIZES, make_cipher, make_hash
from repro.errors import TamperDetectedError
from repro.objectstore.pickling import pickle_value, unpickle_value
from repro.platform.secret_store import SecretStore
from repro.platform.tamper_resistant import TamperResistantStore
from repro.platform.untrusted import UntrustedStore
from repro.xdb.btree import BTree
from repro.xdb.db import XDB, Table

_FANOUT = 64


class SecureXDB:
    """Encryption + Merkle validation layered over :class:`XDB`."""

    def __init__(
        self,
        db: XDB,
        secret_store: SecretStore,
        tamper_resistant: TamperResistantStore,
        cipher_name: str = "des-cbc",
        hash_name: str = "sha1",
        tr_period: int = 1,
    ) -> None:
        self.db = db
        #: update the TR anchor once every ``tr_period`` commits — matching
        #: the paper's "same frequency of flushing the tamper-resistant
        #: store" configuration (Δut analog; the unanchored window carries
        #: the same bounded-rollback risk as TDB's counter lag)
        self.tr_period = tr_period
        self._commits_since_anchor = 0
        secret = secret_store.read()
        self.cipher = make_cipher(
            cipher_name, derive_key(secret, "xdb.cipher", KEY_SIZES[cipher_name])
        )
        self.hash = make_hash(hash_name)
        self.mac = Mac(mac_key(secret), self.hash)
        self.tr = tamper_resistant
        self._trust: Optional[BTree] = None
        #: index name -> key extraction function (in-memory, like the
        #: collection store's functional-index registry)
        self.key_functions: Dict[str, Callable[[Any], Any]] = {}

    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls,
        store: UntrustedStore,
        secret_store: SecretStore,
        tamper_resistant: TamperResistantStore,
        cipher_name: str = "des-cbc",
        hash_name: str = "sha1",
        cache_pages: int = 1024,
        tr_period: int = 1,
    ) -> "SecureXDB":
        db = XDB.format(store, cache_pages)
        secure = cls(
            db, secret_store, tamper_resistant, cipher_name, hash_name, tr_period
        )
        secure._trust = secure.db.create_kv("__trust__")
        secure._update_root_anchor()
        db.commit()
        return secure

    @classmethod
    def open(
        cls,
        store: UntrustedStore,
        secret_store: SecretStore,
        tamper_resistant: TamperResistantStore,
        cipher_name: str = "des-cbc",
        hash_name: str = "sha1",
        cache_pages: int = 1024,
        tr_period: int = 1,
    ) -> "SecureXDB":
        db = XDB.open(store, cache_pages)
        secure = cls(
            db, secret_store, tamper_resistant, cipher_name, hash_name, tr_period
        )
        secure._trust = secure.db.kv("__trust__")
        secure._check_root_anchor()
        return secure

    def close(self) -> None:
        """Flush and anchor (required before reopen when tr_period > 1)."""
        self.db.commit()
        self._update_root_anchor()
        self._commits_since_anchor = 0

    def commit(self) -> None:
        self.db.commit()
        self._commits_since_anchor += 1
        if self._commits_since_anchor >= self.tr_period:
            self._update_root_anchor()
            self._commits_since_anchor = 0

    # ------------------------------------------------------------------
    # Merkle tree over records, stored as ordinary kv entries
    # ------------------------------------------------------------------

    def _node_key(self, table: str, level: int, index: int) -> bytes:
        return f"{table}:{level}:{index}".encode()

    def _get_node(self, table: str, level: int, index: int) -> Dict[int, bytes]:
        raw = self._trust.get(self._node_key(table, level, index))
        if raw is None:
            return {}
        node: Dict[int, bytes] = {}
        pos = 0
        size = self.hash.digest_size
        while pos < len(raw):
            (slot,) = struct.unpack_from(">H", raw, pos)
            pos += 2
            node[slot] = raw[pos : pos + size]
            pos += size
        return node

    def _put_node(self, table: str, level: int, index: int, node: Dict[int, bytes]) -> None:
        out = bytearray()
        for slot in sorted(node):
            out += struct.pack(">H", slot) + node[slot]
        self._trust.put(self._node_key(table, level, index), bytes(out))

    def _node_hash(self, node: Dict[int, bytes]) -> bytes:
        hasher = self.hash.new()
        for slot in sorted(node):
            hasher.update(struct.pack(">H", slot))
            hasher.update(node[slot])
        return hasher.digest()

    def _set_leaf_hash(self, table: str, rid: int, digest: Optional[bytes]) -> None:
        """Install (or clear) a record hash and propagate to the root."""
        level, index, slot = 0, rid // _FANOUT, rid % _FANOUT
        current = digest
        # table root lives at a fixed high level; propagate 3 levels, which
        # addresses 64^3 ≈ 262k records per table — plenty for the workload
        for level in range(3):
            node = self._get_node(table, level, index)
            if current is None and level == 0:
                node.pop(slot, None)
            else:
                node[slot] = current if current is not None else self._node_hash({})
            self._put_node(table, level, index, node)
            current = self._node_hash(node)
            slot = index % _FANOUT
            index //= _FANOUT

    def _table_root_hash(self, table: str) -> bytes:
        return self._node_hash(self._get_node(table, 2, 0))

    def _master_hash(self) -> bytes:
        hasher = self.hash.new()
        for name in sorted(self.db.table_names()):
            hasher.update(name.encode())
            hasher.update(self._table_root_hash(name))
        return hasher.digest()

    def _update_root_anchor(self) -> None:
        self.tr.write(self._master_hash())

    def _check_root_anchor(self) -> None:
        if self.tr.read() != self._master_hash():
            raise TamperDetectedError("XDB master hash mismatch (replay or tamper)")

    # ------------------------------------------------------------------
    # collections (tables + deterministic-key indexes)
    # ------------------------------------------------------------------

    def create_collection(
        self, name: str, indexes: Dict[str, Callable[[Any], Any]]
    ) -> Table:
        table = self.db.create_table(name)
        for index_name, key_function in indexes.items():
            self.db.create_index(table, index_name)
            self.key_functions[f"{name}:{index_name}"] = key_function
        return table

    def open_collection(
        self, name: str, indexes: Dict[str, Callable[[Any], Any]]
    ) -> Table:
        table = self.db.table(name)
        for index_name, key_function in indexes.items():
            self.key_functions[f"{name}:{index_name}"] = key_function
        return table

    def _index_key_bytes(self, key: Any) -> bytes:
        # deterministic encryption: equal keys collide (enabling exact
        # match), order is destroyed (disabling ranges) — the layered
        # design's documented functionality gap
        return self.mac.sign(pickle_value(key))[:16]

    # ------------------------------------------------------------------
    # object operations
    # ------------------------------------------------------------------

    def insert(self, table: Table, value: Any) -> int:
        data = pickle_value(value)
        ciphertext = self.cipher.encrypt(data)
        rid = self.db.insert(table, ciphertext)
        digest = self.hash.hash(data)
        self._set_leaf_hash(table.name, rid, digest)
        for index_name in table.indexes:
            key = self.key_functions[f"{table.name}:{index_name}"](value)
            if key is not None:
                self.db.index_put(
                    table, index_name, self._index_key_bytes(key), rid
                )
        return rid

    def read(self, table: Table, rid: int) -> Any:
        ciphertext = self.db.read(table, rid)
        data = self.cipher.decrypt(ciphertext)
        digest = self.hash.hash(data)
        node = self._get_node(table.name, 0, rid // _FANOUT)
        if node.get(rid % _FANOUT) != digest:
            raise TamperDetectedError(
                f"XDB record {table.name}:{rid} fails validation"
            )
        return unpickle_value(data)

    def update(self, table: Table, rid: int, value: Any) -> None:
        old_value = self.read(table, rid)
        data = pickle_value(value)
        ciphertext = self.cipher.encrypt(data)
        self.db.update(table, rid, ciphertext)
        digest = self.hash.hash(data)
        self._set_leaf_hash(table.name, rid, digest)
        for index_name in table.indexes:
            key_function = self.key_functions[f"{table.name}:{index_name}"]
            old_key = key_function(old_value)
            new_key = key_function(value)
            if old_key != new_key:
                if old_key is not None:
                    self.db.index_delete(
                        table, index_name, self._index_key_bytes(old_key), rid
                    )
                if new_key is not None:
                    self.db.index_put(
                        table, index_name, self._index_key_bytes(new_key), rid
                    )

    def delete(self, table: Table, rid: int) -> None:
        value = self.read(table, rid)
        self.db.delete(table, rid)
        self._set_leaf_hash(table.name, rid, None)
        for index_name in table.indexes:
            key = self.key_functions[f"{table.name}:{index_name}"](value)
            if key is not None:
                self.db.index_delete(
                    table, index_name, self._index_key_bytes(key), rid
                )

    def exact(self, table: Table, index_name: str, key: Any) -> List[int]:
        return self.db.index_exact(table, index_name, self._index_key_bytes(key))

    def stored_bytes(self) -> int:
        """Bytes occupied by data pages (for the §9.5.2 size comparison)."""
        from repro.xdb.pager import PAGE_SIZE

        return self.db.pager.next_page * PAGE_SIZE
