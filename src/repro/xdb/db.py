"""XDB: the conventional embedded database baseline (§9.5).

Tables are B-trees keyed by record id; secondary indexes are B-trees
keyed by ``key_bytes ‖ rid`` (so duplicate keys coexist).  A catalog
B-tree maps table/index names to root pages.  Commits go through the
pager's WAL + force protocol.

The API is record-oriented::

    db = XDB.format(store)          # or XDB.open(store)
    tbl = db.create_table("goods")
    rid = db.insert(tbl, b"value")
    db.update(tbl, rid, b"value2")
    db.create_index(tbl, "by_price")
    db.index_put(tbl, "by_price", key_bytes, rid)
    db.commit()

XDB knows nothing about trust: secrecy and tamper detection are layered
on top by :mod:`repro.xdb.cryptolayer` — which is exactly the
architecture §1.2 argues against, and what the Figure 11 comparison
measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import XDBError
from repro.platform.untrusted import UntrustedStore
from repro.xdb.btree import BTree
from repro.xdb.pager import Pager


@dataclass
class Table:
    """An open XDB table: its record B-tree, secondary indexes, and the
    next record id."""

    name: str
    tree: BTree
    #: index name -> BTree over (key ‖ rid)
    indexes: Dict[str, BTree]
    next_rid: int


def _rid_key(rid: int) -> bytes:
    return struct.pack(">Q", rid)


def _index_entry(key: bytes, rid: int) -> bytes:
    return struct.pack(">H", len(key)) + key + _rid_key(rid)


class XDB:
    """A small conventional embedded database."""

    def __init__(self, store: UntrustedStore, cache_pages: int = 1024) -> None:
        self.pager = Pager(store, cache_pages=cache_pages)
        self._catalog: Optional[BTree] = None
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------

    @classmethod
    def format(cls, store: UntrustedStore, cache_pages: int = 1024) -> "XDB":
        db = cls(store, cache_pages)
        db.pager.format()
        db._catalog = BTree.create(db.pager)
        db.pager.catalog_root = db._catalog.root
        db.pager.commit()
        return db

    @classmethod
    def open(cls, store: UntrustedStore, cache_pages: int = 1024) -> "XDB":
        db = cls(store, cache_pages)
        db.pager.open()
        db._catalog = BTree(db.pager, db.pager.catalog_root)
        return db

    def commit(self) -> None:
        """Force the current batch of changes (WAL + in-place writes)."""
        self._save_tables()
        self.pager.commit()

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def _save_tables(self) -> None:
        for table in self._tables.values():
            meta = struct.pack(">IQ", table.tree.root, table.next_rid)
            for index_name in sorted(table.indexes):
                name_bytes = index_name.encode()
                meta += struct.pack(">H", len(name_bytes)) + name_bytes
                meta += struct.pack(">I", table.indexes[index_name].root)
            self._catalog.put(b"tbl:" + table.name.encode(), meta)

    def _load_table(self, name: str) -> Table:
        meta = self._catalog.get(b"tbl:" + name.encode())
        if meta is None:
            raise XDBError(f"no table named {name!r}")
        root, next_rid = struct.unpack_from(">IQ", meta, 0)
        pos = 12
        indexes: Dict[str, BTree] = {}
        while pos < len(meta):
            (nlen,) = struct.unpack_from(">H", meta, pos)
            pos += 2
            index_name = meta[pos : pos + nlen].decode()
            pos += nlen
            (index_root,) = struct.unpack_from(">I", meta, pos)
            pos += 4
            indexes[index_name] = BTree(self.pager, index_root)
        return Table(name, BTree(self.pager, root), indexes, next_rid)

    def table(self, name: str) -> Table:
        if name not in self._tables:
            self._tables[name] = self._load_table(name)
        return self._tables[name]

    def create_table(self, name: str) -> Table:
        if self._catalog.get(b"tbl:" + name.encode()) is not None:
            raise XDBError(f"table {name!r} already exists")
        table = Table(name, BTree.create(self.pager), {}, 1)
        self._tables[name] = table
        self._save_tables()
        return table

    def create_index(self, table: Table, index_name: str) -> None:
        if index_name in table.indexes:
            raise XDBError(f"index {index_name!r} already exists")
        table.indexes[index_name] = BTree.create(self.pager)
        self._save_tables()

    def create_kv(self, name: str) -> BTree:
        """A raw keyed B-tree (used by the crypto layer's hash tree)."""
        if self._catalog.get(b"kv:" + name.encode()) is not None:
            raise XDBError(f"kv store {name!r} already exists")
        tree = BTree.create(self.pager)
        self._catalog.put(b"kv:" + name.encode(), struct.pack(">I", tree.root))
        return tree

    def kv(self, name: str) -> BTree:
        meta = self._catalog.get(b"kv:" + name.encode())
        if meta is None:
            raise XDBError(f"no kv store named {name!r}")
        return BTree(self.pager, struct.unpack(">I", meta)[0])

    def table_names(self) -> List[str]:
        return [
            key[4:].decode()
            for key, _val in self._catalog.scan(b"tbl:", b"tbl:\xff")
        ]

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def insert(self, table: Table, value: bytes) -> int:
        rid = table.next_rid
        table.next_rid += 1
        table.tree.put(_rid_key(rid), value)
        return rid

    def read(self, table: Table, rid: int) -> bytes:
        value = table.tree.get(_rid_key(rid))
        if value is None:
            raise XDBError(f"no record {rid} in table {table.name!r}")
        return value

    def update(self, table: Table, rid: int, value: bytes) -> None:
        if table.tree.get(_rid_key(rid)) is None:
            raise XDBError(f"no record {rid} in table {table.name!r}")
        table.tree.put(_rid_key(rid), value)

    def delete(self, table: Table, rid: int) -> None:
        if not table.tree.delete(_rid_key(rid)):
            raise XDBError(f"no record {rid} in table {table.name!r}")

    def scan(self, table: Table) -> Iterator[Tuple[int, bytes]]:
        for key, value in table.tree.scan():
            yield struct.unpack(">Q", key)[0], value

    # ------------------------------------------------------------------
    # secondary indexes (entries maintained by the caller / crypto layer)
    # ------------------------------------------------------------------

    def index_put(self, table: Table, index_name: str, key: bytes, rid: int) -> None:
        table.indexes[index_name].put(_index_entry(key, rid), b"")

    def index_delete(self, table: Table, index_name: str, key: bytes, rid: int) -> None:
        table.indexes[index_name].delete(_index_entry(key, rid))

    def index_exact(self, table: Table, index_name: str, key: bytes) -> List[int]:
        prefix = struct.pack(">H", len(key)) + key
        result = []
        for entry, _val in table.indexes[index_name].scan(
            prefix, prefix + b"\xff" * 9
        ):
            if entry[: len(prefix)] != prefix:
                continue
            result.append(struct.unpack(">Q", entry[-8:])[0])
        return result
