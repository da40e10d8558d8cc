"""The collection store (§8): indexed collections of objects.

A *collection* is a set of objects sharing one or more indexes.  Indexes
can be added and removed dynamically; they are maintained automatically as
objects are inserted, updated, and removed through the collection store.
Collections and indexes are themselves objects — they get trust, crash
atomicity, and caching for free from the layers below, and an attack on
indexing metadata is detected exactly like an attack on data (the
§1.2 argument for the low-level data model).

Layout:

* a *catalog* object (at a partition's conventional root, rank 0) maps
  collection names to collection objects;
* a collection object holds its indexes (name → index object ref) and a
  membership B-tree keyed by ``(partition, rank)`` — giving scans and
  O(log n) membership tests;
* index objects are described in :mod:`repro.collection.index`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

from repro import obs
from repro.collection import btree
from repro.collection.index import (
    DEFAULT_KEY_FUNCTIONS,
    Index,
    KeyFunctionRegistry,
)
from repro.errors import IndexError_, ObjectNotFoundError
from repro.objectstore.pickling import ObjectRef
from repro.objectstore.store import ObjectStore, Transaction


class Collection:
    """Handle on one collection (state lives in an object)."""

    def __init__(self, ref: ObjectRef, partition: int) -> None:
        self.ref = ref
        self.partition = partition

    def _state(self, tx: Transaction) -> dict:
        return tx.get(self.ref)

    def size(self, tx: Transaction) -> int:
        return self._state(tx)["size"]


class CollectionStore:
    """Manages named collections within one partition."""

    def __init__(
        self,
        object_store: ObjectStore,
        partition: int,
        key_functions: KeyFunctionRegistry = DEFAULT_KEY_FUNCTIONS,
    ) -> None:
        self.objects = object_store
        self.partition = partition
        self.key_functions = key_functions

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def _catalog_ref(self) -> ObjectRef:
        return self.objects.root_ref(self.partition)

    def ensure_catalog(self, tx: Transaction) -> ObjectRef:
        """Create the catalog object at the partition root if missing."""
        ref = self._catalog_ref()
        try:
            tx.get(ref)
        except ObjectNotFoundError:
            tx.create_at(ref, {"collections": {}})
        return ref

    def collection_names(self, tx: Transaction) -> List[str]:
        catalog = tx.get(self.ensure_catalog(tx))
        return sorted(catalog["collections"])

    # ------------------------------------------------------------------
    # collection lifecycle
    # ------------------------------------------------------------------

    def create_collection(self, tx: Transaction, name: str) -> Collection:
        with obs.span("collection.create_collection"):
            catalog_ref = self.ensure_catalog(tx)
            catalog = dict(tx.get(catalog_ref))
            collections = dict(catalog["collections"])
            if name in collections:
                raise IndexError_(f"collection {name!r} already exists")
            members_root = btree.create(tx, self.partition)
            coll_ref = tx.create(
                self.partition,
                {
                    "name": name,
                    "indexes": {},
                    "members_root": members_root,
                    "size": 0,
                },
            )
            collections[name] = coll_ref
            catalog["collections"] = collections
            tx.update(catalog_ref, catalog)
            return Collection(coll_ref, self.partition)

    def open_collection(self, tx: Transaction, name: str) -> Collection:
        catalog = tx.get(self.ensure_catalog(tx))
        try:
            ref = catalog["collections"][name]
        except KeyError:
            raise IndexError_(f"no collection named {name!r}") from None
        return Collection(ref, self.partition)

    def drop_collection(self, tx: Transaction, name: str) -> None:
        """Remove a collection and its indexes (member objects survive)."""
        with obs.span("collection.drop_collection"):
            coll = self.open_collection(tx, name)
            state = tx.get(coll.ref)
            for index_ref in state["indexes"].values():
                Index(index_ref, self.partition, self.key_functions).destroy(tx)
            btree.destroy(tx, state["members_root"])
            tx.delete(coll.ref)
            catalog_ref = self._catalog_ref()
            catalog = dict(tx.get(catalog_ref))
            collections = dict(catalog["collections"])
            collections.pop(name, None)
            catalog["collections"] = collections
            tx.update(catalog_ref, catalog)

    # ------------------------------------------------------------------
    # index lifecycle (dynamic add/remove, §8)
    # ------------------------------------------------------------------

    def add_index(
        self,
        tx: Transaction,
        coll: Collection,
        index_name: str,
        keyfunc_name: str,
        sorted_index: bool = True,
    ) -> None:
        """Add an index; existing members are indexed immediately."""
        with obs.span("collection.add_index"):
            state = dict(tx.get(coll.ref))
            indexes = dict(state["indexes"])
            if index_name in indexes:
                raise IndexError_(f"index {index_name!r} already exists")
            index = Index.create(
                tx,
                self.partition,
                index_name,
                keyfunc_name,
                sorted_index,
                self.key_functions,
            )
            # backfill from current members
            for _key, member in btree.iterate(tx, state["members_root"]):
                obj = tx.get(member)
                index.add(tx, index.key_of(tx, obj), member)
            indexes[index_name] = index.ref
            state["indexes"] = indexes
            tx.update(coll.ref, state)

    def drop_index(self, tx: Transaction, coll: Collection, index_name: str) -> None:
        with obs.span("collection.drop_index"):
            state = dict(tx.get(coll.ref))
            indexes = dict(state["indexes"])
            try:
                index_ref = indexes.pop(index_name)
            except KeyError:
                raise IndexError_(f"no index named {index_name!r}") from None
            Index(index_ref, self.partition, self.key_functions).destroy(tx)
            state["indexes"] = indexes
            tx.update(coll.ref, state)

    def _indexes(self, tx: Transaction, coll: Collection) -> List[Index]:
        state = tx.get(coll.ref)
        return [
            Index(ref, self.partition, self.key_functions)
            for ref in state["indexes"].values()
        ]

    def _index(self, tx: Transaction, coll: Collection, name: str) -> Index:
        state = tx.get(coll.ref)
        try:
            return Index(state["indexes"][name], self.partition, self.key_functions)
        except KeyError:
            raise IndexError_(f"no index named {name!r}") from None

    # ------------------------------------------------------------------
    # member operations (automatic index maintenance)
    # ------------------------------------------------------------------

    @staticmethod
    def _member_key(ref: ObjectRef) -> Tuple[int, int]:
        return (ref.partition, ref.rank)

    def insert(self, tx: Transaction, coll: Collection, value: Any) -> ObjectRef:
        """Create an object and add it to the collection."""
        ref = tx.create(self.partition, value)
        self.insert_ref(tx, coll, ref, value)
        return ref

    def insert_ref(
        self, tx: Transaction, coll: Collection, ref: ObjectRef, value: Any
    ) -> None:
        """Add an existing object to the collection."""
        with obs.span("collection.insert"):
            state = dict(tx.get(coll.ref))
            state["members_root"] = btree.insert(
                tx, self.partition, state["members_root"], self._member_key(ref), ref
            )
            state["size"] = state["size"] + 1
            tx.update(coll.ref, state)
            for index in self._indexes(tx, coll):
                index.add(tx, index.key_of(tx, value), ref)

    def update(
        self, tx: Transaction, coll: Collection, ref: ObjectRef, value: Any
    ) -> None:
        """Update a member object, keeping every index consistent."""
        with obs.span("collection.update"):
            old_value = tx.get_for_update(ref)
            for index in self._indexes(tx, coll):
                old_key = index.key_of(tx, old_value)
                new_key = index.key_of(tx, value)
                if old_key != new_key:
                    index.remove(tx, old_key, ref)
                    index.add(tx, new_key, ref)
            tx.update(ref, value)

    def remove(
        self,
        tx: Transaction,
        coll: Collection,
        ref: ObjectRef,
        delete_object: bool = True,
    ) -> None:
        """Remove a member (optionally deleting the object itself)."""
        with obs.span("collection.remove"):
            value = tx.get_for_update(ref)
            for index in self._indexes(tx, coll):
                index.remove(tx, index.key_of(tx, value), ref)
            state = dict(tx.get(coll.ref))
            state["members_root"] = btree.remove(
                tx, self.partition, state["members_root"], self._member_key(ref), ref
            )
            state["size"] = state["size"] - 1
            tx.update(coll.ref, state)
            if delete_object:
                tx.delete(ref)

    def contains(self, tx: Transaction, coll: Collection, ref: ObjectRef) -> bool:
        state = tx.get(coll.ref)
        return bool(btree.lookup(tx, state["members_root"], self._member_key(ref)))

    # ------------------------------------------------------------------
    # iterators (scan / exact-match / range, §2.2)
    # ------------------------------------------------------------------

    def scan(self, tx: Transaction, coll: Collection) -> Iterator[ObjectRef]:
        state = tx.get(coll.ref)
        for _key, ref in btree.iterate(tx, state["members_root"]):
            yield ref

    def scan_values(
        self, tx: Transaction, coll: Collection, batch_size: int = 64
    ) -> Iterator[Tuple[ObjectRef, Any]]:
        """Scan members yielding ``(ref, value)``, loading objects in
        batches of ``batch_size`` so each batch costs one coalesced chunk
        fetch per partition instead of one round trip per member."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        batch: List[ObjectRef] = []
        for ref in self.scan(tx, coll):
            batch.append(ref)
            if len(batch) >= batch_size:
                values = tx.get_many(batch)
                yield from zip(batch, values)
                batch = []
        if batch:
            values = tx.get_many(batch)
            yield from zip(batch, values)

    def exact(
        self, tx: Transaction, coll: Collection, index_name: str, key: Any
    ) -> List[ObjectRef]:
        with obs.span("collection.exact"):
            return self._index(tx, coll, index_name).exact(tx, key)

    def range(
        self,
        tx: Transaction,
        coll: Collection,
        index_name: str,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, ObjectRef]]:
        return self._index(tx, coll, index_name).range(
            tx, low, high, low_inclusive, high_inclusive
        )
