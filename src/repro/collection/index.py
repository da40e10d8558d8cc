"""Functional indexes (§8).

"The collection store supports *functional indexes* that use keys
extracted from objects by deterministic functions [Hwa94].  The use of
functional indexes allows us to avoid a separate data definition language
for the database schema."

A key function is registered under a name; the index object persists the
*name*, and extraction happens on the decrypted, unpickled object.  A key
function returning ``None`` means "do not index this object" (partial
indexes for free).

Two index kinds:

* **sorted** — a persistent B-tree (:mod:`repro.collection.btree`);
  supports scan, exact-match, and range iterators;
* **unsorted** — a bucketed hash index; supports scan and exact-match.
  Keys are hashed *deterministically* (CRC-32 of their pickled form), not
  with Python's randomised ``hash()``, so the structure is stable across
  processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.collection import btree
from repro.errors import IndexError_
from repro.objectstore.pickling import ObjectRef, pickle_value, unpickle_value
from repro.objectstore.store import Transaction
from repro.util.checksum import crc32_bytes

#: number of buckets in an unsorted index
HASH_BUCKETS = 32


class KeyFunctionRegistry:
    """Named, deterministic key-extraction functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[[Any], Any]] = {}

    def register(
        self, name: str, function: Callable[[Any], Any], replace: bool = False
    ) -> None:
        existing = self._functions.get(name)
        if existing is not None and existing is not function and not replace:
            raise IndexError_(f"key function {name!r} already registered")
        self._functions[name] = function

    def get(self, name: str) -> Callable[[Any], Any]:
        try:
            return self._functions[name]
        except KeyError:
            raise IndexError_(
                f"key function {name!r} is not registered in this process"
            ) from None


DEFAULT_KEY_FUNCTIONS = KeyFunctionRegistry()


def register_key_function(
    name: str,
    function: Callable[[Any], Any],
    registry: KeyFunctionRegistry = DEFAULT_KEY_FUNCTIONS,
) -> None:
    registry.register(name, function)


def field_key(field: str) -> Callable[[Any], Any]:
    """Convenience key function: extract ``obj[field]`` (None if absent)."""

    def extract(obj: Any) -> Any:
        try:
            return obj[field]
        except (KeyError, TypeError):
            return None

    return extract


def _bucket_of(entry_key: bytes) -> int:
    """The bucket of a key, from its pickled form (which is also the
    key's entry in that bucket: pickle once, use twice)."""
    return crc32_bytes(entry_key) % HASH_BUCKETS


class Index:
    """Handle on one persistent index (state lives in an object).

    Index object state::

        {"name": str, "keyfunc": str, "sorted": bool,
         "root": ObjectRef | None,          # sorted
         "buckets": [ObjectRef | None]*32}  # unsorted
    """

    def __init__(
        self,
        ref: ObjectRef,
        partition: int,
        key_functions: KeyFunctionRegistry = DEFAULT_KEY_FUNCTIONS,
    ) -> None:
        self.ref = ref
        self.partition = partition
        self._key_functions = key_functions

    # -- creation -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        tx: Transaction,
        partition: int,
        name: str,
        keyfunc_name: str,
        sorted_index: bool,
        key_functions: KeyFunctionRegistry = DEFAULT_KEY_FUNCTIONS,
    ) -> "Index":
        key_functions.get(keyfunc_name)  # fail fast on unknown functions
        state: Dict[str, Any] = {
            "name": name,
            "keyfunc": keyfunc_name,
            "sorted": sorted_index,
        }
        if sorted_index:
            state["root"] = btree.create(tx, partition)
        else:
            state["buckets"] = [None] * HASH_BUCKETS
        ref = tx.create(partition, state)
        return cls(ref, partition, key_functions)

    # -- key extraction ---------------------------------------------------------

    def key_of(self, tx: Transaction, obj: Any) -> Any:
        state = tx.get(self.ref)
        return self._key_functions.get(state["keyfunc"])(obj)

    def name(self, tx: Transaction) -> str:
        return tx.get(self.ref)["name"]

    # -- maintenance ------------------------------------------------------------

    def add(self, tx: Transaction, key: Any, ref: ObjectRef) -> None:
        if key is None:
            return
        state = dict(tx.get(self.ref))
        if state["sorted"]:
            new_root = btree.insert(tx, self.partition, state["root"], key, ref)
            if new_root != state["root"]:
                state["root"] = new_root
                tx.update(self.ref, state)
        else:
            entry_key = pickle_value(key)
            bucket_index = _bucket_of(entry_key)
            buckets = list(state["buckets"])
            if buckets[bucket_index] is None:
                bucket_ref = tx.create(self.partition, {})
                buckets[bucket_index] = bucket_ref
                state["buckets"] = buckets
                tx.update(self.ref, state)
            else:
                bucket_ref = buckets[bucket_index]
            bucket = dict(tx.get(bucket_ref))
            refs = list(bucket.get(entry_key, []))
            if ref not in refs:
                refs.append(ref)
            bucket[entry_key] = refs
            tx.update(bucket_ref, bucket)

    def remove(self, tx: Transaction, key: Any, ref: ObjectRef) -> None:
        if key is None:
            return
        state = tx.get(self.ref)
        if state["sorted"]:
            btree.remove(tx, self.partition, state["root"], key, ref)
        else:
            entry_key = pickle_value(key)
            bucket_ref = state["buckets"][_bucket_of(entry_key)]
            if bucket_ref is None:
                raise IndexError_(f"index entry ({key!r}, {ref}) not found")
            bucket = dict(tx.get(bucket_ref))
            refs = list(bucket.get(entry_key, []))
            if ref not in refs:
                raise IndexError_(f"index entry ({key!r}, {ref}) not found")
            refs.remove(ref)
            if refs:
                bucket[entry_key] = refs
            else:
                bucket.pop(entry_key, None)
            tx.update(bucket_ref, bucket)

    # -- queries ---------------------------------------------------------------

    def exact(self, tx: Transaction, key: Any) -> List[ObjectRef]:
        state = tx.get(self.ref)
        if state["sorted"]:
            return btree.lookup(tx, state["root"], key)
        entry_key = pickle_value(key)
        bucket_ref = state["buckets"][_bucket_of(entry_key)]
        if bucket_ref is None:
            return []
        return list(tx.get(bucket_ref).get(entry_key, []))

    def range(
        self,
        tx: Transaction,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, ObjectRef]]:
        state = tx.get(self.ref)
        if not state["sorted"]:
            raise IndexError_(
                f"index {state['name']!r} is unsorted; range queries need a "
                f"sorted index"
            )
        return btree.iterate(
            tx, state["root"], low, high, low_inclusive, high_inclusive
        )

    def scan(self, tx: Transaction) -> Iterator[Tuple[Any, ObjectRef]]:
        state = tx.get(self.ref)
        if state["sorted"]:
            yield from btree.iterate(tx, state["root"])
            return
        for bucket_ref in state["buckets"]:
            if bucket_ref is None:
                continue
            bucket = tx.get(bucket_ref)
            for entry_key, refs in bucket.items():
                key = unpickle_value(entry_key)
                for ref in refs:
                    yield key, ref

    def destroy(self, tx: Transaction) -> None:
        state = tx.get(self.ref)
        if state["sorted"]:
            btree.destroy(tx, state["root"])
        else:
            for bucket_ref in state["buckets"]:
                if bucket_ref is not None:
                    tx.delete(bucket_ref)
        tx.delete(self.ref)
