"""Object cache (§3, §7).

"The object store keeps a cache of frequently-used or dirty objects.
Caching data at this level is beneficial because the data is decrypted,
validated, and unpickled."  This cache holds *committed* objects only;
uncommitted (dirty) objects live in their transaction's private buffer
until commit — the no-steal policy (§2.2): modified objects must remain
in memory until their transaction commits.

Thread-safety contract: **internally locked**.  Concurrent server
sessions share one :class:`~repro.objectstore.store.ObjectStore` and hit
this cache from many threads at once; every public method takes a
private mutex so LRU bookkeeping can never be corrupted by interleaved
get/put/evict.  Note the lock protects the *cache structure* only —
coherence (evicting on overwrite, delete, abort, partition drop) remains
the object store's responsibility, exactly as before.

:func:`load_objects` is the one batched loader through a cache: the
object store loads through its shared cache, each snapshot through its
own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import (
    ChunkNotAllocatedError,
    ChunkNotWrittenError,
    ObjectNotFoundError,
)
from repro.objectstore.pickling import ObjectRef, PicklerRegistry, unpickle_value


_ABSENT = object()


class ObjectCache:
    """LRU cache of committed, unpickled objects."""

    def __init__(self, max_entries: int = 4096) -> None:
        self._max = max_entries
        self._mutex = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, ref: Hashable) -> Tuple[bool, Optional[Any]]:
        """Returns ``(present, value)`` — values may legitimately be None."""
        # every transactional read comes here: acquire and release are
        # cheaper than a ``with`` block's __enter__ / __exit__ calls
        self._mutex.acquire()
        try:
            value = self._entries.get(ref, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return False, None
            self._entries.move_to_end(ref)
            self.hits += 1
            return True, value
        finally:
            self._mutex.release()

    def put(self, ref: Hashable, value: Any) -> None:
        with self._mutex:
            self._entries[ref] = value
            self._entries.move_to_end(ref)
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)

    def evict(self, ref: Hashable) -> None:
        with self._mutex:
            self._entries.pop(ref, None)

    def evict_partition(self, partition: int) -> None:
        with self._mutex:
            for ref in [r for r in self._entries if r.partition == partition]:
                del self._entries[ref]

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)


def load_objects(
    refs: Iterable[ObjectRef],
    cache: ObjectCache,
    fetch: Callable[[int, List[int]], Dict[int, bytes]],
    registry: PicklerRegistry,
) -> Dict[ObjectRef, Any]:
    """Load several objects through ``cache``: the misses' chunks come from
    ``fetch(pid, ranks)``, one batch per partition, and are unpickled and
    cached."""
    result: Dict[ObjectRef, Any] = {}
    todo: Dict[int, List[ObjectRef]] = {}
    for ref in dict.fromkeys(refs):
        present, value = cache.get(ref)
        if present:
            result[ref] = value
        else:
            todo.setdefault(ref.partition, []).append(ref)
    for pid, missing in todo.items():
        try:
            chunks = fetch(pid, [ref.rank for ref in missing])
        except (ChunkNotWrittenError, ChunkNotAllocatedError) as exc:
            raise ObjectNotFoundError(f"missing object among {missing}") from exc
        for ref in missing:
            value = unpickle_value(chunks[ref.rank], registry)
            cache.put(ref, value)
            result[ref] = value
    return result
