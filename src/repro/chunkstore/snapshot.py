"""Lock-free MVCC snapshot views over the chunk store (§5.3 + ROADMAP).

``ChunkStore`` runs every call under its ``_lock`` (dropped only for a
commit's device flush) — fine for the paper's "only a few concurrent
transactions", hostile to a server whose readers would otherwise queue
behind every commit's appends and every checkpoint.  A
:class:`SnapshotView` is the escape hatch: an immutable,
self-contained read path over one partition's position map as of the
moment the view was opened, touching **no** chunk-store state after
construction.  Readers holding a view proceed while commits, checkpoints,
and flushes run — the "snapshot reads never block the commit path"
property the serving layer builds on.

Why this is sound
=================

* The store is log-structured: committed versions are never overwritten
  in place.  New commits and checkpoints append *new* extents; the
  extents reachable from the view's frozen root descriptor stay exactly
  as written.
* The cleaner moves current versions by writing new copies; the old
  extents stay until their segment is *reused*.  A cleaned segment is
  deferred, tagged with the store's commit count at the clean, and the
  log claims it only once a checkpoint after the clean is durable and no
  open view has ``frozen_at`` at or below that tag (the store counts open
  views by ``frozen_at``; see ``SegmentManager.release_deferred``).  A
  segment cleaned before the view froze is unreachable from its seed: the
  map it froze already names the moved copies.
* The view validates everything it reads against its frozen root hash
  through the same :class:`~repro.chunkstore.readpath.ReadPath` routines
  as the locked path — its own *instance* of the one walk and the one
  validator, not its own copy — built over private state: a descriptor
  cache seeded at the freeze, a quarantine table, cipher/hash/codec
  instances (crypto objects are not shared across threads) and a retried
  reader.  Tampering detection, retries and quarantine are therefore
  exactly those of ``ChunkStore.read_chunk``.
* The untrusted store's operations are internally locked, so raw device
  reads interleave safely with the commit path's writes.

Consistency contract
====================

A view is a *frozen committed state*.  Reads through it are repeatable
and mutually consistent regardless of concurrent commits.  The serving
layer opens views on copy-on-write partition copies
(:class:`~repro.chunkstore.ops.CopyPartition`), which nobody writes to,
so a snapshot's object graph is stable for its whole lifetime.  Opening
a view directly on a live partition is also safe — the view keeps
showing the old state while writers move on — because the view caches
validated payloads privately rather than through the store's shared
payload cache (which tracks the *latest* committed bytes).

Close views promptly (``ChunkStore.close_snapshot_view`` or the context
manager): every open view holds the segments cleaned after it from reuse,
and a store whose log fills up with held segments refuses commits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

from repro import obs
from repro.chunkstore.cache import ValidatedChunkCache
from repro.chunkstore.ids import SYSTEM_PARTITION
from repro.chunkstore.log import LogCodec
from repro.chunkstore.partition import PartitionState
from repro.chunkstore.readpath import ReadPath
from repro.crypto.registry import make_cipher, make_hash
from repro.errors import ChunkStoreError
from repro.platform.retry import RetriedReader, Retrier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chunkstore.store import ChunkStore


class SnapshotView:
    """Immutable validated read path over one partition's committed state.

    Construct via :meth:`ChunkStore.open_snapshot_view` (which freezes the
    partition's leader payload under the store lock and counts the view
    by ``frozen_at``); never directly.

    Thread-safe: many reader threads may share one view.  The descriptor
    cache and the payload cache lock themselves per operation; nothing is
    held across a device read, so two readers may validate the same map
    chunk twice but never wait on each other's I/O.
    """

    def __init__(
        self,
        store: "ChunkStore",
        pid: int,
        frozen_state: PartitionState,
        readpath: ReadPath,
    ) -> None:
        self._store = store  # for close(); reads never touch it
        self.pid = pid
        self._state = frozen_state
        self._readpath = readpath
        #: the store's commit count at the freeze (the caller holds the
        #: writers' lock, so no commit is half-way): the view shows exactly
        #: the commits up to this one, all of them durable
        self.frozen_at = store.commit_count_stat
        self.closed = False
        self.reads = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._store.close_snapshot_view(self)

    def close(self) -> None:
        self._store.close_snapshot_view(self)

    def _require_open(self) -> None:
        if self.closed:
            raise ChunkStoreError(f"snapshot view of partition {self.pid} is closed")

    # -- reads ---------------------------------------------------------------

    def read_chunk(self, rank: int) -> bytes:
        """Validated read of data chunk ``rank`` as of the snapshot (raises
        ``ChunkNotAllocatedError`` if it was not written by then)."""
        return self.read_chunks((rank,))[rank]

    def read_chunks(self, ranks: Sequence[int]) -> Dict[int, bytes]:
        """Batched :meth:`read_chunk` (one result per distinct rank):
        whatever the private payload cache lacks is fetched in one
        ``read_many`` per uncached map level plus one for the data
        extents, with a sequential loop's error semantics."""
        self._require_open()
        bodies = self._readpath.read_chunks(
            self._state, ranks, obs.span("chunkstore.snapshot_read")
        )
        self.reads += len(bodies)
        return bodies

    def chunk_exists(self, rank: int) -> bool:
        self._require_open()
        return self._state.is_committed_written(rank)

    def chunk_count(self) -> int:
        self._require_open()
        payload = self._state.payload
        return payload.next_rank - len(payload.free_ranks)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        cached = self._readpath.cache.stats()
        return {
            "pid": self.pid,
            "reads": self.reads,
            "closed": self.closed,
            "descriptors_cached": cached["clean_entries"] + cached["dirty_entries"],
            "payload_cache": self._readpath.payloads.stats(),
        }


def build_snapshot_view(store: "ChunkStore", pid: int) -> SnapshotView:
    """Internal factory (caller holds both store locks — the writers'
    lock is what keeps a commit whose flush is in flight out of the
    freeze): freeze the
    partition's committed state and build the view's own read path over
    private instances of everything the store's runs over (crypto
    instances tally into the store's per-algorithm counters; retries
    follow the store's policy and tally into the device's ``IOStats``)."""
    if pid == SYSTEM_PARTITION:
        raise ChunkStoreError("snapshot views of the system partition are not supported")
    config = store.config
    untrusted = store.platform.untrusted
    table = store.table
    frozen = table.open(pid, table.load(pid).payload.copy_for_snapshot())
    system_cipher = make_cipher(config.system_cipher, table.system_key)
    system_hash = make_hash(config.system_hash)
    table.share_tallies(system_cipher, system_hash)
    retrier = Retrier(
        config.retry_policy, clock=store.platform.clock, stats=untrusted.stats
    )
    readpath = ReadPath(
        # the store's vectors and dirty descriptors as of now (why both:
        # see partition_entries); grows with every map chunk the view loads
        store.cache.partition_entries(pid),
        {},  # quarantine: the view's own, never the store's
        # NOT the store's payload cache, which tracks the latest committed
        # bytes rather than this snapshot
        ValidatedChunkCache(config.payload_cache_bytes),
        LogCodec(system_cipher, system_hash),
        # no seal hook: open_snapshot_view sealed the log buffer, and
        # nothing the view can reach is appended afterwards
        RetriedReader(untrusted, retrier),
        config.fanout,
        config.superblock_size,
    )
    return SnapshotView(store, pid, frozen, readpath)
