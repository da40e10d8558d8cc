"""Lock-free MVCC snapshot views over the chunk store (§5.3 + ROADMAP).

``ChunkStore`` runs every call under its ``_lock`` (dropped only for a
commit's device flush) — fine for the paper's "only a few concurrent
transactions", hostile to a server whose readers would otherwise queue
behind every commit's appends and every checkpoint.  A
:class:`SnapshotView` is the escape hatch: an immutable,
self-contained read path over one partition's position map as of the
moment the view was opened, taking **none** of the chunk store's locks
after construction (it reads what the store shares with it, below, and
changes nothing of the store's but the internally locked payload cache
and the stats tallies).  Readers holding a view proceed while commits, checkpoints,
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
  validator, not its own copy.  Tampering detection, retries and
  quarantine are therefore exactly those of ``ChunkStore.read_chunk``.
* The instance's descriptor cache is the store's frozen by reference
  (:meth:`DescriptorCache.freeze
  <repro.chunkstore.cache.DescriptorCache.freeze>`): the base of vectors
  and the base of dirty descriptors the last freeze built, shared, plus a
  copy of what was installed and put since.  The store never changes a
  base in place: a removal other than an LRU eviction (a checkpoint's
  clean of the dirty set, ``cache.clear()``, a partition reset or
  deallocation) drops it, and so does a delta past its rebase bound; the
  next freeze builds a new one.  An evicted vector stays in its base,
  where it is still its map chunk's body — a later rewrite installs the
  new one into the delta, which this view copied before that.  So opening
  a view copies what changed since the last base, not the cache, and the
  view's walk sees exactly the map as of the freeze.  The map chunks the
  view loads itself go into a dict of its own.
* The rest is shared with the store, and holds nothing a read changes:
  the partition's cipher and hash (an immutable key schedule; every
  cipher builds its context per call — ``accel._OsslCbc``, the AEAD
  primitives — and the hash a hasher per call), the store's
  :class:`~repro.chunkstore.log.LogCodec` (the system cipher and hash,
  the same), and the one retried reader the store builds for its views
  (a reader keeps no state across calls; its retrier's jitter comes from
  a ``random.Random``, whose calls are atomic).  A partition reset or
  deallocation opens new crypto instances for the live partition; the
  view keeps the ones it froze.  The crypto tallies are shared ints, and
  a race can drop a count, like every stats int.
* The payload cache is the store's too.  Its entries name the digest
  they were validated against and whether the store's read path filled
  them.  A view's read hits only the digest of the descriptor its frozen
  walk resolved, so it never gets a version newer than its freeze; the
  store's hits only what the store filled, which its invalidation keeps
  current, so it never gets an older one a view filled — and a view's
  fill never replaces one of the store's.  A chunk with no body hash (a
  partition on the null hash) has no digest: a view neither reads nor
  fills its entry.
* Only the quarantine table is the view's alone: what it finds damaged
  quarantines nothing for the store (the store's entry for a damaged
  chunk is dropped from the payload cache, as the store's own read
  would).
* The untrusted store's operations are internally locked, so raw device
  reads interleave safely with the commit path's writes.

Consistency contract
====================

A view is a *frozen committed state*.  Reads through it are repeatable
and mutually consistent regardless of concurrent commits.  The serving
layer (:mod:`repro.objectstore.snapshots`) opens views directly on the
live partition, which writers keep committing to; no copy partition is
materialized.  The freeze takes a copy-on-write snapshot of the
partition's leader payload (``LeaderPayload.copy_for_snapshot``, the one
partition copies are built from), so the view's root descriptor and
rank allocation stay as of ``frozen_at`` while the live partition moves
on.  Every read validates against that frozen root, and the store's
payload cache answers a view only with the version its frozen walk
names, so a commit after the freeze is never visible through it.

Close views promptly (``ChunkStore.close_snapshot_view`` or the context
manager): every open view holds the segments cleaned after it from reuse,
and a store whose log fills up with held segments refuses commits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

from repro import obs
from repro.chunkstore.config import SUPERBLOCK_SIZE
from repro.chunkstore.ids import SYSTEM_PARTITION
from repro.chunkstore.partition import PartitionState
from repro.chunkstore.readpath import ReadPath
from repro.errors import ChunkStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chunkstore.store import ChunkStore


class SnapshotView:
    """Immutable validated read path over one partition's committed state.

    Construct via :meth:`ChunkStore.open_snapshot_view` (which freezes the
    partition's leader payload under the store lock and counts the view
    by ``frozen_at``); never directly.

    Thread-safe: many reader threads may share one view.  The frozen
    descriptors need no lock (one dict operation per lookup or install),
    the payload cache locks itself per operation, and nothing is held
    across a device read, so two readers may validate the same map chunk
    twice but never wait on each other's I/O.
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
        #: the store's commit count at the freeze: commits are counted as
        #: they install their effects, after their flush, so the view shows
        #: exactly the commits up to this one, all of them durable (one in
        #: flight is neither counted nor shown)
        self.frozen_at = store.commit_count_stat
        self.closed = False

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
        whatever the payload cache lacks at the frozen versions is fetched
        in one ``read_many`` per uncached map level plus one for the data
        extents, with a sequential loop's error semantics."""
        self._require_open()
        return self._readpath.read_chunks(
            self._state, ranks, obs.span("chunkstore.snapshot_read")
        )

    def chunk_exists(self, rank: int) -> bool:
        self._require_open()
        return self._state.is_committed_written(rank)

    def chunk_count(self) -> int:
        self._require_open()
        payload = self._state.payload
        return payload.next_rank - len(payload.free_ranks)


def build_snapshot_view(store: "ChunkStore", pid: int) -> SnapshotView:
    """Internal factory (caller holds ``_lock``; a commit whose flush is
    in flight has installed nothing yet, so what it freezes is durable):
    freeze the partition's committed state and build the view's read path
    over it.  Only the leader payload, the delta of the descriptor cache
    and a quarantine table are the view's own; the partition's cipher and
    hash, the codec, the payload cache and the reader are the store's."""
    if pid == SYSTEM_PARTITION:
        raise ChunkStoreError("snapshot views of the system partition are not supported")
    live = store.table.load(pid)
    frozen = PartitionState(pid, live.payload.copy_for_snapshot(), live.cipher, live.hash)
    readpath = ReadPath(
        store.cache.freeze(),
        {},  # quarantine: the view's own, never the store's
        store.payloads,
        store.codec,
        # no seal hook: open_snapshot_view sealed the log buffer, and
        # nothing the view can reach is appended afterwards
        store.view_reader,
        store.config.fanout,
        SUPERBLOCK_SIZE,
        current=False,
    )
    return SnapshotView(store, pid, frozen, readpath)
