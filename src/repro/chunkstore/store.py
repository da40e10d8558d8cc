"""The chunk store (§4, §5): trusted storage for named chunks.

This is TDB's core contribution: a log-structured store whose location map
*is* a Merkle tree.  Every piece of persistent state — application data,
indexing metadata of higher modules, the chunk map itself, partition
leaders — is a chunk, encrypted before it reaches the untrusted store and
validated against a hash held (directly or transitively) in the
tamper-resistant store when it is read back.

Public surface
==============

``ChunkStore.format(platform, config)``
    provision a fresh store (writes the initial checkpoint).
``ChunkStore.open(platform, config)``
    reopen after a shutdown or crash; runs recovery (roll-forward of the
    residual log + validation against the tamper-resistant store).
``allocate_partition`` / ``allocate_chunk``
    hand out ids (volatile until committed, §4.4).
``commit(ops)``
    atomically apply chunk writes/deallocations and partition
    creates/copies/deallocations (§4.6, §5.1).
``read_chunk(pid, rank)``
    locate and validate a chunk (§4.5).
``diff(old_pid, new_pid)``
    compare two partitions' contents via their position maps (§5.3).
``checkpoint()``
    propagate buffered descriptors up the map and write a new leader
    (§4.7).
``clean(...)``
    reclaim obsolete chunk versions (§4.9.5) — see
    :mod:`repro.chunkstore.cleaner`.

Concurrency: the paper's "mutual exclusion, which does not overlap I/O
and computation, but is simple and acceptable when concurrency is low"
(§4.2), less the device flush that makes a commit durable.  Two
re-entrant locks, always taken in the order writers' lock → ``_lock``:

* ``_writers``, the **writers' lock**, is taken by ``commit``,
  ``checkpoint``, ``clean``, ``diff``, ``scrub`` and ``close``: one of them
  appends at a time.  Each holds it to the end, bar a pipelined commit
  (below), which holds it until its set is sealed.
* ``_lock`` guards the volatile image (partition table, caches, log tail,
  quarantine) and is what every public call takes.

Every commit set takes one route, :meth:`ChunkStore._commit_set`: an
application commit, whatever its operations, and the cleaner's re-commit
of the versions it moves (§4.9.5).  The set appends its versions and
decides their effects, is made durable, and installs the effects
(descriptors, leaders, partitions created, reset, copied or freed,
payload invalidation, allocation, live bytes) only once it is durable.
So the image *is* the last durable state: reads, partition lookups,
allocation, status and stats calls — and ``open_snapshot_view``, which
takes ``_lock`` alone — see none of a set in flight.

**Pipelined commits** (flush pipelining, as in Aether).  A plain
application commit — chunk writes and frees of ranks its partitions
have, flushed, the writers' lock taken by ``commit`` itself — on a
device whose last flush took long enough to be worth overlapping
(:data:`PIPELINE_MIN_FLUSH_S`; a flush that takes next to nothing does
not repay the pipeline's thread hand-offs) seals its
set under both locks and releases both for the device flush, so the next
commit appends and starts its own flush meanwhile.  It finishes under
``_lock`` alone, strictly in seal order: ``validator.flushed`` and
``publish`` for what the set sealed (its commit count, or its chain and
tail), the ``commit.after_flush`` / ``after_tr`` crash points, its
install and its count in ``commit_count_stat``.  If a set fails, every
set sealed after it fails too, before any is acknowledged: with its own
flush's error, or with :class:`~repro.errors.CommitOutcomeUnknownError`
— it is in the log, and recovery decides, never keeping it without the
failed set.  A set sealed *before* one that fails the store is not
stopped by it: durable once its own flush returns, it finishes and is
acknowledged; only what comes to the gate afterwards is refused
(``ChunkStoreError``, nothing of it written).  Every other
set keeps the writers' lock to the end and offers ``_lock`` for its
flush (:meth:`LogWriter.flush
<repro.chunkstore.writepath.LogWriter.flush>`); one closed inside another
writer (the cleaning of ``clean`` or of a commit's ``make_room``, scrub's
repair commit) holds ``_lock`` twice, so the lock stays taken; a
checkpoint never offers it.

A writer that needs the image to cover the whole log — a checkpoint,
``clean`` (the cleaner must never judge currency against an image
missing an in-flight set), ``scrub``, ``diff``, ``close``, and a commit
with partition operations, with maintenance for ``make_room`` to do, or
naming a chunk an in-flight set names — takes the writers' lock, so no
new set can start, and waits with ``_lock`` released until every set in
flight has installed (:meth:`ChunkStore._drain`).  Anything that raises
on the route — a failed flush, a device fault while appending, a crash
point — fails the store, the cleaner's re-commit included.

``ChunkStore`` is the façade and the lock owner.  The state a commit
changes is the :class:`~repro.chunkstore.partitions.PartitionTable`
(``store.table``); reads go through the
:class:`~repro.chunkstore.readpath.ReadPath`, appends through the
:class:`~repro.chunkstore.writepath.LogWriter`; whether they fit, and
when to clean and checkpoint to make them fit, is the
:class:`~repro.chunkstore.logspace.LogSpace`'s to say; checkpoint,
cleaner, recovery and scrub are modules of their own that are handed the
store and run under its locks.  Every public method takes its lock(s),
passes :meth:`ChunkStore._check_open` and delegates.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.chunkstore.cache import DescriptorCache, ValidatedChunkCache
from repro.chunkstore.checkpoint import write_checkpoint
from repro.chunkstore.cleaner import Cleaner
from repro.chunkstore.config import (
    RETRY_POLICY,
    SUPERBLOCK_SIZE,
    StoreConfig,
    mac_key,
    system_cipher_key,
)
from repro.chunkstore.descriptor import ChunkDescriptor
from repro.chunkstore.ids import (
    SYSTEM_PARTITION,
    ChunkId,
    data_id,
    partition_rank,
    rank_to_partition,
)
from repro.chunkstore.leader import LeaderPayload, SystemExtras
from repro.chunkstore.log import DeallocateRecord, LogCodec, VersionKind
from repro.chunkstore.logspace import LogSpace
from repro.chunkstore.ops import (
    CopyPartition,
    DeallocateChunk,
    DeallocatePartition,
    WriteChunk,
    WritePartition,
)
from repro.chunkstore.partition import PartitionState, generate_partition_key
from repro.chunkstore.partitions import PartitionTable
from repro.chunkstore.readpath import ReadPath
from repro.chunkstore.segments import LogWriteBuffer, SegmentManager
from repro.chunkstore.validation import Seal, make_validator
from repro.chunkstore.writepath import LogWriter
from repro.crypto.mac import Mac
from repro.crypto.registry import KEY_SIZES, make_cipher, make_hash
from repro.errors import (
    ChunkStoreError,
    CommitOutcomeUnknownError,
    StorageFullError,
    TamperDetectedError,
)
from repro.platform.retry import RetriedReader, Retrier
from repro.platform.trusted_platform import TrustedPlatform
from repro.util.checksum import crc32_bytes
from repro.util.codec import Decoder, Encoder

_SUPERBLOCK_MAGIC = b"TDB1"

#: what a commit set's appends leave to install once it is durable:
#: ``(effect, *args)`` calls, in order
_Effects = List[Tuple[Callable, ...]]

#: seconds: a plain commit is pipelined only while the device's last flush
#: took at least this long.  Overlapping a flush buys the next commit that
#: flush's time, and costs each set thread hand-offs (its finish on the
#: committing thread, the next set's start on another) that a flush which
#: takes next to nothing does not repay: on a device whose flush takes no
#: time, four writers through the server ran at 0.8x one session's
#: throughput pipelined, 1.5x not (``python -m repro.bench server``,
#: ``cpu_bound``, 2-core box), where a commit set's own work is ≈ 0.3 ms
PIPELINE_MIN_FLUSH_S = 0.0005


class _InFlight:
    """An application commit set sealed with the writers' lock released
    and not finished yet (``ChunkStore._finish``)."""

    __slots__ = ("effects", "names", "bound", "seal", "before", "then", "error", "done")

    def __init__(
        self, effects: _Effects, bound: int, before: Optional["_InFlight"]
    ) -> None:
        self.effects = effects
        #: the ``(partition, rank)`` of every chunk it writes or frees
        self.names: Set[Tuple[int, int]] = set()
        #: what it may take from the log (``LogSpace.admits``)
        self.bound = bound
        #: what the validator recorded of it: what its flush and publish
        #: are about
        self.seal: Seal = 0
        #: the set sealed just before it, if that was still in flight:
        #: this one finishes only after it
        self.before = before
        #: the ``sealed`` call of the set sealed after it, made once this
        #: one has finished (``ChunkStore.commit``)
        self.then: Optional[Callable[[], None]] = None
        #: what it failed with, if it did: every set sealed after it fails
        self.error: Optional[BaseException] = None
        #: set once it is installed or has failed
        self.done = threading.Event()


logger = logging.getLogger("repro.chunkstore")


def _names(operations: Sequence[object]) -> Set[Tuple[int, int]]:
    """The ``(partition, rank)`` of every chunk ``operations`` write or free."""
    return {
        (op.partition, op.rank)
        for op in operations
        if isinstance(op, (WriteChunk, DeallocateChunk))
    }


class ChunkStore:
    """Trusted chunk storage over an untrusted log (see module docstring)."""

    def __init__(self, platform: TrustedPlatform, config: StoreConfig) -> None:
        """Internal; use :meth:`format` or :meth:`open`."""
        self.platform = platform
        self.config = config
        secret = platform.secret_store.read()
        system_key = system_cipher_key(secret, config.system_cipher)
        system_cipher = make_cipher(config.system_cipher, system_key)
        system_hash = make_hash(config.system_hash)
        if system_hash.digest_size == 0:
            raise ValueError("the system hash function must not be null")
        self.codec = LogCodec(system_cipher, system_hash)
        self.mac = Mac(mac_key(secret), system_hash)
        self.segman = SegmentManager(
            SUPERBLOCK_SIZE, config.segment_size, platform.untrusted.size
        )
        self.cache = DescriptorCache(config.cache_size, config.fanout)
        #: validated-payload cache: decrypted, hash-verified chunk bodies
        #: (hits skip the device, the cipher, and the hasher entirely)
        self.payloads = ValidatedChunkCache(config.payload_cache_bytes)
        self.retrier = Retrier(
            RETRY_POLICY, clock=platform.clock, stats=platform.untrusted.stats
        )
        self.logbuf = LogWriteBuffer(platform.untrusted, self.retrier)
        #: every device read seals the log buffer first: the extent may
        #: still sit in the pending span
        self.reader = RetriedReader(
            platform.untrusted, self.retrier, before_read=self.logbuf.seal
        )
        #: the reader every snapshot view shares: no seal (a view opens on a
        #: sealed buffer, and reaches nothing appended after), and retries
        #: of its own, so view reads never perturb the store's backoff
        self.view_reader = RetriedReader(
            platform.untrusted,
            Retrier(RETRY_POLICY, clock=platform.clock, stats=platform.untrusted.stats),
        )
        #: the §4.5 walk and validator, over this store's own state (its
        #: quarantine table is this store's degraded-mode state: filled in
        #: by reads, healed by scrub); every call into it runs under ``_lock``
        self.readpath = ReadPath(
            self.cache,
            {},
            self.payloads,
            self.codec,
            self.reader,
            config.fanout,
            SUPERBLOCK_SIZE,
        )
        #: the volatile image of committed state, and the one place a
        #: committed version's effect on it is applied; every call into it
        #: runs under ``_lock``
        self.table = PartitionTable(self.readpath, self.segman, system_key)
        self.table.share_tallies(system_cipher, system_hash)
        self.partitions = self.table.partitions
        self.validator = make_validator(
            config, platform, system_hash, self.mac, system_cipher.authenticates
        )
        #: the one commit-set protocol (appends, jumps, seal, flush, TR
        #: write), over this store's log; every call runs under ``_lock``
        self.writer = LogWriter(
            self.codec, self.segman, self.logbuf, self.validator, platform.injector
        )
        #: the checkpoint reserve, what every other append costs, and when
        #: to clean and checkpoint to keep room for it; runs under both locks
        self.log_space = LogSpace(self)
        #: §4.9.5 cleaning, and its lifetime tallies; takes both locks itself
        self.cleaner = Cleaner(self)
        #: the writers' lock: whoever appends to the log holds it, and
        #: takes it first — to the end, bar a pipelined commit, which
        #: releases it once its set is sealed (see the module docstring)
        self._writers = threading.RLock()
        #: the volatile image's lock; free across a commit set's device
        #: flush, and while a writer waits for the sets in flight
        self._lock = threading.RLock()
        self._leader_location = 0
        self._closed = False
        self._failed = False
        self.commit_count_stat = 0
        #: application commit sets sealed with the writers' lock released
        #: and not finished yet, in seal order (the module docstring)
        self._in_flight: List[_InFlight] = []
        #: open snapshot views, counted by ``frozen_at``: a segment cleaned
        #: at or after the oldest is not reused while it is open
        self._open_views: Dict[int, int] = {}
        self.snapshot_views_opened = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def format(
        cls, platform: TrustedPlatform, config: Optional[StoreConfig] = None
    ) -> "ChunkStore":
        """Provision a fresh, empty store and write its first checkpoint."""
        config = config or StoreConfig()
        store = cls(platform, config)
        store.segman.format()
        system_payload = LeaderPayload(
            cipher_name=config.system_cipher,
            hash_name=config.system_hash,
            key=b"",  # the system key is derived from the secret store
            system=SystemExtras(),
        )
        store.table.open_system(system_payload)
        with store._lock:
            store._write_checkpoint(initial=True)
        return store

    @classmethod
    def open(
        cls, platform: TrustedPlatform, config: Optional[StoreConfig] = None
    ) -> "ChunkStore":
        """Reopen an existing store; validates and rolls the residual log
        forward (§4.8).  Raises :class:`TamperDetectedError` if the
        untrusted store fails validation."""
        from repro.chunkstore.recovery import recover

        stored, leader_hint = cls._read_superblock(platform)
        if config is None:
            config = stored
        else:
            # Geometry and mode come from the superblock; mismatches are
            # either operator error or tampering with the (unauthenticated)
            # superblock — both surface as validation failures later, but
            # catching geometry divergence here gives a clearer error.
            for attr in (
                "segment_size",
                "fanout",
                "validation_mode",
                "system_cipher",
                "system_hash",
            ):
                if getattr(config, attr) != getattr(stored, attr):
                    raise ChunkStoreError(
                        f"config {attr}={getattr(config, attr)!r} does not match "
                        f"stored {getattr(stored, attr)!r}"
                    )
        store = cls(platform, config)
        with store._lock:
            recover(store, leader_hint)
        return store

    def close(self, checkpoint: bool = True) -> None:
        """Shut down cleanly (checkpointing buffered map updates)."""
        with self._writers, self._lock:
            if self._closed:
                return
            self._drain()
            # a log with no room for a checkpoint closes without one:
            # recovery replays the residual log instead
            if checkpoint and not self._failed and self.log_space.checkpoint_fits():
                self._write_checkpoint()
            self._closed = True

    # ------------------------------------------------------------------
    # superblock
    # ------------------------------------------------------------------

    def _superblock_bytes(self) -> bytes:
        enc = Encoder()
        enc.raw(_SUPERBLOCK_MAGIC)
        enc.uint(1)  # format version
        enc.uint(self.config.segment_size)
        enc.uint(self.config.fanout)
        enc.text(self.config.validation_mode)
        enc.text(self.config.system_cipher)
        enc.text(self.config.system_hash)
        enc.uint(SUPERBLOCK_SIZE)
        enc.uint(self.config.delta_ut)
        enc.uint(self.config.delta_tu)
        enc.uint(self._leader_location)
        payload = enc.finish()
        return payload + crc32_bytes(payload).to_bytes(4, "big")

    def _write_superblock(self) -> None:
        data = self._superblock_bytes()
        if len(data) > SUPERBLOCK_SIZE:
            raise ChunkStoreError("superblock overflow")
        padded = data.ljust(SUPERBLOCK_SIZE, b"\x00")
        self.retrier.call(
            lambda: self.platform.untrusted.write(0, padded), "superblock write"
        )
        self.retrier.call(self.platform.untrusted.flush, "superblock flush")

    @staticmethod
    def _read_superblock(platform: TrustedPlatform) -> Tuple[StoreConfig, int]:
        """The stored configuration and the leader location beside it —
        both unauthenticated hints (see :class:`StoreConfig`)."""
        head = platform.untrusted.tamper_read(0, SUPERBLOCK_SIZE)
        if head[:4] != _SUPERBLOCK_MAGIC:
            raise ChunkStoreError("no TDB store found (bad superblock magic)")
        try:
            dec = Decoder(head, 4)
            version = dec.uint()
            if version != 1:
                raise ChunkStoreError(f"unsupported store format version {version}")
            segment_size = dec.uint()
            fanout = dec.uint()
            mode = dec.text()
            system_cipher = dec.text()
            system_hash = dec.text()
            superblock_size = dec.uint()
            delta_ut = dec.uint()
            delta_tu = dec.uint()
            leader_location = dec.uint()
            payload_end = dec.position
            expected_crc = int.from_bytes(head[payload_end : payload_end + 4], "big")
            if crc32_bytes(head[:payload_end]) != expected_crc:
                raise TamperDetectedError("superblock checksum mismatch")
            if superblock_size != SUPERBLOCK_SIZE:
                raise ChunkStoreError(f"unsupported superblock size {superblock_size}")
            config = StoreConfig(
                segment_size=segment_size,
                fanout=fanout,
                validation_mode=mode,
                system_cipher=system_cipher,
                system_hash=system_hash,
                delta_ut=delta_ut,
                delta_tu=delta_tu,
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise TamperDetectedError(f"corrupt superblock: {exc}") from exc
        return config, leader_location

    # ------------------------------------------------------------------
    # the gate: every public call below takes ``_lock`` (a writer: the
    # writers' lock, then ``_lock``) and passes it first
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        """Refuse on a closed store, and on a failed one: its volatile
        image is half-applied, so nothing may act on it or serve from it.
        The few calls that skip this say why (DESIGN.md has the list)."""
        if self._closed:
            raise ChunkStoreError("chunk store is closed")
        if self._failed:
            raise ChunkStoreError(
                "chunk store is in a failed state after an interrupted "
                "commit; reopen it to recover from the log"
            )

    # white-box entries for tests and tools: no lock, no gate

    def _state(self, pid: int) -> PartitionState:
        return self.table.load(pid)

    def _get_descriptor(self, cid: ChunkId) -> ChunkDescriptor:
        return self.table.descriptor(cid)

    # ------------------------------------------------------------------
    # partitions and allocation (§4.4) — see repro.chunkstore.partitions
    # ------------------------------------------------------------------

    def partition_exists(self, pid: int) -> bool:
        with self._lock:
            self._check_open()
            return self.table.exists(pid)

    def partition_ids(self) -> List[int]:
        """Ids of all written partitions (excluding the system partition)."""
        with self._lock:
            self._check_open()
            return self.table.ids()

    def partition_info(self, pid: int) -> Dict[str, object]:
        """What ``pid``'s leader says (``key`` is the partition's secret
        key: the backup store archives it under the system cipher)."""
        with self._lock:
            self._check_open()
            payload = self.table.load(pid).payload
            return {
                "name": payload.name,
                "cipher": payload.cipher_name,
                "hash": payload.hash_name,
                "key": payload.key,
                "chunk_count": payload.next_rank - len(payload.free_ranks),
                "copies": list(payload.copies),
                "copy_of": payload.copy_of,
            }

    def find_partition(self, name: str) -> Optional[int]:
        """Look up a partition by the well-known name in its leader.

        Scans all partition leaders; intended for a handful of well-known
        partitions (e.g. the backup registry, the object-store root)."""
        with self._lock:
            self._check_open()
            for pid in self.table.ids():
                if self.table.load(pid).payload.name == name:
                    return pid
            return None

    def allocate_partition(self) -> int:
        """Return an unallocated partition id (volatile until written)."""
        with self._lock:
            self._check_open()
            return rank_to_partition(self.table.system.allocate_rank())

    def allocate_chunk(self, pid: int) -> int:
        """Return an unallocated chunk rank in ``pid`` (volatile until
        written)."""
        with self._lock:
            self._check_open()
            return self.table.load(pid).allocate_rank()

    def reserve_partition_id(self, pid: int) -> None:
        """Make a *specific* partition id allocatable (volatile until its
        leader is committed).  Used by the backup store, which must restore
        a partition under its original id even into a fresh database."""
        with self._lock:
            self._check_open()
            self.table.system.allocate_specific(partition_rank(pid))

    def reserve_chunk(self, pid: int, rank: int) -> None:
        """Make the *specific* rank ``(pid, rank)`` allocatable (volatile
        until written; a no-op if it is allocated or written already) —
        a partition's conventional root, a page number, a restored rank."""
        with self._lock:
            self._check_open()
            self.table.load(pid).allocate_specific(rank)

    def release_chunk(self, pid: int, rank: int) -> None:
        """Hand back a rank that was allocated but never written.  Answers
        on a failed store too: an aborting transaction returns its ranks
        right after the commit that failed it."""
        with self._lock:
            self.table.load(pid).cancel_pending(rank)

    def chunk_status(self, pid: int, rank: int) -> str:
        """Introspection: 'written', 'unwritten', 'free', or 'unallocated'."""
        with self._lock:
            self._check_open()
            return self.table.load(pid).status(rank)

    def data_ranks(self, pid: int) -> List[int]:
        """All committed-written data ranks of a partition."""
        with self._lock:
            self._check_open()
            return self.table.load(pid).written_ranks()

    # ------------------------------------------------------------------
    # the validated read path (§4.5) — see repro.chunkstore.readpath
    # ------------------------------------------------------------------

    def read_chunk(self, pid: int, rank: int) -> bytes:
        """Return the last written state of chunk ``(pid, rank)`` (§4.5)."""
        with self._lock, obs.span("chunkstore.read_chunk"):
            self._check_open()
            return self.readpath.read_chunks(
                self.table.load(pid), (rank,), obs.span("chunkstore.read")
            )[rank]

    def read_chunks(self, pid: int, ranks: Sequence[int]) -> Dict[int, bytes]:
        """Batched :meth:`read_chunk`: returns ``{rank: bytes}`` for every
        requested rank, coalescing descriptor resolution (one ``read_many``
        per uncached map level) and the data-extent fetches (one more) so
        an N-chunk read costs a constant number of round trips instead of
        2(h+1) per chunk.  Error semantics match a sequential loop: the
        first rank that cannot be served raises its typed error."""
        with self._lock, obs.span(
            "chunkstore.read_chunks", pid=pid, ranks=len(ranks)
        ):
            self._check_open()
            return self.readpath.read_chunks(
                self.table.load(pid), ranks, obs.span("chunkstore.read_batch")
            )

    # ------------------------------------------------------------------
    # snapshot views (MVCC read path for the serving layer)
    # ------------------------------------------------------------------

    def open_snapshot_view(self, pid: int) -> "SnapshotView":
        """Freeze partition ``pid``'s committed state into a lock-free
        :class:`~repro.chunkstore.snapshot.SnapshotView`.

        Reads through the view proceed without the store's locks — they
        never block behind (or be blocked by) commits, checkpoints, or
        flushes.  *Opening* one takes ``_lock`` alone: inside a commit's
        flush it opens at once on the last durable state, which is what
        the image holds until the commit installs its effects
        (``frozen_at`` does not count that commit).  The segments cleaned
        while it is open are not reused until it closes, so close views
        promptly.  See :mod:`repro.chunkstore.snapshot` for the full
        soundness argument and consistency contract."""
        from repro.chunkstore.snapshot import build_snapshot_view

        with self._lock:
            self._check_open()
            self.logbuf.seal()  # the frozen root must be device-visible
            view = build_snapshot_view(self, pid)
            views = self._open_views
            views[view.frozen_at] = views.get(view.frozen_at, 0) + 1
            self.snapshot_views_opened += 1
            obs.emit("snapshot_view_opened", pid=pid, frozen_at=view.frozen_at)
            return view

    def close_snapshot_view(self, view: "SnapshotView") -> None:
        """Release a snapshot view (idempotent); the segments it holds are
        free at the next checkpoint unless an older view holds them too."""
        with self._lock:
            if view.closed:
                return
            view.closed = True
            views = self._open_views
            left = views[view.frozen_at] - 1
            if left:
                views[view.frozen_at] = left
            else:
                del views[view.frozen_at]  # no key at zero: see _oldest_view
            obs.emit("snapshot_view_closed", pid=view.pid, frozen_at=view.frozen_at)

    def _oldest_view(self) -> int:
        """The oldest open view's ``frozen_at``; with none open, a count
        above every clean's (see ``SegmentManager.releasable``)."""
        return min(self._open_views, default=self.commit_count_stat + 1)

    # ------------------------------------------------------------------
    # commit (§4.6, §5.1)
    # ------------------------------------------------------------------

    def commit(
        self,
        operations: Sequence[object],
        sealed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Atomically apply a set of operations (see
        :mod:`repro.chunkstore.ops`).  The commit is durable when this
        method returns; a crash at any earlier point leaves the store in
        its prior committed state.  Its effects are installed only once it
        is durable, and after those of every commit sealed before it, so
        no read shows them sooner (module docstring).

        A plain commit that is no other writer's — chunk writes and frees
        of ranks its partitions have, flushed on a device whose flush is
        worth overlapping (:data:`PIPELINE_MIN_FLUSH_S`), the writers' lock
        taken here — is *pipelined*: it seals under both locks and releases
        them (here, and only here, does a set outlive the writers' lock), calls
        ``sealed`` — the next writer may start appending — and is finished
        by :meth:`_finish`.  With a set sealed before it still in flight,
        ``sealed`` is called once that one has finished instead, from the
        thread that finished it: a caller that waits for it keeps at most
        two sets in flight, and what arrives meanwhile can form its next
        batch.  Any other commit keeps
        the writers' lock to the end and never calls ``sealed``."""
        nested = self._writers._is_owned()
        with obs.span("chunkstore.commit", ops=len(operations)):
            with self._writers, self._lock:
                self._check_open()
                bound = self._admit(operations)
                flight = self._commit_set(
                    lambda: self._append_operations(operations),
                    None if nested else bound,
                )
                if flight is None:
                    self.commit_count_stat += 1
                    return
                flight.names = _names(operations)
                if flight.before is not None:
                    # the caller's next set may start once the one before
                    # this has finished, and forms meanwhile
                    flight.before.then, sealed = sealed, None
            # both locks are released: the next set may append while this
            # one flushes
            try:
                if sealed is not None:
                    sealed()
            finally:
                self._finish(flight)

    def _admit(self, operations: Sequence[object]) -> Optional[int]:
        """An application commit's pre-flight, under both locks: wait for
        the sets in flight if this one needs the whole image
        (:meth:`_needs_drain`), validate, and make room.  Returns what it may
        take from the log if it is a plain commit (``LogSpace.make_room``):
        only such a commit is pipelined."""
        if self._in_flight and self._needs_drain(operations):
            self._drain()
            self._check_open()
        self._validate_operations(operations)
        if any(isinstance(op, CopyPartition) for op in operations):
            # Copies snapshot via the leader payload, whose root must be
            # current: flush buffered descriptors first (see DESIGN.md).
            if not self.table.is_checkpoint_clean():
                self._write_checkpoint()
        return self.log_space.make_room(operations)

    def _needs_drain(self, operations: Sequence[object]) -> bool:
        """Must a commit of ``operations`` wait for the sets in flight?
        Yes if it names a chunk one of them names (its validation and
        deallocation decisions read the image), and unless the log space
        admits it as it stands: a plain commit with room beyond the
        reserve's ceiling and nothing to clean or checkpoint first — a
        partition operation never is one."""
        names = _names(operations)
        return any(not names.isdisjoint(flight.names) for flight in self._in_flight) or (
            not self.log_space.admits(
                operations, sum(flight.bound for flight in self._in_flight)
            )
        )

    def _validate_operations(self, operations: Sequence[object]) -> None:
        """Pre-flight checks so failures surface before any mutation."""
        written_here: Set[Tuple[int, int]] = set()
        # collect first so chunk writes into partitions created by this
        # same commit validate regardless of operation order
        partitions_written_here: Set[int] = {
            op.partition
            for op in operations
            if isinstance(op, (WritePartition, CopyPartition))
        }
        for op in operations:
            if isinstance(op, WriteChunk):
                key = (op.partition, op.rank)
                if key in written_here:
                    raise ChunkStoreError(
                        f"duplicate write to chunk {op.partition}:0.{op.rank} "
                        f"in one commit"
                    )
                written_here.add(key)
                # size must be checked *before* any mutation: a mid-commit
                # failure would leave earlier operations half-applied
                limit = self.writer.max_version_size
                worst_case = self.codec.header_cipher_size + len(op.data) + 64
                if worst_case > limit:
                    raise ChunkStoreError(
                        f"chunk of {len(op.data)} bytes exceeds the segment "
                        f"capacity ({limit} bytes incl. overhead)"
                    )
                if op.partition in partitions_written_here:
                    continue  # chunk in a partition created by this commit
                self.table.load(op.partition).require_allocated(op.rank)
            elif isinstance(op, DeallocateChunk):
                if op.partition in partitions_written_here:
                    raise ChunkStoreError(
                        "cannot deallocate chunks of a partition created in "
                        "the same commit"
                    )
                self.table.load(op.partition).require_allocated(op.rank)
            elif isinstance(op, WritePartition):
                self.table.system.require_allocated(partition_rank(op.partition))
                if op.key is not None and len(op.key) != KEY_SIZES.get(
                    op.cipher_name, -1
                ):
                    raise ChunkStoreError(
                        f"key size {len(op.key)} wrong for cipher {op.cipher_name!r}"
                    )
                make_hash(op.hash_name)  # raises on unknown names
            elif isinstance(op, CopyPartition):
                self.table.system.require_allocated(partition_rank(op.partition))
                self.table.load(op.source)
            elif isinstance(op, DeallocatePartition):
                source = self.table.load(op.partition).payload.copy_of
                if source is not None:
                    # its copies list is about to change: an unreadable
                    # leader must fail the commit here, not half-way
                    self.table.load(source)
            else:
                raise ChunkStoreError(f"unknown operation {op!r}")

    def _commit_set(
        self, append: Callable[[], _Effects], bound: Optional[int] = None
    ) -> Optional[_InFlight]:
        """The one route of a commit set — an application commit or a
        cleaner re-commit (§4.6, §4.9.5) — under both locks, which the
        caller holds: open the set, let ``append`` append its versions and
        return their effects, make the set durable, and only then install
        the effects.  So until the set is durable the image is the last
        durable state (module docstring).  Anything that raises on the way
        fails the store: the tail has moved past what the image knows of,
        and only recovery from the durable log can say what holds.

        ``bound`` is a pipelined commit's (see :meth:`commit`): the set is
        sealed and returned, for the caller to finish once it has released
        both locks — unless there is no flush worth overlapping: its flush
        is lazy, or, with no set in flight, the device's last one took less
        than :data:`PIPELINE_MIN_FLUSH_S`.  Every other set is finished here,
        with ``_lock`` offered for its flush; one closed inside another writer (the cleaner's
        passes in ``clean`` and ``make_room``, scrub's repair commit) holds
        ``_lock`` twice, so the release only unwinds one hold and the lock
        stays taken."""
        lazy = not self.config.flush_every_commit
        try:
            self.writer.begin_set()
            effects = append()
            if (
                bound is None
                or (lazy and self.validator.allows_lazy_flush)
                # with a set in flight the pipeline holds: sets install in
                # the order they were sealed
                or not self._in_flight
                and self.writer.last_sync_s < PIPELINE_MIN_FLUSH_S
            ):
                self.writer.make_durable(
                    "commit", self._leader_location, lazy, unlocked=self._lock
                )
                self._install(effects)
                return None
            before = self._in_flight[-1] if self._in_flight else None
            flight = _InFlight(effects, bound, before)
            flight.seal = self.writer.seal("commit")
        except BaseException:
            self._failed = True
            raise
        self._in_flight.append(flight)
        return flight

    def _finish(self, flight: _InFlight) -> None:
        """A pipelined set's device flush, under no lock; then — once every
        set sealed before it has finished — the rest of the protocol and
        its install under ``_lock`` alone.  It fails, and fails the store,
        if its flush failed, or with :class:`CommitOutcomeUnknownError` if
        a set sealed before it failed: nothing after a failed set is
        acknowledged.  A set sealed *after* it that failed the store does
        not stop it: it is durable once its flush has returned."""
        failure: Optional[BaseException] = None
        try:
            self.writer.sync()
        except BaseException as exc:
            failure = exc
        before = flight.before
        if before is not None:
            before.done.wait()
            if failure is None and before.error is not None:
                failure = CommitOutcomeUnknownError(
                    "a commit sealed before this one failed; reopen the "
                    "store to learn whether recovery keeps this one"
                )
                failure.__cause__ = before.error
        try:
            with self._lock:
                try:
                    if failure is not None:
                        raise failure
                    # the leader is the one it sealed under: a checkpoint
                    # waits for the sets in flight
                    self.writer.publish(
                        flight.seal, "commit", self._leader_location, synced=True
                    )
                    self._install(flight.effects)
                    self.commit_count_stat += 1
                except BaseException as exc:
                    flight.error = exc
                    self._failed = True
                    raise
                finally:
                    self._in_flight.remove(flight)
                    flight.done.set()
        finally:
            if flight.then is not None:
                flight.then()

    def _install(self, effects: _Effects) -> None:
        """A durable set's effects on the image, in order."""
        for effect, *args in effects:
            effect(*args)

    def _drain(self) -> None:
        """Wait, with ``_lock`` released, until every set in flight has
        finished — a writer that needs the whole image.  The caller holds
        the writers' lock, so no set can start meanwhile, and ``_lock``
        once: it is the outermost writer (one nested in another finds
        nothing in flight).  A set that finishes failed fails the store:
        callers pass :meth:`_check_open` after this."""
        while self._in_flight:
            last = self._in_flight[-1]
            self._lock.release()
            try:
                last.done.wait()
            finally:
                self._lock.acquire()

    def _append_operations(self, operations: Sequence[object]) -> _Effects:
        """Append the versions of an application commit; returns their
        effects on the image, in the order they are installed."""
        table = self.table
        injector = self.platform.injector
        injector.point("commit.begin")
        effects: _Effects = []
        # the leaders this commit writes, as it leaves them: the state each
        # installs into and its payload.  Every partition lookup below goes
        # through ``load``, so later operations see earlier ones.
        written: Dict[int, Tuple[PartitionState, LeaderPayload]] = {}
        # chunks this commit wrote or cancelled: a later deallocation of
        # one is recorded, as if the effect were installed already
        decided: Set[ChunkId] = set()
        dealloc_chunks: List[ChunkId] = []
        dealloc_partitions: List[int] = []

        def load(pid: int) -> Tuple[PartitionState, LeaderPayload]:
            if pid in written:
                return written[pid]
            state = table.load(pid)
            return state, state.payload

        def leader(state: PartitionState, payload: LeaderPayload) -> None:
            written[state.pid] = state, payload
            descriptor = self._append_leader(state.pid, payload)
            effects.append((table.leader_written, state, payload, descriptor))

        # Partition creations/copies first, so chunk writes into brand-new
        # partitions within the same commit find their leader.
        ordered = sorted(
            operations,
            key=lambda op: 0
            if isinstance(op, (WritePartition, CopyPartition))
            else (2 if isinstance(op, (DeallocateChunk, DeallocatePartition)) else 1),
        )
        for op in ordered:
            if isinstance(op, WritePartition):
                payload = LeaderPayload(
                    cipher_name=op.cipher_name,
                    hash_name=op.hash_name,
                    key=op.key or generate_partition_key(op.cipher_name),
                    name=op.name,
                )
                if op.partition in written or table.exists(op.partition):
                    # a reset: copy relationships survive it
                    old = load(op.partition)[1]
                    payload.copies = list(old.copies)
                    payload.copy_of = old.copy_of
                    effects.append((table.reset, op.partition))
                leader(table.open(op.partition, payload), payload)
            elif isinstance(op, CopyPartition):
                source, payload = load(op.source)
                copy = payload.copy_for_snapshot()
                copy.copy_of = op.source
                leader(table.open(op.partition, copy), copy)
                leader(source, replace(payload, copies=payload.copies + [op.partition]))
            elif isinstance(op, WriteChunk):
                cid = data_id(op.partition, op.rank)
                state = load(op.partition)[0]
                descriptor = self.writer.append_named(
                    cid, op.data, state.cipher, state.hash
                )
                effects.append((table.chunk_written, cid, descriptor))
                decided.add(cid)
                injector.point("commit.write")
            elif isinstance(op, DeallocateChunk):
                cid = data_id(op.partition, op.rank)
                state = load(op.partition)[0]
                if (
                    cid not in decided
                    and op.rank in state.pending_ranks
                    and not state.is_committed_written(op.rank)
                ):
                    # never persisted: no record
                    effects.append((state.cancel_pending, op.rank))
                else:
                    dealloc_chunks.append(cid)
                decided.add(cid)
            elif isinstance(op, DeallocatePartition):
                family = table.copy_family(op.partition, lambda pid: load(pid)[1])
                dealloc_partitions.extend(family)

        if dealloc_chunks or dealloc_partitions:
            record = DeallocateRecord(dealloc_chunks, sorted(set(dealloc_partitions)))
            self.writer.append_unnamed(VersionKind.DEALLOCATE, record.encode())
            effects.extend((table.chunk_freed, cid) for cid in dealloc_chunks)
            if record.partition_ids:
                effects.append((table.partitions_freed, record.partition_ids))
        return effects

    def _append_leader(self, pid: int, payload: LeaderPayload) -> ChunkDescriptor:
        """Append ``payload`` as ``pid``'s leader, a data chunk of the
        system partition; the caller installs it."""
        cid = data_id(SYSTEM_PARTITION, partition_rank(pid))
        system = self.table.system
        return self.writer.append_named(
            cid, payload.encode(), system.cipher, system.hash
        )

    # ------------------------------------------------------------------
    # checkpoint (§4.7)
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write buffered chunk-map updates and a fresh leader to the log."""
        with self._writers, self._lock, obs.span("chunkstore.checkpoint"):
            self._drain()
            self._check_open()
            self._write_checkpoint()

    def _write_checkpoint(self, initial: bool = False) -> None:
        if not initial and not self.log_space.checkpoint_fits():
            # the reserve is short (a checkpoint just took the last free
            # segment): refused before anything is appended, so the store
            # is not failed by it
            raise StorageFullError("the log has no room left for a checkpoint")
        try:
            write_checkpoint(self, initial)
        except BaseException:
            # half-written: map chunks appended (and their vectors cached)
            # without the leader that makes them current — reopen to recover
            self._failed = True
            raise

    # ------------------------------------------------------------------
    # diff (§5.3)
    # ------------------------------------------------------------------

    def diff(self, old_pid: int, new_pid: int) -> Dict[int, str]:
        """Positions whose state differs between two partitions.

        Returns ``{rank: DiffChange.*}``.  Commonly called on two
        snapshots of the same partition, where the shared subtree pruning
        makes the traversal proportional to the *changed* chunks."""
        with self._writers, self._lock, obs.span("chunkstore.diff"):
            self._drain()
            self._check_open()
            if not self.table.is_checkpoint_clean():
                # the traversal compares *persistent* map descriptors, so
                # buffered updates must reach the map first
                self._write_checkpoint()
            return self.readpath.diff(
                self.table.load(old_pid), self.table.load(new_pid)
            )

    # ------------------------------------------------------------------
    # cleaning (§4.9.5)
    # ------------------------------------------------------------------

    def clean(self, max_segments: int = 1) -> int:
        """Clean up to ``max_segments`` low-utilization segments; returns
        the number actually cleaned."""
        with self._writers, self._lock:
            self._drain()
            self._check_open()
            return self.log_space.clean(max_segments)

    # ------------------------------------------------------------------
    # introspection / stats
    # ------------------------------------------------------------------

    def scrub(
        self,
        raise_on_first: bool = True,
        repair_source: Optional[Callable[[int, int], Optional[bytes]]] = None,
    ) -> Dict[str, object]:
        """Proactively validate the *entire* database (an fsck for trust),
        and repair what the device or an attacker destroyed.

        Walks every partition's position map and reads every current map
        and data chunk through the normal validated read path, giving
        previously quarantined extents fresh retries.  With
        ``raise_on_first`` (default), the first failure raises; otherwise
        failures are collected — ``corrupt`` for validation failures
        (tampering), ``unreadable`` for extents dead after retries — and a
        repair pass runs:

        * data chunks are re-committed from ``repair_source(pid, rank)``
          (e.g. :meth:`repro.backup.store.BackupStore.repair_source`).
          Where the committed descriptor is reachable, the candidate must
          hash to exactly the committed bytes, so a stale backup can never
          silently roll data back; with the descriptor unreachable (dead
          map chunk) the MAC-validated backup is the remaining authority.
        * unreadable map chunks are rebuilt from cached and freshly
          repaired child descriptors by forcing a checkpoint rewrite.

        Every failed chunk is then re-read: the ones that now validate are
        reported in ``repaired``, the rest in ``unrepaired`` (and stay
        quarantined for a later scrub with a better backup).
        """
        from repro.chunkstore.scrub import scrub

        with self._writers, self._lock, obs.span("chunkstore.scrub"):
            self._drain()
            self._check_open()
            return scrub(self, raise_on_first, repair_source)

    def stored_bytes(self) -> int:
        """Bytes the log currently occupies (§9.3 space accounting)."""
        return self.segman.stored_bytes()

    def live_bytes(self) -> int:
        return self.segman.live_total()

    def stats(self) -> Dict[str, object]:
        """Operational counters: crypto and hash byte tallies per algorithm,
        descriptor-cache hit rates, and log write coalescing (§9.5.3)."""
        with self._lock:
            io = self.platform.untrusted.stats
            return {
                "crypto": {
                    name: tally.as_dict()
                    for name, tally in self.table.cipher_tallies.items()
                },
                "hashing": {
                    name: tally.as_dict()
                    for name, tally in self.table.hash_tallies.items()
                },
                "cache": self.cache.stats(),
                "log": {
                    "appends": self.logbuf.appends,
                    "writes_issued": self.logbuf.writes_issued,
                    "writes_coalesced": self.logbuf.appends - self.logbuf.writes_issued,
                    "bytes_appended": self.logbuf.bytes_appended,
                    "bytes_by_kind": dict(self.writer.bytes_by_kind),
                },
                "cleaner": self.cleaner.stats(),
                "log_space": self.log_space.stats(),
                "commits": self.commit_count_stat,
                "payload_cache": self.payloads.stats(),
                "walk": {
                    "batches": self.readpath.walk_batches,
                    "map_chunks_fetched": self.readpath.map_chunks_fetched,
                    "round_trips_saved": self.readpath.round_trips_saved,
                    "chunk_batches": self.readpath.chunk_batches,
                    "chunks_batch_fetched": self.readpath.chunks_batch_fetched,
                },
                "untrusted": {
                    "reads": io.reads,
                    "batched_reads": io.batched_reads,
                    "batched_extents": io.batched_extents,
                    "bytes_read": io.bytes_read,
                    "writes": io.writes,
                    "bytes_written": io.bytes_written,
                    "flushes": io.flushes,
                    "flushed_bytes": io.flushed_bytes,
                    "io_errors": io.io_errors,
                    "retries": io.retries,
                    "gave_up": io.gave_up,
                },
                "faults": {
                    "quarantined": self.readpath.quarantined_total,
                    "quarantine_active": len(self.readpath.quarantine),
                },
                "snapshots": {
                    "open_views": sum(self._open_views.values()),
                    "views_opened": self.snapshot_views_opened,
                    "held_segments": len(self.segman.deferred_segments)
                    - self.log_space.releasable(),
                },
            }

    def quarantined_chunks(self) -> Dict[str, str]:
        """Active quarantine entries: ``{chunk id: cause}`` (see
        :meth:`scrub` for how entries heal)."""
        with self._lock:
            return dict(self.readpath.quarantine)
