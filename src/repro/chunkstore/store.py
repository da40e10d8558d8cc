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

Concurrency: operations are serialized with a single re-entrant lock —
"mutual exclusion, which does not overlap I/O and computation, but is
simple and acceptable when concurrency is low" (§4.2).
"""

from __future__ import annotations

import logging
import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.chunkstore.cache import DescriptorCache, ValidatedChunkCache
from repro.chunkstore.checkpoint import write_checkpoint
from repro.chunkstore.config import StoreConfig, mac_key, system_cipher_key
from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import (
    SYSTEM_PARTITION,
    ChunkId,
    data_id,
    partition_rank,
    rank_to_partition,
)
from repro.chunkstore.leader import LeaderPayload, SystemExtras
from repro.chunkstore.log import (
    DeallocateRecord,
    LogCodec,
    VersionHeader,
    VersionKind,
)
from repro.chunkstore.ops import (
    CopyPartition,
    DeallocateChunk,
    DeallocatePartition,
    WriteChunk,
    WritePartition,
)
from repro.chunkstore.partition import PartitionState, generate_partition_key
from repro.chunkstore.readpath import ReadPath
from repro.chunkstore.segments import LogWriteBuffer, SegmentManager
from repro.chunkstore.validation import make_validator
from repro.chunkstore.writepath import LogWriter
from repro.crypto.cipher import Cipher
from repro.crypto.counters import CipherCounters, HashCounters
from repro.crypto.hashing import HashFunction
from repro.crypto.mac import Mac
from repro.crypto.registry import KEY_SIZES, make_cipher, make_hash
from repro.errors import (
    ChunkStoreError,
    IOFaultError,
    PartitionNotFoundError,
    QuarantineError,
    StorageFullError,
    TamperDetectedError,
)
from repro.platform.retry import RetriedReader, Retrier
from repro.platform.trusted_platform import TrustedPlatform
from repro.util.checksum import crc32_bytes
from repro.util.codec import Decoder, Encoder

_SUPERBLOCK_MAGIC = b"TDB1"

logger = logging.getLogger("repro.chunkstore")


class ChunkStore:
    """Trusted chunk storage over an untrusted log (see module docstring)."""

    def __init__(self, platform: TrustedPlatform, config: StoreConfig) -> None:
        """Internal; use :meth:`format` or :meth:`open`."""
        self.platform = platform
        self.config = config
        #: one tally per algorithm name, shared by every cipher/hash
        #: instance this store or its snapshot views create — so the
        #: totals in stats() outlive a deallocated partition's instances
        #: and include snapshot reads.  View threads bump them without the
        #: store lock; like every stats int, a race can drop a count.
        self._cipher_tallies: Dict[str, CipherCounters] = {}
        self._hash_tallies: Dict[str, HashCounters] = {}
        secret = platform.secret_store.read()
        system_cipher = make_cipher(
            config.system_cipher, system_cipher_key(secret, config.system_cipher)
        )
        system_hash = make_hash(config.system_hash)
        if system_hash.digest_size == 0:
            raise ValueError("the system hash function must not be null")
        self._share_tallies(system_cipher, system_hash)
        self.codec = LogCodec(system_cipher, system_hash)
        self.mac = Mac(mac_key(secret), system_hash)
        self.segman = SegmentManager(
            config.superblock_size, config.segment_size, platform.untrusted.size
        )
        self.cache = DescriptorCache(config.cache_size, config.fanout)
        #: validated-payload cache: decrypted, hash-verified chunk bodies
        #: (hits skip the device, the cipher, and the hasher entirely)
        self.payloads = ValidatedChunkCache(config.payload_cache_bytes)
        self.retrier = Retrier(
            config.retry_policy,
            clock=platform.clock,
            stats=platform.untrusted.stats,
        )
        self.logbuf = LogWriteBuffer(platform.untrusted, self.retrier)
        #: every device read seals the log buffer first: the extent may
        #: still sit in the pending span
        self.reader = RetriedReader(
            platform.untrusted, self.retrier, before_read=self.logbuf.seal
        )
        #: degraded-mode state: str(chunk id) -> cause ("io" or "tamper"),
        #: filled in by the read path; scrub heals what it can
        self._quarantine: Dict[str, str] = {}
        #: the §4.5 walk and validator, over this store's own state; every
        #: call into it runs under ``_lock``
        self.readpath = ReadPath(
            self.cache,
            self._quarantine,
            self.payloads,
            self.codec,
            self.reader,
            config.fanout,
            config.superblock_size,
        )
        self.partitions: Dict[int, PartitionState] = {}
        self.validator = make_validator(
            config, platform, system_hash, self.mac, system_cipher.authenticates
        )
        #: the one commit-set protocol (appends, jumps, seal, flush, TR
        #: write), over this store's log; every call runs under ``_lock``
        self.writer = LogWriter(
            self.codec,
            self.segman,
            self.logbuf,
            self.validator,
            platform.injector,
        )
        self._lock = threading.RLock()
        self._leader_location = 0
        self._system_key = system_cipher_key(secret, config.system_cipher)
        self._in_maintenance = False
        self._closed = False
        self._failed = False
        self.commit_count_stat = 0
        #: open snapshot views; while > 0 the cleaner declines to run so
        #: the extents frozen roots point at are never relocated or reused
        self._snapshot_pins = 0
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
        system_payload = LeaderPayload(
            cipher_name=config.system_cipher,
            hash_name=config.system_hash,
            key=b"",  # the system key is derived from the secret store
            system=SystemExtras(),
        )
        store.partitions[SYSTEM_PARTITION] = store._open_partition(
            SYSTEM_PARTITION, system_payload, key_override=store._system_key
        )
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
                "superblock_size",
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
        with self._lock:
            if self._closed:
                return
            if checkpoint and not self._failed:
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
        enc.uint(self.config.superblock_size)
        enc.uint(self.config.delta_ut)
        enc.uint(self.config.delta_tu)
        enc.uint(self._leader_location)
        payload = enc.finish()
        return payload + crc32_bytes(payload).to_bytes(4, "big")

    def _write_superblock(self) -> None:
        data = self._superblock_bytes()
        if len(data) > self.config.superblock_size:
            raise ChunkStoreError("superblock overflow")
        padded = data.ljust(self.config.superblock_size, b"\x00")
        self.retrier.call(
            lambda: self.platform.untrusted.write(0, padded), "superblock write"
        )
        self.retrier.call(self.platform.untrusted.flush, "superblock flush")

    @staticmethod
    def _read_superblock(platform: TrustedPlatform) -> Tuple[StoreConfig, int]:
        """The stored configuration and the leader location beside it —
        both unauthenticated hints (see :class:`StoreConfig`)."""
        head = platform.untrusted.tamper_read(0, 4096)
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
            config = StoreConfig(
                segment_size=segment_size,
                fanout=fanout,
                validation_mode=mode,
                system_cipher=system_cipher,
                system_hash=system_hash,
                delta_ut=delta_ut,
                delta_tu=delta_tu,
                superblock_size=superblock_size,
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise TamperDetectedError(f"corrupt superblock: {exc}") from exc
        return config, leader_location

    # ------------------------------------------------------------------
    # partition state
    # ------------------------------------------------------------------

    def _share_tallies(self, cipher: Cipher, hash_function: HashFunction) -> None:
        """Point fresh crypto instances at this store's tally for their
        algorithm name (the first instance of a name donates its own)."""
        cipher.counters = self._cipher_tallies.setdefault(
            cipher.name, cipher.counters
        )
        hash_function.counters = self._hash_tallies.setdefault(
            hash_function.name, hash_function.counters
        )

    def _open_partition(
        self, pid: int, payload: LeaderPayload, key_override: Optional[bytes] = None
    ) -> PartitionState:
        """:meth:`PartitionState.open` with its crypto instances tallying
        into this store's per-algorithm counters."""
        state = PartitionState.open(pid, payload, key_override)
        self._share_tallies(state.cipher, state.hash)
        return state

    def _state(self, pid: int) -> PartitionState:
        state = self.partitions.get(pid)
        if state is not None:
            return state
        if pid == SYSTEM_PARTITION:
            raise ChunkStoreError("system partition state missing (store not open)")
        system = self.partitions[SYSTEM_PARTITION]
        rank = partition_rank(pid)
        if not system.is_committed_written(rank):
            raise PartitionNotFoundError(f"partition {pid} is not written")
        body = self._read_chunk_body(SYSTEM_PARTITION, rank)
        payload = LeaderPayload.decode(body)
        state = self._open_partition(pid, payload)
        self.partitions[pid] = state
        return state

    def partition_exists(self, pid: int) -> bool:
        if pid == SYSTEM_PARTITION:
            return True
        system = self.partitions[SYSTEM_PARTITION]
        return system.is_committed_written(partition_rank(pid))

    def partition_ids(self) -> List[int]:
        """Ids of all written partitions (excluding the system partition)."""
        system = self.partitions[SYSTEM_PARTITION]
        return [
            rank_to_partition(rank)
            for rank in range(system.payload.next_rank)
            if system.is_committed_written(rank)
        ]

    def partition_info(self, pid: int) -> Dict[str, object]:
        state = self._state(pid)
        return {
            "cipher": state.payload.cipher_name,
            "hash": state.payload.hash_name,
            "chunk_count": state.payload.next_rank - len(state.payload.free_ranks),
            "copies": list(state.payload.copies),
            "copy_of": state.payload.copy_of,
        }

    # ------------------------------------------------------------------
    # allocation (§4.4)
    # ------------------------------------------------------------------

    def allocate_partition(self) -> int:
        """Return an unallocated partition id (volatile until written)."""
        with self._lock:
            system = self.partitions[SYSTEM_PARTITION]
            return rank_to_partition(system.allocate_rank())

    def allocate_chunk(self, pid: int) -> int:
        """Return an unallocated chunk rank in ``pid`` (volatile until
        written)."""
        with self._lock:
            return self._state(pid).allocate_rank()

    def reserve_partition_id(self, pid: int) -> None:
        """Make a *specific* partition id allocatable (volatile until its
        leader is committed).  Used by the backup store, which must restore
        a partition under its original id even into a fresh database."""
        with self._lock:
            self.partitions[SYSTEM_PARTITION].allocate_specific(partition_rank(pid))

    def find_partition(self, name: str) -> Optional[int]:
        """Look up a partition by the well-known name in its leader.

        Scans all partition leaders; intended for a handful of well-known
        partitions (e.g. the backup registry, the object-store root)."""
        with self._lock:
            for pid in self.partition_ids():
                if self._state(pid).payload.name == name:
                    return pid
            return None

    # ------------------------------------------------------------------
    # the validated read path (§4.5) — see repro.chunkstore.readpath
    # ------------------------------------------------------------------

    def _get_descriptor(self, cid: ChunkId) -> ChunkDescriptor:
        """``cid``'s current descriptor: the bottom-up map walk."""
        return self.readpath.descriptors(self._state(cid.partition), (cid,))[0]

    def _read_validated(
        self, cid: ChunkId, descriptor: ChunkDescriptor, state: PartitionState
    ) -> bytes:
        """The validated body of the version ``descriptor`` points at, in
        one device read."""
        (body,) = self.readpath.read_validated(
            state, [(cid, descriptor)], batched=False
        )
        return body

    def _read_chunk_body(self, pid: int, rank: int) -> bytes:
        """Data chunk ``(pid, rank)`` through the payload cache."""
        return self.readpath.read_chunks(
            self._state(pid), (rank,), obs.span("chunkstore.read")
        )[rank]

    # ------------------------------------------------------------------
    # snapshot views (MVCC read path for the serving layer)
    # ------------------------------------------------------------------

    def open_snapshot_view(self, pid: int) -> "SnapshotView":
        """Freeze partition ``pid``'s committed state into a lock-free
        :class:`~repro.chunkstore.snapshot.SnapshotView`.

        Reads through the view proceed without the store lock — they never
        block behind (or be blocked by) commits, checkpoints, or flushes.
        While any view is open the cleaner defers (``_snapshot_pins``), so
        close views promptly.  See :mod:`repro.chunkstore.snapshot` for the
        full soundness argument and consistency contract."""
        from repro.chunkstore.snapshot import build_snapshot_view

        with self._lock:
            self._check_open()
            self.logbuf.seal()  # the frozen root must be device-visible
            view = build_snapshot_view(self, pid)
            self._snapshot_pins += 1
            self.snapshot_views_opened += 1
            obs.emit("snapshot_view_opened", pid=pid, pins=self._snapshot_pins)
            return view

    def close_snapshot_view(self, view: "SnapshotView") -> None:
        """Release a snapshot view (idempotent); unpins the cleaner once
        the last view closes."""
        with self._lock:
            if view.closed:
                return
            view.closed = True
            self._snapshot_pins -= 1
            obs.emit(
                "snapshot_view_closed", pid=view.pid, pins=self._snapshot_pins
            )

    @property
    def snapshot_pins(self) -> int:
        with self._lock:
            return self._snapshot_pins

    def read_chunk(self, pid: int, rank: int) -> bytes:
        """Return the last written state of chunk ``(pid, rank)`` (§4.5)."""
        with self._lock, obs.span("chunkstore.read_chunk"):
            return self._read_chunk_body(pid, rank)

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
            return self.readpath.read_chunks(
                self._state(pid), ranks, obs.span("chunkstore.read_batch")
            )

    def evict_payload(self, pid: int, rank: int) -> None:
        """Drop any validated-payload entry for ``(pid, rank)`` — e.g. an
        :class:`~repro.objectstore.store.ObjectStore` abort's defensive
        eviction of chunks its transaction touched."""
        with self._lock:
            self.payloads.invalidate(data_id(pid, rank))

    def chunk_status(self, pid: int, rank: int) -> str:
        """Introspection: 'written', 'unwritten', 'free', or 'unallocated'."""
        with self._lock:
            state = self._state(pid)
            if rank in state.pending_ranks:
                return "unwritten"
            if state.is_committed_written(rank):
                return "written"
            if rank in state.payload.free_ranks:
                return "free"
            return "unallocated"

    # ------------------------------------------------------------------
    # effect application — shared between commit and recovery roll-forward
    # ------------------------------------------------------------------

    def _apply_chunk_write(
        self, cid: ChunkId, descriptor: ChunkDescriptor
    ) -> None:
        """Install a committed chunk write into cache, allocation state,
        and utilization accounting."""
        self.payloads.invalidate(cid)  # the cached payload is now stale
        state = self._state(cid.partition)
        old = self.cache.get(cid)
        if old is None and state.payload.tree_height >= max(cid.height, 1):
            try:
                old = self._get_descriptor(cid)
            except (TamperDetectedError, QuarantineError, IOFaultError):
                old = None  # accounting only; validation happens on real reads
        if old is not None and old.is_written():
            self.segman.sub_live(old.location, old.length)
        self.segman.add_live(descriptor.location, descriptor.length)
        self.cache.put_dirty(cid, descriptor)
        if cid.height == 0:
            state.apply_committed_write(cid.rank)
        state.leader_dirty = True

    def _apply_chunk_dealloc(self, cid: ChunkId) -> None:
        self.payloads.invalidate(cid)
        state = self._state(cid.partition)
        old = self.cache.get(cid)
        if old is None:
            try:
                old = self._get_descriptor(cid)
            except (TamperDetectedError, QuarantineError, IOFaultError):
                old = None
        if old is not None and old.is_written():
            self.segman.sub_live(old.location, old.length)
        self.cache.put_dirty(cid, ChunkDescriptor(ChunkStatus.FREE))
        state.apply_committed_dealloc(cid.rank)

    def _apply_partition_leader(
        self, pid: int, payload: LeaderPayload, descriptor: ChunkDescriptor
    ) -> None:
        """A partition leader chunk was committed (create, copy, or leader
        rewrite): refresh the open partition state."""
        existing = self.partitions.get(pid)
        if existing is not None and existing.payload is payload:
            # rewrite of the live payload (e.g. a copy source's updated
            # copies list): state — including volatile allocations — stays
            existing.leader_dirty = False
        else:
            self.partitions[pid] = self._open_partition(pid, payload)
        self._apply_chunk_write(data_id(SYSTEM_PARTITION, partition_rank(pid)), descriptor)

    def _collect_copy_family(self, pid: int) -> List[int]:
        """``pid`` plus all transitive copies (§5.1: deallocating a
        partition deallocates its copies)."""
        family: List[int] = []
        queue = [pid]
        seen: Set[int] = set()
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            family.append(current)
            if not self.partition_exists(current):
                continue
            try:
                state = self._state(current)
            except (
                PartitionNotFoundError,
                TamperDetectedError,
                QuarantineError,
                IOFaultError,
            ):
                continue
            queue.extend(state.payload.copies)
        return family

    def _iter_partition_locations(self, pid: int) -> Iterator[Tuple[int, int]]:
        """Yield (location, length) of every written descriptor reachable
        from ``pid``'s position map — data and map chunks.  Best-effort
        (skips unreadable subtrees); used only for utilization estimates."""
        try:
            state = self._state(pid)
        except (
            PartitionNotFoundError,
            TamperDetectedError,
            QuarantineError,
            IOFaultError,
        ):
            return
        height = state.payload.tree_height
        if height == 0:
            return
        root = ChunkId(pid, height, 0)
        for _, descriptor in self.readpath.subtree(
            state, (root, self._get_descriptor(root))
        ):
            yield descriptor.location, descriptor.length

    def _apply_partition_dealloc(self, family: Iterable[int]) -> None:
        system = self.partitions[SYSTEM_PARTITION]
        # subtract live bytes once per distinct version across the family
        locations: Set[Tuple[int, int]] = set()
        for pid in family:
            for loc_len in self._iter_partition_locations(pid):
                locations.add(loc_len)
        for location, length in locations:
            self.segman.sub_live(location, length)
        for pid in family:
            state = self.partitions.get(pid)
            parent = state.payload.copy_of if state else None
            if parent is not None and parent not in family:
                # loaded on demand (after a reopen or in replay the source
                # is not resident): an entry left behind here outlives the
                # id's reuse, and deallocating the source would then take
                # the unrelated partition holding that id with it
                parent_state = self._state(parent)
                if pid in parent_state.payload.copies:
                    parent_state.payload.copies.remove(pid)
                    parent_state.leader_dirty = True
            self.cache.drop_partition(pid)
            self.payloads.drop_partition(pid)
            self.partitions.pop(pid, None)
            rank = partition_rank(pid)
            if system.is_committed_written(rank):
                self._apply_chunk_dealloc(data_id(SYSTEM_PARTITION, rank))
        system.leader_dirty = True

    # ------------------------------------------------------------------
    # commit (§4.6, §5.1)
    # ------------------------------------------------------------------

    def commit(self, operations: Sequence[object]) -> None:
        """Atomically apply a set of operations (see
        :mod:`repro.chunkstore.ops`).  The commit is durable when this
        method returns; a crash at any earlier point leaves the store in
        its prior committed state."""
        with self._lock, obs.span("chunkstore.commit", ops=len(operations)):
            self._check_open()
            self._validate_operations(operations)
            if self.cache.dirty_count() >= self.config.checkpoint_dirty_threshold:
                self._write_checkpoint()
            if any(isinstance(op, CopyPartition) for op in operations):
                # Copies snapshot via the leader payload, whose root must be
                # current: flush buffered descriptors first (see DESIGN.md).
                if self.cache.dirty_count() > 0 or any(
                    s.leader_dirty for s in self.partitions.values()
                ):
                    self._write_checkpoint()
            self._ensure_capacity(self._estimate_commit_bytes(operations))
            try:
                self._commit_locked(operations)
            except BaseException:
                # a failure *during* the commit (crash injection or an
                # unexpected error past the preflight checks) leaves
                # volatile state half-applied; the only safe continuation
                # is recovery from the durable log
                self._failed = True
                raise
            self.commit_count_stat += 1

    def _check_open(self) -> None:
        if self._closed:
            raise ChunkStoreError("chunk store is closed")
        if self._failed:
            raise ChunkStoreError(
                "chunk store is in a failed state after an interrupted "
                "commit; reopen it to recover from the log"
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
                self._state(op.partition).require_allocated(op.rank)
            elif isinstance(op, DeallocateChunk):
                if op.partition in partitions_written_here:
                    raise ChunkStoreError(
                        "cannot deallocate chunks of a partition created in "
                        "the same commit"
                    )
                self._state(op.partition).require_allocated(op.rank)
            elif isinstance(op, WritePartition):
                system = self.partitions[SYSTEM_PARTITION]
                rank = partition_rank(op.partition)
                system.require_allocated(rank)
                if op.key is not None and len(op.key) != KEY_SIZES.get(
                    op.cipher_name, -1
                ):
                    raise ChunkStoreError(
                        f"key size {len(op.key)} wrong for cipher {op.cipher_name!r}"
                    )
                make_hash(op.hash_name)  # raises on unknown names
            elif isinstance(op, CopyPartition):
                system = self.partitions[SYSTEM_PARTITION]
                system.require_allocated(partition_rank(op.partition))
                self._state(op.source)
            elif isinstance(op, DeallocatePartition):
                source = self._state(op.partition).payload.copy_of
                if source is not None:
                    # its copies list is about to change: an unreadable
                    # leader must fail the commit here, not half-way
                    self._state(source)
            else:
                raise ChunkStoreError(f"unknown operation {op!r}")

    def _estimate_commit_bytes(self, operations: Sequence[object]) -> int:
        total = 0
        for op in operations:
            if isinstance(op, WriteChunk):
                total += self.codec.version_size(
                    len(op.data) + 64, self.codec.system_cipher
                )
            elif isinstance(op, (WritePartition, CopyPartition)):
                total += 2048
            else:
                total += 256
        total += 4096  # dealloc record, commit chunk, jump slack
        return total

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self.writer.capacity
        if capacity() >= needed and (
            self.segman.free_segment_count() >= self.config.clean_low_water
        ):
            return
        if not self._in_maintenance:
            from repro.chunkstore.cleaner import Cleaner

            cleaner = Cleaner(self)
            checkpointed = False
            while capacity() < max(
                needed, self.config.clean_low_water * self.config.segment_size
            ):
                if cleaner.clean_one() is None:
                    if not checkpointed and len(self.segman.residual_segments) > 1:
                        self._write_checkpoint()  # bound the residual log
                        checkpointed = True
                        continue
                    break
        if capacity() < needed:
            raise StorageFullError(
                f"need {needed} bytes but only {capacity()} available after cleaning"
            )

    def _commit_locked(self, operations: Sequence[object]) -> None:
        injector = self.platform.injector
        injector.point("commit.begin")
        self.writer.begin_set()
        dealloc_chunks: List[ChunkId] = []
        dealloc_partitions: List[int] = []

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
                key = op.key if op.key is not None else generate_partition_key(
                    op.cipher_name
                )
                payload = LeaderPayload(
                    cipher_name=op.cipher_name,
                    hash_name=op.hash_name,
                    key=key,
                    name=op.name,
                )
                if self.partition_exists(op.partition):
                    # reset semantics: old contents become obsolete; copy
                    # relationships survive (copies keep their own state)
                    old_state = self._state(op.partition)
                    for location, length in self._iter_partition_locations(
                        op.partition
                    ):
                        self.segman.sub_live(location, length)
                    payload.copies = list(old_state.payload.copies)
                    payload.copy_of = old_state.payload.copy_of
                    self.cache.drop_partition(op.partition)
                    self.payloads.drop_partition(op.partition)
                self._append_leader(op.partition, payload)
            elif isinstance(op, CopyPartition):
                source = self._state(op.source)
                payload = source.payload.copy_for_snapshot()
                payload.copy_of = op.source
                source.payload.copies.append(op.partition)
                self._append_leader(op.partition, payload)
                self._append_leader(op.source, source.payload)
            elif isinstance(op, WriteChunk):
                cid = data_id(op.partition, op.rank)
                state = self._state(op.partition)
                self._apply_chunk_write(
                    cid,
                    self.writer.append_named(cid, op.data, state.cipher, state.hash),
                )
                injector.point("commit.write")
            elif isinstance(op, DeallocateChunk):
                state = self._state(op.partition)
                if op.rank in state.pending_ranks and not state.is_committed_written(
                    op.rank
                ):
                    state.cancel_pending(op.rank)  # never persisted: no record
                else:
                    dealloc_chunks.append(data_id(op.partition, op.rank))
            elif isinstance(op, DeallocatePartition):
                dealloc_partitions.extend(self._collect_copy_family(op.partition))

        if dealloc_chunks or dealloc_partitions:
            record = DeallocateRecord(dealloc_chunks, sorted(set(dealloc_partitions)))
            self.writer.append_unnamed(VersionKind.DEALLOCATE, record.encode())
            for cid in dealloc_chunks:
                self._apply_chunk_dealloc(cid)
            if dealloc_partitions:
                self._apply_partition_dealloc(sorted(set(dealloc_partitions)))

        self._finalize_commit()

    def _append_leader(self, pid: int, payload: LeaderPayload) -> None:
        """Write a partition leader as a data chunk of the system partition."""
        cid = data_id(SYSTEM_PARTITION, partition_rank(pid))
        system = self.partitions[SYSTEM_PARTITION]
        descriptor = self.writer.append_named(
            cid, payload.encode(), system.cipher, system.hash
        )
        self._apply_partition_leader(pid, payload, descriptor)

    def _finalize_commit(self) -> None:
        """Close the open commit set (an application commit or a cleaner
        re-commit) and make it durable (§4.8.2)."""
        self.writer.make_durable(
            "commit",
            self._leader_location,
            lazy=not self.config.flush_every_commit,
        )

    # ------------------------------------------------------------------
    # checkpoint (§4.7)
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write buffered chunk-map updates and a fresh leader to the log."""
        with self._lock, obs.span("chunkstore.checkpoint"):
            self._check_open()
            self._write_checkpoint()

    def _write_checkpoint(self, initial: bool = False) -> None:
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
        with self._lock, obs.span("chunkstore.diff"):
            if self.cache.dirty_count() > 0 or any(
                s.leader_dirty for s in self.partitions.values()
            ):
                # the traversal compares *persistent* map descriptors, so
                # buffered updates must reach the map first
                self._write_checkpoint()
            return self.readpath.diff(self._state(old_pid), self._state(new_pid))

    # ------------------------------------------------------------------
    # cleaning (§4.9.5)
    # ------------------------------------------------------------------

    def clean(self, max_segments: int = 1) -> int:
        """Clean up to ``max_segments`` low-utilization segments; returns
        the number actually cleaned."""
        from repro.chunkstore.cleaner import Cleaner

        with self._lock:
            self._check_open()
            cleaner = Cleaner(self)
            cleaned = 0
            for _ in range(max_segments):
                if cleaner.clean_one() is None:
                    if cleaned == 0 and len(self.segman.residual_segments) > 1:
                        # everything cleanable is pinned in the residual
                        # log; a checkpoint bounds it (§4.9.5)
                        self._write_checkpoint()
                        if cleaner.clean_one() is None:
                            break
                        cleaned += 1
                        continue
                    break
                cleaned += 1
            return cleaned

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
        with self._lock, obs.span("chunkstore.scrub"):
            self._check_open()
            # Fresh retries: drop "io" short-circuits so reads hit the
            # device again ("tamper" entries are bookkeeping; reads
            # re-validate those regardless).
            for key in [k for k, v in self._quarantine.items() if v == "io"]:
                del self._quarantine[key]
            validated = 0
            corrupt: List[str] = []
            unreadable: List[str] = []
            failed: List[ChunkId] = []
            scan_errors = (TamperDetectedError, QuarantineError, IOFaultError)

            def note_failure(cid: ChunkId, exc: Exception) -> None:
                if isinstance(exc, TamperDetectedError):
                    corrupt.append(str(cid))
                else:
                    unreadable.append(str(cid))
                failed.append(cid)

            pids = [SYSTEM_PARTITION] + self.partition_ids()
            for pid in pids:
                try:
                    state = self._state(pid)
                except scan_errors:
                    if raise_on_first:
                        raise
                    # the leader is a data chunk of the system partition,
                    # already recorded by the system partition's own walk
                    continue
                for rank in range(state.payload.next_rank):
                    if not state.is_committed_written(rank):
                        continue
                    cid = data_id(pid, rank)
                    try:
                        # bypass the payload cache: scrub exists to
                        # exercise the device and the validation chain
                        self.readpath.fetch(state, (cid,))
                        validated += 1
                    except scan_errors as exc:
                        if raise_on_first:
                            raise
                        note_failure(cid, exc)
                # map chunks validate implicitly on the way down, but walk
                # them explicitly so unreferenced-yet-current levels count
                height = state.payload.tree_height
                for level in range(1, height + 1):
                    span = (state.payload.next_rank + self.config.fanout**level - 1) // (
                        self.config.fanout**level
                    )
                    for rank in range(span):
                        cid = ChunkId(pid, level, rank)
                        try:
                            descriptor = self._get_descriptor(cid)
                            if not descriptor.is_written():
                                continue
                            self._read_validated(cid, descriptor, state)
                            validated += 1
                        except scan_errors as exc:
                            if raise_on_first:
                                raise
                            note_failure(cid, exc)

            repaired: List[str] = []
            unrepaired: List[str] = []
            if failed:
                self._repair_failed_chunks(failed, repair_source)
                for cid in failed:
                    self._quarantine.pop(str(cid), None)  # fresh attempt
                    try:
                        state = self._state(cid.partition)
                        if cid.height == 0:
                            self.readpath.fetch(state, (cid,))
                        else:
                            descriptor = self._get_descriptor(cid)
                            if descriptor.is_written():
                                self._read_validated(cid, descriptor, state)
                        repaired.append(str(cid))
                        obs.emit("repair", chunk=str(cid), ok=True)
                    except (ChunkStoreError, TamperDetectedError, IOFaultError):
                        unrepaired.append(str(cid))
                        obs.emit("repair", chunk=str(cid), ok=False)
            logger.info(
                "scrub: %d chunk(s) validated across %d partition(s), "
                "%d corrupt, %d unreadable, %d repaired",
                validated,
                len(pids),
                len(corrupt),
                len(unreadable),
                len(repaired),
            )
            return {
                "chunks_validated": validated,
                "partitions": len(pids),
                "corrupt": corrupt,
                "unreadable": unreadable,
                "repaired": repaired,
                "unrepaired": unrepaired,
                "quarantine": dict(self._quarantine),
            }

    def _repair_failed_chunks(
        self,
        failed: List[ChunkId],
        repair_source: Optional[Callable[[int, int], Optional[bytes]]],
    ) -> None:
        """Scrub's repair pass (see :meth:`scrub`)."""
        changed = False
        for cid in failed:
            if (
                cid.height == 0
                and cid.partition != SYSTEM_PARTITION
                and repair_source is not None
            ):
                try:
                    state = self._state(cid.partition)
                except (TamperDetectedError, QuarantineError, IOFaultError):
                    continue
                candidate = repair_source(cid.partition, cid.rank)
                if candidate is not None and self._repair_data_chunk(
                    cid, state, candidate
                ):
                    changed = True
            elif cid.height >= 1:
                # Re-dirty every cached written child so the checkpoint
                # rewrites this map chunk (degraded rebuild from cache).
                for slot in range(self.config.fanout):
                    child = cid.child(self.config.fanout, slot)
                    cached = self.cache.get(child)
                    if cached is not None and cached.is_written():
                        self.cache.put_dirty(child, cached)
                        changed = True
        if changed:
            self._write_checkpoint()

    def _repair_data_chunk(
        self, cid: ChunkId, state: PartitionState, candidate: bytes
    ) -> bool:
        """Re-commit backup bytes for one data chunk, verified first where
        the committed descriptor is reachable (stale bytes are refused)."""
        try:
            descriptor = self._get_descriptor(cid)
        except (TamperDetectedError, QuarantineError, IOFaultError):
            descriptor = None
        if (
            descriptor is not None
            and descriptor.is_written()
            and state.cipher.authenticates
        ):
            # An AEAD descriptor stores the auth tag, which depends on the
            # encryption nonce — unrecomputable from plaintext, so the
            # stale-bytes pre-check below cannot run.  The backup stream
            # is itself MAC-validated end-to-end, which is the authority
            # this path falls back on.
            logger.info(
                "scrub: %s is on an AEAD partition; trusting the "
                "MAC-validated backup bytes without a descriptor pre-check",
                cid,
            )
        elif descriptor is not None and descriptor.is_written():
            header = VersionHeader(
                VersionKind.NAMED,
                cid.partition,
                cid.height,
                cid.rank,
                len(candidate),
                state.cipher.ciphertext_size(len(candidate)),
            )
            if (
                self.codec.descriptor_hash(header, candidate, state.hash)
                != descriptor.body_hash
            ):
                logger.warning(
                    "scrub: backup bytes for %s do not match the committed "
                    "hash; refusing to roll back",
                    cid,
                )
                return False
        self.commit([WriteChunk(cid.partition, cid.rank, candidate)])
        return True

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
                    for name, tally in self._cipher_tallies.items()
                },
                "hashing": {
                    name: tally.as_dict()
                    for name, tally in self._hash_tallies.items()
                },
                "cache": self.cache.stats(),
                "log": {
                    "appends": self.logbuf.appends,
                    "writes_issued": self.logbuf.writes_issued,
                    "writes_coalesced": self.logbuf.appends - self.logbuf.writes_issued,
                    "bytes_appended": self.logbuf.bytes_appended,
                },
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
                    "quarantine_active": len(self._quarantine),
                },
                "snapshots": {
                    "open_views": self._snapshot_pins,
                    "views_opened": self.snapshot_views_opened,
                },
            }

    def quarantined_chunks(self) -> Dict[str, str]:
        """Active quarantine entries: ``{chunk id: cause}`` (see
        :meth:`scrub` for how entries heal)."""
        with self._lock:
            return dict(self._quarantine)

    def data_ranks(self, pid: int) -> List[int]:
        """All committed-written data ranks of a partition."""
        with self._lock:
            state = self._state(pid)
            return [
                rank
                for rank in range(state.payload.next_rank)
                if state.is_committed_written(rank)
            ]
