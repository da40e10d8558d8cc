"""The validated read path (§4.5): one map walk, one extent validator.

A chunk is believed only once the bottom-up walk of its position map has
reached an ancestor that is already vouched for (a cached descriptor, or
the root in the partition leader) and the bytes read from its extent hash
to the descriptor that walk produced.  :class:`ReadPath` is the only
implementation of that rule: ``ChunkStore`` reads, scrub, the cleaner's
currency probes and every :class:`~repro.chunkstore.snapshot.SnapshotView`
read funnel through :meth:`ReadPath.descriptors` and
:meth:`ReadPath.read_validated`.

The map is also walked *top-down*, by subtree rather than by chunk id:
:meth:`ReadPath.vectors` is the one descent step (a map chunk's validated
vector: the cached one, else loaded with the rest of its batch in one
``read_many``), :meth:`ReadPath.children` overlays the dirty descriptors,
and §5.3 :meth:`ReadPath.diff`, the deallocation/reset accounting
(:meth:`ReadPath.subtree`) and the checkpoint's read-back of the map chunk
it rewrites are its callers.  (The cleaner's and recovery's *log-order*
scans are the third traversal, in :mod:`repro.chunkstore.logscan`: they
parse versions in the order they were appended, not by descriptor.)

A read path owns nothing it was not given: a descriptor cache, a
quarantine table, a payload cache, a codec, a
:class:`~repro.platform.retry.RetriedReader`, and a
:class:`~repro.chunkstore.partition.PartitionState` per call.
``ChunkStore`` builds one over its own state and calls it under its lock;
``build_snapshot_view`` builds one over a frozen descriptor cache and a
quarantine table of the view's own, beside the store's payload cache,
codec and view reader, all safe to share unlocked — which is all that
makes a view lock-free: the routines do not know which they serve.
They take no lock and hold none across a device read: the caller either
serializes them or hands them state that is safe to share.
"""

from __future__ import annotations

import logging
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.chunkstore.cache import DescriptorCache, FrozenDescriptors, ValidatedChunkCache
from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    MapVector,
    decode_map_body,
)
from repro.chunkstore.ids import ChunkId, data_id
from repro.chunkstore.log import LogCodec, VersionKind
from repro.chunkstore.partition import PartitionState
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkNotWrittenError,
    IOFaultError,
    QuarantineError,
    TamperDetectedError,
    TDBError,
)
from repro.platform.retry import RetriedReader

logger = logging.getLogger("repro.chunkstore")

#: a chunk and the descriptor vouching for it
Item = Tuple[ChunkId, ChunkDescriptor]

#: what a read raises when *this chunk* cannot be had — it fails validation,
#: it is quarantined, or its extent is dead after retries — as opposed to a
#: misuse of the store.  The callers that account, scan or repair rather
#: than serve (subtree walks, the effects' old-extent lookup, scrub, the
#: checkpoint's degraded rebuild) catch exactly this set and carry on.
UNREADABLE = (TamperDetectedError, QuarantineError, IOFaultError)


class DiffChange:
    """Kinds of per-position change reported by :meth:`ReadPath.diff`."""

    ADDED = "added"
    CHANGED = "changed"
    REMOVED = "removed"


class ReadPath:
    """The §4.5 walk and validator over the state it is given."""

    def __init__(
        self,
        cache: Union[DescriptorCache, FrozenDescriptors],
        quarantine: Dict[str, str],
        payloads: ValidatedChunkCache,
        codec: LogCodec,
        reader: RetriedReader,
        fanout: int,
        min_location: int,
        current: bool = True,
    ) -> None:
        self.cache = cache
        #: degraded-mode state: str(chunk id) -> cause.  "io" entries (an
        #: extent unreadable after retries) short-circuit reads with
        #: :class:`QuarantineError` until the owner clears them; "tamper"
        #: entries are bookkeeping only — reads keep re-validating and
        #: raising TamperDetectedError.
        self.quarantine = quarantine
        #: chunks ever quarantined through this read path
        self.quarantined_total = 0
        self.payloads = payloads
        #: whether this read path always reads the current version (the
        #: store's, True): the payload cache entries it fills are current,
        #: and kept so by the effects' invalidation, so it takes its hits
        #: with no walk and no digest.  A view's (False) reads at its freeze:
        #: it asks for the digest its walk resolved, fills entries the store
        #: does not take as current, and leaves out a chunk with no body
        #: hash (a partition on the null hash), whose versions no digest
        #: tells apart
        self.current = current
        self.codec = codec
        self.reader = reader
        self.fanout = fanout
        #: first byte past the superblock: no version lives below it
        self.min_location = min_location
        #: batching counters (the store surfaces its own in stats()["walk"])
        self.walk_batches = 0
        self.map_chunks_fetched = 0
        self.round_trips_saved = 0
        self.chunk_batches = 0
        self.chunks_batch_fetched = 0

    # -- the map walk ----------------------------------------------------------

    def descriptors(
        self, state: PartitionState, ids: Sequence[ChunkId]
    ) -> List[ChunkDescriptor]:
        """Current descriptors of ``ids`` (chunks of ``state``'s partition),
        aligned with ``ids``; a single id is a batch of one.

        Each id climbs to its first known ancestor — a cached descriptor
        (dirty ones shadow the persistent map) or the root in the leader —
        and then steps back down through the map chunks it skipped, every
        chunk that a level needs loaded in one ``read_many`` (the levels
        are inherently sequential: a map chunk's extent is only known once
        its parent's body is decoded).  Anything below an unwritten
        descriptor is unallocated."""
        payload = state.payload
        height = payload.tree_height
        fanout = self.fanout
        get = self.cache.get
        tops: List[ChunkDescriptor] = []
        #: per id still above its chunk: the climb so far, ending at the
        #: node ``tops`` describes
        paths: Dict[int, List[ChunkId]] = {}
        for cid in ids:
            descriptor = get(cid)
            if descriptor is None:  # climb to the first known ancestor
                node, path = cid, [cid]
                while True:
                    if node.height >= height:
                        # at or beyond the top of the tree: the leader answers
                        at_root = 0 < height == node.height and node.rank == 0
                        descriptor = payload.root if at_root else ChunkDescriptor()
                        break
                    node = node.parent(fanout)
                    path.append(node)
                    descriptor = get(node)
                    if descriptor is not None:
                        break
                if len(path) > 1:
                    if descriptor.is_written():
                        paths[len(tops)] = path
                    else:
                        # anything below an unwritten descriptor is unallocated
                        descriptor = ChunkDescriptor()
            tops.append(descriptor)
        climbed = list(paths)
        while climbed:  # commonly not at all: everything was known outright
            level = max(paths[i][-1].height for i in climbed)
            stepping = [i for i in climbed if paths[i][-1].height == level]
            maps = {paths[i][-1]: tops[i] for i in stepping}
            vectors = dict(zip(maps, self.load_map_chunks(state, list(maps.items()))))
            for i in stepping:
                path = paths[i]
                tops[i] = vectors[path.pop()][path[-1].rank % fanout]
                if len(path) > 1 and not tops[i].is_written():
                    del path[1:]  # unallocated, as above
                    tops[i] = ChunkDescriptor()
            climbed = [i for i in climbed if len(paths[i]) > 1]
        return tops

    def load_map_chunks(
        self, state: PartitionState, items: Sequence[Item]
    ) -> List[MapVector]:
        """Fetch, validate, and split written map chunks of one partition
        in a single untrusted round trip; returns their descriptor vectors
        (aligned with ``items``) and caches each."""
        with obs.span("chunkstore.map_walk", pid=state.pid, chunks=len(items)):
            vectors = [
                decode_map_body(map_id, body, self.fanout)
                for (map_id, _), body in zip(items, self.read_validated(state, items))
            ]
            self.walk_batches += 1
            self.map_chunks_fetched += len(items)
            # versus an unbatched walk: two reads (header, body) per map
            # chunk, minus the one round trip this batch cost
            self.round_trips_saved += 2 * len(items) - 1
            for (map_id, _), vector in zip(items, vectors):
                self.cache.install(map_id, vector)
            return vectors

    # -- the top-down descent --------------------------------------------------

    def vectors(self, state: PartitionState, items: Sequence[Item]) -> List[MapVector]:
        """The descent step: the validated vectors of written map chunks
        ``items`` as last validated or written (dirty children are *not*
        overlaid), aligned with ``items`` — the cached ones, and whatever
        the cache lacks loaded in one ``read_many``.  A lone item is a
        batch of one."""
        vectors = [self.cache.vector(map_id) for map_id, _ in items]
        missing = [index for index, vector in enumerate(vectors) if vector is None]
        if missing:
            loaded = self.load_map_chunks(state, [items[index] for index in missing])
            for index, vector in zip(missing, loaded):
                vectors[index] = vector
        return vectors

    def children(self, state: PartitionState, items: Sequence[Item]) -> List[List[Item]]:
        """Per map chunk of ``items``, its ``fanout`` children and their
        current descriptors (dirty ones shadow the persistent map)."""
        fanout = self.fanout
        dirty = self.cache.dirty
        families = []
        # slots come from the vectors in hand, not from cache.get: a batch
        # larger than the vector LRU has already evicted its own head
        for (map_id, _), vector in zip(items, self.vectors(state, items)):
            first = map_id.rank * fanout
            family = []
            for slot in range(fanout):
                child = ChunkId(map_id.partition, map_id.height - 1, first + slot)
                shadow = dirty(child)
                family.append((child, vector[slot] if shadow is None else shadow))
            families.append(family)
        return families

    def subtree(self, state: PartitionState, top: Item) -> List[Item]:
        """Every written descriptor at or below ``top``, level by level
        (each level's uncached map chunks in one ``read_many``).

        Best-effort, for callers that account rather than validate: a
        level whose batch fails is retried one map chunk at a time, and
        exactly the subtrees under the unreadable ones are left out."""
        unreadable = (*UNREADABLE, ValueError)
        found: List[Item] = []
        level = [top]
        while level:
            level = [item for item in level if item[1].is_written()]
            found.extend(level)
            maps = [item for item in level if item[0].height > 0]
            try:
                families = self.children(state, maps)
            except unreadable:
                families = []
                for item in maps:
                    try:
                        families.extend(self.children(state, [item]))
                    except unreadable:
                        continue
            level = [child for family in families for child in family]
        return found

    def diff(
        self, old_state: PartitionState, new_state: PartitionState
    ) -> Dict[int, str]:
        """``{rank: DiffChange.*}`` for every data position whose state
        differs between the two partitions' maps (§5.3).

        One pair descent, a level at a time: a node whose two descriptors
        are the ``same_version`` is pruned with everything below it, and
        each side's surviving map chunks are loaded in one batch — so
        between two snapshots of one partition the work follows what
        changed.  A tree of height ``h`` has its root at node ``(h, 0)``:
        a shorter tree joins the descent there, and every other node of
        the taller tree at or above that level has no counterpart."""
        sides = (old_state, new_state)
        heights = [state.payload.tree_height for state in sides]
        nothing = ChunkDescriptor()
        #: rank at the current level -> [old, new] descriptors, for ranks
        #: written on either side (a node a side lacks counts as unwritten)
        level: Dict[int, List[ChunkDescriptor]] = {}
        for height in range(max(heights), 0, -1):
            for side, state in enumerate(sides):
                if heights[side] == height:
                    root = ChunkId(state.pid, height, 0)
                    level.setdefault(0, [nothing, nothing])[side] = (
                        self.descriptors(state, (root,))[0]
                    )
            differing = [
                (rank, pair)
                for rank, pair in level.items()
                if not pair[0].same_version(pair[1])
            ]
            level = {}
            for side, state in enumerate(sides):
                maps = [
                    (ChunkId(state.pid, height, rank), pair[side])
                    for rank, pair in differing
                    if pair[side].is_written()
                ]
                for family in self.children(state, maps):
                    for child, descriptor in family:
                        if descriptor.is_written():
                            level.setdefault(child.rank, [nothing, nothing])[side] = (
                                descriptor
                            )
        changes: Dict[int, str] = {}
        for rank, (old, new) in sorted(level.items()):
            if old.same_version(new):
                continue
            if old.is_written() and new.is_written():
                changes[rank] = DiffChange.CHANGED
            elif new.is_written():
                changes[rank] = DiffChange.ADDED
            else:
                changes[rank] = DiffChange.REMOVED
        return changes

    # -- the extent validator --------------------------------------------------

    def read_validated(
        self, state: PartitionState, items: Sequence[Item], batched: bool = True
    ) -> List[bytes]:
        """Read the versions ``items``' descriptors point at, decrypt them
        with the partition cipher, and validate each against its descriptor
        hash; returns the plaintext bodies aligned with ``items``.

        A descriptor's length covers header and body, so a version arrives
        as one extent and the batch in one ``read_many`` round trip
        (``batched=False``: a plain read per extent).  On an I/O fault the
        batch falls back to per-extent reads so retries and quarantine land
        on the precise chunk: an extent unreadable after retries quarantines
        its chunk (:class:`QuarantineError`) instead of poisoning the
        caller, and later reads short-circuit until the entry is cleared.
        Validation failures raise :class:`TamperDetectedError` on every
        read — the verdict never changes — but are recorded so scrub can
        target repair; a clean read heals the entry."""
        for cid, descriptor in items:
            if self.quarantine and self.quarantine.get(str(cid)) == "io":
                raise QuarantineError(str(cid), "io")
            # Descriptors arrive hash-validated, so an implausible extent
            # means the validation chain itself was subverted — tampering,
            # not I/O.
            location, length = descriptor.location, descriptor.length
            if (
                length < self.codec.header_cipher_size
                or location < self.min_location
                or location + length > self.reader.size
            ):
                self._quarantine(cid, "tamper")
                raise TamperDetectedError(
                    f"chunk {cid}: descriptor extent [{location}, "
                    f"{location + length}) is implausible"
                )
        raws: Optional[List[bytes]] = None
        if batched:
            try:
                raws = self.reader.read_many(
                    [(d.location, d.length) for _, d in items]
                )
            except IOFaultError:
                pass  # fall back so the fault pins the right chunk
        bodies = []
        for index, (cid, descriptor) in enumerate(items):
            # unbatched, an extent is read right before it is validated, so
            # errors surface in item order
            raw = self._read_extent(cid, descriptor) if raws is None else raws[index]
            bodies.append(self._validate(state, cid, descriptor, raw))
        return bodies

    # -- data chunks, through the payload cache -------------------------------

    def read_chunks(
        self, state: PartitionState, ranks: Sequence[int], miss_span: ContextManager
    ) -> Dict[int, bytes]:
        """Data chunks ``ranks`` of ``state``'s partition — ``{rank: body}``
        for every distinct rank, in request order; one rank is a batch of
        one.  What the payload cache lacks comes from one :meth:`fetch`
        inside ``miss_span`` — the caller's ``obs.span``, entered on cache
        misses only, so its histogram prices the real device+crypto+hash
        path — and the walk resolves each chunk's descriptor once.  The
        store's read path asks the cache for its current entries, so a hit
        costs no walk and a miss walks inside ``miss_span``; a view's walks
        first, and asks for the digest its frozen descriptor names.  The
        cache is populated ONLY after a successful validated read, never
        write-through, so a cached payload was always vouched for by the
        hash-link path."""
        pid = state.pid
        payloads = self.payloads
        bodies: Dict[int, Optional[bytes]] = {}
        if self.current:
            missing: List[ChunkId] = []
            for rank in ranks:
                if rank not in bodies:
                    cid = data_id(pid, rank)
                    body = bodies[rank] = payloads.get(cid)
                    if body is None:
                        missing.append(cid)
            if not missing:
                return bodies
            with miss_span:
                items, fetched = self._walk_and_fetch(state, missing)
        else:
            ids = [data_id(pid, rank) for rank in dict.fromkeys(ranks)]
            try:
                resolved = list(zip(ids, self.descriptors(state, ids)))
            except TDBError:
                if len(ids) == 1:
                    raise
                # a sequential loop's error: the first rank that cannot be served
                for cid in ids:
                    bodies.update(self.read_chunks(state, (cid.rank,), miss_span))
                return bodies
            written = ChunkStatus.WRITTEN
            items = []
            for item in resolved:
                cid, descriptor = item
                digest = descriptor.body_hash
                body = bodies[cid.rank] = (
                    payloads.get(cid, digest)
                    if digest and descriptor.status is written
                    else None
                )
                if body is None:
                    items.append(item)
            if not items:
                return bodies
            with miss_span:
                fetched = self.fetch(state, items)
        current = self.current
        for (cid, descriptor), body in zip(items, fetched):
            if current or descriptor.body_hash:
                payloads.put(cid, descriptor.body_hash, body, current)
            bodies[cid.rank] = body
        return bodies

    def _walk_and_fetch(
        self, state: PartitionState, ids: Sequence[ChunkId]
    ) -> Tuple[List[Item], List[bytes]]:
        """The walk of ``ids`` and :meth:`fetch` of what it resolved; a
        walk that fails for the batch is re-run one id at a time, each
        fetched before the next is walked, as a sequential loop would."""
        try:
            items = list(zip(ids, self.descriptors(state, ids)))
        except TDBError:
            if len(ids) == 1:
                raise
            items, bodies = [], []
            for cid in ids:
                item = (cid, self.descriptors(state, (cid,))[0])
                items.append(item)
                bodies.extend(self.fetch(state, (item,)))
            return items, bodies
        return items, self.fetch(state, items)

    def fetch(self, state: PartitionState, items: Sequence[Item]) -> List[bytes]:
        """Validated read of chunks that must be written, their descriptors
        resolved: one ``read_many`` for the extents (a lone extent is a
        plain read).

        Error semantics match a sequential loop: any trouble in a batch
        re-runs it one chunk at a time, so the first one that cannot be
        served raises its own typed error and quarantine lands on the
        precise chunk."""
        if len(items) == 1:
            return self._fetch(state, items, batched=False)
        try:
            bodies = self._fetch(state, items, batched=True)
        except TDBError:
            return [self._fetch(state, (item,), False)[0] for item in items]
        self.chunk_batches += 1
        self.chunks_batch_fetched += len(items)
        return bodies

    def _fetch(
        self, state: PartitionState, items: Sequence[Item], batched: bool
    ) -> List[bytes]:
        for cid, descriptor in items:
            if descriptor.status == ChunkStatus.WRITTEN:
                continue
            # never allocated, allocated but unwritten — or, if the
            # partition's allocation state says it *is* written, a map
            # that lost it
            if cid.height == 0 and cid.rank in state.pending_ranks:
                raise ChunkNotWrittenError(f"chunk {cid} is allocated but unwritten")
            if cid.height == 0 and not state.is_committed_written(cid.rank):
                raise ChunkNotAllocatedError(f"chunk {cid} is not allocated")
            raise TamperDetectedError(
                f"chunk {cid} should be written but its descriptor says "
                f"{descriptor.status.name}"
            )
        return self.read_validated(state, items, batched)

    def _read_extent(self, cid: ChunkId, descriptor: ChunkDescriptor) -> bytes:
        try:
            return self.reader.read(descriptor.location, descriptor.length)
        except IOFaultError as exc:
            self._quarantine(cid, "io")
            raise QuarantineError(str(cid), "io") from exc

    def _validate(
        self,
        state: PartitionState,
        cid: ChunkId,
        descriptor: ChunkDescriptor,
        raw: bytes,
    ) -> bytes:
        """Parse, decrypt, and hash-validate one version read as a single
        extent (``raw`` spans header and body ciphertext)."""
        codec = self.codec
        raw = memoryview(raw)  # header/body slices below stay zero-copy
        try:
            # a tampered header can decrypt to arbitrary garbage, including
            # absurd body sizes — those are tampering, not I/O errors
            header = codec.parse_header(raw[: codec.header_cipher_size])
            if codec.header_cipher_size + header.body_cipher_size != len(raw):
                raise TamperDetectedError(
                    f"chunk {cid}: header declares an implausible body size "
                    f"{header.body_cipher_size}"
                )
            if header.kind != VersionKind.NAMED:
                raise TamperDetectedError(f"chunk {cid}: version kind mismatch")
            if (header.height, header.rank) != (cid.height, cid.rank):
                raise TamperDetectedError(
                    f"chunk {cid}: stored position {header.height}.{header.rank} "
                    f"does not match"
                )
            body, computed = codec.validate_named(
                header, raw[codec.header_cipher_size :], state.cipher, state.hash
            )
            if computed != descriptor.body_hash:
                raise TamperDetectedError(f"chunk {cid}: hash mismatch")
        except TamperDetectedError:
            self._quarantine(cid, "tamper")
            raise
        if self.quarantine and self.quarantine.pop(str(cid), None) is not None:
            obs.emit("quarantine_healed", chunk=str(cid))  # a clean read heals
        return body

    def _quarantine(self, cid: ChunkId, cause: str) -> None:
        key = str(cid)
        if key not in self.quarantine:
            self.quarantined_total += 1
            logger.warning("quarantining chunk %s (%s)", key, cause)
            obs.emit("quarantine", chunk=key, cause=cause)
        if cause == "io" or key not in self.quarantine:
            self.quarantine[key] = cause
        # a chunk found damaged must not keep being served from bytes
        # validated earlier
        self.payloads.invalidate(cid)
