"""Crash recovery: roll-forward of the residual log (§4.8).

A crash loses buffered chunk-map updates; recovery reconstructs them by
reading the residual log sequentially from the leader and recomputing each
version's descriptor from its location and hash.  Validation differs by
mode:

* **direct hash** — the tamper-resistant store names the leader location
  and the log tail, and holds the chained hash of every version in
  between.  Recovery recomputes the chain as it reads; any divergence (or
  inability to read exactly up to the recorded tail) is tampering.
* **counter** — the (untrusted) superblock names the leader; the recovery
  procedure checks that the chunk at that location really is the leader
  (§4.9.2), then verifies each commit set against its signed commit chunk:
  the MAC must verify, the set hash must match, and the counts must form
  an exact sequence starting from the count recorded in the leader.  A
  trailing commit set that fails its checksum is a torn commit and is
  discarded (§4.9.3); a count-sequence violation is tampering.  Finally
  the last count is compared against the tamper-resistant counter within
  the configured Δut/Δtu windows.

The roll-forward itself does not test the mode: it asks the validator
where to start (``recovery_origin``), where it must stop
(``recorded_tail``), whether commit chunks seal sets (``seals_sets``: then
effects wait for their chunk and an unusable version is a torn tail, else
effects apply at once and it is tampering), and for the closing comparison
with the tamper-resistant store (``finish_recovery``).

Effects are applied through the same helpers normal commits use, so the
reconstructed volatile state (descriptor cache, allocation state, segment
accounting) is identical to what a non-crashed instance would hold.  In
counter mode, effects buffer per commit set and apply only after the
commit chunk verifies.  The tail moves, and the log claims segments, only
through :class:`~repro.chunkstore.segments.SegmentManager`'s recovery
methods.

A system-leader version encountered *mid-log* is inert: it means the
superblock write that would have completed a checkpoint was lost in a
crash.  Rolling forward from the previous leader reconstructs exactly the
state the new leader describes, so recovery simply continues past it
(the next checkpoint will write a fresh leader).
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional, Tuple

from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    decode_map_body,
)
from repro.chunkstore.ids import (
    SYSTEM_PARTITION,
    ChunkId,
    leader_id,
    rank_to_partition,
)
from repro.chunkstore.leader import LeaderPayload
from repro.chunkstore.log import (
    CleanerRecord,
    CommitRecord,
    DeallocateRecord,
    NextSegmentRecord,
    VersionHeader,
    VersionKind,
)
from repro.chunkstore.logscan import VersionReader
from repro import obs
from repro.errors import TamperDetectedError


logger = logging.getLogger("repro.chunkstore.recovery")


class _TornTail(Exception):
    """Internal: the log ends in an incomplete (torn) commit set."""


def recover(store, superblock_leader: int) -> None:
    """Reopen ``store`` from its platform: validate and roll forward.
    ``superblock_leader`` is the superblock's (unauthenticated) leader
    location; whether it is believed is the validator's call."""
    with obs.span("chunkstore.recovery"):
        _Recovery(store).run(superblock_leader)


class _Recovery:
    def __init__(self, store) -> None:
        self.store = store
        self.config = store.config
        self.codec = store.codec
        self.segman = store.segman
        self.validator = store.validator
        #: the image the roll-forward rebuilds, through the same effects a
        #: live commit applies
        self.table = store.table
        #: the log-order reader; recovery never writes the log, so one
        #: reader serves the whole roll-forward
        self.versions = VersionReader(store.codec, store.reader, store.segman)

    # -- main ----------------------------------------------------------------

    def _torn(self, exc: TamperDetectedError) -> Exception:
        """What an unusable version means: the torn tail of a log that
        delimits itself, else the tampering ``exc`` describes."""
        return _TornTail() if self.validator.seals_sets else exc

    def run(self, superblock_leader: int) -> None:
        """Execute recovery (see the module docstring for the protocol)."""
        store = self.store
        validator = self.validator
        leader_loc = validator.recovery_origin(superblock_leader)
        #: where the tamper-resistant store says the log ends; ``None``
        #: when the log's own commit chunks say it
        recorded_tail = validator.recorded_tail

        # --- load and check the leader -------------------------------------
        try:
            header, header_ct, body_ct = self.versions.read(leader_loc)
        except TamperDetectedError as exc:
            raise TamperDetectedError(f"cannot read leader: {exc}") from exc
        if header.kind != VersionKind.NAMED or header.chunk_id != leader_id(
            SYSTEM_PARTITION
        ):
            raise TamperDetectedError(
                "the chunk at the stored leader location is not the leader"
            )
        body = self.codec.decrypt_body(header, body_ct, self.codec.system_cipher)
        try:
            payload = LeaderPayload.decode(body)
        except ValueError as exc:
            raise TamperDetectedError(f"undecodable leader payload: {exc}") from exc
        if payload.system is None:
            raise TamperDetectedError("leader payload lacks system extras")
        self.table.open_system(payload)
        self.segman.load_table(payload.system.segments)
        store._leader_location = leader_loc

        leader_size = len(header_ct) + len(body_ct)
        validator.restart_residual()
        validator.note(header_ct, body_ct)

        cursor = leader_loc + leader_size
        self.segman.resume(leader_loc, leader_size)

        # --- roll forward ----------------------------------------------------
        segment_of = self.segman.segment_of
        expected_count = payload.system.checkpoint_count
        pending: List[Callable[[], None]] = []
        #: pre-announced cleaner targets: (height, rank, pids), in order
        cleaner_queue: List[Tuple[int, int, List[int]]] = []
        last_good = cursor
        claims_since_good: List[int] = []

        try:
            while True:
                if cursor == recorded_tail:
                    break
                # addresses order the log only inside one segment: the
                # chain may well have jumped into a lower-numbered one
                if (
                    recorded_tail is not None
                    and cursor > recorded_tail
                    and segment_of(cursor) == segment_of(recorded_tail)
                ):
                    raise TamperDetectedError(
                        "residual log overran the recorded tail"
                    )
                try:
                    header, header_ct, body_ct = self.versions.read(cursor)
                except TamperDetectedError as exc:
                    raise self._torn(
                        TamperDetectedError(
                            f"residual log unreadable before the recorded tail: {exc}"
                        )
                    )
                version_len = len(header_ct) + len(body_ct)
                kind = header.kind

                if kind == VersionKind.NEXT_SEGMENT:
                    validator.note(header_ct, body_ct, in_set=False)
                    try:
                        record = NextSegmentRecord.decode(
                            self.codec.decrypt_body(
                                header, body_ct, self.codec.system_cipher
                            )
                        )
                        nxt = record.next_segment
                        if not 0 <= nxt < self.segman.segment_count:
                            raise TamperDetectedError(
                                "next-segment index out of range"
                            )
                        if nxt in self.segman.residual_segments:
                            raise TamperDetectedError("next-segment chain loops")
                        if nxt not in self.segman.free_segments:
                            # the log claims only segments the checkpoint's
                            # table lists as free (a cleaned one is deferred
                            # until a checkpoint lists it)
                            raise TamperDetectedError(
                                "next-segment record names a segment in use"
                            )
                    except TamperDetectedError as exc:
                        # stale residue of a reclaimed segment, if tails tear
                        raise self._torn(exc)
                    self.segman.replayed(cursor, version_len)
                    self.segman.claim_named(nxt)
                    claims_since_good.append(nxt)
                    cursor = self.segman.segment_start(nxt)
                    continue

                if kind == VersionKind.COMMIT:
                    if not validator.seals_sets:
                        raise TamperDetectedError(
                            f"commit chunk found under {validator.mode} validation"
                        )
                    set_hash = validator.current_set_hash()
                    try:
                        record = CommitRecord.decode(
                            self.codec.decrypt_body(
                                header, body_ct, self.codec.system_cipher
                            )
                        )
                    except (TamperDetectedError, ValueError):
                        raise _TornTail()
                    if not validator.verify_commit_record(record, set_hash):
                        raise _TornTail()
                    if record.count < expected_count:
                        # a validly-signed but *older* commit set can only be
                        # stale residue of a reclaimed segment beyond the true
                        # tail (or an attacker splicing old sets, which the
                        # final counter-window check bounds): torn tail
                        raise _TornTail()
                    if record.count > expected_count:
                        raise TamperDetectedError(
                            f"commit count sequence broken: expected "
                            f"{expected_count}, found {record.count}"
                        )
                    if cleaner_queue:
                        raise TamperDetectedError(
                            "cleaner record not fully consumed by its commit set"
                        )
                    for effect in pending:
                        effect()
                    pending.clear()
                    expected_count += 1
                    self.segman.replayed(cursor, version_len)
                    cursor += version_len
                    last_good = cursor
                    claims_since_good.clear()
                    validator.begin_set()
                    continue

                # NAMED / DEALLOCATE / CLEANER all count into the set hash
                validator.note(header_ct, body_ct)
                try:
                    effect = self._effect_for(header, body_ct, cursor, cleaner_queue)
                except TamperDetectedError as exc:
                    raise self._torn(exc)  # undecodable stale residue
                if effect is not None:
                    if validator.seals_sets:
                        pending.append(effect)  # until its commit chunk verifies
                    else:
                        effect()
                self.segman.replayed(cursor, version_len)
                cursor += version_len
        except _TornTail:
            obs.emit(
                "torn_tail",
                at=cursor,
                discarded_segments=len(claims_since_good),
            )
            # Discard the incomplete suffix: un-claim segments the torn
            # region pulled in and truncate the tail.
            self.segman.unclaim(claims_since_good)
            pending.clear()
            cleaner_queue.clear()
            cursor = last_good

        validator.finish_recovery(expected_count - 1)

        self.segman.end_log(cursor)

        for state in self.table.partitions.values():
            state.reset_allocator()
        obs.emit(
            "recovery_replay",
            mode=self.config.validation_mode,
            tail=cursor,
            commit_sets=expected_count - payload.system.checkpoint_count,
            partitions=len(self.table.partitions),
        )
        logger.info(
            "recovery complete: mode=%s, tail at %d, %d partition(s) open",
            self.config.validation_mode,
            cursor,
            len(self.table.partitions),
        )

    # -- helpers ----------------------------------------------------------------

    def _effect_for(
        self,
        header: VersionHeader,
        body_ct: bytes,
        location: int,
        cleaner_queue: List[Tuple[int, int, List[int]]],
    ) -> Optional[Callable[[], None]]:
        store = self.store
        table = self.table
        codec = self.codec
        kind = header.kind

        if kind == VersionKind.DEALLOCATE:
            record = DeallocateRecord.decode(
                codec.decrypt_body(header, body_ct, codec.system_cipher)
            )

            def dealloc_effect() -> None:
                for cid in record.chunk_ids:
                    table.chunk_freed(cid)
                if record.partition_ids:
                    table.partitions_freed(record.partition_ids)

            return dealloc_effect

        if kind == VersionKind.CLEANER:
            record = CleanerRecord.decode(
                codec.decrypt_body(header, body_ct, codec.system_cipher)
            )
            cleaner_queue.extend(record.entries)
            return None

        if kind != VersionKind.NAMED:
            raise TamperDetectedError(f"unexpected version kind {kind}")

        cid = header.chunk_id
        if cid == leader_id(SYSTEM_PARTITION):
            return None  # inert: an unadopted checkpoint leader (see docstring)

        # Is this version a cleaner rewrite announced by a CLEANER record?
        targets: Optional[List[int]] = None
        if cleaner_queue and cleaner_queue[0][:2] == (header.height, header.rank):
            _height, _rank, targets = cleaner_queue.pop(0)

        if (
            cid.partition == SYSTEM_PARTITION
            and cid.height == 0
            and targets is None
        ):
            # a partition leader: decode now (system cipher), apply later
            body, digest = codec.validate_named(
                header, body_ct, codec.system_cipher, table.system.hash
            )
            try:
                payload = LeaderPayload.decode(body)
            except ValueError as exc:
                raise TamperDetectedError(
                    f"undecodable partition leader at {location}: {exc}"
                ) from exc
            descriptor = ChunkDescriptor(
                ChunkStatus.WRITTEN,
                location,
                codec.header_cipher_size + len(body_ct),
                digest,
            )
            pid = rank_to_partition(cid.rank)

            def leader_effect() -> None:
                if table.exists(pid) and payload.tree_height == 0 and not payload.next_rank:
                    # a fresh leader over a written partition: the
                    # ``WritePartition`` that reset it, as the live commit
                    # did.  A leader rewritten for a copy source or by a
                    # checkpoint carries every rank the partition
                    # committed, so it looks fresh only when there is
                    # nothing to drop
                    table.reset(pid)
                table.leader_written(table.open(pid, payload), payload, descriptor)

            return leader_effect

        def chunk_effect() -> None:
            # the cleaner encrypts a rewrite under the first partition it
            # is current in (``Cleaner._rewrite``): once the header's
            # partition was reset to another key, that is one of its copies
            state = table.load(header.partition if targets is None else targets[0])
            body, digest = codec.validate_named(
                header, body_ct, state.cipher, state.hash
            )
            descriptor = ChunkDescriptor(
                ChunkStatus.WRITTEN,
                location,
                codec.header_cipher_size + len(body_ct),
                digest,
            )
            # a replayed map chunk (interrupted checkpoint, cleaner move) is
            # now the current version: any vector cached on the way here is
            # the one it superseded
            vector = (
                decode_map_body(cid, body, store.config.fanout)
                if cid.is_map()
                else None
            )
            for pid in [cid.partition] if targets is None else targets:
                target = ChunkId(pid, cid.height, cid.rank)
                table.chunk_written(target, descriptor.copy())
                if vector is not None:
                    store.cache.install(target, vector)

        return chunk_effect
