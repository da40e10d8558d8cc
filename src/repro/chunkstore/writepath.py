"""The log write path (§4.6, §4.8.2): one commit-set protocol.

Everything that reaches the log is appended as part of a *commit set*,
and every commit set is closed the same way::

    begin_set → append … → seal(stage):
        seal_set            the discipline's commit chunk, if it writes one
        validator.seal      what the set sealed: its count, or chain and tail
        <stage>.before_flush
    → flush(seal)           unless the caller asked for a lazy flush and
                            the discipline allows one
    → publish(seal, stage):
        <stage>.after_flush
        publish             the tamper-resistant store moves (or not: Δut)
                            for what the set sealed
        <stage>.after_tr    only if it moved

:class:`LogWriter` is the only implementation of that sequence, and it
has two callers: the store's commit route (``ChunkStore._commit_set``,
which every application commit and every cleaner re-commit takes) and
the two phases of a checkpoint.  They differ in their arguments — the
``stage`` that names the crash-injection points, whether the device flush
may be lazy, whether the tamper-resistant write is forced — not in code.
:meth:`LogWriter.make_durable` runs the three steps in one go, offering
the caller's ``_lock`` for the flush; a pipelined commit runs the same
steps apart — :meth:`~LogWriter.seal` under both of the store's locks,
the device flush (:meth:`~LogWriter.sync`) under neither, and
:meth:`~LogWriter.publish` with ``synced`` under ``_lock`` once every set
sealed before it has finished — which is why the flush and the publish
are told what the set sealed instead of reading the validator's "now".
Which validation discipline is in force is the validator's business
(:mod:`repro.chunkstore.validation`); nothing here asks.

Like the read path, a log writer owns nothing it was not given: the
codec, the :class:`~repro.chunkstore.segments.SegmentManager` holding the
tail, the :class:`~repro.chunkstore.segments.LogWriteBuffer` (which holds
the device and the retrier), the validator and the crash injector.
``ChunkStore`` builds one and calls it under its locks (the writers' lock
and ``_lock`` to append and seal, ``_lock`` to publish); the one thing a
caller may hand it is ``_lock`` itself, to drop across a commit set's
device flush.  Whether an append fits is not its business: every writer
but a checkpoint asks :mod:`repro.chunkstore.logspace` before it
appends.
"""

from __future__ import annotations

import time

from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId
from repro.chunkstore.log import LogCodec, NextSegmentRecord, VersionKind
from repro.chunkstore.segments import LogWriteBuffer, SegmentManager
from repro.chunkstore.validation import Seal, Validator
from repro.crypto.cipher import Cipher
from repro.crypto.hashing import HashFunction
from repro.errors import ChunkStoreError
from repro.platform.crash import CrashInjector


#: what an unnamed version is booked as in ``LogWriter.bytes_by_kind``
_UNNAMED_KINDS = {
    VersionKind.DEALLOCATE: "dealloc",
    VersionKind.COMMIT: "commit",
    VersionKind.NEXT_SEGMENT: "next_segment",
    VersionKind.CLEANER: "cleaner_record",
}


class LogWriter:
    """Appends versions at the log tail and closes commit sets."""

    def __init__(
        self,
        codec: LogCodec,
        segman: SegmentManager,
        logbuf: LogWriteBuffer,
        validator: Validator,
        injector: CrashInjector,
    ) -> None:
        self.codec = codec
        self.segman = segman
        self.logbuf = logbuf
        self.validator = validator
        self.injector = injector
        #: the largest version the log can hold: every segment keeps room
        #: for the NEXT_SEGMENT version that chains it to its successor
        self.max_version_size = segman.segment_size - codec.version_size(
            NextSegmentRecord.BODY_SIZE, codec.system_cipher
        )
        #: bytes appended per kind of version, whoever appended them (commit,
        #: checkpoint or cleaner): ``data`` and ``map`` chunks of any
        #: partition bar the system partition's data chunks — the partition
        #: leaders — which with the system leader are ``leader``; the rest
        #: are the unnamed kinds.  Sums to ``LogWriteBuffer.bytes_appended``.
        self.bytes_by_kind = dict.fromkeys(
            ("data", "map", "leader", *_UNNAMED_KINDS.values()), 0
        )
        #: seconds the last device flush took, whoever ran it: the store
        #: reads it to tell whether a flush is worth overlapping (one
        #: float, written by whichever thread flushed last)
        self.last_sync_s = 0.0

    # -- appending -------------------------------------------------------------

    def begin_set(self) -> None:
        self.validator.begin_set()

    def append(self, version: bytes, kind: str, in_set: bool = True) -> int:
        """Append one version at the log tail, chaining into a fresh
        segment first if it does not fit; returns its absolute location.
        ``kind`` is the ``bytes_by_kind`` tally it is booked under."""
        size = len(version)
        if size > self.max_version_size:
            raise ChunkStoreError(
                f"version of {size} bytes exceeds the maximum of "
                f"{self.max_version_size} (segment size {self.segman.segment_size})"
            )
        segman = self.segman
        if segman.tail_offset + size > self.max_version_size:
            segment = segman.claim_free_segment()
            self._chain_jump(segment)
            segman.jump_to(segment)
        location = segman.tail_location
        self.logbuf.append(location, version)
        self.validator.note(version, in_set=in_set)
        self.bytes_by_kind[kind] += size
        segman.advance(size)
        return location

    def append_named(
        self, cid: ChunkId, body: bytes, cipher: Cipher, hash_function: HashFunction
    ) -> ChunkDescriptor:
        """Append a version of chunk ``cid``; returns the descriptor that
        now vouches for it."""
        version, digest = self.codec.build_named(cid, body, cipher, hash_function)
        if cid.is_map():
            kind = "map"
        else:
            kind = "leader" if cid.partition == SYSTEM_PARTITION else "data"
        return ChunkDescriptor(
            ChunkStatus.WRITTEN, self.append(version, kind), len(version), digest
        )

    def append_unnamed(self, kind: int, body: bytes, in_set: bool = True) -> int:
        return self.append(
            self.codec.build_unnamed(kind, body), _UNNAMED_KINDS[kind], in_set
        )

    def _chain_jump(self, segment: int) -> None:
        """Point the tail segment at ``segment``, its successor.  Jumps
        are never *in* a commit set: they say where to read next, not
        what was committed (see :mod:`repro.chunkstore.validation`)."""
        jump = self.codec.build_unnamed(
            VersionKind.NEXT_SEGMENT, NextSegmentRecord(segment).encode()
        )
        self.logbuf.append(self.segman.tail_location, jump)
        self.validator.note(jump, in_set=False)
        self.bytes_by_kind["next_segment"] += len(jump)
        self.segman.advance(len(jump))

    def restart_residual(self, chained: bool = True) -> int:
        """A checkpoint's second phase: the residual log restarts in a
        fresh segment, ``chained`` from the old tail unless this is the
        very first checkpoint.  Returns the ``checkpoint_count`` the new
        leader records."""
        segment = self.segman.claim_free_segment()
        if chained:
            self._chain_jump(segment)
        self.segman.begin_residual(segment)
        return self.validator.restart_residual()

    # -- closing a commit set ----------------------------------------------------

    def seal_set(self) -> None:
        """Close the open set in the log (a no-op for a discipline that
        closes sets in the tamper-resistant store instead)."""
        record = self.validator.closing_record()
        if record is not None:
            self.append_unnamed(VersionKind.COMMIT, record.encode(), in_set=False)

    def seal(self, stage: str) -> Seal:
        """Close the open set, issue its pending span and pass
        ``<stage>.before_flush``; returns what the validator recorded of
        the set — what :meth:`flush` and :meth:`publish` are about, however
        much is appended after it."""
        self.seal_set()
        self.logbuf.seal()
        seal = self.validator.seal(self.segman.tail_location)
        self.injector.point(stage + ".before_flush")
        return seal

    def sync(self) -> None:
        """The device flush alone: everything issued so far is durable when
        it returns.  It reads and writes no state of the log or of the
        store, so it may run under no lock at all: a pipelined commit runs
        it after :meth:`seal` and tells :meth:`publish` (``synced``)."""
        started = time.perf_counter()
        self.logbuf.sync()
        self.last_sync_s = time.perf_counter() - started

    def flush(self, seal: Seal, unlocked=None) -> None:
        """Make everything appended so far durable, the set sealed as
        ``seal`` included.  ``unlocked`` is the lock to drop while the
        device works (see :meth:`make_durable`)."""
        self.logbuf.seal()
        if unlocked is not None:
            # the one place in the chunk store a lock is offered for the
            # device flush: what runs without it is the retried flush alone
            unlocked.release()
        try:
            self.sync()
        finally:
            if unlocked is not None:
                unlocked.acquire()
        self.validator.flushed(seal)

    def publish(
        self,
        seal: Seal,
        stage: str,
        leader_location: int,
        force: bool = False,
        synced: bool = False,
    ) -> None:
        """The rest of the protocol once the sealed set is durable (or its
        flush is lazy): ``<stage>.after_flush``, the tamper-resistant
        store's move for it, ``<stage>.after_tr`` if it moved.  ``synced``
        says the caller ran the set's device flush apart (:meth:`sync`,
        begun after the seal), which the validator learns here."""
        if synced:
            self.validator.flushed(seal)
        point = self.injector.point
        point(stage + ".after_flush")
        if self.validator.publish(
            seal, leader_location, lambda: self.flush(seal), force
        ):
            point(stage + ".after_tr")

    def make_durable(
        self,
        stage: str,
        leader_location: int,
        lazy: bool = False,
        force: bool = False,
        unlocked=None,
    ) -> None:
        """Seal the open set and run the durability protocol (see the
        module docstring) in one go; ``stage`` prefixes the crash-injection
        points.

        ``unlocked`` is ``ChunkStore._lock`` when the caller is the
        store's commit route and ``None`` for a checkpoint: the lock is
        dropped for the device flush — that one call, not the seal before
        it, the crash points around it, ``validator.flushed`` or
        ``publish`` — so reads are served while the device works.  Nothing
        can append meanwhile: the caller still holds the writers' lock; and
        nothing in the window sees the set, whose effects the caller
        installs only after this returns.  (The store's pipelined commit
        runs the same steps apart: :meth:`seal` under both locks, the
        device flush under neither, :meth:`publish` under ``_lock``.)"""
        seal = self.seal(stage)
        if not (lazy and self.validator.allows_lazy_flush):
            self.flush(seal, unlocked)
        self.publish(seal, stage, leader_location, force)
