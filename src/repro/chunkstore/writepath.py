"""The log write path (§4.6, §4.8.2): one commit-set protocol.

Everything that reaches the log is appended as part of a *commit set*,
and every commit set is closed the same way::

    begin_set → append … → make_durable(stage):
        seal_set            the discipline's commit chunk, if it writes one
        <stage>.before_flush
        flush               unless the caller asked for a lazy flush and
                            the discipline allows one; an application
                            commit drops the store's ``_lock`` for it
        <stage>.after_flush
        publish             the tamper-resistant store moves (or not: Δut)
        <stage>.after_tr    only if it moved

:class:`LogWriter` is the only implementation of that sequence.  An
application commit, the two phases of a checkpoint and the cleaner's
re-commit are callers that differ in their arguments — the ``stage`` that
names the crash-injection points, whether the device flush may be lazy,
whether the tamper-resistant write is forced — not in code.  Which
validation discipline is in force is the validator's business
(:mod:`repro.chunkstore.validation`); nothing here asks.

Like the read path, a log writer owns nothing it was not given: the
codec, the :class:`~repro.chunkstore.segments.SegmentManager` holding the
tail, the :class:`~repro.chunkstore.segments.LogWriteBuffer` (which holds
the device and the retrier), the validator and the crash injector.
``ChunkStore`` builds one and calls it under both of its locks (the
writers' lock and ``_lock``); the one thing a caller may hand it is
``_lock`` itself, to drop across an application commit's device flush.
Whether an append fits is not its business: every writer but a
checkpoint asks :mod:`repro.chunkstore.logspace` before it appends.
"""

from __future__ import annotations

from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId
from repro.chunkstore.log import LogCodec, NextSegmentRecord, VersionKind
from repro.chunkstore.segments import LogWriteBuffer, SegmentManager
from repro.chunkstore.validation import Validator
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

    def flush(self, unlocked=None) -> None:
        """Make everything appended so far durable.  ``unlocked`` is the
        lock to drop while the device works (see :meth:`make_durable`)."""
        self.logbuf.seal()
        if unlocked is not None:
            # THE unlocked statement: the only place in the chunk store a
            # lock is released other than by leaving a ``with``, and what
            # runs without it is the retried device flush alone
            unlocked.release()
        try:
            self.logbuf.sync()
        finally:
            if unlocked is not None:
                unlocked.acquire()
        self.validator.flushed()

    def make_durable(
        self,
        stage: str,
        leader_location: int,
        lazy: bool = False,
        force: bool = False,
        unlocked=None,
    ) -> None:
        """Seal the open set and run the durability protocol (see the
        module docstring); ``stage`` prefixes the crash-injection points.

        ``unlocked`` is ``ChunkStore._lock`` when the caller is an
        application commit and ``None`` for everyone else: the lock is
        dropped for the device flush — that one call, not the seal before
        it, the crash points around it, ``validator.flushed()`` or
        ``publish`` — so reads are served while the device works.  Nothing
        can append meanwhile: the caller still holds the writers' lock."""
        self.seal_set()
        self.logbuf.seal()
        point = self.injector.point
        point(stage + ".before_flush")
        if not (lazy and self.validator.allows_lazy_flush):
            self.flush(unlocked)
        point(stage + ".after_flush")
        if self.validator.publish(
            self.segman.tail_location, leader_location, self.flush, force
        ):
            point(stage + ".after_tr")
