"""Segment management (§4.9.4, §4.9.5).

The untrusted store is divided into fixed-size segments.  The log is a
sequence of potentially non-adjacent segments chained by next-segment
chunks.  This module tracks, per segment:

* ``used_bytes`` — how far the log wrote into the segment (the extent the
  cleaner and recovery may read sequentially);
* ``live_bytes`` — an *estimate* of current (non-obsolete) data, driving
  the cleaner's segment selection.  The estimate ignores sharing between
  partition copies (a version superseded in P may still be current in a
  copy of P), which can only make a segment look *emptier* than it is;
  the cleaner re-checks currency per version, so this costs efficiency,
  never correctness.

Layout: segment ``i`` occupies bytes
``[superblock_size + i·segment_size, superblock_size + (i+1)·segment_size)``
of the untrusted store.

Deviation from the paper, documented: each checkpoint starts a fresh
segment, so the residual log always begins at a segment boundary.  The
paper instead records an arbitrary leader location; starting a segment
costs a little space per checkpoint and simplifies the residual-chain
bookkeeping.

A segment the cleaner frees is *deferred*, not free: recovery starts from
the last checkpoint, whose map and leaders may still lie in it, and an open
snapshot view frozen before the clean may still read it.  So the log may
claim it only once a later checkpoint — whose segment table already lists
it as free — is durable *and* no open view predates the clean
(:meth:`SegmentManager.release_deferred`).  Views die with a crash, so the
second condition lives in memory only.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import obs
from repro.chunkstore.leader import SegmentTable
from repro.errors import StorageFullError


class LogWriteBuffer:
    """Coalesces contiguous log appends into one ``untrusted.write`` per span.

    The commit path appends many small versions at strictly increasing,
    adjacent locations; issuing one untrusted-store write per version
    costs a syscall-shaped round trip each (and, in the paper's model, a
    device command each).  This buffer accumulates the bytes while appends
    stay contiguous and *seals* — issues the single combined write — when:

    * an append lands at a non-adjacent location (a segment jump),
    * the store is about to flush or read the device (``seal`` is called
      from ``LogWriter.flush`` and ``make_durable`` and by the store's
      ``RetriedReader`` ahead of every device read),
    * a commit or checkpoint finishes.

    Sealing is transparent to crash semantics: buffered bytes have simply
    not reached the untrusted store yet, exactly like unflushed writes
    have not reached the durable image — nothing is durable before
    :meth:`sync` either way.  Every public chunk-store entry point leaves the
    buffer empty, so the attacker-visible image (``tamper_read`` /
    ``tamper_image``) never lags the log between operations.
    """

    def __init__(self, untrusted, retrier) -> None:
        self._untrusted = untrusted
        #: the :class:`~repro.platform.retry.Retrier` for the issued write
        self._retrier = retrier
        self._start = 0
        self._length = 0
        self._chunks: List[bytes] = []
        #: appends accepted — what the write count would be without coalescing
        self.appends = 0
        #: untrusted.write calls actually issued
        self.writes_issued = 0
        #: total bytes appended through the buffer
        self.bytes_appended = 0

    @property
    def pending_bytes(self) -> int:
        return self._length

    def append(self, location: int, data: bytes) -> None:
        """Buffer ``data`` destined for ``location``; auto-seals first if
        the write is not adjacent to the pending span.  ``data`` may be
        any bytes-like span (``memoryview`` slices buffer without a
        copy); the single join happens at :meth:`seal`."""
        if self._chunks and location != self._start + self._length:
            self.seal()
        if not self._chunks:
            self._start = location
        self._chunks.append(data)
        self._length += len(data)
        self.appends += 1
        self.bytes_appended += len(data)

    def seal(self) -> None:
        """Issue the pending span as one untrusted-store write.

        The buffer is cleared only after the write succeeds: a transient
        fault that escapes the retrier leaves the span pending, so the
        bytes are re-issued (not silently dropped) on the next seal."""
        if not self._chunks:
            return
        data = (
            bytes(self._chunks[0])
            if len(self._chunks) == 1
            else b"".join(self._chunks)
        )

        def issue() -> None:
            with obs.span("platform.untrusted.write"):
                self._untrusted.write(self._start, data)

        self._retrier.call(issue, "log write")
        self._chunks = []
        self._length = 0
        self.writes_issued += 1

    def sync(self) -> None:
        """Make everything written so far durable: the retried device
        flush and nothing else.  The caller sealed; no state of the
        buffer (or of the store) is read or written here, which is what
        lets an application commit run this one call with the store's
        ``_lock`` dropped (``LogWriter.flush``)."""

        def issue() -> None:
            with obs.span("platform.untrusted.write"):
                self._untrusted.flush()

        self._retrier.call(issue, "flush")


class SegmentManager:
    """Allocation, tail tracking, and utilization accounting for segments."""

    def __init__(
        self, superblock_size: int, segment_size: int, store_size: int
    ) -> None:
        self.superblock_size = superblock_size
        self.segment_size = segment_size
        self.segment_count = (store_size - superblock_size) // segment_size
        if self.segment_count < 2:
            raise ValueError(
                "untrusted store too small: need at least 2 segments"
            )
        self.used_bytes: List[int] = [0] * self.segment_count
        self.live_bytes: List[int] = [0] * self.segment_count
        self.free_segments: List[int] = list(range(self.segment_count - 1, -1, -1))
        #: cleaned segments, each with the commit count at its clean, in
        #: clean order: free at the first durable checkpoint that no open
        #: view predates the clean of
        self.deferred_segments: List[Tuple[int, int]] = []
        self.tail_segment: int = 0
        self.tail_offset: int = 0
        self.residual_segments: List[int] = []

    # -- geometry ------------------------------------------------------------

    def segment_start(self, segment: int) -> int:
        return self.superblock_size + segment * self.segment_size

    def segment_of(self, location: int) -> int:
        return (location - self.superblock_size) // self.segment_size

    @property
    def tail_location(self) -> int:
        return self.segment_start(self.tail_segment) + self.tail_offset

    # -- allocation ----------------------------------------------------------

    def claim_free_segment(self) -> int:
        """Take a free segment for the log chain."""
        if not self.free_segments:
            raise StorageFullError(
                "no free segments; the log is full (clean or grow the store)"
            )
        segment = self.free_segments.pop()
        self.used_bytes[segment] = 0
        self.live_bytes[segment] = 0
        return segment

    def jump_to(self, segment: int) -> None:
        """Move the tail to the start of ``segment`` (already claimed)."""
        self.tail_segment = segment
        self.tail_offset = 0
        self.residual_segments.append(segment)

    def begin_residual(self, segment: int) -> None:
        """A checkpoint starts: the residual log restarts at ``segment``."""
        self.residual_segments = [segment]
        self.tail_segment = segment
        self.tail_offset = 0

    def advance(self, nbytes: int) -> None:
        self.tail_offset += nbytes
        if self.tail_offset > self.segment_size:
            raise AssertionError("log tail overran its segment")
        self.used_bytes[self.tail_segment] = max(
            self.used_bytes[self.tail_segment], self.tail_offset
        )

    def release_segment(self, segment: int, cleaned_at: int) -> None:
        """A cleaned segment holds nothing live: defer it, tagged with the
        store's commit count ``cleaned_at`` (see the module docstring)."""
        if segment in self.residual_segments:
            raise AssertionError("must not release a residual-log segment")
        self.used_bytes[segment] = 0
        self.live_bytes[segment] = 0
        self.deferred_segments.append((segment, cleaned_at))

    def releasable(self, oldest_view: int) -> int:
        """How many deferred segments a checkpoint frees while the oldest
        open view was frozen at commit count ``oldest_view``: those cleaned
        strictly before it (a view frozen *at* a clean's count may predate
        it).  Tags only rise, so they are the first ones."""
        return sum(at < oldest_view for _, at in self.deferred_segments)

    def release_deferred(self, oldest_view: int) -> None:
        """A checkpoint is durable: the :meth:`releasable` segments are
        free (and, the free list being LIFO, claimed first); the rest wait
        for a later one."""
        count = self.releasable(oldest_view)
        self.free_segments += [segment for segment, _ in self.deferred_segments[:count]]
        del self.deferred_segments[:count]

    # -- utilization ---------------------------------------------------------

    def add_live(self, location: int, nbytes: int) -> None:
        self.live_bytes[self.segment_of(location)] += nbytes

    def sub_live(self, location: int, nbytes: int) -> None:
        segment = self.segment_of(location)
        self.live_bytes[segment] = max(0, self.live_bytes[segment] - nbytes)

    def emptiest_cleanable_segment(self) -> Optional[int]:
        """The cleaner's next victim (§4.9.5): the checkpointed-log segment
        with the fewest live bytes among those holding any obsolete ones
        (lowest index on ties), or ``None``."""
        skip = set(self.residual_segments)
        skip.update(self.free_segments)
        victim: Optional[int] = None
        fewest = 0
        for segment, live in enumerate(self.live_bytes):
            if (
                (victim is None or live < fewest)
                and live < self.used_bytes[segment]
                and segment not in skip
            ):
                victim, fewest = segment, live
        return victim

    def stored_bytes(self) -> int:
        """Total bytes the log currently occupies (for §9.3/§9.5.2)."""
        return sum(self.used_bytes)

    def live_total(self) -> int:
        return sum(self.live_bytes)

    # -- persistence ---------------------------------------------------------

    def to_table(self) -> SegmentTable:
        """The checkpoint's view: deferred segments are free once it is
        durable, which is when a recovery would start from it — those an
        open view holds too, since views die with a crash."""
        return SegmentTable(
            tail_segment=self.tail_segment,
            free_segments=self.free_segments + [s for s, _ in self.deferred_segments],
            used_bytes=list(self.used_bytes),
            live_bytes=list(self.live_bytes),
            residual_segments=list(self.residual_segments),
        )

    def load_table(self, table: SegmentTable) -> None:
        if len(table.used_bytes) != self.segment_count:
            raise ValueError(
                "segment table size mismatch: store geometry changed?"
            )
        self.tail_segment = table.tail_segment
        self.free_segments = list(table.free_segments)
        self.deferred_segments = []
        self.used_bytes = list(table.used_bytes)
        self.live_bytes = list(table.live_bytes)
        self.residual_segments = list(table.residual_segments)
        self.tail_offset = table.used_bytes[table.tail_segment]
