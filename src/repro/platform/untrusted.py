"""The untrusted store: bulk persistent storage anyone can read or write.

This is where the database lives (§2.1): "persistent, allows efficient
random access, and can be read and written by any program".  Two
implementations are provided — an in-memory image (fast, used by most
tests and benchmarks) and a file-backed one.

Four aspects of the simulation deserve explanation:

**One copy per read.**  Every byte the device hands out comes from
``_image_read``, and ``_image_read`` makes exactly one copy: ``read``,
``read_many``, every undo-journal record ``write`` keeps, ``tamper_read``,
``tamper_image`` and ``durable_image`` all go through it.  The in-memory
image slices one ``memoryview`` it keeps for the store's whole life
(slicing the ``bytearray`` itself would copy, and ``bytes()`` of that slice
would copy again); the file image reads into a fresh ``bytes``.  So a
whole-image capture holds one image beside the live one, not two.

**Crash semantics.**  Writes are applied to the image immediately (the OS
page-cache view) but recorded in an undo journal until :meth:`flush`.  A
simulated fail-stop crash (:meth:`simulate_crash`) rolls back every
un-flushed write, modelling data that never reached the platter.  A crash
injected *during* a flush leaves a prefix of the pending writes durable —
the torn-commit case recovery must handle.

**Attacker API.**  ``tamper_read`` / ``tamper_write`` / ``tamper_image``
give tests and demos the powers of the hosting party: arbitrary read and
write access to the raw device, including whole-image save/replay (the
replay attack of §1).  Trusted code never calls these.  ``durable_image``
is the harness's copy: the image as a crash now would leave it.

**I/O accounting.**  Every read, write, and flush is tallied in
:class:`IOStats`.  The benchmark harness feeds the tallies to a
:class:`~repro.platform.disk_model.DiskModel` to produce the modeled I/O
latencies that reproduce the paper's Figure 12 breakdown without needing a
2000-era disk.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.platform.crash import CrashInjector

if False:  # pragma: no cover - import cycle guard, typing only
    from repro.platform.faults import FaultInjector


@dataclass
class IOStats:
    """Tally of untrusted-store traffic since the last :meth:`reset`."""

    reads: int = 0
    bytes_read: int = 0
    writes: int = 0
    bytes_written: int = 0
    flushes: int = 0
    flushed_bytes: int = 0
    #: read_many batches issued (each counts as a single round trip, §10)
    batched_reads: int = 0
    #: total extents carried by those batches (coalescing factor =
    #: batched_extents / batched_reads)
    batched_extents: int = 0
    #: I/O faults raised by the store (injected or real)
    io_errors: int = 0
    #: operations re-issued by the retry layer after a transient fault
    retries: int = 0
    #: operations abandoned after the retry policy was exhausted
    gave_up: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.bytes_read = 0
        self.writes = 0
        self.bytes_written = 0
        self.flushes = 0
        self.flushed_bytes = 0
        self.batched_reads = 0
        self.batched_extents = 0
        self.io_errors = 0
        self.retries = 0
        self.gave_up = 0

    def snapshot(self) -> "IOStats":
        return IOStats(
            reads=self.reads,
            bytes_read=self.bytes_read,
            writes=self.writes,
            bytes_written=self.bytes_written,
            flushes=self.flushes,
            flushed_bytes=self.flushed_bytes,
            batched_reads=self.batched_reads,
            batched_extents=self.batched_extents,
            io_errors=self.io_errors,
            retries=self.retries,
            gave_up=self.gave_up,
        )

    def delta(self, earlier: "IOStats") -> "IOStats":
        return IOStats(
            reads=self.reads - earlier.reads,
            bytes_read=self.bytes_read - earlier.bytes_read,
            writes=self.writes - earlier.writes,
            bytes_written=self.bytes_written - earlier.bytes_written,
            flushes=self.flushes - earlier.flushes,
            flushed_bytes=self.flushed_bytes - earlier.flushed_bytes,
            batched_reads=self.batched_reads - earlier.batched_reads,
            batched_extents=self.batched_extents - earlier.batched_extents,
            io_errors=self.io_errors - earlier.io_errors,
            retries=self.retries - earlier.retries,
            gave_up=self.gave_up - earlier.gave_up,
        )


@dataclass
class _UndoRecord:
    offset: int
    old_bytes: bytes
    new_len: int


class UntrustedStore(ABC):
    """Byte-addressed untrusted storage with flush/crash semantics.

    Thread-safety: every public operation takes an internal I/O mutex.
    Snapshot views read the device concurrently with the commit path's
    writes and flushes, and a file-backed image's seek+read / seek+write
    pairs would otherwise interleave and return bytes from the wrong
    offset.  The mutex also keeps the undo journal and :class:`IOStats`
    tallies consistent.  Individual operations are short (memory copies);
    anything slow a subclass adds to :meth:`flush` should run *outside*
    ``super().flush()`` so readers are not held up behind it.
    """

    def __init__(
        self,
        size: int,
        crash_injector: Optional[CrashInjector] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self._size = size
        self.stats = IOStats()
        self.injector = crash_injector or CrashInjector()
        #: optional I/O fault source; ``None`` means a perfect device
        self.faults = fault_injector
        #: chronological journal of writes not yet flushed
        self._undo: List[_UndoRecord] = []
        #: serializes image access, journal updates, and stats tallies
        self._io_mutex = threading.RLock()

    # -- raw image access, provided by subclasses ---------------------------

    @abstractmethod
    def _image_read(self, offset: int, size: int) -> bytes: ...

    @abstractmethod
    def _image_write(self, offset: int, data: bytes) -> None: ...

    # -- trusted interface ---------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def _fault_read(self, offset: int, size: int) -> None:
        """Give the fault injector a chance to fail a read (before any
        accounting, so a faulted read is a clean no-op)."""
        if self.faults is not None:
            try:
                self.faults.on_read(offset, size)
            except Exception:
                self.stats.io_errors += 1
                raise

    def read(self, offset: int, size: int) -> bytes:
        with self._io_mutex:
            self._check_range(offset, size)
            self._fault_read(offset, size)
            self.stats.reads += 1
            self.stats.bytes_read += size
            return self._image_read(offset, size)

    def read_many(self, extents: List[Tuple[int, int]]) -> List[bytes]:
        """Batched read (for the §10 "untrusted storage on servers"
        extension, where round-trips matter).

        The whole batch counts as *one* read round trip in
        :class:`IOStats` (plus a ``batched_reads`` tally), so the remote-
        store extension can measure round-trip savings against the
        one-read-per-extent baseline."""
        if not extents:
            return []
        with self._io_mutex:
            for offset, size in extents:
                self._check_range(offset, size)
                self._fault_read(offset, size)
            results = []
            total = 0
            for offset, size in extents:
                total += size
                results.append(self._image_read(offset, size))
            self.stats.reads += 1
            self.stats.batched_reads += 1
            self.stats.batched_extents += len(extents)
            self.stats.bytes_read += total
            return results

    def write(self, offset: int, data: bytes) -> None:
        with self._io_mutex:
            self._check_range(offset, len(data))
            if self.faults is not None:
                try:
                    self.faults.on_write(offset, len(data))
                except Exception:
                    self.stats.io_errors += 1
                    raise
            self.stats.writes += 1
            self.stats.bytes_written += len(data)
            self._undo.append(
                _UndoRecord(
                    offset, self._image_read(offset, len(data)), len(data)
                )
            )
            self._image_write(offset, data)

    def flush(self) -> None:
        """Make all buffered writes durable.

        A crash injected at ``untrusted.flush.partial`` makes only a prefix
        of the pending writes durable.  An injected flush fault fires
        before any pending record becomes durable: the undo journal is
        untouched, so the caller can simply flush again.
        """
        with self._io_mutex:
            if self.faults is not None:
                try:
                    self.faults.on_flush()
                except Exception:
                    self.stats.io_errors += 1
                    raise
            self.injector.point("untrusted.flush.begin")
            self.stats.flushes += 1
            pending = self._undo
            self._undo = []
            for index, record in enumerate(pending):
                try:
                    self.injector.point("untrusted.flush.partial")
                except Exception:
                    # Everything from this record on is still volatile: put
                    # the un-flushed suffix back so simulate_crash reverts
                    # it.  (The tally below intentionally hasn't happened
                    # yet: flushed_bytes only counts records that became
                    # durable.)
                    self._undo = pending[index:]
                    raise
                self.stats.flushed_bytes += record.new_len
            self.injector.point("untrusted.flush.end")

    # -- crash simulation ----------------------------------------------------

    def simulate_crash(self) -> None:
        """Discard every write since the last flush (power failure)."""
        with self._io_mutex:
            for record in reversed(self._undo):
                self._image_write(record.offset, record.old_bytes)
            self._undo = []

    def durable_image(self) -> bytes:
        """Copy the whole device as a crash now would leave it: every
        un-flushed write is rolled back in the copy, while the live image
        and the undo journal stay as they are (a later
        :meth:`simulate_crash` still reverts them).  One copy when nothing
        is pending."""
        with self._io_mutex:
            if not self._undo:
                return self._image_read(0, self._size)
            durable = bytearray(self._image_read(0, self._size))
            for record in reversed(self._undo):
                durable[record.offset : record.offset + record.new_len] = record.old_bytes
            return bytes(durable)

    # -- attacker interface --------------------------------------------------

    def tamper_read(self, offset: int, size: int) -> bytes:
        """Attacker: read raw device bytes (no validation, no accounting)."""
        with self._io_mutex:
            return self._image_read(offset, size)

    def tamper_write(self, offset: int, data: bytes) -> None:
        """Attacker: overwrite raw device bytes."""
        with self._io_mutex:
            self._check_range(offset, len(data))
            self._image_write(offset, data)

    def tamper_image(self) -> bytes:
        """Attacker: copy the whole device (first half of a replay attack)."""
        with self._io_mutex:
            return self._image_read(0, self._size)

    def tamper_replay(self, image: bytes) -> None:
        """Attacker: restore a previously saved device image."""
        with self._io_mutex:
            if len(image) != self._size:
                raise ValueError("replay image size mismatch")
            self._image_write(0, image)
            self._undo = []

    # ------------------------------------------------------------------------

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self._size:
            raise ValueError(
                f"access [{offset}, {offset + size}) outside store of "
                f"size {self._size}"
            )


class MemoryUntrustedStore(UntrustedStore):
    """Untrusted store backed by an in-memory byte array."""

    def __init__(
        self,
        size: int,
        crash_injector: Optional[CrashInjector] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        super().__init__(size, crash_injector, fault_injector)
        self._image = bytearray(size)
        #: kept for the store's life: a view per read costs more than it saves
        self._view = memoryview(self._image)

    def _image_read(self, offset: int, size: int) -> bytes:
        return self._view[offset : offset + size].tobytes()

    def _image_write(self, offset: int, data: bytes) -> None:
        self._image[offset : offset + len(data)] = data


class FileUntrustedStore(UntrustedStore):
    """Untrusted store backed by a file (the paper's NTFS-file setup)."""

    def __init__(
        self,
        path: str,
        size: int,
        crash_injector: Optional[CrashInjector] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        super().__init__(size, crash_injector, fault_injector)
        self._path = path
        create = not os.path.exists(path) or os.path.getsize(path) != size
        self._file = open(path, "r+b" if not create else "w+b")
        if create:
            self._file.truncate(size)

    def _image_read(self, offset: int, size: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(size)

    def _image_write(self, offset: int, data: bytes) -> None:
        self._file.seek(offset)
        self._file.write(data)

    def flush(self) -> None:
        super().flush()
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()
