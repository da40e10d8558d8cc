"""Trusted paging (§10).

"The current design assumes that the entire runtime, volatile state of a
trusted program is protected by the trusted processing environment. ...
some volatile state may have to be paged out to untrusted storage.  This
problem may be solved by using a page fault handler to store encrypted
and validated pages in the chunk store."

:class:`TrustedPager` is that handler's storage half: a fixed-size paged
address space whose frames live in trusted memory (a small LRU working
set) and whose evicted pages are written — encrypted and validated — to a
dedicated chunk-store partition, one page per chunk.  Pages come back
through the normal read path, so a tampered page raises
:class:`~repro.errors.TamperDetectedError` at fault time instead of
silently corrupting the trusted program's memory.

Pages are *volatile* state: they do not need transactional durability,
only secrecy and integrity.  ``sync()`` commits dirty evictions in
batches; ``discard_all()`` drops the address space (e.g. on process
exit).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.chunkstore.ops import DeallocatePartition, WriteChunk, WritePartition
from repro.chunkstore.store import ChunkStore
from repro.errors import ChunkNotWrittenError, ChunkNotAllocatedError


class TrustedPager:
    """Encrypted, validated backing store for paged-out trusted memory."""

    def __init__(
        self,
        chunks: ChunkStore,
        page_size: int = 4096,
        frames: int = 16,
        cipher_name: str = "ctr-sha256",
        hash_name: str = "sha1",
    ) -> None:
        self.chunks = chunks
        self.page_size = page_size
        self.frames = frames
        self.partition = chunks.allocate_partition()
        chunks.commit(
            [WritePartition(self.partition, cipher_name, hash_name)]
        )
        #: resident pages: page number -> bytearray frame
        self._resident: "OrderedDict[int, bytearray]" = OrderedDict()
        self._dirty: Dict[int, bool] = {}
        self.faults = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def _frame(self, page_no: int) -> bytearray:
        """Fault the page in (allocating fresh zeroed pages on demand)."""
        if page_no in self._resident:
            self._resident.move_to_end(page_no)
            return self._resident[page_no]
        self.faults += 1
        self.chunks.reserve_chunk(self.partition, page_no)
        try:
            content = bytearray(self.chunks.read_chunk(self.partition, page_no))
        except (ChunkNotWrittenError, ChunkNotAllocatedError):
            content = bytearray(self.page_size)  # first touch: zero page
        if len(content) != self.page_size:
            content = bytearray(content.ljust(self.page_size, b"\x00"))
        self._resident[page_no] = content
        self._dirty.setdefault(page_no, False)
        self._evict_if_needed()
        return content

    def _evict_if_needed(self) -> None:
        spill = []
        while len(self._resident) > self.frames:
            victim, frame = self._resident.popitem(last=False)
            if self._dirty.pop(victim, False):
                spill.append(WriteChunk(self.partition, victim, bytes(frame)))
            self.evictions += 1
        if spill:
            self.chunks.commit(spill)

    # ------------------------------------------------------------------

    def read(self, page_no: int, offset: int = 0, size: Optional[int] = None) -> bytes:
        """Read from a page (faulting it in if evicted)."""
        frame = self._frame(page_no)
        if size is None:
            size = self.page_size - offset
        return bytes(frame[offset : offset + size])

    def write(self, page_no: int, offset: int, data: bytes) -> None:
        """Write into a page (faulting it in if evicted)."""
        if offset + len(data) > self.page_size:
            raise ValueError("write crosses the page boundary")
        frame = self._frame(page_no)
        frame[offset : offset + len(data)] = data
        self._dirty[page_no] = True

    def sync(self) -> None:
        """Write every dirty resident page out (one commit)."""
        writes = [
            WriteChunk(self.partition, page_no, bytes(self._resident[page_no]))
            for page_no, dirty in self._dirty.items()
            if dirty and page_no in self._resident
        ]
        if writes:
            self.chunks.commit(writes)
        for page_no in self._dirty:
            self._dirty[page_no] = False

    def discard_all(self) -> None:
        """Drop the whole address space (the paged state is volatile)."""
        self._resident.clear()
        self._dirty.clear()
        self.chunks.commit([DeallocatePartition(self.partition)])

    @property
    def resident_pages(self) -> int:
        return len(self._resident)
