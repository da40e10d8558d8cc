"""XDB pager: fixed-size pages, page cache, WAL, in-place updates.

This is the storage engine of the "off-the-shelf embedded database
system" baseline (§9.5).  It is deliberately *conventional*, i.e. the
opposite of TDB's log-structured design:

* data lives in fixed 4 KiB pages updated **in place**;
* a write-ahead log (physical redo logging: full after-images) protects
  against crashes;
* commits are **forced**: the WAL is flushed, then the dirty pages are
  written back and flushed — the "multiple disk writes at commit" the
  paper observes in XDB (§9.5.2).

Layout on the untrusted store::

    [page 0: header][pages 1..N-1: data][WAL region]

The header tracks the page allocation high-water mark, the free-page list
head (free pages are chained through their first bytes), and the table
catalog root.  The WAL region occupies the tail of the store.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Dict, List, Set, Tuple

from repro import obs
from repro.errors import IOFaultError, XDBError
from repro.platform.untrusted import UntrustedStore
from repro.util.checksum import crc32_bytes

PAGE_SIZE = 4096
_HEADER_MAGIC = b"XDB1"
_HEADER_STRUCT = struct.Struct(">4sIIIQ")  # magic, next_page, free_head, catalog_root, commit_seq
_WAL_RECORD = struct.Struct(">BII")  # kind, page_no, crc
_WAL_PAGE = 1
_WAL_COMMIT = 2


class Pager:
    """Page storage with a write-back cache and redo-WAL commits."""

    def __init__(
        self,
        store: UntrustedStore,
        wal_bytes: int = 1024 * 1024,
        cache_pages: int = 1024,
    ) -> None:
        self.store = store
        self.wal_offset = store.size - wal_bytes
        self.wal_size = wal_bytes
        self.page_count = self.wal_offset // PAGE_SIZE
        if self.page_count < 8:
            raise XDBError("store too small for XDB")
        self._cache: "OrderedDict[int, bytearray]" = OrderedDict()
        self._cache_limit = cache_pages
        self._dirty: Set[int] = set()
        self._wal_cursor = self.wal_offset
        # header state
        self.next_page = 1
        self.free_head = 0
        self.catalog_root = 0
        self.commit_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def format(self) -> None:
        self._write_header()
        self.store.write(self.wal_offset, b"\x00" * 16)
        self.store.flush()

    def open(self) -> None:
        self._read_header()
        self._recover()

    def _write_header(self) -> None:
        head = _HEADER_STRUCT.pack(
            _HEADER_MAGIC,
            self.next_page,
            self.free_head,
            self.catalog_root,
            self.commit_seq,
        )
        self.store.write(0, head.ljust(64, b"\x00"))

    def _read_header(self) -> None:
        head = self.store.read(0, _HEADER_STRUCT.size)
        magic, next_page, free_head, catalog_root, commit_seq = _HEADER_STRUCT.unpack(
            head
        )
        if magic != _HEADER_MAGIC:
            raise XDBError("not an XDB store")
        self.next_page = next_page
        self.free_head = free_head
        self.catalog_root = catalog_root
        self.commit_seq = commit_seq

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------

    def read_page(self, page_no: int) -> bytearray:
        if not 1 <= page_no < self.page_count:
            raise XDBError(f"page {page_no} out of range")
        cached = self._cache.get(page_no)
        if cached is not None:
            self._cache.move_to_end(page_no)
            return cached
        with obs.span("xdb.page_read"):
            data = bytearray(self.store.read(page_no * PAGE_SIZE, PAGE_SIZE))
        self._cache[page_no] = data
        self._evict_if_needed()
        return data

    def read_pages(self, page_nos: List[int]) -> List[bytearray]:
        """Read several pages; the uncached ones are fetched in a single
        ``read_many`` round trip instead of one read per page."""
        result: Dict[int, bytearray] = {}
        missing: List[int] = []
        for page_no in page_nos:
            if not 1 <= page_no < self.page_count:
                raise XDBError(f"page {page_no} out of range")
            if page_no in result or page_no in missing:
                continue
            cached = self._cache.get(page_no)
            if cached is not None:
                self._cache.move_to_end(page_no)
                result[page_no] = cached
            else:
                missing.append(page_no)
        if missing:
            blobs = self.store.read_many(
                [(page_no * PAGE_SIZE, PAGE_SIZE) for page_no in missing]
            )
            for page_no, blob in zip(missing, blobs):
                page = bytearray(blob)
                self._cache[page_no] = page
                result[page_no] = page
            self._evict_if_needed()
        return [result[page_no] for page_no in page_nos]

    def write_page(self, page_no: int, data: bytes) -> None:
        if len(data) > PAGE_SIZE:
            raise XDBError(f"page overflow: {len(data)} bytes")
        page = bytearray(data.ljust(PAGE_SIZE, b"\x00"))
        self._cache[page_no] = page
        self._cache.move_to_end(page_no)
        self._dirty.add(page_no)
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        while len(self._cache) > self._cache_limit:
            victim, page = next(iter(self._cache.items()))
            if victim in self._dirty:
                self._cache.move_to_end(victim)
                if all(p in self._dirty for p in self._cache):
                    break  # everything is dirty; let the cache grow
                continue
            del self._cache[victim]

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def allocate_page(self) -> int:
        if self.free_head:
            page_no = self.free_head
            page = self.read_page(page_no)
            (self.free_head,) = struct.unpack_from(">I", bytes(page), 0)
            return page_no
        if self.next_page >= self.page_count:
            raise XDBError("XDB store is full")
        page_no = self.next_page
        self.next_page += 1
        self.write_page(page_no, b"")
        return page_no

    def free_page(self, page_no: int) -> None:
        self.write_page(page_no, struct.pack(">I", self.free_head))
        self.free_head = page_no

    # ------------------------------------------------------------------
    # commit: WAL flush + in-place force (the baseline's cost model)
    # ------------------------------------------------------------------

    def _header_image(self) -> bytes:
        head = _HEADER_STRUCT.pack(
            _HEADER_MAGIC,
            self.next_page,
            self.free_head,
            self.catalog_root,
            self.commit_seq,
        )
        return head.ljust(PAGE_SIZE, b"\x00")

    def commit(self) -> None:
        """Make the dirty page set durable: WAL append + flush, then force
        the pages in place + flush — the baseline's two disk writes per
        commit (§9.5.2)."""
        dirty = sorted(self._dirty)
        if not dirty:
            return
        with obs.span("xdb.commit", pages=len(dirty)):
            self._commit_dirty(dirty)

    def _commit_dirty(self, dirty: List[int]) -> None:
        self.commit_seq += 1
        # 1. append after-images + commit marker to the WAL; the header
        #    page (0) is journalled too, so allocation state recovers
        images = [(0, self._header_image())] + [
            (page_no, bytes(self._cache[page_no]).ljust(PAGE_SIZE, b"\x00"))
            for page_no in dirty
        ]
        cursor = self._wal_cursor
        for page_no, page in images:
            record = _WAL_RECORD.pack(_WAL_PAGE, page_no, crc32_bytes(page))
            if cursor + len(record) + PAGE_SIZE + 32 > self.wal_offset + self.wal_size:
                cursor = self._checkpoint_wal()
            self.store.write(cursor, record)
            self.store.write(cursor + len(record), page)
            cursor += len(record) + PAGE_SIZE
        marker = _WAL_RECORD.pack(_WAL_COMMIT, self.commit_seq & 0xFFFFFFFF, 0)
        self.store.write(cursor, marker)
        cursor += len(marker)
        self._wal_cursor = cursor
        self.store.flush()  # flush #1: the WAL
        # 2. force the pages in place
        for page_no in dirty:
            self.store.write(page_no * PAGE_SIZE, bytes(self._cache[page_no]))
        self._write_header()
        self.store.flush()  # flush #2: the data pages
        self._dirty.clear()

    def _checkpoint_wal(self) -> int:
        """The WAL wrapped: pages are already forced at commit, so the WAL
        can simply restart."""
        self.store.write(self.wal_offset, b"\x00" * 16)
        self._wal_cursor = self.wal_offset
        return self._wal_cursor

    # ------------------------------------------------------------------
    # recovery: redo complete WAL commits
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        with obs.span("xdb.recovery"):
            self._recover_wal()

    def _recover_wal(self) -> None:
        cursor = self.wal_offset
        pending: List[Tuple[int, bytes]] = []
        last_seq = self.commit_seq  # from the (forced) header
        # the whole WAL region in one round trip; a faulted span read
        # falls back to the per-record read path
        try:
            (span,) = self.store.read_many([(self.wal_offset, self.wal_size)])
        except IOFaultError:
            span = None

        def read_at(offset: int, size: int) -> bytes:
            if span is not None and offset - self.wal_offset + size <= len(span):
                return span[offset - self.wal_offset : offset - self.wal_offset + size]
            return self.store.read(offset, size)

        while cursor + _WAL_RECORD.size < self.wal_offset + self.wal_size:
            kind, page_no, crc = _WAL_RECORD.unpack(
                read_at(cursor, _WAL_RECORD.size)
            )
            cursor += _WAL_RECORD.size
            if kind == _WAL_PAGE:
                page = read_at(cursor, PAGE_SIZE)
                cursor += PAGE_SIZE
                if crc32_bytes(page) != crc:
                    break  # torn record: stop
                pending.append((page_no, page))
            elif kind == _WAL_COMMIT:
                # The marker's page_no field carries the commit sequence.
                # Sets not newer than the forced header are either already
                # applied (this pass) or stale residue from before a WAL
                # wraparound — skip them without applying; only a set the
                # header has not yet seen gets redone.
                if page_no > (self.commit_seq & 0xFFFFFFFF):
                    for redo_page, image in pending:
                        self.store.write(redo_page * PAGE_SIZE, image)
                pending.clear()
            else:
                break  # end of WAL
        self.store.flush()
        self._wal_cursor = self.wal_offset
        self.store.write(self.wal_offset, b"\x00" * 16)
        self.store.flush()
        self._cache.clear()
        self._dirty.clear()
        self._read_header()
