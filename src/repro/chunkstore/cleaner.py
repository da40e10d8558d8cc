"""Log cleaning (§4.9.5, §5.5).

The cleaner reclaims the storage of obsolete chunk versions by selecting a
low-utilization segment of the *checkpointed* log (never the residual
log), determining which versions in it are still current anywhere, and
re-committing those to the log tail.  The freed segment returns to the
free pool.

Currency is complicated by partition copies: a version written as ``P:x``
may be obsolete in ``P`` yet current in copies of ``P`` (or copies of
copies).  The cleaner checks the whole copy subtree rooted at the header
partition — which is sound because a chunk written under ``P`` can only
be referenced by ``P`` and partitions copied (transitively) from it, and
``P`` outlives its copies (deallocating ``P`` deallocates them all,
§5.1/§5.5).

Two safety properties from the paper:

* Because our re-commit *recomputes* hash values (the paper's simpler
  implemented variant), the cleaner **must validate** each current version
  before rewriting it — otherwise it would launder chunks an attacker
  modified into freshly-hashed, descriptor-valid versions.
* Rewritten versions keep their original header identity; a CLEANER
  record, written *before* them in the same commit set, tells recovery
  exactly which partitions each rewritten version is current in.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Tuple

from repro import obs
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId, leader_id
from repro.chunkstore.log import CleanerRecord, VersionKind
from repro.chunkstore.logscan import VersionReader
from repro.errors import TamperDetectedError


logger = logging.getLogger("repro.chunkstore.cleaner")


class Cleaner:
    """Reclaims obsolete storage for a :class:`ChunkStore`."""

    def __init__(self, store) -> None:
        self.store = store
        #: segments cleaned over this cleaner's lifetime (stats)
        self.cleaned_segments = 0
        self.rewritten_versions = 0

    def clean_one(self) -> Optional[int]:
        """Clean the emptiest cleanable segment; returns its index, or
        ``None`` if no segment is worth cleaning."""
        store = self.store
        with store._lock:
            if store._snapshot_pins > 0:
                # Open snapshot views hold frozen roots into the current
                # extents; relocating or reusing those extents would tear
                # the snapshots (the MVCC vacuum tradeoff).  Decline and
                # let the caller retry after the views close.
                obs.emit("clean_deferred", pins=store._snapshot_pins)
                return None
            target = store.segman.emptiest_cleanable_segment()
            if target is None:
                return None
            previous = store._in_maintenance
            store._in_maintenance = True
            try:
                with obs.span("chunkstore.cleaner_pass", segment=target):
                    self._clean_segment(target)
            finally:
                store._in_maintenance = previous
            self.cleaned_segments += 1
            return target

    # ------------------------------------------------------------------

    def _current_partitions(self, cid: ChunkId, location: int) -> List[int]:
        """Partitions in which the version at ``location`` is current."""
        table = self.store.table
        if not table.exists(cid.partition):
            return []  # dead partition ⇒ dead copies ⇒ obsolete version
        result = []
        for pid in table.copy_family(cid.partition):
            if not table.exists(pid):
                continue
            probe = ChunkId(pid, cid.height, cid.rank)
            descriptor = table.descriptor(probe)
            if descriptor.is_written() and descriptor.location == location:
                result.append(pid)
        return result

    def _clean_segment(self, segment: int) -> None:
        store = self.store
        codec = store.codec
        segman = store.segman
        start = segman.segment_start(segment)
        end = start + segman.used_bytes[segment]
        cursor = start

        # a reader per scan: the re-commit below appends to the log
        versions = VersionReader(codec, store.reader, segman)
        #: (chunk id, plaintext body, partitions where current)
        survivors: List[Tuple[ChunkId, bytes, List[int]]] = []
        while cursor < end:
            header, header_ct, body_ct = versions.read(cursor)
            if header.kind == VersionKind.NAMED:
                cid = header.chunk_id
                if cid != leader_id(SYSTEM_PARTITION):
                    pids = self._current_partitions(cid, cursor)
                    if pids:
                        # validate before rewriting (no laundering); on an
                        # AEAD partition this is the one-pass path — the
                        # decrypt verifies the tag and the digest *is* the
                        # stored tag
                        state = store.table.load(pids[0])
                        body, digest = codec.validate_named(
                            header, body_ct, state.cipher, state.hash
                        )
                        expected = store.table.descriptor(
                            ChunkId(pids[0], cid.height, cid.rank)
                        )
                        if digest != expected.body_hash:
                            raise TamperDetectedError(
                                f"cleaner: chunk {cid} at {cursor} fails validation"
                            )
                        survivors.append((cid, body, pids))
            # unnamed chunks are always obsolete in the checkpointed log
            cursor += len(header_ct) + len(body_ct)

        if survivors:
            self._rewrite(survivors)
        segman.release_segment(segment)
        logger.debug(
            "cleaned segment %d: %d current version(s) rewritten",
            segment,
            len(survivors),
        )

    def _rewrite(self, survivors: List[Tuple[ChunkId, bytes, List[int]]]) -> None:
        """Re-commit the current versions to the log tail (one commit)."""
        store = self.store
        writer = store.writer
        writer.begin_set()
        record = CleanerRecord(
            [(cid.height, cid.rank, pids) for cid, body, pids in survivors]
        )
        writer.append_unnamed(VersionKind.CLEANER, record.encode())
        for cid, body, pids in survivors:
            state = store.table.load(pids[0])
            descriptor = writer.append_named(cid, body, state.cipher, state.hash)
            for pid in pids:
                store.table.chunk_written(
                    ChunkId(pid, cid.height, cid.rank), descriptor.copy()
                )
            self.rewritten_versions += 1
        store._finalize_commit()
