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

The re-commit is a commit set like an application commit's, and takes
the same route (:meth:`ChunkStore._commit_set
<repro.chunkstore.store.ChunkStore._commit_set>`): the moved versions are
appended, the set is made durable with the store's ``_lock`` offered for
the flush, and only then do the descriptors name the new copies: until
then the old copies are current, as in the last durable state.  Anything
that raises on the way — a device fault, a crash point — fails the store,
which then refuses every call until it is reopened.  Called from
``clean`` or a commit's ``make_room``, the pass runs inside a writer that
holds ``_lock`` itself, so the lock stays taken.  Either way a pass first
waits for the pipelined commits in flight to install
(``ChunkStore._drain``): currency is judged against the image, and an
image missing an in-flight set would call a version it superseded
current — and move it over the newer one.

Two log-space rules (DESIGN.md, "Log space"): the cleaned segment is only
*deferred*, tagged with the store's commit count — the last checkpoint may
still need it, so it is free once a later one is durable, and no sooner
than whatever else may still read it allows (the segment manager's rule)
— and a re-commit runs only if
:meth:`LogSpace.move_fits <repro.chunkstore.logspace.LogSpace.move_fits>`
says so, the reserve it adds for the next checkpoint included; one that
does not is declined, and the caller checkpoints first.
"""

from __future__ import annotations

import logging
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.chunkstore.descriptor import ChunkDescriptor
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId, leader_id
from repro.chunkstore.log import CleanerRecord, VersionHeader, VersionKind
from repro.chunkstore.logscan import VersionReader
from repro.errors import TamperDetectedError


logger = logging.getLogger("repro.chunkstore.cleaner")

#: a NAMED version of the victim segment: header, body ciphertext, location
_Scanned = Tuple[VersionHeader, bytes, int]
#: where a version is current, and the descriptor that names it there
_Current = Tuple[List[int], ChunkDescriptor]
#: a current version to move: chunk id, plaintext body, partitions where
#: current
_Survivor = Tuple[ChunkId, bytes, List[int]]


class Cleaner:
    """Reclaims obsolete storage for a :class:`ChunkStore` (``store.cleaner``)."""

    def __init__(self, store) -> None:
        #: weak: the store owns its cleaner, and a cycle would leave a
        #: dropped store (and the device it holds) to the cyclic collector
        self.store = weakref.proxy(store)
        #: lifetime tallies, read through ``store.stats()["cleaner"]``
        self.cleaned_segments = 0
        self.versions_scanned = 0  # named versions probed for currency
        self.rewritten_versions = 0
        self.bytes_rewritten = 0  # log bytes of the re-commits, record and all

    def clean_one(self) -> Optional[int]:
        """Clean the emptiest cleanable segment; returns its index, or
        ``None`` if no segment is worth cleaning or the log-space module
        says its re-commit would not fit."""
        store = self.store
        # a writer like any other (and callable on its own): both locks
        with store._writers, store._lock:
            # currency is judged against the image: it must hold every set
            # in flight, or an obsolete version could move over a newer one
            store._drain()
            store._check_open()
            target = store.segman.emptiest_cleanable_segment()
            if target is None:
                return None
            with obs.span("chunkstore.cleaner_pass", segment=target):
                if not self._clean_segment(target):
                    return None
            self.cleaned_segments += 1
            return target

    def stats(self) -> Dict[str, int]:
        return {
            "cleaned_segments": self.cleaned_segments,
            "versions_scanned": self.versions_scanned,
            "rewritten_versions": self.rewritten_versions,
            "bytes_rewritten": self.bytes_rewritten,
        }

    # ------------------------------------------------------------------

    def _current(self, named: Sequence[_Scanned]) -> Dict[int, _Current]:
        """Where the scanned versions are current: index into ``named`` ->
        the partitions (in copy-family order) whose map names that very
        location, and the descriptor the first of them holds; an obsolete
        version has no entry.  The map is asked once per partition of a
        family, for every version of it the segment holds at once."""
        table = self.store.table
        descriptors = self.store.readpath.descriptors
        by_partition: Dict[int, List[int]] = {}
        for index, (header, _, _) in enumerate(named):
            by_partition.setdefault(header.partition, []).append(index)
        current: Dict[int, _Current] = {}
        for header_pid, indexes in by_partition.items():
            if not table.exists(header_pid):
                continue  # dead partition ⇒ dead copies ⇒ obsolete versions
            for pid in table.copy_family(header_pid):
                if not table.exists(pid):
                    continue
                probes = [
                    ChunkId(pid, named[index][0].height, named[index][0].rank)
                    for index in indexes
                ]
                found = descriptors(table.load(pid), probes)
                for index, descriptor in zip(indexes, found):
                    if descriptor.is_written() and descriptor.location == named[index][2]:
                        current.setdefault(index, ([], descriptor))[0].append(pid)
        return current

    def _clean_segment(self, segment: int) -> bool:
        """Move ``segment``'s current versions to the tail and defer it;
        ``False`` (nothing written) if the move does not fit."""
        store = self.store
        codec = store.codec
        segman = store.segman
        start = segman.segment_start(segment)
        end = start + segman.used_bytes[segment]
        cursor = start

        # a reader per scan: the re-commit below appends to the log
        versions = VersionReader(codec, store.reader, segman)
        named: List[_Scanned] = []
        while cursor < end:
            header, header_ct, body_ct = versions.read(cursor)
            if (
                header.kind == VersionKind.NAMED
                and header.chunk_id != leader_id(SYSTEM_PARTITION)
            ):
                named.append((header, body_ct, cursor))
            # unnamed chunks are always obsolete in the checkpointed log
            cursor += len(header_ct) + len(body_ct)
        self.versions_scanned += len(named)

        survivors: List[_Survivor] = []
        for index, (pids, expected) in sorted(self._current(named).items()):
            header, body_ct, location = named[index]
            # validate before rewriting (no laundering); on an AEAD
            # partition this is the one-pass path — the decrypt verifies
            # the tag and the digest *is* the stored tag
            state = store.table.load(pids[0])
            body, digest = codec.validate_named(
                header, body_ct, state.cipher, state.hash
            )
            if digest != expected.body_hash:
                raise TamperDetectedError(
                    f"cleaner: chunk {header.chunk_id} at {location} fails validation"
                )
            survivors.append((header.chunk_id, body, pids))

        if survivors:
            # the CLEANER record announcing the survivors' re-commit
            record = CleanerRecord(
                [(cid.height, cid.rank, pids) for cid, _, pids in survivors]
            ).encode()
            if not store.log_space.move_fits(segment, record, survivors):
                return False
            self._rewrite(record, survivors)
        segman.release_segment(segment, store.commit_count_stat)
        logger.debug(
            "cleaned segment %d: %d current version(s) rewritten",
            segment,
            len(survivors),
        )
        return True

    def _rewrite(self, record: bytes, survivors: List[_Survivor]) -> None:
        """Re-commit the current versions to the log tail (one commit
        set through the store's commit route), announced by the CLEANER
        ``record``."""
        store = self.store
        table, writer = store.table, store.writer
        appended = store.logbuf.bytes_appended

        def append() -> list:
            writer.append_unnamed(VersionKind.CLEANER, record)
            effects = []
            for cid, body, pids in survivors:
                state = table.load(pids[0])
                descriptor = writer.append_named(cid, body, state.cipher, state.hash)
                for pid in pids:
                    target = ChunkId(pid, cid.height, cid.rank)
                    effects.append((table.chunk_written, target, descriptor.copy()))
            return effects

        store._commit_set(append)
        self.rewritten_versions += len(survivors)
        self.bytes_rewritten += store.logbuf.bytes_appended - appended
