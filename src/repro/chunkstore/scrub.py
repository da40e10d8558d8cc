"""Scrub and repair: validate the whole database, heal what can be healed.

An fsck for trust (see :meth:`ChunkStore.scrub` for the contract).  The
scan is driven by the partitions' *allocation state* — every
committed-written rank, every map position the rank count implies — not by
the descriptors it is there to check: a map chunk that silently lost a
child must show up as a failure, which a walk over the descriptors that
remain could never report (DESIGN.md "Three traversals").  Like the
cleaner and the checkpoint it owns nothing: chunks are read through the
store's :class:`~repro.chunkstore.readpath.ReadPath`, repairs are ordinary
commits and an ordinary checkpoint.  ``ChunkStore.scrub`` calls
:func:`scrub` under its lock.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Iterator, List, Optional

from repro import obs
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId, data_id
from repro.chunkstore.log import VersionHeader, VersionKind
from repro.chunkstore.ops import WriteChunk
from repro.chunkstore.partition import PartitionState
from repro.chunkstore.readpath import UNREADABLE
from repro.errors import ChunkStoreError, IOFaultError, TamperDetectedError

logger = logging.getLogger("repro.chunkstore")

RepairSource = Callable[[int, int], Optional[bytes]]


def _validate(store, state: PartitionState, cid: ChunkId) -> bool:
    """Read one chunk of ``state``'s partition, data or map, from the
    device and validate it; ``False`` if it is a map position nothing was
    written to."""
    descriptor = store.readpath.descriptors(state, (cid,))[0]
    if cid.height == 0:
        # bypass the payload cache: scrub exists to exercise the device
        # and the validation chain
        store.readpath.fetch(state, ((cid, descriptor),))
        return True
    if not descriptor.is_written():
        return False
    store.readpath.read_validated(state, [(cid, descriptor)], batched=False)
    return True


def _allocated_ids(state: PartitionState, fanout: int) -> Iterator[ChunkId]:
    """Every chunk ``state``'s allocation state says is current: the
    committed-written data ranks, then every map position the rank count
    implies (map chunks validate implicitly on the way down to a data
    chunk, but are walked explicitly so unreferenced-yet-current levels
    count)."""
    for rank in state.written_ranks():
        yield data_id(state.pid, rank)
    for level in range(1, state.payload.tree_height + 1):
        span = (state.payload.next_rank + fanout**level - 1) // fanout**level
        for rank in range(span):
            yield ChunkId(state.pid, level, rank)


def scrub(
    store, raise_on_first: bool, repair_source: Optional[RepairSource]
) -> Dict[str, object]:
    """Scrub ``store`` (caller holds its lock)."""
    table = store.table
    quarantine = store.readpath.quarantine
    # Fresh retries: drop "io" short-circuits so reads hit the device
    # again ("tamper" entries are bookkeeping; reads re-validate those
    # regardless).
    for key in [k for k, v in quarantine.items() if v == "io"]:
        del quarantine[key]
    validated = 0
    corrupt: List[str] = []
    unreadable: List[str] = []
    failed: List[ChunkId] = []

    pids = [SYSTEM_PARTITION] + table.ids()
    for pid in pids:
        try:
            state = table.load(pid)
        except UNREADABLE:
            if raise_on_first:
                raise
            # the leader is a data chunk of the system partition, already
            # recorded by the system partition's own walk
            continue
        for cid in _allocated_ids(state, store.config.fanout):
            try:
                if _validate(store, state, cid):
                    validated += 1
            except UNREADABLE as exc:
                if raise_on_first:
                    raise
                if isinstance(exc, TamperDetectedError):
                    corrupt.append(str(cid))
                else:
                    unreadable.append(str(cid))
                failed.append(cid)

    repaired: List[str] = []
    unrepaired: List[str] = []
    if failed:
        _repair_failed_chunks(store, failed, repair_source)
        for cid in failed:
            quarantine.pop(str(cid), None)  # fresh attempt
            try:
                _validate(store, table.load(cid.partition), cid)
                repaired.append(str(cid))
                obs.emit("repair", chunk=str(cid), ok=True)
            except (ChunkStoreError, TamperDetectedError, IOFaultError):
                unrepaired.append(str(cid))
                obs.emit("repair", chunk=str(cid), ok=False)
    logger.info(
        "scrub: %d chunk(s) validated across %d partition(s), "
        "%d corrupt, %d unreadable, %d repaired",
        validated,
        len(pids),
        len(corrupt),
        len(unreadable),
        len(repaired),
    )
    return {
        "chunks_validated": validated,
        "partitions": len(pids),
        "corrupt": corrupt,
        "unreadable": unreadable,
        "repaired": repaired,
        "unrepaired": unrepaired,
        "quarantine": dict(quarantine),
    }


def _repair_failed_chunks(
    store, failed: List[ChunkId], repair_source: Optional[RepairSource]
) -> None:
    """Scrub's repair pass (see :meth:`ChunkStore.scrub`)."""
    fanout = store.config.fanout
    changed = False
    for cid in failed:
        if (
            cid.height == 0
            and cid.partition != SYSTEM_PARTITION
            and repair_source is not None
        ):
            try:
                state = store.table.load(cid.partition)
            except UNREADABLE:
                continue
            candidate = repair_source(cid.partition, cid.rank)
            if candidate is not None and _repair_data_chunk(
                store, cid, state, candidate
            ):
                changed = True
        elif cid.height >= 1:
            # Re-dirty every cached written child so the checkpoint
            # rewrites this map chunk (degraded rebuild from cache), and
            # the reserve counts it.
            state = store.table.partitions.get(cid.partition)
            for slot in range(fanout):
                child = cid.child(fanout, slot)
                cached = store.cache.get(child)
                if cached is not None and cached.is_written():
                    store.cache.put_dirty(child, cached, state)
                    changed = True
    if changed:
        store._write_checkpoint()


def _repair_data_chunk(
    store, cid: ChunkId, state: PartitionState, candidate: bytes
) -> bool:
    """Re-commit backup bytes for one data chunk, verified first where
    the committed descriptor is reachable (stale bytes are refused)."""
    try:
        descriptor = store.readpath.descriptors(state, (cid,))[0]
    except UNREADABLE:
        descriptor = None
    if (
        descriptor is not None
        and descriptor.is_written()
        and state.cipher.authenticates
    ):
        # An AEAD descriptor stores the auth tag, which depends on the
        # encryption nonce — unrecomputable from plaintext, so the
        # stale-bytes pre-check below cannot run.  The backup stream
        # is itself MAC-validated end-to-end, which is the authority
        # this path falls back on.
        logger.info(
            "scrub: %s is on an AEAD partition; trusting the "
            "MAC-validated backup bytes without a descriptor pre-check",
            cid,
        )
    elif descriptor is not None and descriptor.is_written():
        header = VersionHeader(
            VersionKind.NAMED,
            cid.partition,
            cid.height,
            cid.rank,
            len(candidate),
            state.cipher.ciphertext_size(len(candidate)),
        )
        if (
            store.codec.descriptor_hash(header, candidate, state.hash)
            != descriptor.body_hash
        ):
            logger.warning(
                "scrub: backup bytes for %s do not match the committed "
                "hash; refusing to roll back",
                cid,
            )
            return False
    store.commit([WriteChunk(cid.partition, cid.rank, candidate)])
    return True
