"""The backup store (§6): create and restore backup sets.

Creation (§6.1–6.2)
===================

A backup set covers one or more partitions.  Instead of locking the
partitions for the whole backup, the backup store takes a *consistent
snapshot* of all of them in a single commit (cheap copy-on-write partition
copies) and then streams the snapshots to the archival store.

Backups may be full or *incremental*: an incremental backup records only
the chunks created, updated, or deallocated since the *base* snapshot —
computed with the chunk store's position-map diff, so its cost is
proportional to the amount of change, not the partition size (§9.2.3).

Base-snapshot and restore-chain bookkeeping lives in the system leader
(:class:`~repro.chunkstore.leader.SystemExtras`), persisted by the
checkpoint each backup/restore forces.  A crash in the tiny window before
that checkpoint degrades *safely*: a lost ``backup_bases`` entry means the
next backup silently falls back to a full backup (the base-liveness check
fails); a lost ``restore_history`` entry means a later incremental restore
is refused and must be redone from the full backup.  Neither loses data or
accepts an invalid chain.

Restore (§6.3)
==============

Restores read backup streams, validate signature and checksum, and
enforce two ordering constraints:

* incremental backups restore in creation order with no missing links
  (the base snapshot id must equal the previously restored snapshot id);
* a backup set restores completely or not at all (set id / set size
  accounting).

Each set is applied in one atomic commit.  Restores require approval from
a trusted program — the ``approve`` callback — which may deny frequent
restores or restores of old backups (limiting rollback attacks that fake
media failures, §1.2).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.backup.format import (
    ENTRY_DEALLOCATED,
    ENTRY_WRITTEN,
    BackupDescriptor,
    BackupEntry,
    PartitionBackup,
    read_partition_backup,
    write_partition_backup,
)
from repro.chunkstore.config import backup_key
from repro.chunkstore.ids import SYSTEM_PARTITION
from repro.chunkstore.ops import (
    CopyPartition,
    DeallocateChunk,
    DeallocatePartition,
    WriteChunk,
    WritePartition,
)
from repro.chunkstore.readpath import DiffChange
from repro.chunkstore.store import ChunkStore
from repro.crypto.mac import Mac
from repro.crypto.registry import make_cipher, make_hash
from repro.errors import BackupError, BackupOrderingError
from repro.platform.archival import ArchivalStore


logger = logging.getLogger("repro.backup")


@dataclass
class BackupInfo:
    """Summary returned by :meth:`BackupStore.create_backup`."""

    stream_name: str
    set_id: int
    partitions: List[int]
    incremental: Dict[int, bool]
    bytes_written: int
    snapshot_pids: Dict[int, int]


class BackupStore:
    """Creates and restores backup sets for a :class:`ChunkStore`."""

    def __init__(
        self, chunk_store: ChunkStore, archival: Optional[ArchivalStore] = None
    ) -> None:
        self.store = chunk_store
        self.archival = archival or chunk_store.platform.archival
        secret = chunk_store.platform.secret_store.read()
        system_hash = make_hash(chunk_store.config.system_hash)
        self.mac = Mac(backup_key(secret), system_hash)

    # ------------------------------------------------------------------
    # bookkeeping (system leader extras)
    # ------------------------------------------------------------------

    def _extras(self):
        return self.store.partitions[SYSTEM_PARTITION].payload.system

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create_backup(
        self,
        partitions: List[int],
        stream_name: str,
        incremental: bool = True,
    ) -> BackupInfo:
        """Back up ``partitions`` as one backup set on ``stream_name``.

        With ``incremental=True``, each partition that has a live base
        snapshot is backed up incrementally; the rest get full backups.
        """
        if not partitions:
            raise BackupError("a backup set must cover at least one partition")
        store = self.store

        # 1. one commit => a consistent snapshot of every source partition
        snapshot_pids: Dict[int, int] = {}
        snapshot_ops: List[object] = []
        for pid in partitions:
            snap = store.allocate_partition()
            snapshot_pids[pid] = snap
            snapshot_ops.append(CopyPartition(snap, pid))
        store.commit(snapshot_ops)

        # 2. stream each partition backup to the archival store
        extras = self._extras()
        set_id = int.from_bytes(os.urandom(8), "big")
        # the injectable platform clock, not time.time(): backup tests
        # drive timestamps deterministically through FakeClock
        created_at = store.platform.clock.now()
        writer = self.archival.create_stream(stream_name)
        bytes_written = 0
        is_incremental: Dict[int, bool] = {}
        for pid in partitions:
            snap = snapshot_pids[pid]
            base = extras.backup_bases.get(pid) if incremental else None
            use_incremental = base is not None and store.partition_exists(base)
            is_incremental[pid] = use_incremental
            entries = self._collect_entries(snap, base if use_incremental else None)
            info = store.partition_info(snap)
            descriptor = BackupDescriptor(
                source_pid=pid,
                snapshot_pid=snap,
                base_pid=base if use_incremental else None,
                set_id=set_id,
                set_size=len(partitions),
                cipher_name=info["cipher"],
                hash_name=info["hash"],
                key=info["key"],
                created_at=created_at,
                incremental=use_incremental,
            )
            # the stream's own crypto instances, as on restore: the store's
            # are used under its lock only
            bytes_written += write_partition_backup(
                writer,
                descriptor,
                entries,
                store.codec.system_cipher,
                make_cipher(info["cipher"], info["key"]),
                self.mac,
                make_hash(info["hash"]),
            )
        self.archival.commit_stream(stream_name, writer)

        # 3. retire old bases, install the new ones, and checkpoint so the
        #    bookkeeping in the system leader becomes durable
        retire_ops: List[object] = []
        for pid in partitions:
            old_base = extras.backup_bases.get(pid)
            if old_base is not None and store.partition_exists(old_base):
                retire_ops.append(DeallocatePartition(old_base))
            extras.backup_bases[pid] = snapshot_pids[pid]
        store.partitions[SYSTEM_PARTITION].leader_dirty = True
        if retire_ops:
            store.commit(retire_ops)
        store.checkpoint()

        logger.info(
            "backup %s: %d partition(s), %d bytes, incremental=%s",
            stream_name,
            len(partitions),
            bytes_written,
            is_incremental,
        )
        return BackupInfo(
            stream_name=stream_name,
            set_id=set_id,
            partitions=list(partitions),
            incremental=is_incremental,
            bytes_written=bytes_written,
            snapshot_pids=snapshot_pids,
        )

    def _collect_entries(
        self, snapshot_pid: int, base_pid: Optional[int]
    ) -> List[BackupEntry]:
        store = self.store
        entries: List[BackupEntry] = []
        if base_pid is None:
            for rank in store.data_ranks(snapshot_pid):
                entries.append(
                    BackupEntry(
                        ENTRY_WRITTEN, rank, store.read_chunk(snapshot_pid, rank)
                    )
                )
            return entries
        for rank, change in sorted(store.diff(base_pid, snapshot_pid).items()):
            if change == DiffChange.REMOVED:
                entries.append(BackupEntry(ENTRY_DEALLOCATED, rank))
            else:
                entries.append(
                    BackupEntry(
                        ENTRY_WRITTEN, rank, store.read_chunk(snapshot_pid, rank)
                    )
                )
        return entries

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(
        self,
        stream_names: List[str],
        approve: Optional[Callable[[List[BackupDescriptor]], bool]] = None,
    ) -> List[int]:
        """Restore one or more backup streams, oldest first.

        Returns the ids of the restored partitions.  Raises
        :class:`BackupOrderingError` on chain or set violations and
        :class:`BackupIntegrityError` on validation failures."""
        store = self.store
        restored_pids: List[int] = []
        for stream_name in stream_names:
            reader = self.archival.open_stream(stream_name)
            backups: List[PartitionBackup] = []
            while not reader.exhausted():
                backups.append(
                    read_partition_backup(
                        reader,
                        store.codec.system_cipher,
                        make_cipher,
                        self.mac,
                        make_hash,
                    )
                )
            if not backups:
                raise BackupError(f"stream {stream_name!r} contains no backups")
            self._check_set_complete(backups)
            if approve is not None and not approve(
                [b.descriptor for b in backups]
            ):
                raise BackupError("restore denied by the approval policy")
            restored_pids.extend(self._apply_set(backups))
        store.checkpoint()  # make restore_history durable
        logger.warning(
            "restore applied from %s: partitions %s", stream_names, restored_pids
        )
        return restored_pids

    def repair_source(
        self, stream_names: List[str]
    ) -> Callable[[int, int], Optional[bytes]]:
        """Build a chunk-level lookup over backup streams, for
        :meth:`ChunkStore.scrub`'s repair pass (oldest stream first).

        Unlike :meth:`restore`, nothing is written: the validated streams
        are folded into an in-memory ``(pid, rank) -> bytes`` table (a
        full backup resets its partition's entries; incrementals overlay
        writes and drop deallocations) and a lookup callable is returned.
        Scrub verifies each candidate against the committed descriptor
        hash before committing it, so a stale table entry is refused, not
        silently applied.
        """
        store = self.store
        table: Dict[tuple, bytes] = {}
        for stream_name in stream_names:
            reader = self.archival.open_stream(stream_name)
            while not reader.exhausted():
                backup = read_partition_backup(
                    reader,
                    store.codec.system_cipher,
                    make_cipher,
                    self.mac,
                    make_hash,
                )
                pid = backup.descriptor.source_pid
                if not backup.descriptor.incremental:
                    for key in [k for k in table if k[0] == pid]:
                        del table[key]
                for entry in backup.entries:
                    if entry.kind == ENTRY_WRITTEN:
                        table[(pid, entry.rank)] = entry.body
                    else:
                        table.pop((pid, entry.rank), None)

        def lookup(pid: int, rank: int) -> Optional[bytes]:
            return table.get((pid, rank))

        return lookup

    @staticmethod
    def _check_set_complete(backups: List[PartitionBackup]) -> None:
        set_ids = {b.descriptor.set_id for b in backups}
        if len(set_ids) != 1:
            raise BackupOrderingError("stream mixes multiple backup sets")
        declared = {b.descriptor.set_size for b in backups}
        if declared != {len(backups)}:
            raise BackupOrderingError(
                f"incomplete backup set: stream has {len(backups)} partition "
                f"backups, descriptors declare {sorted(declared)}"
            )

    def _apply_set(self, backups: List[PartitionBackup]) -> List[int]:
        store = self.store
        extras = self._extras()
        ops: List[object] = []
        links: Dict[int, int] = {}
        for backup in backups:
            desc = backup.descriptor
            pid = desc.source_pid
            if desc.incremental:
                last = extras.restore_history.get(pid)
                if last is None:
                    raise BackupOrderingError(
                        f"incremental backup of partition {pid} restored "
                        f"without a preceding full restore"
                    )
                if desc.base_pid != last:
                    raise BackupOrderingError(
                        f"incremental backup chain broken for partition {pid}: "
                        f"base {desc.base_pid} but last restored {last}"
                    )
                if not store.partition_exists(pid):
                    raise BackupOrderingError(
                        f"partition {pid} missing for incremental restore"
                    )
                for entry in backup.entries:
                    if entry.kind == ENTRY_WRITTEN:
                        store.reserve_chunk(pid, entry.rank)
                        ops.append(WriteChunk(pid, entry.rank, entry.body))
                    else:
                        ops.append(DeallocateChunk(pid, entry.rank))
            else:
                store.reserve_partition_id(pid)
                ops.append(
                    WritePartition(
                        pid,
                        cipher_name=desc.cipher_name,
                        hash_name=desc.hash_name,
                        key=desc.key,
                    )
                )
                for entry in backup.entries:
                    if entry.kind == ENTRY_WRITTEN:
                        ops.append(WriteChunk(pid, entry.rank, entry.body))
            links[pid] = desc.snapshot_pid
        store.commit(ops)  # the whole set commits atomically (§6.3)
        # the chain links only once the set is in: a commit that raises
        # (or a checkpoint it runs to make room) must not persist them
        extras.restore_history.update(links)
        store.partitions[SYSTEM_PARTITION].leader_dirty = True
        return list(links)
