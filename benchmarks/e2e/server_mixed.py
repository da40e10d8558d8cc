"""``server_mixed``: concurrent sessions on a device whose flush costs time.

The only workload with concurrency and a flush that takes wall time, so
only here do group commit, snapshot acquisition, the lock manager and the
chunk store's single lock matter.  Each client is a closed loop over its
own seeded stream: 50% update transactions (read-modify-write of two
counters, locked in sorted order), 25% snapshot batches
(``session.snapshot(pid).get_many`` of 8) and 25% live read-only
transactions (8 ``tx.get`` in sorted order, so no lock cycle can form).
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List

from harness import (
    CIPHER,
    HASH,
    Limit,
    Recorder,
    check_model,
    clock,
    object_reader,
    platform_secret,
    store_config,
    traced,
)

from repro.chunkstore import ChunkStore, WritePartition
from repro.errors import TDBError
from repro.objectstore import ObjectRef, ObjectStore
from repro.platform import (
    CrashInjector,
    MemoryArchivalStore,
    MemoryUntrustedStore,
    SecretStore,
    TamperResistantCounter,
    TamperResistantStore,
    TrustedPlatform,
)
from repro.server import TDBServer

FLUSH_SECONDS = 0.002
READ_BATCH = 8
LOAD_BATCH = 256
PAD_BYTES = 200
MAX_CLIENTS = 4
#: how often the clients stop between operations so that the machine's
#: speed can be sampled with none of them running
SYNC_EVERY_S = 0.5


class SlowFlushStore(MemoryUntrustedStore):
    """Memory device whose ``flush`` takes wall time.  The sleep runs
    outside the I/O mutex, as the ``UntrustedStore`` contract asks, so a
    flush stalls the flusher but not concurrent readers."""

    def flush(self) -> None:
        time.sleep(FLUSH_SECONDS)
        super().flush()


def default_clients() -> int:
    return max(1, min(os.cpu_count() or 1, MAX_CLIENTS))


@dataclass
class ServerSizing:
    objects: int
    device_mib: int
    ops_per_client: int  # window length when no --seconds is given


class ServerMixed:
    def __init__(self, name: str, sizing: ServerSizing, seed: int) -> None:
        self.name = name
        self.sizing = sizing
        self.seed = seed
        self.clients = default_clients()
        self.config = store_config()
        self.pads = random.Random(seed).randbytes(PAD_BYTES + 256)
        #: committed increments per object rank, summed over clients
        self.increments: Counter = Counter()

    def describe(self) -> Dict[str, Any]:
        return {
            "objects": self.sizing.objects,
            "device_mib": self.sizing.device_mib,
            "flush_ms": FLUSH_SECONDS * 1e3,
            "clients": self.clients,
            "mix": "50% update(2) / 25% snapshot batch(8) / 25% read-only txn(8)",
        }

    def value(self, index: int, count: int) -> Dict[str, Any]:
        start = index % 256
        return {"id": index, "count": count, "pad": self.pads[start : start + PAD_BYTES]}

    def setup(self, speed) -> None:
        sizing = self.sizing
        injector = CrashInjector()
        self.platform = TrustedPlatform(
            secret_store=SecretStore(platform_secret(self.seed)),
            tamper_resistant=TamperResistantStore(),
            counter=TamperResistantCounter(),
            untrusted=SlowFlushStore(sizing.device_mib * 1024 * 1024, injector),
            archival=MemoryArchivalStore(),
            injector=injector,
        )
        self.store = ChunkStore.format(self.platform, self.config)
        self.pid = self.store.allocate_partition()
        self.store.commit([WritePartition(self.pid, CIPHER, HASH)])
        self.objects = ObjectStore(self.store)
        self.refs: List[ObjectRef] = []
        for start in range(0, sizing.objects, LOAD_BATCH):
            speed.tick()
            with self.objects.transaction() as tx:
                for index in range(start, min(start + LOAD_BATCH, sizing.objects)):
                    self.refs.append(tx.create(self.pid, self.value(index, 0)))
        self.index = {ref: index for index, ref in enumerate(self.refs)}
        self.store.checkpoint()
        self.server = TDBServer(self.objects)

    # -- the measured window -------------------------------------------------

    def run(self, limit: Limit, rec: Recorder, tracer=None) -> None:
        recorders = [Recorder() for _ in range(self.clients)]
        mine = [Counter() for _ in range(self.clients)]
        crashes: List[BaseException] = []
        barrier = threading.Barrier(self.clients)
        # The reference kernel run on a client thread beside a working
        # client times the wait for the interpreter lock, not the machine.
        # So every SYNC_EVERY_S the clients meet between operations, and
        # the kernel runs once while all of them are parked.
        self._sync = threading.Barrier(
            self.clients, action=lambda: limit.speed.tick(force=True)
        )
        self._sync_start = clock()

        def client(number: int) -> None:
            try:
                barrier.wait()
                with traced(tracer, number):
                    self._client(number, limit, recorders[number], mine[number], tracer)
            except BaseException as exc:  # re-raised on the main thread
                crashes.append(exc)
            finally:
                self._sync.abort()  # whoever still works goes on unsampled

        threads = [
            threading.Thread(target=client, args=(number,)) for number in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:
            raise crashes[0]
        rec.units_done = [recorder.units_done[0] for recorder in recorders]
        for recorder, increments in zip(recorders, mine):
            rec.merge(recorder)
            self.increments.update(increments)

    def _check(
        self, rec: Recorder, ref: ObjectRef, value: Any, mine: Counter, snapshot=False
    ) -> None:
        """Other clients may have moved the counter on, never back.  At the
        seed commit a snapshot built while this client was committing can
        be handed to it afterwards (README, findings), so a snapshot that
        lags is counted, not failed."""
        index = self.index[ref]
        if not isinstance(value, dict) or {**value, "count": 0} != self.value(index, 0):
            rec.mismatch(f"{ref}: read differs from the model")
        elif value["count"] < mine[index]:
            if snapshot:
                rec.stale_reads += 1
            else:
                rec.mismatch(f"{ref}: read misses this client's own commit")

    def _client(
        self, number: int, limit: Limit, rec: Recorder, mine: Counter, tracer
    ) -> None:
        rng = random.Random(self.seed * 1000 + number)
        refs, index = self.refs, self.index
        session = self.server.session()
        done = syncs = 0
        while limit.more(done, number):
            if clock() >= self._sync_start + (syncs + 1) * SYNC_EVERY_S:
                syncs += 1
                paused = clock()
                try:
                    self._sync.wait()
                except threading.BrokenBarrierError:
                    pass
                rec.paused += clock() - paused
            rec.attempted += 1
            if tracer is not None:
                tracer.next_op()
            kind = rng.random()
            try:
                if kind < 0.5:
                    pair = sorted(rng.sample(refs, 2))
                    tx = session.transaction()
                    try:
                        for ref in pair:
                            value = tx.get_for_update(ref)
                            self._check(rec, ref, value, mine)
                            tx.update(ref, {**value, "count": value["count"] + 1})
                        start = clock()
                        tx.commit()
                        rec.commit_s.append(clock() - start)
                    except TDBError:
                        tx.abort()
                        raise
                    for ref in pair:
                        mine[index[ref]] += 1
                elif kind < 0.75:
                    batch = rng.sample(refs, READ_BATCH)
                    start = clock()
                    with session.snapshot(self.pid) as snapshot:
                        values = snapshot.get_many(batch)
                    rec.read_s.append(clock() - start)
                    for ref, value in zip(batch, values):
                        self._check(rec, ref, value, mine, snapshot=True)
                else:
                    batch = sorted(rng.sample(refs, READ_BATCH))
                    start = clock()
                    tx = session.transaction()
                    try:
                        values = [tx.get(ref) for ref in batch]
                        tx.commit()
                    except TDBError:
                        tx.abort()
                        raise
                    rec.read_txn_s.append(clock() - start)
                    for ref, value in zip(batch, values):
                        self._check(rec, ref, value, mine)
            except TDBError as exc:
                rec.fail(exc)
            done += 1
        rec.units_done = [done]
        session.close()

    # -- after the window ----------------------------------------------------

    def expected(self) -> Dict[ObjectRef, Any]:
        return {
            ref: self.value(index, self.increments[index])
            for index, ref in enumerate(self.refs)
        }

    def reader(self, store: ChunkStore):
        return object_reader(store)

    def verify(self, store: ChunkStore) -> List[str]:
        """Every counter equals its committed increments."""
        return check_model(self.reader(store), self.expected())
