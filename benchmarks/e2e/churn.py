"""``chunk_churn``: the chunk store driven directly, write-heavy, with the
checkpointer and the cleaner in steady state.

One partition of fixed-size chunks, far more of them than the descriptor
cache holds.  Set-up populates the partition, then ages the log with
strided overwrites until the cleaner has started (the log stops growing).  A measured transaction is one ``commit`` of four
``WriteChunk``s followed by one ``read_chunk`` of a uniformly drawn rank.
"""

from __future__ import annotations

import random
from itertools import islice
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence

from harness import (
    CIPHER,
    HASH,
    Limit,
    Recorder,
    check_model,
    clock,
    memory_platform,
    store_config,
    traced,
)

from repro.chunkstore import ChunkStore, WriteChunk, WritePartition
from repro.errors import TDBError

WRITES_PER_TXN = 4
HOT_SHARE = 0.2  # the hot ranks ...
HOT_TRAFFIC = 0.8  # ... take this share of the writes
LOAD_BATCH = 256
AGE_STRIDE = 3
POOL_BYTES = 1 << 16


@dataclass
class ChurnSizing:
    chunks: int
    chunk_bytes: int
    device_mib: int
    clean_low_water: int
    verify_sample: int
    txns: int  # window length when no --seconds is given


class ChunkChurn:
    clients = 1

    def __init__(self, name: str, sizing: ChurnSizing, seed: int) -> None:
        self.name = name
        self.sizing = sizing
        self.seed = seed
        self.config = store_config(sizing.clean_low_water)
        self.rng = random.Random(seed * 31 + 2)
        #: chunk bodies are windows into this pool, so the model needs only
        #: a version number per rank
        self.pool = random.Random(seed).randbytes(POOL_BYTES + sizing.chunk_bytes)
        self.versions = [0] * sizing.chunks
        self.hot = max(1, int(sizing.chunks * HOT_SHARE))

    def describe(self) -> Dict[str, Any]:
        sizing = self.sizing
        return {
            "chunks": sizing.chunks,
            "chunk_bytes": sizing.chunk_bytes,
            "device_mib": sizing.device_mib,
            "clean_low_water": sizing.clean_low_water,
            "writes_per_txn": WRITES_PER_TXN,
            "hot": f"{HOT_TRAFFIC:.0%} of writes to {HOT_SHARE:.0%} of ranks",
        }

    def body(self, rank: int, version: int) -> bytes:
        start = (rank * 131 + version * 7919) % POOL_BYTES
        head = b"%d:%d;" % (rank, version)
        return head + self.pool[start : start + self.sizing.chunk_bytes - len(head)]

    def _draw_writes(self, count: int) -> List[int]:
        rng, chunks, hot = self.rng, self.sizing.chunks, self.hot
        ranks: List[int] = []
        while len(ranks) < count:
            if rng.random() < HOT_TRAFFIC:
                rank = rng.randrange(hot)
            else:
                rank = hot + rng.randrange(chunks - hot)
            if rank not in ranks:
                ranks.append(rank)
        return ranks

    def _aging_ranks(self) -> Iterator[int]:
        while True:
            for offset in range(AGE_STRIDE):
                yield from range(offset, self.sizing.chunks, AGE_STRIDE)

    def _overwrite(self, ranks: Sequence[int]) -> None:
        versions = self.versions
        self.store.commit(
            [WriteChunk(self.pid, rank, self.body(rank, versions[rank] + 1)) for rank in ranks]
        )
        for rank in ranks:
            versions[rank] += 1

    def setup(self, speed) -> None:
        sizing = self.sizing
        self.platform = memory_platform(sizing.device_mib, self.seed)
        self.store = store = ChunkStore.format(self.platform, self.config)
        self.pid = pid = store.allocate_partition()
        store.commit([WritePartition(pid, CIPHER, HASH)])
        for start in range(0, sizing.chunks, LOAD_BATCH):
            speed.tick()
            store.commit(
                [
                    WriteChunk(pid, store.allocate_chunk(pid), self.body(rank, 0))
                    for rank in range(start, min(start + LOAD_BATCH, sizing.chunks))
                ]
            )
        # age: overwrite every third rank, pass after pass, until the log
        # stops growing, i.e. the cleaner runs.  Strided passes leave every
        # older segment partly dead, so the cleaner has live chunks to move
        # from its first victim on; in rank order, because random
        # overwrites walk the map cold and would take ten times as long.
        aging = self._aging_ranks()
        stored = -1
        while store.stored_bytes() > stored:
            stored = store.stored_bytes()
            speed.tick()
            self._overwrite(list(islice(aging, LOAD_BATCH)))
        store.checkpoint()

    def run(self, limit: Limit, rec: Recorder, tracer=None) -> None:
        store, pid, rng, versions = self.store, self.pid, self.rng, self.versions
        chunks = self.sizing.chunks
        done = 0
        with traced(tracer):
            while limit.more(done):
                limit.speed.tick()
                rec.attempted += 1
                if tracer is not None:
                    tracer.next_op()
                ranks = self._draw_writes(WRITES_PER_TXN)
                probe = rng.randrange(chunks)
                try:
                    start = clock()
                    self._overwrite(ranks)
                    rec.commit_s.append(clock() - start)
                    start = clock()
                    data = store.read_chunk(pid, probe)
                    rec.read_s.append(clock() - start)
                    if data != self.body(probe, versions[probe]):
                        rec.mismatch(f"rank {probe}: read differs from the model")
                except TDBError as exc:
                    rec.fail(exc)
                done += 1
        rec.units_done = [done]
        rec.paused = limit.speed.spent

    # -- after the window ----------------------------------------------------

    def expected(self) -> Dict[int, bytes]:
        """A seeded sample of ranks (reading all of them cold would take
        longer than the window)."""
        sample_rng = random.Random(self.seed * 31 + 3)
        count = min(self.sizing.verify_sample, self.sizing.chunks)
        return {
            rank: self.body(rank, self.versions[rank])
            for rank in sample_rng.sample(range(self.sizing.chunks), count)
        }

    def reader(self, store: ChunkStore):
        def read(ranks: Sequence[int]) -> List[bytes]:
            found = store.read_chunks(self.pid, list(ranks))
            return [found[rank] for rank in ranks]

        return read

    def verify(self, store: ChunkStore) -> List[str]:
        return check_model(self.reader(store), self.expected())
