"""Model-based differential testing of the chunk store.

A :class:`DifferentialRunner` drives seeded random operation sequences —
chunk writes and deallocations, partition creates/copies/drops,
checkpoints, cleaning, crash + recovery, clean reopen — simultaneously
against the real :class:`~repro.chunkstore.store.ChunkStore` and the plain
:class:`~repro.testing.model.ReferenceModel`, and compares their full
visible state after every state-changing operation and after every
crash + recovery.

Failures are reproducible and shrinkable:

* **seed replay** — an op sequence is a pure function of its seed, so a
  failing seed is a complete bug report (`make differential SEED=n`);
* **prefix shrinking** — the sequence is first truncated at the failing
  op, then greedily minimised (ddmin-style chunk removal) while the
  failure persists; any *sub*-sequence remains executable because ops
  that are invalid against the model state are skipped identically by
  both sides.

Operations address partitions through small integer *slots* rather than
raw partition ids, so removing the op that created a partition simply
turns later ops on that slot into no-ops instead of hard errors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.errors import TDBError
from repro.platform.trusted_platform import TrustedPlatform
from repro.testing.model import ReferenceModel, diff_states, observe_store

#: cipher/hash assigned to created partitions, cycled by the op's tag
PARTITION_FLAVOURS = (("null", "sha1"), ("ctr-sha256", "sha1"))


@dataclass(frozen=True)
class Op:
    """One abstract operation; ``slot``/``src`` name partition slots."""

    kind: str
    slot: int = 0
    src: int = 0
    rank: int = 0
    tag: int = 0

    def __str__(self) -> str:
        if self.kind == "create":
            return f"create(slot={self.slot}, flavour={self.tag})"
        if self.kind == "copy":
            return f"copy(slot={self.slot}, src={self.src})"
        if self.kind == "drop":
            return f"drop(slot={self.slot})"
        if self.kind == "write":
            return f"write(slot={self.slot}, rank={self.rank}, tag={self.tag})"
        if self.kind == "dealloc":
            return f"dealloc(slot={self.slot}, rank={self.rank})"
        return f"{self.kind}()"


def op_value(op: Op) -> bytes:
    """The deterministic payload a ``write`` op stores (a function of the
    op alone, so shrunk sequences keep their payloads)."""
    return f"v{op.slot}.{op.rank}.{op.tag}:".encode() * (1 + op.tag % 4)


@dataclass
class DiffFailure:
    """A divergence between the store and the reference model."""

    mode: str
    op_index: int
    reason: str
    ops: List[Op]
    seed: Optional[int] = None
    #: num_ops the failing seed was generated with (repro needs it even
    #: after the sequence itself has been shrunk)
    gen_ops: Optional[int] = None

    def repro_line(self) -> str:
        if self.seed is not None:
            length = self.gen_ops if self.gen_ops is not None else len(self.ops)
            return (
                f"make differential MODE={self.mode} SEED={self.seed} "
                f"OPS={length}"
            )
        return f"# replay the shrunk sequence below (mode={self.mode})"

    def describe(self) -> str:
        lines = [
            f"differential failure (mode={self.mode}) at op "
            f"{self.op_index}: {self.reason}",
            f"repro: {self.repro_line()}",
            "sequence:",
        ]
        lines += [f"  [{i}] {op}" for i, op in enumerate(self.ops)]
        return "\n".join(lines)


class DifferentialRunner:
    """Drives the real store and the reference model in lockstep."""

    def __init__(
        self,
        mode: str = "counter",
        num_ops: int = 50,
        max_slots: int = 5,
        max_rank: int = 8,
        store_size: int = 2 * 1024 * 1024,
        config: Optional[StoreConfig] = None,
        one_vector_cache: bool = False,
    ) -> None:
        self.mode = mode
        self.num_ops = num_ops
        self.max_slots = max_slots
        self.max_rank = max_rank
        self.store_size = store_size
        self.config = config
        #: descriptor cache of a single map-chunk vector: every map-chunk
        #: load evicts the previous one
        self.one_vector_cache = one_vector_cache

    def _make_config(self) -> StoreConfig:
        if self.config is not None:
            return self.config
        return StoreConfig(
            segment_size=16 * 1024,
            system_cipher="ctr-sha256",
            system_hash="sha1",
            validation_mode=self.mode,
            delta_ut=1,
            checkpoint_dirty_threshold=64,
            cache_size=(
                StoreConfig.fanout if self.one_vector_cache else StoreConfig.cache_size
            ),
        )

    # -- generation ------------------------------------------------------------

    def generate(self, seed: int) -> List[Op]:
        """A seeded op sequence, biased toward valid operations (a light
        planner mirrors the executor's skip rules)."""
        rng = random.Random(seed)
        live: Dict[int, set] = {}  # slot -> written ranks
        sequence: List[Op] = []
        kinds = (
            ["write"] * 34
            + ["dealloc"] * 10
            + ["create"] * 10
            + ["copy"] * 7
            + ["drop"] * 5
            + ["checkpoint"] * 8
            + ["crash"] * 8
            + ["reopen"] * 6
            + ["clean"] * 6
        )
        for i in range(self.num_ops):
            if not live:
                kind = "create"
            else:
                kind = rng.choice(kinds)
            if kind == "create":
                free = [s for s in range(self.max_slots) if s not in live]
                if not free:
                    kind = "write"
                else:
                    slot = rng.choice(free)
                    sequence.append(Op("create", slot=slot, tag=rng.randrange(16)))
                    live[slot] = set()
                    continue
            if kind == "copy":
                free = [s for s in range(self.max_slots) if s not in live]
                if not free or not live:
                    kind = "write"
                else:
                    slot = rng.choice(free)
                    src = rng.choice(sorted(live))
                    sequence.append(Op("copy", slot=slot, src=src))
                    live[slot] = set(live[src])
                    continue
            if kind == "drop":
                slot = rng.choice(sorted(live))
                sequence.append(Op("drop", slot=slot))
                del live[slot]
                continue
            if kind == "write":
                slot = rng.choice(sorted(live))
                rank = rng.randrange(self.max_rank)
                sequence.append(
                    Op("write", slot=slot, rank=rank, tag=rng.randrange(64))
                )
                live[slot].add(rank)
                continue
            if kind == "dealloc":
                slot = rng.choice(sorted(live))
                ranks = sorted(live[slot])
                rank = rng.choice(ranks) if ranks else rng.randrange(self.max_rank)
                sequence.append(Op("dealloc", slot=slot, rank=rank))
                live[slot].discard(rank)
                continue
            sequence.append(Op(kind))
        return sequence

    # -- execution -------------------------------------------------------------

    def execute(
        self, sequence: List[Op], seed: Optional[int] = None
    ) -> Optional[DiffFailure]:
        """Run ``sequence`` against a fresh store and model; returns the
        first divergence, or ``None`` if they agree throughout."""
        platform = TrustedPlatform.create_in_memory(untrusted_size=self.store_size)
        store = ChunkStore.format(platform, self._make_config())
        model = ReferenceModel()
        slots: Dict[int, int] = {}

        def live(slot: int) -> bool:
            return slot in slots and slots[slot] in model.partitions

        def fail(index: int, reason: str) -> DiffFailure:
            return DiffFailure(
                mode=self.mode,
                op_index=index,
                reason=reason,
                ops=list(sequence),
                seed=seed,
            )

        for index, op in enumerate(sequence):
            compare = True
            try:
                if op.kind == "create":
                    if live(op.slot):
                        continue
                    pid = store.allocate_partition()
                    cipher, hash_name = PARTITION_FLAVOURS[
                        op.tag % len(PARTITION_FLAVOURS)
                    ]
                    store.commit(
                        [
                            ops.WritePartition(
                                pid, cipher_name=cipher, hash_name=hash_name
                            )
                        ]
                    )
                    model.write_partition(pid)
                    slots[op.slot] = pid
                elif op.kind == "copy":
                    if live(op.slot) or not live(op.src):
                        continue
                    pid = store.allocate_partition()
                    store.commit([ops.CopyPartition(pid, slots[op.src])])
                    model.copy_partition(pid, slots[op.src])
                    slots[op.slot] = pid
                elif op.kind == "drop":
                    if not live(op.slot):
                        continue
                    pid = slots[op.slot]
                    store.commit([ops.DeallocatePartition(pid)])
                    removed = set(model.deallocate_partition(pid))
                    for slot, bound in list(slots.items()):
                        if bound in removed:
                            del slots[slot]
                elif op.kind == "write":
                    if not live(op.slot):
                        continue
                    pid = slots[op.slot]
                    data = op_value(op)
                    store.reserve_chunk(pid, op.rank)
                    store.commit([ops.WriteChunk(pid, op.rank, data)])
                    model.write_chunk(pid, op.rank, data)
                elif op.kind == "dealloc":
                    if not live(op.slot):
                        continue
                    pid = slots[op.slot]
                    if op.rank not in model.partitions[pid].chunks:
                        continue
                    store.commit([ops.DeallocateChunk(pid, op.rank)])
                    model.deallocate_chunk(pid, op.rank)
                elif op.kind == "checkpoint":
                    store.checkpoint()
                    compare = False
                elif op.kind == "clean":
                    store.clean(max_segments=2)
                    compare = False
                elif op.kind == "crash":
                    platform.reboot()
                    store = ChunkStore.open(platform)
                elif op.kind == "reopen":
                    store.close()
                    store = ChunkStore.open(platform)
                else:
                    raise ValueError(f"unknown op kind {op.kind!r}")
            except TDBError as exc:
                return fail(
                    index, f"{op} raised {type(exc).__name__}: {exc}"
                )
            except Exception as exc:
                return fail(
                    index,
                    f"{op} raised non-TDB {type(exc).__name__}: {exc}",
                )
            if not compare:
                continue
            try:
                problems = diff_states(model.state(), observe_store(store))
            except TDBError as exc:
                return fail(
                    index,
                    f"observation after {op} raised "
                    f"{type(exc).__name__}: {exc}",
                )
            if problems:
                return fail(index, f"after {op}: " + "; ".join(problems))
        return None

    def run_seed(self, seed: int) -> Optional[DiffFailure]:
        failure = self.execute(self.generate(seed), seed=seed)
        if failure is not None:
            failure.gen_ops = self.num_ops
        return failure

    def run(self, seeds: Iterable[int]) -> List[DiffFailure]:
        failures = []
        for seed in seeds:
            failure = self.run_seed(seed)
            if failure is not None:
                failures.append(failure)
        return failures

    # -- shrinking -------------------------------------------------------------

    def shrink(self, failure: DiffFailure) -> DiffFailure:
        """Minimise a failing sequence: truncate at the failing op, then
        remove chunks of decreasing size while the failure persists."""
        current = list(failure.ops[: failure.op_index + 1])
        confirmed = self.execute(current)
        if confirmed is None:  # not reproducible from the prefix alone
            return failure
        current = current[: confirmed.op_index + 1]
        confirmed.ops = list(current)
        confirmed.seed = failure.seed
        confirmed.gen_ops = failure.gen_ops
        last = confirmed

        chunk = max(1, len(current) // 2)
        while chunk >= 1:
            index = 0
            while index < len(current):
                candidate = current[:index] + current[index + chunk :]
                result = self.execute(candidate) if candidate else None
                if result is not None:
                    current = candidate[: result.op_index + 1]
                    result.ops = list(current)
                    result.seed = failure.seed
                    result.gen_ops = failure.gen_ops
                    last = result
                else:
                    index += chunk
            chunk //= 2
        return last
