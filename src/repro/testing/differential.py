"""Model-based differential testing of the chunk store.

A :class:`DifferentialRunner` drives seeded random operation sequences —
chunk writes and deallocations, partition creates/copies/drops,
resets, checkpoints, cleaning, crash + recovery, clean reopen —
simultaneously against the real :class:`~repro.chunkstore.store.ChunkStore`
and the plain :class:`~repro.testing.model.ReferenceModel`, and compares
their full visible state after every state-changing operation and after
every crash + recovery.  Each ``clean`` first opens a snapshot view on a
live partition, held until the next ``clean``, crash or reopen, and
compared with the model as of its open at every comparison.  Each
checkpoint, copy, partition drop and partition reset opens one more just
before it, on the partition it touches (a live one, for a checkpoint),
and compares it when it closes, right after: the views share the store's
descriptor state and payload cache, and these are the operations that
remove from them or rewrite them.

Failures are reproducible and shrinkable:

* **seed replay** — an op sequence is a pure function of its seed and
  length, so a failing report's ``repro_line()`` is a complete bug report;
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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.chunkstore import ChunkStore, ops
from repro.errors import TDBError
from repro.platform.trusted_platform import TrustedPlatform
from repro.testing.model import ReferenceModel, diff_states, observe_store
from repro.testing.spine import Harness, TrialReport

# -- outcomes -------------------------------------------------------------------

AGREED = "agreed"  # store and model showed the same state throughout
DIVERGED = "diverged"  # they differed, or an op raised where the model did not

#: operations per generated sequence unless pinned
OPS = 50


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
        if self.kind == "reset":
            return f"reset(slot={self.slot}, flavour={self.tag})"
        if self.kind == "write":
            return f"write(slot={self.slot}, rank={self.rank}, tag={self.tag})"
        if self.kind == "dealloc":
            return f"dealloc(slot={self.slot}, rank={self.rank})"
        return f"{self.kind}()"


def op_value(op: Op) -> bytes:
    """The deterministic payload a ``write`` op stores (a function of the
    op alone, so shrunk sequences keep their payloads): 100–500 bytes, so
    a handful of writes fill a segment and the log claims freed ones."""
    return f"v{op.slot}.{op.rank}.{op.tag}:".encode() * (8 * (1 + op.tag % 4))


def _view_problems(
    view, frozen: Dict[int, bytes], held: str = "held since the last clean"
) -> List[str]:
    """How ``view`` differs from ``frozen``, the model of its partition as
    of its open."""
    held = f"the view of partition {view.pid} {held}"
    try:
        seen = view.read_chunks(sorted(frozen))
    except TDBError as exc:
        return [f"{held} raised {type(exc).__name__}: {exc}"]
    return [] if seen == frozen else [f"{held} no longer reads what it froze"]


@dataclass(frozen=True)
class DiffFailure(TrialReport):
    """A divergence between the store and the reference model: the trial's
    report (``detail`` is the reason) plus the op sequence that shows it,
    which :meth:`DifferentialRunner.shrink` minimises."""

    op_index: int
    ops: Tuple[Op, ...]

    def repro_line(self) -> str:
        if self.seed is None:
            return f"# no seed: replay the sequence below ({self.variant.flags()})"
        return super().repro_line()

    def describe(self) -> str:
        lines = [
            f"differential failure ({self.variant.flags()}) at op "
            f"{self.op_index}: {self.detail}",
            f"repro: {self.repro_line()}",
            "sequence:",
        ]
        lines += [f"  [{i}] {op}" for i, op in enumerate(self.ops)]
        return "\n".join(lines)


class DifferentialRunner(Harness):
    """Drives the real store and the reference model in lockstep."""

    NAME = "differential"
    PINS = ("ops",)
    TRIALS = 20
    HELD = "store and model agreed after every operation of every sequence"
    FAILING = (DIVERGED,)

    #: small segments, so that within one sequence the cleaner frees
    #: segments that hold the last checkpoint and the log claims them
    #: again before the next: what deferred reuse exists for
    SEGMENT_SIZE = 2 * 1024
    STORE_SIZE = 128 * 1024
    MAX_SLOTS = 5
    MAX_RANK = 8

    # -- generation ------------------------------------------------------------

    def generate(self, seed: int, ops: int = OPS) -> List[Op]:
        """A seeded sequence of ``ops`` operations, biased toward valid
        ones (a light planner mirrors the executor's skip rules)."""
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
            + ["reset"] * 4
        )
        for _ in range(ops):
            if not live:
                kind = "create"
            else:
                kind = rng.choice(kinds)
            if kind == "create":
                free = [s for s in range(self.MAX_SLOTS) if s not in live]
                if not free:
                    kind = "write"
                else:
                    slot = rng.choice(free)
                    sequence.append(Op("create", slot=slot, tag=rng.randrange(16)))
                    live[slot] = set()
                    continue
            if kind == "copy":
                free = [s for s in range(self.MAX_SLOTS) if s not in live]
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
            if kind == "reset":
                slot = rng.choice(sorted(live))
                sequence.append(Op("reset", slot=slot, tag=rng.randrange(16)))
                live[slot] = set()
                continue
            if kind == "write":
                slot = rng.choice(sorted(live))
                rank = rng.randrange(self.MAX_RANK)
                sequence.append(
                    Op("write", slot=slot, rank=rank, tag=rng.randrange(64))
                )
                live[slot].add(rank)
                continue
            if kind == "dealloc":
                slot = rng.choice(sorted(live))
                ranks = sorted(live[slot])
                rank = rng.choice(ranks) if ranks else rng.randrange(self.MAX_RANK)
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
        first divergence, or ``None`` if they agree throughout.  ``seed``
        only labels the failure (the seed ``sequence`` came from)."""
        platform = TrustedPlatform.create_in_memory(untrusted_size=self.STORE_SIZE)
        store = ChunkStore.format(platform, self.variant.config(self.SEGMENT_SIZE))
        model = ReferenceModel()
        slots: Dict[int, int] = {}
        flavours = self.variant.partition_specs
        #: the snapshot view the last ``clean`` opened, and what it froze
        view, frozen = None, {}

        def live(slot: int) -> bool:
            return slot in slots and slots[slot] in model.partitions

        def fail(index: int, reason: str) -> DiffFailure:
            report = self._sequence_report(seed, len(sequence), DIVERGED, reason)
            return DiffFailure(**vars(report), op_index=index, ops=tuple(sequence))

        for index, op in enumerate(sequence):
            compare = True
            #: the view opened just before this op, and what it froze
            before, before_frozen = None, {}
            touched = {"copy": op.src, "drop": op.slot, "reset": op.slot}.get(op.kind)
            try:
                if op.kind in ("checkpoint", "copy", "drop", "reset"):
                    if touched is None:
                        touched = next((s for s in sorted(slots) if live(s)), None)
                    if touched is not None and live(touched):
                        before = store.open_snapshot_view(slots[touched])
                        before_frozen = dict(model.partitions[before.pid].chunks)
                if op.kind == "create":
                    if live(op.slot):
                        continue
                    pid = store.allocate_partition()
                    cipher, hash_name = flavours[op.tag % len(flavours)]
                    store.commit([ops.WritePartition(pid, cipher, hash_name)])
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
                elif op.kind == "reset":
                    if not live(op.slot):
                        continue
                    pid = slots[op.slot]
                    cipher, hash_name = flavours[op.tag % len(flavours)]
                    store.commit([ops.WritePartition(pid, cipher, hash_name)])
                    model.write_partition(pid)
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
                    # a view held from here to the next clean: it must read
                    # what it froze while the segments cleaned meanwhile
                    # wait for it
                    if view is not None:
                        view.close()
                    view, frozen = None, {}
                    live_slots = [slot for slot in sorted(slots) if live(slot)]
                    if live_slots:
                        view = store.open_snapshot_view(slots[live_slots[0]])
                        frozen = dict(model.partitions[view.pid].chunks)
                    store.clean(max_segments=8)
                    compare = False
                elif op.kind == "crash":
                    platform.reboot()
                    store = self.variant.open(platform, self.SEGMENT_SIZE)
                    view, frozen = None, {}
                elif op.kind == "reopen":
                    store.close()
                    store = self.variant.open(platform, self.SEGMENT_SIZE)
                    view, frozen = None, {}
                else:
                    raise ValueError(f"unknown op kind {op.kind!r}")
                if before is not None:
                    problems = _view_problems(before, before_frozen, f"opened before {op}")
                    if problems:
                        return fail(index, f"after {op}: " + "; ".join(problems))
            except Exception as exc:
                kind = "" if isinstance(exc, TDBError) else "non-TDB "
                return fail(index, f"{op} raised {kind}{type(exc).__name__}: {exc}")
            finally:
                if before is not None:
                    before.close()  # also when the op was skipped
            if not compare:
                continue
            try:
                problems = diff_states(model.state(), observe_store(store))
            except TDBError as exc:
                reason = f"{type(exc).__name__}: {exc}"
                return fail(index, f"observation after {op} raised {reason}")
            if view is not None:
                problems += _view_problems(view, frozen)
            if problems:
                return fail(index, f"after {op}: " + "; ".join(problems))
        return None

    def _sequence_report(
        self, seed: Optional[int], ops: int, outcome: str, detail: str
    ) -> TrialReport:
        # a generated sequence is as long as it was asked to be, so the
        # length is the pin that regenerates it
        return self._report(seed, f"ops={ops}", f"--ops {ops}", outcome, detail)

    def run_trial(self, seed: int, ops: int = OPS) -> TrialReport:
        """The sequence of ``(seed, ops)``, executed: a :class:`DiffFailure`
        if store and model diverged."""
        return self.execute(self.generate(seed, ops), seed) or self._sequence_report(
            seed, ops, AGREED, "store and model agreed after every operation"
        )

    def explain(self, report: TrialReport) -> str:
        return self.shrink(report).describe()

    # -- shrinking -------------------------------------------------------------

    def shrink(self, failure: DiffFailure) -> DiffFailure:
        """Minimise a failing sequence: truncate at the failing op, then
        remove chunks of decreasing size while the failure persists.  The
        result keeps ``failure``'s seed and pins — its repro line."""

        def attempt(candidate: List[Op]) -> Optional[DiffFailure]:
            result = self.execute(candidate) if candidate else None
            if result is None:
                return None
            return replace(
                failure,
                detail=result.detail,
                op_index=result.op_index,
                ops=result.ops[: result.op_index + 1],
            )

        last = attempt(list(failure.ops[: failure.op_index + 1]))
        if last is None:  # not reproducible from the prefix alone
            return failure
        chunk = max(1, len(last.ops) // 2)
        while chunk >= 1:
            index = 0
            while index < len(last.ops):
                shorter = attempt(list(last.ops[:index] + last.ops[index + chunk :]))
                if shorter is not None:
                    last = shorter
                else:
                    index += chunk
            chunk //= 2
        return last
