"""The trial spine under the three seeded harnesses.

:class:`~repro.testing.adversary.Adversary`,
:class:`~repro.testing.faultsweep.FaultSweep` and
:class:`~repro.testing.differential.DifferentialRunner` differ in what a
seed varies and in how an outcome is named; everything else is here, once:

* :class:`Variant` — the store configuration a sweep leg runs under
  (validation mode, payload cache, one-vector descriptor cache, AEAD
  tier).  It is the only thing that builds a :class:`StoreConfig`, names
  the partition cipher/hash specs and renders its own CLI flags, and
  :meth:`Variant.open` is the only ``ChunkStore.open`` call in the
  package — a reopen cannot lose the variant.
* :class:`Scenario` / :func:`build_scenario` — the populated store the
  adversary and the fault sweep restore per trial.
* :class:`TrialReport` / :class:`SweepResult` / :class:`Harness` — one
  report per seed, whose :meth:`~TrialReport.repro_line` is the exact
  command (variant flags included) that replays it.
* :func:`read_back` — the one read-back oracle: every chunk through the
  locked read, the warm re-read and a snapshot view.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.chunkstore.ids import data_id
from repro.errors import TDBError
from repro.platform.trusted_platform import TrustedPlatform
from repro.testing.snapshot import PlatformSnapshot

Key = Tuple[int, int]  # (pid, rank) of a data chunk

# the two outcomes that fail a trial of any harness
SILENT_CORRUPTION = "silent-corruption"  # wrong bytes, or state lost quietly
FOREIGN_ERROR = "foreign-error"  # a non-TDB exception escaped

#: (cipher, hash) per partition — spanning the null cipher, the keystream
#: cipher, and a block cipher, with both hash widths
PARTITION_SPECS = (
    ("null", "sha1"),
    ("ctr-sha256", "sha1"),
    ("xtea-cbc", "sha256"),
)

#: the AEAD tier's partitions: both authenticating suites (where the
#: descriptor stores the auth tag and validation is the one-pass AEAD
#: decrypt) plus one legacy partition so cross-partition splices cross
#: the AEAD/legacy cipher-domain boundary in both directions
AEAD_PARTITION_SPECS = (
    ("aes-256-gcm", "sha1"),
    ("chacha20-poly1305", "sha256"),
    ("xtea-cbc", "sha256"),
)


@dataclass(frozen=True)
class Variant:
    """What a sweep leg runs under.  ``payload_cache=False`` judges with
    the validated-payload cache off; ``one_vector_cache`` shrinks the
    descriptor cache to a single map-chunk vector, so every map-chunk load
    evicts the previous one; ``aead`` puts authenticating ciphers on the
    partitions and on the system partition (the MAC-skip commit-record
    path in counter mode)."""

    mode: str = "counter"
    payload_cache: bool = True
    one_vector_cache: bool = False
    aead: bool = False

    @property
    def partition_specs(self) -> Tuple[Tuple[str, str], ...]:
        return AEAD_PARTITION_SPECS if self.aead else PARTITION_SPECS

    def flags(self) -> str:
        """The ``python -m repro.testing`` flags that select this variant."""
        words = [f"--mode {self.mode}"]
        if not self.payload_cache:
            words.append("--no-payload-cache")
        if self.one_vector_cache:
            words.append("--one-vector-cache")
        if self.aead:
            words.append("--aead")
        return " ".join(words)

    def config(self, segment_size: int = 8 * 1024) -> StoreConfig:
        """The strictest windows (Δut=1, Δtu=0), so *any* rollback of a
        committed state must be detected, and a checkpoint threshold low
        enough for a 50-op sequence to cross."""
        return StoreConfig(
            segment_size=segment_size,
            system_cipher="aes-256-gcm" if self.aead else "ctr-sha256",
            system_hash="sha1",
            validation_mode=self.mode,
            delta_ut=1,
            delta_tu=0,
            checkpoint_dirty_threshold=64,
            payload_cache_bytes=(
                StoreConfig.payload_cache_bytes if self.payload_cache else 0
            ),
            cache_size=(
                StoreConfig.fanout if self.one_vector_cache else StoreConfig.cache_size
            ),
        )

    def open(
        self, platform: TrustedPlatform, segment_size: int = 8 * 1024
    ) -> ChunkStore:
        """Reopen ``platform``'s store under this variant."""
        return ChunkStore.open(platform, self.config(segment_size))


# -- scenario ------------------------------------------------------------------


@dataclass
class Scenario:
    """A populated store, frozen for repeated trials."""

    final: PlatformSnapshot
    #: committed bytes of every written data chunk
    expected: Dict[Key, bytes]
    #: on-device extent of every chunk's current version: (location, length)
    extents: Dict[Key, Tuple[int, int]]
    #: the chunks whose current version lies behind the last checkpoint:
    #: recovery's roll-forward never re-reads those, so the descriptor
    #: hash on the read path is all that vouches for their bodies
    checkpointed: List[Key]
    #: leading bytes of each extent that hold the version's header
    header_size: int
    #: authentic images captured > Δut commits before the final state,
    #: oldest first (fodder for replay attacks)
    stale_images: List[bytes]
    pids: List[int]

    def acceptable(self) -> Dict[Key, Tuple[bytes, ...]]:
        """A fresh oracle table: the byte strings a read of each chunk may
        legally return (a trial widens an entry when it tears a commit)."""
        return {key: (value,) for key, value in self.expected.items()}


def build_scenario(variant: Variant = Variant()) -> Scenario:
    """Populate a multi-partition store and freeze it for trials.

    The history deliberately leaves every kind of log content in place:
    checkpointed segments, a non-empty residual log, a deallocation
    record, and two stale snapshots each more than Δut commits behind the
    final state.
    """
    platform = TrustedPlatform.create_in_memory(untrusted_size=512 * 1024)
    store = ChunkStore.format(platform, variant.config())
    pids: List[int] = []
    for cipher_name, hash_name in variant.partition_specs:
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name, hash_name)])
        pids.append(pid)

    def write(pid: int, rank: int, tag: str) -> None:
        store.reserve_chunk(pid, rank)
        data = f"p{pid}r{rank}:{tag}:".encode() * 4
        store.commit([ops.WriteChunk(pid, rank, data)])

    def current_extents() -> Dict[Key, Tuple[int, int]]:
        found = {}
        for pid in pids:
            for rank in store.data_ranks(pid):
                descriptor = store._get_descriptor(data_id(pid, rank))
                found[(pid, rank)] = (descriptor.location, descriptor.length)
        return found

    stale_images: List[bytes] = []
    for rank in range(3):
        for pid in pids:
            write(pid, rank, "base")
    stale_images.append(platform.untrusted.tamper_image())

    store.checkpoint()
    at_checkpoint = current_extents()
    for pid in pids:
        write(pid, 3, "post-checkpoint")
    write(pids[0], 1, "rewritten")
    stale_images.append(platform.untrusted.tamper_image())

    # push the final state > Δut commits past both snapshots, and leave a
    # deallocation in the residual log (§4.8.1 un-deallocation attacks)
    store.commit([ops.DeallocateChunk(pids[1], 2)])
    for pid in pids:
        write(pid, 4, "tail")

    extents = current_extents()
    expected = {(pid, rank): store.read_chunk(pid, rank) for pid, rank in extents}
    store.close(checkpoint=False)  # keep the residual log populated
    return Scenario(
        final=PlatformSnapshot.capture(platform),
        expected=expected,
        extents=extents,
        checkpointed=[k for k in extents if at_checkpoint.get(k) == extents[k]],
        header_size=store.codec.header_cipher_size,
        stale_images=stale_images,
        pids=pids,
    )


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one seeded trial of any harness."""

    harness: str  # the ``python -m repro.testing`` subcommand
    variant: Variant
    seed: Optional[int]
    cell: str  # what the seed was mapped (or pinned) to
    pins: str  # the flags that pin ``cell`` on a replay
    outcome: str
    #: diagnostics, not identity: where a mutated version decrypts to
    #: garbage the text depends on the scenario's random IVs, so two runs
    #: of one trial compare equal on everything but this
    detail: str = field(compare=False)
    failed: bool

    def repro_line(self) -> str:
        """The command that replays this trial: same variant, same cell."""
        return (
            f"PYTHONPATH=src python -m repro.testing {self.harness} "
            f"{self.variant.flags()} --seed {self.seed} {self.pins}"
        )


@dataclass
class SweepResult:
    """Aggregate of a sweep."""

    reports: List[TrialReport]

    @property
    def failures(self) -> List[TrialReport]:
        return [r for r in self.reports if r.failed]

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    def by_cell(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            row = table.setdefault(report.cell, {})
            row[report.outcome] = row.get(report.outcome, 0) + 1
        return table


class Harness:
    """What the three harnesses share: a variant, the sweep loop and the
    report.  A subclass supplies ``NAME`` (its CLI subcommand), ``PINS``
    (the ``run_trial`` keywords the CLI may pin), ``TRIALS`` (the CLI's
    default sweep depth), ``HELD`` (what a clean sweep showed) and
    ``run_trial(seed, **pins)``."""

    NAME: str
    PINS: Tuple[str, ...]
    TRIALS: int
    HELD: str
    #: the outcomes that fail a trial — each harness's pass/fail table
    FAILING: Tuple[str, ...] = (SILENT_CORRUPTION, FOREIGN_ERROR)

    def __init__(self, variant: Variant = Variant()) -> None:
        self.variant = variant

    def run(self, trials: int, base_seed: int = 0, **pins) -> SweepResult:
        """Trials ``base_seed`` … ``base_seed + trials - 1``; whatever is
        not pinned is derived from each seed."""
        return SweepResult(
            [self.run_trial(base_seed + i, **pins) for i in range(trials)]
        )

    def run_trial(self, seed: int, **pins) -> TrialReport:
        raise NotImplementedError

    def explain(self, report: TrialReport) -> str:
        """What the CLI prints for a failed trial, above its repro line."""
        return f"{report.outcome}: {report.detail}"

    def _guard(self, trial, *args) -> Tuple[str, str]:
        """``trial(*args)``'s ``(outcome, detail)``.  A non-TDB exception
        escaping from anywhere in a trial is a foreign error."""
        try:
            return trial(*args)
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return (
                FOREIGN_ERROR,
                f"{type(exc).__name__}: {exc} ({where.name}:{where.lineno})",
            )

    def _report(
        self, seed: Optional[int], cell: str, pins: str, outcome: str, detail: str
    ) -> TrialReport:
        return TrialReport(
            harness=self.NAME,
            variant=self.variant,
            seed=seed,
            cell=cell,
            pins=pins,
            outcome=outcome,
            detail=detail,
            failed=outcome in self.FAILING,
        )


# -- the read-back oracle ------------------------------------------------------

#: the three trusted paths every chunk is read back through: the locked
#: device-validating read; again, for the warm validated-payload cache,
#: which must never serve what the first read did not; and a
#: :class:`SnapshotView` of the chunk's partition, lock-free
READ_PATHS = ("read", "warm re-read", "snapshot-view read")


def three_reads(
    store: ChunkStore, keys: Iterable[Key]
) -> Iterator[Tuple[Key, List[object]]]:
    """Each chunk of ``keys`` through :data:`READ_PATHS`: the bytes served
    or the :class:`TDBError` raised, per path.  One view per partition,
    closed at the end (an open view holds cleaned segments from reuse)."""
    views = {}

    def view_read(pid: int, rank: int) -> bytes:
        if pid not in views:
            views[pid] = store.open_snapshot_view(pid)
        return views[pid].read_chunk(rank)

    try:
        for pid, rank in keys:
            results: List[object] = []
            for read in (store.read_chunk, store.read_chunk, view_read):
                try:
                    results.append(read(pid, rank))
                except TDBError as exc:
                    results.append(exc)
            yield (pid, rank), results
    finally:
        for view in views.values():
            view.close()


def read_back(
    store: ChunkStore,
    acceptable: Dict[Key, Sequence[bytes]],
    tolerated: Tuple[type, ...] = (),
) -> Tuple[List[str], List[Tuple[Key, TDBError]]]:
    """Read everything back and hold it to the oracle: each path serves
    acceptable bytes or raises an error the harness tolerates, and the
    three paths reach one verdict (the same bytes, or a refusal).
    Returns the violations and the tolerated errors."""
    problems: List[str] = []
    errors: List[Tuple[Key, TDBError]] = []
    for key, results in three_reads(store, sorted(acceptable)):
        chunk = f"chunk {key[0]}:{key[1]}"
        for path, got in zip(READ_PATHS, results):
            if isinstance(got, tolerated):
                errors.append((key, got))
            elif isinstance(got, TDBError):
                problems.append(
                    f"{chunk} lost on the {path} ({type(got).__name__}: {got})"
                )
            elif got not in acceptable[key]:
                problems.append(
                    f"{chunk} silently corrupted on the {path} (got {got[:32]!r}...)"
                )
        served = [None if isinstance(got, TDBError) else got for got in results]
        if served.count(served[0]) != len(served):
            problems.append(
                f"{chunk}: the read paths disagree — "
                + ", ".join(
                    f"{path} {'refused' if got is None else 'served ' + repr(got[:16])}"
                    for path, got in zip(READ_PATHS, served)
                )
            )
    return problems, errors
