"""Seeded adversarial mutation engine (the tentpole of `repro.testing`).

TDB's core claim (§1–2) is universal, not statistical: *any* modification
or replay of untrusted bytes is detected on the hash-link path.  The
:class:`Adversary` turns that claim into an executable oracle.  Given a
populated multi-partition store, it applies one seeded attack per trial —
drawn from the mutation-class taxonomy below — and then judges every
subsequent trusted read against:

    every read either returns the correct committed bytes or raises
    :class:`TamperDetectedError` — never silent corruption, never a
    non-TDB exception.

Mutation classes
================

``bit_flip``
    flip 1–8 random bits anywhere in the device image;
``extent_zero``
    zero a random extent (half the time a known chunk version's extent);
``extent_garbage``
    overwrite a random extent with seeded random bytes;
``extent_swap``
    swap the stored bytes of two chunk versions (same partition or not);
``stale_extent_replay``
    copy an extent from an *older authentic image* of the same device
    over the current image — a targeted replay (§4.8.1);
``cross_partition_splice``
    write one partition's version bytes at another partition's version
    location — splicing across cipher/hash domains;
``image_replay``
    replace the whole device with a stale-but-authentic image — the §2.1
    replay attack.  Detection is *mandatory* for this class (the scenario
    keeps every snapshot more than Δut commits stale);
``torn_race``
    crash the store between the untrusted flush and the tamper-resistant
    update (sites shared with the crash sweep via
    :mod:`repro.testing.sweep`), tamper while the system is down, then
    recover.  The raced commit may atomically appear or vanish; everything
    older must survive exactly.

Every trial is reproducible from its integer seed: the scenario is rebuilt
from scratch and the attack parameters are drawn from
``random.Random(seed)``.  Chunk placement is deterministic, so a seed
names the same structural attack on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.chunkstore.ids import data_id
from repro.chunkstore.snapshot import SnapshotView
from repro.errors import CrashError, TamperDetectedError, TDBError
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import UntrustedStore
from repro.testing.snapshot import PlatformSnapshot

# -- outcomes -----------------------------------------------------------------

HARMLESS = "harmless"  # store opened, every read returned committed bytes
DETECTED = "detected"  # TamperDetectedError (or a TDB refusal at open)
SILENT_CORRUPTION = "silent-corruption"  # wrong bytes, or state lost quietly
FOREIGN_ERROR = "foreign-error"  # a non-TDB exception escaped

#: crash sites between "operation issued" and "tamper-resistant update
#: done" — the window the torn_race class races (shared with the crash
#: sweep's discovered points)
RACE_POINTS = (
    "commit.write",
    "commit.before_flush",
    "commit.after_flush",
    "commit.after_tr",
)


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one seeded mutation trial."""

    seed: int
    attack: str
    outcome: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.outcome in (SILENT_CORRUPTION, FOREIGN_ERROR)

    def repro_line(self, mode: str) -> str:
        return f"make adversary MODE={mode} SEED={self.seed} CLASS={self.attack}"


@dataclass
class SweepResult:
    """Aggregate of an adversary sweep."""

    mode: str
    reports: List[TrialReport] = field(default_factory=list)

    @property
    def failures(self) -> List[TrialReport]:
        return [r for r in self.reports if r.failed]

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    def classes_exercised(self) -> List[str]:
        return sorted({r.attack for r in self.reports})

    def by_class(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            row = table.setdefault(report.attack, {})
            row[report.outcome] = row.get(report.outcome, 0) + 1
        return table


# -- scenario ------------------------------------------------------------------


@dataclass
class Scenario:
    """A populated store, frozen for repeated adversary trials."""

    mode: str
    final: PlatformSnapshot
    #: committed bytes of every written data chunk: (pid, rank) -> bytes
    expected: Dict[Tuple[int, int], bytes]
    #: on-device extent of every chunk's current version: (pid, rank) ->
    #: (location, length)
    extents: Dict[Tuple[int, int], Tuple[int, int]]
    #: authentic images captured > Δut commits before the final state,
    #: oldest first (fodder for replay attacks)
    stale_images: List[bytes]
    pids: List[int]
    #: the system cipher the scenario was built (and must be reopened) with
    system_cipher: str = "ctr-sha256"


#: (cipher, hash) per scenario partition — spanning the null cipher, the
#: keystream cipher, and a block cipher, with both hash widths
PARTITION_SPECS = (
    ("null", "sha1"),
    ("ctr-sha256", "sha1"),
    ("xtea-cbc", "sha256"),
)

#: the AEAD sweep's partitions: both authenticating suites (where the
#: descriptor stores the auth tag and validation is the one-pass AEAD
#: decrypt) plus one legacy partition so cross-partition splices cross
#: the AEAD/legacy cipher-domain boundary in both directions
AEAD_PARTITION_SPECS = (
    ("aes-256-gcm", "sha1"),
    ("chacha20-poly1305", "sha256"),
    ("xtea-cbc", "sha256"),
)


def scenario_config(
    mode: str,
    payload_cache: bool = True,
    system_cipher: str = "ctr-sha256",
    one_vector_cache: bool = False,
) -> StoreConfig:
    """The sweep's store configuration: the strictest windows (Δut=1,
    Δtu=0), so *any* rollback of a committed state must be detected.
    ``payload_cache=False`` judges with the validated-payload cache off
    (the runtime-only knob; the attack surface is identical either way).
    ``one_vector_cache=True`` shrinks the descriptor cache to a single
    map-chunk vector, so every map-chunk load evicts the previous one.
    An authenticating ``system_cipher`` additionally exercises the
    MAC-skip commit-record path in counter mode."""
    return StoreConfig(
        segment_size=8 * 1024,
        system_cipher=system_cipher,
        system_hash="sha1",
        validation_mode=mode,
        delta_ut=1,
        delta_tu=0,
        payload_cache_bytes=StoreConfig.payload_cache_bytes if payload_cache else 0,
        cache_size=StoreConfig.fanout if one_vector_cache else StoreConfig.cache_size,
    )


def build_scenario(
    mode: str = "counter",
    partition_specs: Sequence[Tuple[str, str]] = PARTITION_SPECS,
    system_cipher: str = "ctr-sha256",
) -> Scenario:
    """Populate a multi-partition store and freeze it for trials.

    The history deliberately leaves every kind of log content in place:
    checkpointed segments, a non-empty residual log, a deallocation
    record, and two stale snapshots each more than Δut commits behind the
    final state.
    """
    platform = TrustedPlatform.create_in_memory(untrusted_size=512 * 1024)
    store = ChunkStore.format(
        platform, scenario_config(mode, system_cipher=system_cipher)
    )
    pids: List[int] = []
    for cipher_name, hash_name in partition_specs:
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name=cipher_name, hash_name=hash_name)]
        )
        pids.append(pid)

    def write(pid: int, rank: int, tag: str) -> None:
        data = f"p{pid}r{rank}:{tag}:".encode() * 4
        state = store.partitions[pid]
        if not (rank in state.pending_ranks or state.is_committed_written(rank)):
            state.allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, rank, data)])

    stale_images: List[bytes] = []
    for rank in range(3):
        for pid in pids:
            write(pid, rank, "base")
    stale_images.append(platform.untrusted.tamper_image())

    store.checkpoint()
    for pid in pids:
        write(pid, 3, "post-checkpoint")
    write(pids[0], 1, "rewritten")
    stale_images.append(platform.untrusted.tamper_image())

    # push the final state > Δut commits past both snapshots, and leave a
    # deallocation in the residual log (§4.8.1 un-deallocation attacks)
    store.commit([ops.DeallocateChunk(pids[1], 2)])
    for pid in pids:
        write(pid, 4, "tail")

    expected: Dict[Tuple[int, int], bytes] = {}
    extents: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for pid in pids:
        for rank in store.data_ranks(pid):
            expected[(pid, rank)] = store.read_chunk(pid, rank)
            descriptor = store._get_descriptor(data_id(pid, rank))
            extents[(pid, rank)] = (descriptor.location, descriptor.length)
    store.close(checkpoint=False)  # keep the residual log populated
    return Scenario(
        mode=mode,
        final=PlatformSnapshot.capture(platform),
        expected=expected,
        extents=extents,
        stale_images=stale_images,
        pids=pids,
        system_cipher=system_cipher,
    )


# -- scenario-independent mutations -------------------------------------------


def apply_random_mutation(
    untrusted: UntrustedStore, rng: random.Random
) -> str:
    """One seeded mutation needing no scenario context (bit flips, extent
    zeroing, garbage) — reusable by any test that owns a live platform.
    Returns a description of what was mutated."""
    size = untrusted.size
    kind = rng.choice(("bit_flip", "extent_zero", "extent_garbage"))
    if kind == "bit_flip":
        flips = rng.randint(1, 8)
        offsets = []
        for _ in range(flips):
            offset = rng.randrange(size)
            byte = untrusted.tamper_read(offset, 1)[0]
            untrusted.tamper_write(
                offset, bytes([byte ^ (1 << rng.randrange(8))])
            )
            offsets.append(offset)
        return f"bit_flip at {offsets}"
    length = rng.randint(16, 2048)
    offset = rng.randrange(max(1, size - length))
    if kind == "extent_zero":
        untrusted.tamper_write(offset, bytes(length))
        return f"extent_zero [{offset}, {offset + length})"
    untrusted.tamper_write(offset, rng.randbytes(length))
    return f"extent_garbage [{offset}, {offset + length})"


# -- the adversary ------------------------------------------------------------


class Adversary:
    """Runs seeded mutation trials against a frozen scenario and enforces
    the detect-or-correct oracle on every subsequent trusted read."""

    CLASSES: Tuple[str, ...] = (
        "bit_flip",
        "extent_zero",
        "extent_garbage",
        "extent_swap",
        "stale_extent_replay",
        "cross_partition_splice",
        "image_replay",
        "torn_race",
    )

    def __init__(
        self,
        mode: str = "counter",
        classes: Optional[Sequence[str]] = None,
        scenario: Optional[Scenario] = None,
        payload_cache: bool = True,
        one_vector_cache: bool = False,
    ) -> None:
        self.mode = mode
        self.classes: Tuple[str, ...] = tuple(classes or self.CLASSES)
        for name in self.classes:
            if name not in self.CLASSES:
                raise ValueError(f"unknown attack class {name!r}")
        self.payload_cache = payload_cache
        self.one_vector_cache = one_vector_cache
        self.scenario = scenario or build_scenario(mode)

    def _open_config(self) -> StoreConfig:
        return scenario_config(
            self.mode,
            payload_cache=self.payload_cache,
            system_cipher=self.scenario.system_cipher,
            one_vector_cache=self.one_vector_cache,
        )

    # -- public API ------------------------------------------------------------

    def run(self, trials: int, base_seed: int = 0) -> SweepResult:
        """Run ``trials`` seeded mutations, cycling through the enabled
        attack classes so every class is exercised evenly."""
        result = SweepResult(mode=self.mode)
        for i in range(trials):
            result.reports.append(self.run_trial(base_seed + i))
        return result

    def run_trial(self, seed: int, attack: Optional[str] = None) -> TrialReport:
        """One reproducible trial: the class is derived from the seed
        (round-robin) unless pinned explicitly."""
        attack = attack or self.classes[seed % len(self.classes)]
        rng = random.Random(seed)
        if attack == "torn_race":
            outcome, detail = self._torn_race_trial(rng)
        else:
            platform = self.scenario.final.restore()
            detail_prefix = self._apply_attack(attack, rng, platform.untrusted)
            acceptable = {
                key: (value,) for key, value in self.scenario.expected.items()
            }
            outcome, detail = self._judge(platform, acceptable)
            detail = f"{detail_prefix} -> {detail}"
        return TrialReport(seed=seed, attack=attack, outcome=outcome, detail=detail)

    # -- attack application ----------------------------------------------------

    def _apply_attack(
        self, attack: str, rng: random.Random, untrusted: UntrustedStore
    ) -> str:
        scenario = self.scenario
        size = untrusted.size
        if attack == "bit_flip":
            flips = rng.randint(1, 8)
            offsets = []
            for _ in range(flips):
                offset = rng.randrange(size)
                byte = untrusted.tamper_read(offset, 1)[0]
                untrusted.tamper_write(
                    offset, bytes([byte ^ (1 << rng.randrange(8))])
                )
                offsets.append(offset)
            return f"flipped bits at {offsets}"
        if attack in ("extent_zero", "extent_garbage"):
            if rng.random() < 0.5 and scenario.extents:
                key = rng.choice(sorted(scenario.extents))
                offset, length = scenario.extents[key]
                where = f"chunk {key[0]}:{key[1]}'s version"
            else:
                length = rng.randint(16, 2048)
                offset = rng.randrange(max(1, size - length))
                where = "random extent"
            payload = (
                bytes(length) if attack == "extent_zero" else rng.randbytes(length)
            )
            untrusted.tamper_write(offset, payload)
            return f"{attack} over {where} [{offset}, {offset + length})"
        if attack == "extent_swap":
            (key_a, key_b) = rng.sample(sorted(scenario.extents), 2)
            loc_a, len_a = scenario.extents[key_a]
            loc_b, len_b = scenario.extents[key_b]
            span = min(len_a, len_b)
            bytes_a = untrusted.tamper_read(loc_a, span)
            bytes_b = untrusted.tamper_read(loc_b, span)
            untrusted.tamper_write(loc_a, bytes_b)
            untrusted.tamper_write(loc_b, bytes_a)
            return f"swapped versions of {key_a} and {key_b} ({span} bytes)"
        if attack == "stale_extent_replay":
            stale = rng.choice(scenario.stale_images)
            if rng.random() < 0.5 and scenario.extents:
                key = rng.choice(sorted(scenario.extents))
                offset, length = scenario.extents[key]
                where = f"chunk {key[0]}:{key[1]}'s extent"
            else:
                length = rng.randint(64, 4096)
                offset = rng.randrange(max(1, size - length))
                where = "random extent"
            untrusted.tamper_write(offset, stale[offset : offset + length])
            return f"replayed stale bytes over {where} [{offset}, {offset + length})"
        if attack == "cross_partition_splice":
            foreign_pairs = [
                (a, b)
                for a in sorted(scenario.extents)
                for b in sorted(scenario.extents)
                if a[0] != b[0]
            ]
            src, dst = rng.choice(foreign_pairs)
            src_loc, src_len = scenario.extents[src]
            dst_loc, dst_len = scenario.extents[dst]
            span = min(src_len, dst_len)
            untrusted.tamper_write(
                dst_loc, untrusted.tamper_read(src_loc, span)
            )
            return f"spliced {src}'s version over {dst}'s location ({span} bytes)"
        if attack == "image_replay":
            index = rng.randrange(len(scenario.stale_images))
            untrusted.tamper_replay(scenario.stale_images[index])
            return f"replayed whole stale image #{index}"
        raise ValueError(f"unknown attack class {attack!r}")

    # -- the crash-raced class -------------------------------------------------

    def _torn_race_trial(self, rng: random.Random) -> Tuple[str, str]:
        """Crash between flush and TR update, tamper while down, recover.

        Oracle: the raced commit is atomic (its chunk reads old *or* new
        bytes, or the read detects tampering); every older commit is exact
        or detected."""
        platform = self.scenario.final.restore()
        try:
            store = ChunkStore.open(platform, self._open_config())
        except TDBError as exc:  # pragma: no cover - scenario must open clean
            return FOREIGN_ERROR, f"pristine scenario failed to open: {exc}"
        key = rng.choice(sorted(self.scenario.expected))
        pid, rank = key
        new_value = f"raced-p{pid}r{rank}-{rng.randrange(1 << 16)}".encode() * 2
        point = rng.choice(RACE_POINTS)
        platform.injector.arm(point, countdown=0)
        try:
            store.commit([ops.WriteChunk(pid, rank, new_value)])
            crashed = False
        except CrashError:
            crashed = True
        finally:
            platform.injector.disarm()
        detail_prefix = f"raced write to {pid}:{rank} crashed at {point}"
        if not crashed:  # pragma: no cover - all RACE_POINTS fire in commit
            detail_prefix = f"raced write to {pid}:{rank} did not crash"
        mutation = apply_random_mutation(platform.untrusted, rng)
        platform.reboot()
        acceptable: Dict[Tuple[int, int], Tuple[bytes, ...]] = {
            k: (v,) for k, v in self.scenario.expected.items()
        }
        acceptable[key] = (self.scenario.expected[key], new_value)
        outcome, detail = self._judge(platform, acceptable)
        return outcome, f"{detail_prefix}; {mutation} -> {detail}"

    # -- the oracle ------------------------------------------------------------

    def _judge(
        self,
        platform: TrustedPlatform,
        acceptable: Dict[Tuple[int, int], Tuple[bytes, ...]],
    ) -> Tuple[str, str]:
        """Open the (possibly mutated) store and read everything back.

        The only legal outcomes are exact committed bytes or
        :class:`TamperDetectedError`; committed state quietly vanishing,
        wrong bytes, and non-TDB exceptions are harness failures.  Every
        chunk is read *three* times: the second read exercises the warm
        validated-payload cache, which must never serve bytes the first
        (device-validating) read did not; the third goes through a
        :class:`SnapshotView` of the chunk's partition opened after the
        attack, and the lock-free path must reach the same verdict."""
        try:
            store = ChunkStore.open(platform, self._open_config())
        except TamperDetectedError as exc:
            return DETECTED, f"open: {exc}"
        except TDBError as exc:
            # e.g. a destroyed superblock: the store refuses to open, which
            # is fail-stop — never silent
            return DETECTED, f"open refused: {exc}"
        except Exception as exc:
            return FOREIGN_ERROR, f"open raised {type(exc).__name__}: {exc}"
        detections = 0
        problems: List[str] = []
        views: Dict[int, SnapshotView] = {}

        def verdict(read) -> Optional[bytes]:
            """The bytes a trusted read returned; None if it detected."""
            try:
                return read()
            except TamperDetectedError:
                return None

        def view_read(pid: int, rank: int) -> bytes:
            if pid not in views:
                views[pid] = store.open_snapshot_view(pid)
            return views[pid].read_chunk(rank)

        for (pid, rank), values in sorted(acceptable.items()):
            try:
                label = "read"
                got = verdict(lambda: store.read_chunk(pid, rank))
                label = "warm re-read"
                again = got  # nothing was cached if the first read detected
                if got is not None:
                    again = verdict(lambda: store.read_chunk(pid, rank))
                label = "snapshot-view read"
                viewed = verdict(lambda: view_read(pid, rank))
            except TDBError as exc:
                problems.append(
                    f"chunk {pid}:{rank} lost without detection on the {label} "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            except Exception as exc:
                return (
                    FOREIGN_ERROR,
                    f"{label} of {pid}:{rank} raised {type(exc).__name__}: {exc}",
                )
            if got is None:
                detections += 1
            elif got not in values:
                problems.append(
                    f"chunk {pid}:{rank} silently corrupted "
                    f"(got {got[:32]!r}...)"
                )
            elif again != got:
                problems.append(
                    f"chunk {pid}:{rank} warm re-read did not serve the bytes "
                    f"of the clean read (cache incoherence)"
                )
            if viewed != got:
                problems.append(
                    f"chunk {pid}:{rank}: a snapshot view "
                    + ("detected tampering" if viewed is None else "served bytes")
                    + " where the locked read "
                    + ("detected tampering" if got is None else "served others")
                )
        if problems:
            return SILENT_CORRUPTION, "; ".join(problems)
        if detections:
            return DETECTED, f"{detections} read(s) detected tampering"
        return HARMLESS, "all reads returned committed bytes"
