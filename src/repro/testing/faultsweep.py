"""Seeded fault-tolerance sweep (the robustness counterpart of the
adversary).

Where :mod:`repro.testing.adversary` mutates bytes *maliciously*, this
harness exercises the *non-malicious* failures of §2.1's untrusted store:
transient read/write/flush errors, permanently damaged extents, and
timed-out or truncated remote round trips — injected by the seeded
:class:`~repro.platform.faults.FaultInjector` while a scripted workload
commits, checkpoints, cleans, and crash-recovers.  Every trial enforces
the fault-tolerance invariant:

    every operation either succeeds, fails with a typed TDB error, or
    leaves the damage quarantined-and-reported; after a final
    scrub-and-repair pass, every readable chunk returns acceptable
    committed bytes — never silent corruption, never a foreign
    exception, and never a tamper alarm (nothing was tampered with).

The sweep grid is fault *points* × error *rates*; a trial's cell is
derived from its seed, so ``(mode, seed)`` names the same experiment on
every run.  Time is a :class:`~repro.platform.clock.FakeClock`, so retry
backoff never sleeps on the wall clock and a full sweep runs in seconds.

A second entry point, :meth:`FaultSweep.sweep_crash_sites`, composes the
fault injector with the existing :class:`~repro.testing.sweep.SweepDriver`
discover-then-replay loop: the workload runs under transient faults *and*
a fail-stop crash at every discovered injection site, and recovery must
still land on acceptable bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cleaner import Cleaner
from repro.errors import (
    CrashError,
    IOFaultError,
    QuarantineError,
    TamperDetectedError,
    TDBError,
)
from repro.platform.clock import FakeClock
from repro.platform.faults import FaultConfig, FaultInjector
from repro.testing.adversary import Scenario, build_scenario, scenario_config
from repro.testing.sweep import SweepDriver, SweepSite

# -- outcomes -----------------------------------------------------------------

# passes
OK = "ok"  # no fault bit anything; every op succeeded, reads exact
TYPED = "typed-error"  # faults surfaced as typed TDB errors; state consistent
HEALED = "healed"  # scrub-and-repair restored damaged chunks; reads exact
QUARANTINED = "quarantined"  # unhealable damage, but reported, not hidden
FAILSTOP = "failstop"  # permanent damage defeated recovery; store refused

# violations
SILENT_FAULT_CORRUPTION = "silent-corruption"  # wrong bytes / quiet loss
FOREIGN_FAULT_ERROR = "foreign-error"  # a non-TDB exception escaped

#: where faults are injected — the sweep's first grid axis
POINTS: Tuple[str, ...] = ("read", "write", "flush", "mixed", "remote")

#: per-operation error rates — the second grid axis (§ acceptance: ≤ 10%)
RATES: Tuple[float, ...] = (0.02, 0.05, 0.1)

#: scripted operations per trial
OPS_PER_TRIAL = 10


def fault_config(point: str, rate: float) -> FaultConfig:
    """The :class:`FaultConfig` for one sweep cell."""
    if point == "read":
        return FaultConfig(read_error_rate=rate, permanent_fraction=0.25)
    if point == "write":
        return FaultConfig(write_error_rate=rate, permanent_fraction=0.25)
    if point == "flush":
        return FaultConfig(flush_error_rate=rate)
    if point == "mixed":
        return FaultConfig(
            read_error_rate=rate,
            write_error_rate=rate,
            flush_error_rate=rate,
            permanent_fraction=0.25,
        )
    if point == "remote":
        return FaultConfig(timeout_rate=rate, partial_response_rate=rate)
    raise ValueError(f"unknown fault point {point!r}")


@dataclass(frozen=True)
class FaultTrialReport:
    """Outcome of one seeded fault trial."""

    seed: int
    point: str
    rate: float
    outcome: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.outcome in (SILENT_FAULT_CORRUPTION, FOREIGN_FAULT_ERROR)

    def repro_line(self, mode: str) -> str:
        return f"make fault-sweep MODE={mode} SEED={self.seed}"


@dataclass
class FaultSweepResult:
    """Aggregate of a fault sweep."""

    mode: str
    reports: List[FaultTrialReport] = field(default_factory=list)

    @property
    def failures(self) -> List[FaultTrialReport]:
        return [r for r in self.reports if r.failed]

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    def by_point(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            row = table.setdefault(report.point, {})
            row[report.outcome] = row.get(report.outcome, 0) + 1
        return table


def _view_read(store: ChunkStore, pid: int, rank: int) -> bytes:
    """``store.read_chunk`` through a snapshot view opened for the one read
    (closed again at once: an open view defers the cleaner)."""
    with store.open_snapshot_view(pid) as view:
        return view.read_chunk(rank)


class FaultSweep:
    """Runs seeded fault-injection trials against a frozen scenario and
    enforces the fault-tolerance invariant on every outcome."""

    def __init__(
        self,
        mode: str = "counter",
        scenario: Optional[Scenario] = None,
        payload_cache: bool = True,
        one_vector_cache: bool = False,
    ) -> None:
        self.mode = mode
        self.payload_cache = payload_cache
        self.one_vector_cache = one_vector_cache
        self.scenario = scenario or build_scenario(mode)

    def _open_config(self):
        return scenario_config(
            self.mode,
            payload_cache=self.payload_cache,
            one_vector_cache=self.one_vector_cache,
        )

    # -- public API ------------------------------------------------------------

    def run(self, trials: int, base_seed: int = 0) -> FaultSweepResult:
        """Run ``trials`` seeded fault trials across the point × rate grid."""
        result = FaultSweepResult(mode=self.mode)
        for i in range(trials):
            result.reports.append(self.run_trial(base_seed + i))
        return result

    def run_trial(
        self,
        seed: int,
        point: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> FaultTrialReport:
        """One reproducible trial; the grid cell is derived from the seed
        unless pinned explicitly."""
        if point is None:
            point = POINTS[seed % len(POINTS)]
        if rate is None:
            rate = RATES[(seed // len(POINTS)) % len(RATES)]
        outcome, detail = self._run_cell(seed, point, rate)
        return FaultTrialReport(
            seed=seed, point=point, rate=rate, outcome=outcome, detail=detail
        )

    # -- one trial -------------------------------------------------------------

    def _run_cell(self, seed: int, point: str, rate: float) -> Tuple[str, str]:
        from repro.extensions.remote import RemoteUntrustedStore

        rng = random.Random(seed)
        faults = FaultInjector(fault_config(point, rate), seed=seed)
        faults.enabled = False  # the pristine open must succeed
        platform = self.scenario.final.restore(
            fault_injector=faults, clock=FakeClock()
        )
        if point == "remote":
            # every fault lands on the simulated network instead
            platform.untrusted = RemoteUntrustedStore(platform.untrusted)
        try:
            store: Optional[ChunkStore] = ChunkStore.open(platform, self._open_config())
        except Exception as exc:  # pragma: no cover - scenario must open clean
            return (
                FOREIGN_FAULT_ERROR,
                f"pristine scenario failed to open: {exc}",
            )

        #: oracle: every key maps to the tuple of byte strings a read may
        #: legally return (a torn commit admits both old and new)
        acceptable: Dict[Tuple[int, int], Tuple[bytes, ...]] = {
            key: (value,) for key, value in self.scenario.expected.items()
        }
        #: the last *successfully committed* value per key — the trial's
        #: stand-in for an up-to-date backup during scrub's repair pass
        committed: Dict[Tuple[int, int], bytes] = dict(self.scenario.expected)
        keys = sorted(acceptable)
        typed: List[str] = []

        def reopen() -> Optional[TDBError]:
            """Crash-recover; one clean retry so a transient fault during
            recovery never ends a trial.  Returns the terminal typed error
            if even the clean reopen refused (permanent damage)."""
            nonlocal store
            platform.reboot()
            for clean_pass in (False, True):
                faults.enabled = not clean_pass
                try:
                    store = ChunkStore.open(platform, self._open_config())
                    faults.enabled = True
                    return None
                except TDBError as last:
                    error = last
            faults.enabled = True
            store = None
            return error

        faults.enabled = True
        for step in range(OPS_PER_TRIAL):
            if store is None:
                break
            roll = rng.random()
            try:
                if roll < 0.5:
                    key = keys[rng.randrange(len(keys))]
                    value = f"f{seed}s{step}p{key[0]}r{key[1]}:".encode() * 3
                    try:
                        store.commit(
                            [ops.WriteChunk(key[0], key[1], value)]
                        )
                        acceptable[key] = (value,)
                        committed[key] = value
                    except TDBError as exc:
                        # torn commit: old or new may be durable
                        acceptable[key] = tuple(acceptable[key]) + (value,)
                        typed.append(f"write: {type(exc).__name__}")
                elif roll < 0.65:
                    store.checkpoint()
                elif roll < 0.75:
                    Cleaner(store).clean_one()
                elif roll < 0.85:
                    error = reopen()
                    if error is not None:
                        typed.append(f"recovery: {type(error).__name__}")
                else:
                    key = keys[rng.randrange(len(keys))]
                    for read in (store.read_chunk, partial(_view_read, store)):
                        got = read(key[0], key[1])
                        if got not in acceptable[key]:
                            return (
                                SILENT_FAULT_CORRUPTION,
                                f"mid-trial read of {key[0]}:{key[1]} returned "
                                f"unacceptable bytes ({got[:32]!r}...)",
                            )
            except TamperDetectedError as exc:
                return (
                    SILENT_FAULT_CORRUPTION,
                    f"tamper alarm with no tampering at step {step}: {exc}",
                )
            except TDBError as exc:
                typed.append(f"step {step}: {type(exc).__name__}")
            except Exception as exc:
                return (
                    FOREIGN_FAULT_ERROR,
                    f"step {step} raised {type(exc).__name__}: {exc}",
                )
            if store is not None and store._failed:
                error = reopen()
                if error is not None:
                    typed.append(f"recovery: {type(error).__name__}")

        return self._judge(platform, store, faults, acceptable, committed, typed)

    # -- the judge -------------------------------------------------------------

    def _judge(
        self,
        platform,
        store: Optional[ChunkStore],
        faults: FaultInjector,
        acceptable: Dict[Tuple[int, int], Tuple[bytes, ...]],
        committed: Dict[Tuple[int, int], bytes],
        typed: List[str],
    ) -> Tuple[str, str]:
        """Disable random faults (sticky media damage persists), crash-
        recover, scrub-and-repair, and read everything back."""
        faults.enabled = False
        fired = sum(faults.counts.values())
        platform.reboot()
        # the judge's reopen starts with an empty in-memory quarantine, so
        # every chunk quarantined by open/scrub/read-back below must have
        # emitted a "quarantine" event after this mark — the obs event log
        # is part of the reporting contract, not just a debugging aid
        event_mark = obs.events.mark()
        try:
            store = ChunkStore.open(platform, self._open_config())
        except TDBError as exc:
            if not faults.bad_extents:
                return (
                    SILENT_FAULT_CORRUPTION,
                    f"store unopenable with no permanent damage: {exc}",
                )
            return (
                FAILSTOP,
                f"{fired} fault(s); permanent damage defeated recovery "
                f"({type(exc).__name__}: {exc})",
            )
        except Exception as exc:
            return FOREIGN_FAULT_ERROR, f"judge open raised {type(exc).__name__}: {exc}"

        repaired: List[str] = []
        unrepaired: List[str] = []
        try:
            result = store.scrub(
                raise_on_first=False,
                repair_source=lambda pid, rank: committed.get((pid, rank)),
            )
            repaired = list(result["repaired"])
            unrepaired = list(result["unrepaired"])
        except TDBError as exc:
            # repair itself hit permanent damage (e.g. a dead superblock
            # extent refuses the checkpoint); recover and judge what's left
            typed.append(f"scrub: {type(exc).__name__}")
            platform.reboot()
            try:
                store = ChunkStore.open(platform, self._open_config())
            except TDBError as exc2:
                if not faults.bad_extents:
                    return (
                        SILENT_FAULT_CORRUPTION,
                        f"store unopenable with no permanent damage: {exc2}",
                    )
                return (
                    FAILSTOP,
                    f"{fired} fault(s); scrub failed and recovery refused "
                    f"({type(exc2).__name__})",
                )
        except Exception as exc:
            return FOREIGN_FAULT_ERROR, f"scrub raised {type(exc).__name__}: {exc}"

        problems: List[str] = []
        #: (data chunk label, reported quarantine id) — the id may name an
        #: ancestor map chunk whose quarantine blocks the whole subtree
        quarantined: Set[Tuple[str, str]] = set()
        for key, read in product(
            sorted(acceptable), (store.read_chunk, partial(_view_read, store))
        ):
            # each chunk through the locked path, then through a snapshot
            # view: the same invariant binds both
            pid, rank = key
            try:
                got = read(pid, rank)
            except QuarantineError as exc:
                quarantined.add((f"{pid}:0.{rank}", exc.chunk))
                continue
            except IOFaultError:
                quarantined.add((f"{pid}:0.{rank}", f"{pid}:0.{rank}"))
                continue
            except TamperDetectedError as exc:
                problems.append(
                    f"chunk {pid}:{rank} raised a tamper alarm with no "
                    f"tampering ({exc})"
                )
                continue
            except TDBError as exc:
                problems.append(
                    f"chunk {pid}:{rank} lost without detection "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            except Exception as exc:
                return (
                    FOREIGN_FAULT_ERROR,
                    f"read {pid}:{rank} raised {type(exc).__name__}: {exc}",
                )
            if got not in acceptable[key]:
                problems.append(
                    f"chunk {pid}:{rank} silently corrupted "
                    f"(got {got[:32]!r}...)"
                )
        if problems:
            return SILENT_FAULT_CORRUPTION, "; ".join(problems)

        if quarantined:
            # unhealable damage is legal only if it is *reported*
            reported = set(store.quarantined_chunks()) | set(unrepaired)
            unreported = [
                label for label, chunk in sorted(quarantined) if chunk not in reported
            ]
            if unreported:
                return (
                    SILENT_FAULT_CORRUPTION,
                    f"unreadable chunks missing from the quarantine report: "
                    f"{unreported}",
                )
            if not obs.events.suspended():
                evented = {
                    e.fields.get("chunk")
                    for e in obs.events.since(event_mark)
                    if e.kind == "quarantine"
                }
                silent = sorted(
                    chunk
                    for chunk in set(store.quarantined_chunks())
                    if chunk not in evented
                )
                if silent:
                    return (
                        SILENT_FAULT_CORRUPTION,
                        f"quarantined chunks never emitted a 'quarantine' "
                        f"event: {silent}",
                    )
            return (
                QUARANTINED,
                f"{fired} fault(s); {len(quarantined)} chunk(s) remain "
                f"quarantined and reported; all healthy reads exact",
            )
        if repaired:
            return (
                HEALED,
                f"{fired} fault(s); scrub repaired {len(repaired)} chunk(s) "
                f"({len(typed)} typed error(s) en route); all reads exact",
            )
        if typed:
            return (
                TYPED,
                f"{fired} fault(s) surfaced as {len(typed)} typed error(s); "
                f"all reads exact",
            )
        return OK, f"{fired} fault(s) absorbed; every op succeeded, reads exact"

    # -- crash-under-faults composition with the SweepDriver -------------------

    def sweep_crash_sites(
        self,
        samples_per_point: int = 2,
        rate: float = 0.02,
        seed: int = 0,
    ) -> List[SweepSite]:
        """Replay a faulted workload with a fail-stop crash at every
        discovered injection site (the shared :class:`SweepDriver` loop).

        Faults here are transient-only (no sticky media damage), so after
        each crash the clean reopen must succeed and every read must land
        in the acceptable set — crashes composed with transient faults may
        cost retries, never data.  Raises :class:`AssertionError` on any
        violation; returns the sites where a crash actually fired.
        """
        config = FaultConfig(
            read_error_rate=rate,
            write_error_rate=rate,
            flush_error_rate=rate,
            permanent_fraction=0.0,
        )
        scenario = self.scenario

        class _Env:
            pass

        def build() -> _Env:
            env = _Env()
            env.faults = FaultInjector(config, seed=seed)
            env.faults.enabled = False
            env.platform = scenario.final.restore(
                fault_injector=env.faults, clock=FakeClock()
            )
            env.store = ChunkStore.open(env.platform, self._open_config())
            env.acceptable = {
                key: (value,) for key, value in scenario.expected.items()
            }
            env.faults.enabled = True
            return env

        def workload(env: _Env) -> None:
            rng = random.Random(seed)
            keys = sorted(env.acceptable)
            for step in range(4):
                key = keys[rng.randrange(len(keys))]
                value = f"c{seed}s{step}p{key[0]}r{key[1]}:".encode() * 3
                try:
                    env.store.commit(
                        [ops.WriteChunk(key[0], key[1], value)]
                    )
                    env.acceptable[key] = (value,)
                except CrashError:
                    env.acceptable[key] = tuple(env.acceptable[key]) + (value,)
                    raise
                except TDBError:
                    # a transient fault tore this commit; both states legal
                    env.acceptable[key] = tuple(env.acceptable[key]) + (value,)
                    return  # the store needs recovery; end the workload
            env.store.checkpoint()

        def check(env: _Env, site: SweepSite) -> None:
            env.faults.enabled = False
            env.platform.reboot()
            store = ChunkStore.open(env.platform, self._open_config())
            for (pid, rank), values in sorted(env.acceptable.items()):
                got = store.read_chunk(pid, rank)
                assert got in values, (
                    f"crash at {site} + transient faults corrupted "
                    f"{pid}:{rank}: got {got[:32]!r}"
                )

        driver = SweepDriver(build)
        return driver.sweep(
            workload, check, samples_per_point=samples_per_point
        )
