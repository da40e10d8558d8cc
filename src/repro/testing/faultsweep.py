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
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

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
from repro.testing.spine import (
    SILENT_CORRUPTION,
    Harness,
    Key,
    Scenario,
    TrialReport,
    Variant,
    build_scenario,
    read_back,
    three_reads,
)
from repro.testing.sweep import SweepDriver, SweepSite

# -- outcomes: all five pass (the failing two are the spine's) -----------------

OK = "ok"  # no fault bit anything; every op succeeded, reads exact
TYPED = "typed-error"  # faults surfaced as typed TDB errors; state consistent
HEALED = "healed"  # scrub-and-repair restored damaged chunks; reads exact
QUARANTINED = "quarantined"  # unhealable damage, but reported, not hidden
FAILSTOP = "failstop"  # permanent damage defeated recovery; store refused

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


class FaultSweep(Harness):
    """Runs seeded fault-injection trials against a frozen scenario and
    enforces the fault-tolerance invariant on every outcome."""

    NAME = "faults"
    PINS = ("point", "rate")
    TRIALS = 150
    HELD = (
        "invariant held: every op succeeded, raised a typed TDB error, or "
        "left a reported, healable quarantine"
    )

    def __init__(
        self, variant: Variant = Variant(), scenario: Optional[Scenario] = None
    ) -> None:
        super().__init__(variant)
        self.scenario = scenario or build_scenario(variant)

    def run_trial(
        self,
        seed: int,
        point: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> TrialReport:
        """One reproducible trial; the grid cell is derived from the seed
        unless pinned explicitly."""
        if point is None:
            point = POINTS[seed % len(POINTS)]
        if rate is None:
            rate = RATES[(seed // len(POINTS)) % len(RATES)]
        verdict = self._guard(self._run_cell, seed, point, rate)
        return self._report(
            seed, f"{point}@{rate}", f"--point {point} --rate {rate}", *verdict
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
        store: Optional[ChunkStore] = self.variant.open(platform)

        #: oracle: every key maps to the tuple of byte strings a read may
        #: legally return (a torn commit admits both old and new)
        acceptable = self.scenario.acceptable()
        #: the last *successfully committed* value per key — the trial's
        #: stand-in for an up-to-date backup during scrub's repair pass
        committed: Dict[Key, bytes] = dict(self.scenario.expected)
        keys = sorted(acceptable)
        typed: List[str] = []

        def reopen() -> None:
            """Crash-recover; one clean retry so a transient fault during
            recovery never ends a trial.  Leaves ``store`` ``None`` if even
            the clean reopen refused (permanent damage)."""
            nonlocal store
            platform.reboot()
            store = None
            for clean_pass in (False, True):
                faults.enabled = not clean_pass
                try:
                    store = self.variant.open(platform)
                    break
                except TDBError as exc:
                    error = exc
            else:
                typed.append(f"recovery: {type(error).__name__}")
            faults.enabled = True

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
                        acceptable[key] += (value,)
                        typed.append(f"write: {type(exc).__name__}")
                elif roll < 0.65:
                    store.checkpoint()
                elif roll < 0.75:
                    Cleaner(store).clean_one()
                elif roll < 0.85:
                    reopen()
                else:
                    key = keys[rng.randrange(len(keys))]
                    [(_, results)] = list(three_reads(store, [key]))
                    for got in results:
                        if isinstance(got, TDBError):
                            raise got
                        if got not in acceptable[key]:
                            return (
                                SILENT_CORRUPTION,
                                f"mid-trial read of {key[0]}:{key[1]} returned "
                                f"unacceptable bytes ({got[:32]!r}...)",
                            )
            except TamperDetectedError as exc:
                return (
                    SILENT_CORRUPTION,
                    f"tamper alarm with no tampering at step {step}: {exc}",
                )
            except TDBError as exc:
                typed.append(f"step {step}: {type(exc).__name__}")
            if store is not None and store._failed:
                reopen()

        return self._judge(platform, faults, acceptable, committed, typed)

    # -- the judge -------------------------------------------------------------

    def _recover(
        self, platform, faults: FaultInjector, when: str
    ) -> Tuple[Optional[ChunkStore], Optional[Tuple[str, str]]]:
        """Crash-recover for the judge: the store — or, if it refuses to
        open, the verdict: fail-stop is legal only with permanent damage on
        the device."""
        platform.reboot()
        try:
            return self.variant.open(platform), None
        except TDBError as exc:
            refusal = f"{when}: recovery refused ({type(exc).__name__}: {exc})"
            if faults.bad_extents:
                return None, (FAILSTOP, f"permanent damage; {refusal}")
            return None, (SILENT_CORRUPTION, f"no permanent damage, yet {refusal}")

    def _judge(
        self,
        platform,
        faults: FaultInjector,
        acceptable: Dict[Key, Tuple[bytes, ...]],
        committed: Dict[Key, bytes],
        typed: List[str],
    ) -> Tuple[str, str]:
        """Disable random faults (sticky media damage persists), crash-
        recover, scrub-and-repair, and read everything back
        (:func:`~repro.testing.spine.read_back`)."""
        faults.enabled = False
        fired = f"{sum(faults.counts.values())} fault(s)"
        # the judge's reopen starts with an empty in-memory quarantine, so
        # every chunk quarantined by open/scrub/read-back below must have
        # emitted a "quarantine" event after this mark — the obs event log
        # is part of the reporting contract, not just a debugging aid
        event_mark = obs.events.mark()
        result = {"repaired": [], "unrepaired": []}
        store, refused = self._recover(platform, faults, f"{fired}; at the judge")
        if store is not None:
            try:
                result = store.scrub(
                    raise_on_first=False,
                    repair_source=lambda pid, rank: committed.get((pid, rank)),
                )
            except TDBError as exc:
                # repair itself hit permanent damage (e.g. a dead superblock
                # extent refuses the checkpoint); recover and judge what's left
                typed.append(f"scrub: {type(exc).__name__}")
                store, refused = self._recover(
                    platform, faults, f"{fired}; after a failed scrub"
                )
        if store is None:
            return refused

        problems, unreadable = read_back(
            store, acceptable, tolerated=(QuarantineError, IOFaultError)
        )
        if problems:
            # wrong bytes, quiet loss, or a tamper alarm with no tampering
            return SILENT_CORRUPTION, "; ".join(problems)

        if unreadable:
            # unhealable damage is legal only if it is *reported*; the id
            # a QuarantineError names may be an ancestor map chunk whose
            # quarantine blocks the whole subtree
            reported = set(store.quarantined_chunks()) | set(result["unrepaired"])
            quarantined = {
                (label, exc.chunk if isinstance(exc, QuarantineError) else label)
                for (pid, rank), exc in unreadable
                for label in [f"{pid}:0.{rank}"]
            }
            unreported = [
                label for label, chunk in sorted(quarantined) if chunk not in reported
            ]
            if unreported:
                return (
                    SILENT_CORRUPTION,
                    f"unreadable chunks missing from the quarantine report: "
                    f"{unreported}",
                )
            if not obs.events.suspended():
                evented = {
                    e.fields.get("chunk")
                    for e in obs.events.since(event_mark)
                    if e.kind == "quarantine"
                }
                silent = sorted(set(store.quarantined_chunks()) - evented)
                if silent:
                    return (
                        SILENT_CORRUPTION,
                        f"quarantined chunks never emitted a 'quarantine' "
                        f"event: {silent}",
                    )
            return (
                QUARANTINED,
                f"{fired}; {len(quarantined)} chunk(s) remain "
                f"quarantined and reported; all healthy reads exact",
            )
        if result["repaired"]:
            return (
                HEALED,
                f"{fired}; scrub repaired {len(result['repaired'])} chunk(s) "
                f"({len(typed)} typed error(s) en route); all reads exact",
            )
        if typed:
            return (
                TYPED,
                f"{fired} surfaced as {len(typed)} typed error(s); "
                f"all reads exact",
            )
        return OK, f"{fired} absorbed; every op succeeded, reads exact"

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
        each crash the clean reopen must succeed and every read — locked,
        warm and through a snapshot view — must land in the acceptable set:
        crashes composed with transient faults may cost retries, never
        data.  Raises :class:`AssertionError` on any violation; returns the
        sites where a crash actually fired.
        """
        config = FaultConfig(
            read_error_rate=rate,
            write_error_rate=rate,
            flush_error_rate=rate,
            permanent_fraction=0.0,
        )

        def build() -> SimpleNamespace:
            faults = FaultInjector(config, seed=seed)
            faults.enabled = False
            platform = self.scenario.final.restore(
                fault_injector=faults, clock=FakeClock()
            )
            env = SimpleNamespace(
                faults=faults,
                platform=platform,
                store=self.variant.open(platform),
                acceptable=self.scenario.acceptable(),
            )
            faults.enabled = True
            return env

        def workload(env: SimpleNamespace) -> None:
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
                    env.acceptable[key] += (value,)
                    raise
                except TDBError:
                    # a transient fault tore this commit; both states legal
                    env.acceptable[key] += (value,)
                    return  # the store needs recovery; end the workload
            env.store.checkpoint()

        def check(env: SimpleNamespace, site: SweepSite) -> None:
            env.faults.enabled = False
            env.platform.reboot()
            problems, _ = read_back(self.variant.open(env.platform), env.acceptable)
            assert not problems, (
                f"crash at {site} + transient faults: " + "; ".join(problems)
            )

        return SweepDriver(build).sweep(
            workload, check, samples_per_point=samples_per_point
        )
