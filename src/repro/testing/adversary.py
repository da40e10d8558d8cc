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
    flip 1–8 random bits — half the time anywhere in the device image,
    half the time inside the *body* of a known live version, its header
    left intact, so that only the descriptor-hash comparison stands
    between the flip and the caller;
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
    :mod:`repro.testing.sweep`), apply one of the three byte mutations
    above while the system is down, then recover.  The raced commit may
    atomically appear or vanish; everything older must survive exactly.

Every trial is reproducible from its integer seed: the scenario is rebuilt
from scratch and the attack parameters are drawn from
``random.Random(seed)``.  Chunk placement is deterministic, so a seed
names the same structural attack on every run.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.chunkstore import ops
from repro.errors import CrashError, TamperDetectedError, TDBError
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import UntrustedStore
from repro.testing.spine import (
    SILENT_CORRUPTION,
    Harness,
    Key,
    Scenario,
    TrialReport,
    Variant,
    build_scenario,
    read_back,
)

# -- outcomes (the failing two are the spine's) --------------------------------

HARMLESS = "harmless"  # store opened, every read returned committed bytes
DETECTED = "detected"  # TamperDetectedError (or a TDB refusal at open)

#: crash sites between "operation issued" and "tamper-resistant update
#: done" — the window the torn_race class races (shared with the crash
#: sweep's discovered points)
RACE_POINTS = (
    "commit.write",
    "commit.before_flush",
    "commit.after_flush",
    "commit.after_tr",
)

# -- byte mutations -------------------------------------------------------------

#: the mutations that need nothing but a device — and, to aim, a scenario
BYTE_MUTATIONS = ("bit_flip", "extent_zero", "extent_garbage")


def choose_extent(
    rng: random.Random,
    size: int,
    scenario: Optional[Scenario],
    lengths: Tuple[int, int] = (16, 2048),
    body_only: bool = False,
) -> Tuple[int, int, str]:
    """Where a byte mutation lands, as ``(offset, length, description)``:
    a random extent of the device or — half the time, when a scenario
    names them — the stored extent of a known live version (``body_only``:
    one behind the last checkpoint, past its header — bytes nothing but
    the descriptor hash vouches for)."""
    if scenario is not None and rng.random() < 0.5:
        known = scenario.checkpointed if body_only else sorted(scenario.extents)
        pid, rank = rng.choice(known)
        offset, length = scenario.extents[(pid, rank)]
        skip = scenario.header_size if body_only else 0
        part = "body" if body_only else "version"
        return offset + skip, length - skip, f"chunk {pid}:{rank}'s {part}"
    length = rng.randint(*lengths)
    return rng.randrange(max(1, size - length)), length, "random extent"


def mutate_bytes(
    untrusted: UntrustedStore,
    rng: random.Random,
    kind: str,
    scenario: Optional[Scenario] = None,
) -> str:
    """Apply one of :data:`BYTE_MUTATIONS`; returns what was mutated."""
    size = untrusted.size
    if kind == "bit_flip":
        # unaimed, the "extent" is the whole image: flips land anywhere
        offset, length, where = choose_extent(
            rng, size, scenario, lengths=(size, size), body_only=True
        )
        flipped = []
        for _ in range(rng.randint(1, 8)):
            at = offset + rng.randrange(length)
            byte = untrusted.tamper_read(at, 1)[0]
            untrusted.tamper_write(at, bytes([byte ^ (1 << rng.randrange(8))]))
            flipped.append(at)
        return f"bit_flip in {where} at {flipped}"
    offset, length, where = choose_extent(rng, size, scenario)
    payload = bytes(length) if kind == "extent_zero" else rng.randbytes(length)
    untrusted.tamper_write(offset, payload)
    return f"{kind} over {where} [{offset}, {offset + length})"


def apply_random_mutation(
    untrusted: UntrustedStore,
    rng: random.Random,
    scenario: Optional[Scenario] = None,
) -> str:
    """One seeded byte mutation — reusable by any test that owns a live
    platform; with a ``scenario`` it may aim at a known version."""
    return mutate_bytes(untrusted, rng, rng.choice(BYTE_MUTATIONS), scenario)


# -- the adversary ------------------------------------------------------------


class Adversary(Harness):
    """Runs seeded mutation trials against a frozen scenario and enforces
    the detect-or-correct oracle on every subsequent trusted read."""

    NAME = "adversary"
    PINS = ("attack",)
    TRIALS = 64
    HELD = (
        "oracle held: every read returned committed bytes or raised "
        "TamperDetectedError"
    )

    CLASSES: Tuple[str, ...] = BYTE_MUTATIONS + (
        "extent_swap",
        "stale_extent_replay",
        "cross_partition_splice",
        "image_replay",
        "torn_race",
    )

    def __init__(
        self, variant: Variant = Variant(), scenario: Optional[Scenario] = None
    ) -> None:
        super().__init__(variant)
        self.scenario = scenario or build_scenario(variant)

    def run_trial(self, seed: int, attack: Optional[str] = None) -> TrialReport:
        """One reproducible trial: the class is derived from the seed
        (round-robin, so a sweep exercises every class evenly) unless
        pinned."""
        attack = attack or self.CLASSES[seed % len(self.CLASSES)]
        verdict = self._guard(self._trial, random.Random(seed), attack)
        return self._report(seed, attack, f"--class {attack}", *verdict)

    def _trial(self, rng: random.Random, attack: str) -> Tuple[str, str]:
        if attack == "torn_race":
            return self._torn_race_trial(rng)
        platform = self.scenario.final.restore()
        applied = self._apply_attack(attack, rng, platform.untrusted)
        outcome, detail = self._judge(platform, self.scenario.acceptable())
        return outcome, f"{applied} -> {detail}"

    # -- attack application ----------------------------------------------------

    def _apply_attack(
        self, attack: str, rng: random.Random, untrusted: UntrustedStore
    ) -> str:
        scenario = self.scenario
        if attack in BYTE_MUTATIONS:
            return mutate_bytes(untrusted, rng, attack, scenario)
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
            offset, length, where = choose_extent(
                rng, untrusted.size, scenario, lengths=(64, 4096)
            )
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
        store = self.variant.open(platform)  # the pristine scenario opens
        key = rng.choice(sorted(self.scenario.expected))
        pid, rank = key
        new_value = f"raced-p{pid}r{rank}-{rng.randrange(1 << 16)}".encode() * 2
        point = rng.choice(RACE_POINTS)
        platform.injector.arm(point, countdown=0)
        try:
            store.commit([ops.WriteChunk(pid, rank, new_value)])
            raced = f"raced write to {pid}:{rank} did not crash"
        except CrashError:
            raced = f"raced write to {pid}:{rank} crashed at {point}"
        finally:
            platform.injector.disarm()
        mutation = apply_random_mutation(platform.untrusted, rng, self.scenario)
        platform.reboot()
        acceptable = self.scenario.acceptable()
        acceptable[key] += (new_value,)
        outcome, detail = self._judge(platform, acceptable)
        return outcome, f"{raced}; {mutation} -> {detail}"

    # -- the oracle ------------------------------------------------------------

    def _judge(
        self, platform: TrustedPlatform, acceptable: Dict[Key, Tuple[bytes, ...]]
    ) -> Tuple[str, str]:
        """Open the (possibly mutated) store and read everything back
        (:func:`~repro.testing.spine.read_back`).

        The only legal outcomes are exact committed bytes or
        :class:`TamperDetectedError`; committed state quietly vanishing,
        wrong bytes, the lock-free path reaching another verdict than the
        locked one, and non-TDB exceptions are harness failures."""
        try:
            store = self.variant.open(platform)
        except TDBError as exc:
            # tampering detected — or, e.g., a destroyed superblock: the
            # store refuses to open, which is fail-stop, never silent
            return DETECTED, f"open refused ({type(exc).__name__}): {exc}"
        problems, detections = read_back(
            store, acceptable, tolerated=(TamperDetectedError,)
        )
        if problems:
            return SILENT_CORRUPTION, "; ".join(problems)
        if detections:
            return DETECTED, f"{len(detections)} read(s) detected tampering"
        return HARMLESS, "all reads returned committed bytes"
