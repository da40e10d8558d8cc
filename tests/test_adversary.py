"""Adversarial tamper sweep: the detect-or-correct oracle under seeded
mutation.

The quick sweep (tier 1) runs 250 trials per validation mode — 500 seeded
mutations total, round-robin across all eight attack classes — and
requires zero silent corruptions and zero non-TDB exceptions.  The
slow-marked sweep quadruples the trial count for nightly runs.

Any failure prints the ``python -m repro.testing adversary ...`` line that
replays the exact seed under the exact variant.
"""

import dataclasses
import random

import pytest

from repro.chunkstore.readpath import ReadPath
from repro.testing import (
    DETECTED,
    FOREIGN_ERROR,
    HARMLESS,
    SILENT_CORRUPTION,
    Adversary,
    Variant,
    build_scenario,
)
from tests.conftest import replay

MODES = ["counter", "direct"]


@pytest.fixture(scope="module")
def adversaries():
    """One scenario build per mode, shared by every test in the module
    (trials restore from the snapshot, so sharing is safe)."""
    return {mode: Adversary(Variant(mode)) for mode in MODES}


def _assert_no_failures(result):
    lines = [
        f"{r.outcome}: seed={r.seed} {r.detail}\n  repro: {r.repro_line()}"
        for r in result.failures
    ]
    assert not result.failures, (
        f"{len(lines)} oracle violation(s):\n" + "\n".join(lines)
    )


@pytest.mark.parametrize("mode", MODES)
def test_adversary_sweep(adversaries, mode):
    """≥250 seeded mutations per mode (500 total across the
    parametrization), every attack class exercised, oracle never
    violated."""
    result = adversaries[mode].run(250)
    _assert_no_failures(result)
    assert set(result.by_cell()) == set(Adversary.CLASSES)
    outcomes = result.outcomes()
    assert outcomes.get(SILENT_CORRUPTION, 0) == 0
    assert outcomes.get(FOREIGN_ERROR, 0) == 0
    # sanity: the sweep is not vacuous — plenty of mutations actually bit
    assert outcomes.get(DETECTED, 0) >= 50


@pytest.mark.parametrize("mode", MODES)
def test_image_replay_always_detected(adversaries, mode):
    """Whole-image replay of a stale-but-authentic snapshot is the §2.1
    attack; with Δut=1 and every snapshot >1 commit stale, detection is
    mandatory, not merely permitted."""
    adversary = adversaries[mode]
    for seed in range(20):
        report = adversary.run_trial(seed, attack="image_replay")
        assert report.outcome == DETECTED, (
            f"image replay went undetected: {report.detail}\n"
            f"repro: {report.repro_line()}"
        )


@pytest.mark.parametrize("mode", MODES)
def test_torn_race_atomicity(adversaries, mode):
    """The flush-to-TR-update window: the raced commit may appear or
    vanish atomically, but never corrupt and never leak a non-TDB error."""
    adversary = adversaries[mode]
    for seed in range(24):
        report = adversary.run_trial(seed, attack="torn_race")
        assert report.outcome in (HARMLESS, DETECTED), (
            f"torn race violated atomicity: {report.detail}\n"
            f"repro: {report.repro_line()}"
        )


def test_trials_are_reproducible(adversaries):
    """A seed names one trial: same attack, same outcome, same detail."""
    adversary = adversaries["counter"]
    for seed in (3, 17, 42):
        first = adversary.run_trial(seed)
        again = adversary.run_trial(seed)
        assert first == again and first.detail == again.detail


def test_trials_leave_scenario_untouched(adversaries):
    """Each trial mutates a restored copy, never the frozen snapshot."""
    adversary = adversaries["counter"]
    image_before = adversary.scenario.final.image
    adversary.run(16)
    assert adversary.scenario.final.image == image_before


def test_scenario_covers_attack_surface():
    """The frozen scenario has the structure the taxonomy needs: several
    partitions with distinct crypto, stale snapshots, known extents."""
    scenario = build_scenario(Variant("counter"))
    assert len(scenario.pids) >= 3
    assert len(scenario.stale_images) >= 2
    assert len(scenario.extents) >= 10
    # cross-partition splices need extents in at least two partitions
    assert len({pid for pid, _ in scenario.extents}) >= 3
    # replay fodder must differ from the final image
    for stale in scenario.stale_images:
        assert stale != scenario.final.image
    # aimed bit flips need versions only the descriptor hash vouches for,
    # under ciphers that decrypt a flipped body without complaint
    assert len({pid for pid, _ in scenario.checkpointed}) >= 3
    assert set(scenario.checkpointed) < set(scenario.extents)


def test_repro_line_format(adversaries):
    report = adversaries["counter"].run_trial(5)
    assert report.repro_line() == (
        "PYTHONPATH=src python -m repro.testing adversary --mode counter "
        f"--seed 5 --class {report.cell}"
    )
    aead = dataclasses.replace(
        report, variant=Variant("direct", False, True, True)
    )
    assert aead.repro_line() == (
        "PYTHONPATH=src python -m repro.testing adversary --mode direct "
        "--no-payload-cache --one-vector-cache --aead "
        f"--seed 5 --class {report.cell}"
    )


@pytest.mark.parametrize("mode", MODES)
def test_a_deleted_hash_check_is_caught_at_the_per_pr_depth(
    adversaries, mode, monkeypatch
):
    """The oracle is not vacuous about the paper's central check: with the
    descriptor-hash comparison gone from ``ReadPath._validate``, the 64
    trials CI runs on every PR report silent corruption — on several
    seeds, each with a repro line that replays it."""

    class AnyHash:
        def __ne__(self, other):
            return False

    real = ReadPath._validate

    def no_comparison(self, state, cid, descriptor, raw):
        lax = dataclasses.replace(descriptor, body_hash=AnyHash())
        return real(self, state, cid, lax, raw)

    assert not adversaries[mode].run(64).failures
    monkeypatch.setattr(ReadPath, "_validate", no_comparison)
    failures = adversaries[mode].run(64).failures
    assert len(failures) >= 3, [f.seed for f in failures]
    assert {f.outcome for f in failures} == {SILENT_CORRUPTION}
    assert {f.cell for f in failures} == {"bit_flip", "torn_race"}
    # the replay builds its own scenario (fresh IVs), so the garbage a
    # flipped body decrypts to differs; the attack and the verdict do not
    [again] = replay(failures[0].repro_line())
    assert again == failures[0]
    assert again.detail.split(" -> ")[0] == failures[0].detail.split(" -> ")[0]


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_adversary_sweep_deep(adversaries, mode):
    """Nightly: 1000 trials per mode, plus per-class pinned sweeps so the
    round-robin can't starve a class of unusual seeds."""
    result = adversaries[mode].run(1000)
    _assert_no_failures(result)
    adversary = adversaries[mode]
    rng = random.Random(0xC0FFEE)
    for attack in Adversary.CLASSES:
        for _ in range(25):
            report = adversary.run_trial(rng.randrange(1 << 30), attack=attack)
            assert not report.failed, (
                f"{report.detail}\nrepro: {report.repro_line()}"
            )


@pytest.mark.parametrize("mode", MODES)
def test_sweep_with_payload_cache_disabled(adversaries, mode):
    """The cache-off toggle (CI's --no-payload-cache smoke): same scenario,
    payload cache disabled, oracle still never violated."""
    base = adversaries[mode]
    uncached = Adversary(Variant(mode, payload_cache=False), scenario=base.scenario)
    assert uncached.variant.config().payload_cache_bytes == 0
    assert base.variant.config().payload_cache_bytes > 0
    result = uncached.run(24)
    _assert_no_failures(result)
    outcomes = result.outcomes()
    assert outcomes.get(SILENT_CORRUPTION, 0) == 0
    assert outcomes.get(FOREIGN_ERROR, 0) == 0
