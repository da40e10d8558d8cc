"""Adversary sweep on AEAD partitions: tag verification as the oracle.

Same detect-or-correct oracle as :mod:`test_adversary`, but the scenario
runs both AEAD suites as partition ciphers *and* AES-256-GCM as the
system cipher, so the one-pass path carries the whole trial: descriptor
digests are auth tags, validation is a single AEAD decrypt with the
header as associated data, and commit records ride the MAC-skip path in
counter mode.  Every tamper class — bit flips, zeroing/garbage, extent
swaps, stale replay, cross-partition splices (including AEAD↔legacy),
whole-image replay, torn races — must be rejected by tag verification or
be provably harmless, in both validation modes.
"""

import pytest

from repro.crypto import aead
from repro.errors import TamperDetectedError
from repro.testing import (
    DETECTED,
    FOREIGN_ERROR,
    SILENT_CORRUPTION,
    Adversary,
    Variant,
)

pytestmark = pytest.mark.skipif(
    not aead.available(),
    reason=f"AEAD backend unavailable: {aead.unavailable_reason()}",
)

MODES = ["counter", "direct"]


@pytest.fixture(scope="module")
def adversaries():
    """One AEAD scenario per mode (trials restore from the snapshot)."""
    return {mode: Adversary(Variant(mode, aead=True)) for mode in MODES}


def _assert_no_failures(result):
    lines = [
        f"{r.outcome}: seed={r.seed} {r.detail}" for r in result.failures
    ]
    assert not result.failures, (
        f"{len(lines)} oracle violation(s) on AEAD partitions:\n"
        + "\n".join(lines)
    )


@pytest.mark.parametrize("mode", MODES)
def test_aead_adversary_sweep(adversaries, mode):
    """160 seeded mutations per mode, round-robin over all eight attack
    classes, zero undetected tampers on AEAD partitions."""
    result = adversaries[mode].run(160)
    _assert_no_failures(result)
    assert set(result.by_cell()) == set(Adversary.CLASSES)
    outcomes = result.outcomes()
    assert outcomes.get(SILENT_CORRUPTION, 0) == 0
    assert outcomes.get(FOREIGN_ERROR, 0) == 0
    # not vacuous: a healthy share of mutations actually bit
    assert outcomes.get(DETECTED, 0) >= 30


@pytest.mark.parametrize("mode", MODES)
def test_aead_image_replay_always_detected(adversaries, mode):
    """§2.1 whole-image replay stays mandatory-detect with AEAD digests:
    fresh nonces make re-encryptions of even identical plaintext produce
    distinct tags, so a stale version can never match the current
    descriptor."""
    adversary = adversaries[mode]
    for seed in range(12):
        report = adversary.run_trial(seed, attack="image_replay")
        assert report.outcome == DETECTED, (
            f"image replay went undetected on AEAD store: {report.detail}"
        )


@pytest.mark.parametrize("mode", MODES)
def test_targeted_tampers_on_aead_extents(adversaries, mode):
    """Surgical single-chunk attacks on AEAD-partition extents: flip one
    byte of the stored version (header/AAD, nonce, ciphertext, or tag —
    the offset sweeps the extent) and the read must detect."""
    adversary = adversaries[mode]
    scenario = adversary.scenario
    aead_pids = scenario.pids[:2]  # built in AEAD_PARTITION_SPECS order
    for pid in aead_pids:
        key = (pid, 4)  # the freshest, residual-log version
        location, length = scenario.extents[key]
        for offset in range(0, length, max(1, length // 6)):
            platform = scenario.final.restore()
            byte = platform.untrusted.tamper_read(location + offset, 1)[0]
            platform.untrusted.tamper_write(
                location + offset, bytes([byte ^ 0x40])
            )
            outcome, detail = adversary._judge(platform, scenario.acceptable())
            assert outcome == DETECTED, (
                f"mode={mode} pid={pid} flip at extent offset {offset} "
                f"-> {outcome}: {detail}"
            )


@pytest.mark.parametrize("mode", MODES)
def test_aead_version_truncation_detected(adversaries, mode):
    """Truncation: zero the tail of an AEAD chunk's stored version (tag
    and some ciphertext) — the shortened/blanked tag must never verify."""
    adversary = adversaries[mode]
    scenario = adversary.scenario
    for pid in scenario.pids[:2]:
        key = (pid, 4)
        location, length = scenario.extents[key]
        for cut in (1, 8, 16, 24, length // 2):
            platform = scenario.final.restore()
            tail = location + length - cut
            if platform.untrusted.tamper_read(tail, cut) == bytes(cut):
                continue  # a tag ending in zeros (1 in 256 for cut=1): no change
            platform.untrusted.tamper_write(tail, bytes(cut))
            outcome, detail = adversary._judge(platform, scenario.acceptable())
            assert outcome == DETECTED, (
                f"mode={mode} pid={pid} truncating {cut} tail bytes "
                f"-> {outcome}: {detail}"
            )
