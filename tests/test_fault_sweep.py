"""Fault-tolerance sweep: the succeed-or-typed-error-or-healable-
quarantine invariant under seeded I/O fault injection.

The quick sweep (tier 1) runs 150 trials per validation mode — 300 seeded
trials total across every fault point × error rate cell (rates up to
10%) — and requires zero silent corruptions and zero non-TDB exceptions.
The slow-marked sweep deepens the run for nightly CI.  Any failure prints
the ``python -m repro.testing faults ...`` line that replays the exact seed
under the exact variant.
"""

import pytest

from repro.crypto import aead
from repro.errors import TransientIOError
from repro.platform.retry import Retrier
from repro.testing import (
    FAILSTOP,
    FOREIGN_ERROR,
    OK,
    SILENT_CORRUPTION,
    FaultSweep,
    Variant,
)
from repro.testing.faultsweep import POINTS, RATES
from tests.conftest import replay

MODES = ["counter", "direct"]


@pytest.fixture(scope="module")
def sweeps():
    """One scenario build per mode, shared by every test in the module
    (trials restore from the snapshot, so sharing is safe)."""
    return {mode: FaultSweep(Variant(mode)) for mode in MODES}


def _assert_no_failures(result):
    lines = [
        f"{r.outcome}: seed={r.seed} {r.cell} {r.detail}\n  repro: {r.repro_line()}"
        for r in result.failures
    ]
    assert not result.failures, (
        f"{len(lines)} invariant violation(s):\n" + "\n".join(lines)
    )


@pytest.mark.parametrize("mode", MODES)
def test_fault_sweep(sweeps, mode):
    """150 seeded fault trials per mode (300 total across the
    parametrization, the ISSUE's acceptance bar), covering every fault
    point and every rate up to 10%, with zero silent corruptions."""
    result = sweeps[mode].run(150)
    _assert_no_failures(result)
    outcomes = result.outcomes()
    assert outcomes.get(SILENT_CORRUPTION, 0) == 0
    assert outcomes.get(FOREIGN_ERROR, 0) == 0
    # coverage: every cell of the point × rate grid was exercised
    assert set(result.by_cell()) == {f"{p}@{r}" for p in POINTS for r in RATES}
    # sanity: the sweep is neither vacuous (everything trivially ok) nor
    # degenerate (everything failing-stop)
    assert outcomes.get(OK, 0) < len(result.reports)
    assert outcomes.get(FAILSTOP, 0) < len(result.reports) // 2


def test_trials_are_deterministic(sweeps):
    sweep = sweeps["counter"]
    first = sweep.run_trial(17)
    again = sweep.run_trial(17)
    assert first == again and first.detail == again.detail


def test_pinned_point_and_rate(sweeps):
    report = sweeps["counter"].run_trial(3, point="read", rate=0.1)
    assert report.cell == "read@0.1"
    assert report.pins == "--point read --rate 0.1"
    assert not report.failed


@pytest.mark.skipif(
    not aead.available(),
    reason=f"AEAD backend unavailable: {aead.unavailable_reason()}",
)
@pytest.mark.parametrize("mode", MODES)
def test_an_aead_sweep_opens_its_own_scenario_and_sweeps_clean(mode):
    """The AEAD tier is reachable: the sweep reopens its scenario with the
    system cipher it was built with (the private config builder forgot it,
    and every trial was a foreign error at the pristine open)."""
    sweep = FaultSweep(Variant(mode, aead=True))
    result = sweep.run(30)
    _assert_no_failures(result)
    assert result.outcomes().get(OK, 0) < len(result.reports)
    assert len(sweep.sweep_crash_sites(samples_per_point=1)) >= 5


@pytest.mark.parametrize("mode", MODES)
def test_a_retry_that_returns_a_short_read_is_caught(sweeps, mode, monkeypatch):
    """The oracle is not vacuous: a retry layer that hands back a short
    read where the device faulted, instead of retrying or raising, fails
    the per-PR depth (30 trials) — with a repro line that replays it."""
    real = Retrier.call

    def short_reads(self, fn, op="io"):
        def attempt():
            try:
                return fn()
            except TransientIOError:
                if op not in ("read", "read_many"):
                    raise
                return b"" if op == "read" else []

        return real(self, attempt, op)

    monkeypatch.setattr(Retrier, "call", short_reads)
    failures = sweeps[mode].run(30).failures
    assert len(failures) >= 2, [f.seed for f in failures]
    assert replay(failures[0].repro_line()) == [failures[0]]


@pytest.mark.parametrize("mode", MODES)
def test_crash_under_faults_sweep(sweeps, mode):
    """Fail-stop crashes at every discovered injection site, composed
    with transient fault injection: recovery always lands on acceptable
    bytes (the check itself raises on a violation)."""
    sites = sweeps[mode].sweep_crash_sites(samples_per_point=2)
    assert len(sites) >= 10  # the workload crosses plenty of crash points


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_fault_sweep_deep(sweeps, mode):
    """Nightly-depth: 500 trials per mode."""
    result = sweeps[mode].run(500)
    _assert_no_failures(result)
