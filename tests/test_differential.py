"""Model-based differential testing of the chunk store.

Tier 1 drives ≥20 seeded 50-op sequences (10 per validation mode) against
the real store and the reference model, comparing the full visible state
after every commit and after every crash + recovery.  A deliberately
injected store bug must be caught and shrunk to a ≤10-op repro.  The
slow-marked run widens both the seed range and the sequence length for
nightly use.
"""

import pytest

from repro.chunkstore.partitions import PartitionTable
from repro.testing.differential import DifferentialRunner, Op

MODES = ["counter", "direct"]


def _assert_no_failures(runner, failures):
    details = "\n".join(
        runner.shrink(failure).describe() for failure in failures
    )
    assert not failures, f"store diverged from the model:\n{details}"


@pytest.mark.parametrize("mode", MODES)
def test_store_matches_model(mode):
    """10 seeds × 50 ops per mode: the store and the reference model agree
    after every commit, checkpoint/clean cycle, crash, and reopen."""
    runner = DifferentialRunner(mode=mode, num_ops=50)
    _assert_no_failures(runner, runner.run(range(10)))


@pytest.mark.parametrize("mode", MODES)
def test_sequences_exercise_all_op_kinds(mode):
    """The generator's bias must not starve any operation kind across the
    tier-1 seed range, or the differential coverage silently shrinks."""
    runner = DifferentialRunner(mode=mode, num_ops=50)
    kinds = {op.kind for seed in range(10) for op in runner.generate(seed)}
    assert kinds == {
        "create",
        "copy",
        "drop",
        "write",
        "dealloc",
        "checkpoint",
        "clean",
        "crash",
        "reopen",
    }


def test_generation_is_deterministic():
    runner = DifferentialRunner(num_ops=50)
    assert runner.generate(7) == runner.generate(7)
    assert runner.generate(7) != runner.generate(8)


def test_subsequences_stay_executable():
    """Slot-based ops referencing never-created partitions are skipped by
    both sides, so arbitrary subsequences (as produced by shrinking) run
    without hard errors."""
    runner = DifferentialRunner(num_ops=10)
    orphan = [
        Op("write", slot=2, rank=1, tag=5),
        Op("dealloc", slot=4, rank=0),
        Op("drop", slot=1),
        Op("copy", slot=0, src=3),
        Op("crash"),
        Op("checkpoint"),
    ]
    assert runner.execute(orphan) is None


@pytest.mark.parametrize("mode", MODES)
def test_copy_dropped_then_crash_then_its_id_reused(mode):
    """Pinned history (found by hand, not by a seed): a copy is dropped,
    the crash replays that drop while its source is not resident, the
    copy's partition id goes to a new partition, and the source is
    dropped — the model keeps the new partition; the store used to destroy
    it with the source.  (Without the crash the runner's own observation
    after every op loads the source, which hid the bug from the seeds.)"""
    history = [
        Op("create", slot=0, tag=0),
        Op("write", slot=0, rank=0, tag=1),
        Op("write", slot=0, rank=1, tag=2),
        Op("copy", slot=1, src=0),
        Op("reopen"),
        Op("drop", slot=1),
        Op("crash"),
        Op("create", slot=1, tag=0),
        Op("write", slot=1, rank=0, tag=3),
        Op("drop", slot=0),
        Op("crash"),
    ]
    failure = DifferentialRunner(mode=mode).execute(history)
    assert failure is None, failure.describe()


def test_injected_bug_caught_and_shrunk(monkeypatch):
    """The acceptance gate for the runner itself: a store bug (chunk
    deallocation silently dropped) is detected, the failing sequence
    shrinks to ≤10 ops, the shrunk repro still fails with the bug and
    passes without it."""
    runner = DifferentialRunner(mode="counter", num_ops=50)

    monkeypatch.setattr(PartitionTable, "chunk_freed", lambda self, cid: None)
    caught = None
    for seed in range(20):
        caught = runner.run_seed(seed)
        if caught is not None:
            break
    assert caught is not None, "injected dealloc bug escaped 20 seeds"
    shrunk = runner.shrink(caught)
    assert len(shrunk.ops) <= 10, shrunk.describe()
    assert "dealloc" in shrunk.reason
    still_fails = runner.execute(shrunk.ops)
    assert still_fails is not None, "shrunk repro no longer fails"

    monkeypatch.undo()
    assert runner.execute(shrunk.ops) is None, (
        "shrunk repro fails even without the injected bug"
    )


def test_injected_stale_read_bug_caught(monkeypatch):
    """A second, read-side bug class: a store that serves stale bytes for
    rewritten chunks diverges from the model at the rewrite commit."""
    real_write = PartitionTable.chunk_written

    def first_write_wins(self, cid, *args, **kwargs):
        try:
            self.descriptor(cid)
            return  # drop updates to already-written chunks
        except Exception:
            pass
        return real_write(self, cid, *args, **kwargs)

    monkeypatch.setattr(PartitionTable, "chunk_written", first_write_wins)
    runner = DifferentialRunner(mode="counter", num_ops=50)
    caught = None
    for seed in range(20):
        caught = runner.run_seed(seed)
        if caught is not None:
            break
    assert caught is not None, "injected stale-write bug escaped 20 seeds"


def test_failure_repro_line_survives_shrinking(monkeypatch):
    monkeypatch.setattr(PartitionTable, "chunk_freed", lambda self, cid: None)
    runner = DifferentialRunner(mode="counter", num_ops=50)
    caught = None
    for seed in range(20):
        caught = runner.run_seed(seed)
        if caught is not None:
            break
    assert caught is not None
    shrunk = runner.shrink(caught)
    assert (
        shrunk.repro_line()
        == f"make differential MODE=counter SEED={caught.seed} OPS=50"
    )


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_store_matches_model_deep(mode):
    """Nightly: 25 seeds × 80 ops per mode."""
    runner = DifferentialRunner(mode=mode, num_ops=80)
    _assert_no_failures(runner, runner.run(range(25)))
