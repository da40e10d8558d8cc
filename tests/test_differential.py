"""Model-based differential testing of the chunk store.

Tier 1 drives ≥20 seeded 50-op sequences (10 per validation mode) against
the real store and the reference model, comparing the full visible state
after every commit and after every crash + recovery.  A deliberately
injected store bug must be caught and shrunk to a ≤10-op repro.  The
slow-marked run widens both the seed range and the sequence length for
nightly use.
"""

import pytest

from repro.chunkstore import ChunkStore, StoreConfig
from repro.chunkstore.partitions import PartitionTable
from repro.chunkstore.segments import SegmentManager
from repro.crypto import accel
from repro.testing import DIVERGED, DifferentialRunner, Op, Variant
from tests.conftest import replay

MODES = ["counter", "direct"]


def _assert_no_failures(runner, result):
    details = "\n".join(runner.explain(failure) for failure in result.failures)
    assert not result.failures, f"store diverged from the model:\n{details}"


def _first_failure(runner, seeds=20):
    for seed in range(seeds):
        report = runner.run_trial(seed)
        if report.failed:
            return report
    return None


@pytest.mark.parametrize("mode", MODES)
def test_store_matches_model(mode):
    """10 seeds × 50 ops per mode: the store and the reference model agree
    after every commit, checkpoint/clean cycle, crash, and reopen."""
    runner = DifferentialRunner(Variant(mode))
    _assert_no_failures(runner, runner.run(10))


@pytest.mark.parametrize("mode", MODES)
def test_the_variant_survives_crash_and_reopen(mode, monkeypatch):
    """Every store of a ``--one-vector-cache`` run — the one formatted and
    each one a ``crash`` or ``reopen`` op opens — runs under the variant's
    configuration (the reopens used to pass no config at all, so the leg
    was one-vector up to its first crash and the plain leg after it)."""
    seen = []

    def spy(real):
        def opened(platform, config=None):
            store = real(platform, config)
            seen.append(
                (store.config.cache_size, store.config.checkpoint_dirty_threshold)
            )
            return store

        return opened

    monkeypatch.setattr(ChunkStore, "format", spy(ChunkStore.format))
    monkeypatch.setattr(ChunkStore, "open", spy(ChunkStore.open))
    runner = DifferentialRunner(Variant(mode, one_vector_cache=True))
    sequence = runner.generate(3)
    kinds = [op.kind for op in sequence]
    assert "crash" in kinds and "reopen" in kinds
    assert runner.execute(sequence) is None
    assert len(seen) == 1 + kinds.count("crash") + kinds.count("reopen")
    assert set(seen) == {(StoreConfig.fanout, 64)}


@pytest.mark.skipif(
    not accel.available(),
    reason=f"AEAD backend unavailable: {accel.unavailable_reason()}",
)
@pytest.mark.parametrize("mode", MODES)
def test_store_matches_model_on_the_aead_tier(mode, monkeypatch):
    """``--aead``: an authenticating system cipher, and created partitions
    draw their flavours from the variant's AEAD specs."""
    flavours = set()
    real = ChunkStore.commit

    def spy(self, operations):
        flavours.update(getattr(op, "cipher_name", None) for op in operations)
        return real(self, operations)

    monkeypatch.setattr(ChunkStore, "commit", spy)
    runner = DifferentialRunner(Variant(mode, aead=True))
    _assert_no_failures(runner, runner.run(5))
    assert {"aes-256-gcm", "chacha20-poly1305"} <= flavours


@pytest.mark.parametrize("mode", MODES)
def test_sequences_exercise_all_op_kinds(mode):
    """The generator's bias must not starve any operation kind across the
    tier-1 seed range, or the differential coverage silently shrinks."""
    runner = DifferentialRunner(Variant(mode))
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
        "reset",
    }


def test_generation_is_deterministic():
    runner = DifferentialRunner()
    assert runner.generate(7) == runner.generate(7)
    assert runner.generate(7) != runner.generate(8)
    assert len(runner.generate(7)) == 50 and len(runner.generate(7, ops=80)) == 80


def test_subsequences_stay_executable():
    """Slot-based ops referencing never-created partitions are skipped by
    both sides, so arbitrary subsequences (as produced by shrinking) run
    without hard errors."""
    runner = DifferentialRunner()
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
def test_a_copy_source_reset_to_another_cipher_then_cleaned_then_crash(mode):
    """Pinned history (seed 1 of the generator once resets joined it): a
    chunk written in a copy ``P`` stays current only in ``P``'s own copy
    after ``P`` is reset to another cipher; the cleaner moves it,
    encrypted under the copy's key but still named ``P:x``.  Recovery used
    to decrypt it with ``P``'s new cipher, and the store could not be
    reopened."""
    history = [
        Op("create", slot=1, tag=2),
        Op("copy", slot=4, src=1),
        Op("write", slot=4, rank=0, tag=49),
        Op("copy", slot=2, src=4),
        Op("reset", slot=4, tag=9),
        Op("clean"),
        Op("crash"),
    ]
    failure = DifferentialRunner(Variant(mode)).execute(history)
    assert failure is None, failure.describe()


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
    failure = DifferentialRunner(Variant(mode)).execute(history)
    assert failure is None, failure.describe()


def test_injected_bug_caught_and_shrunk(monkeypatch):
    """The acceptance gate for the runner itself: a store bug (chunk
    deallocation silently dropped) is detected, the failing sequence
    shrinks to ≤10 ops, the shrunk repro still fails with the bug and
    passes without it."""
    runner = DifferentialRunner(Variant("counter"))

    monkeypatch.setattr(PartitionTable, "chunk_freed", lambda self, cid: None)
    caught = _first_failure(runner)
    assert caught is not None, "injected dealloc bug escaped 20 seeds"
    assert caught.outcome == DIVERGED
    shrunk = runner.shrink(caught)
    assert len(shrunk.ops) <= 10, shrunk.describe()
    assert "dealloc" in shrunk.detail
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
    caught = _first_failure(DifferentialRunner(Variant("counter")))
    assert caught is not None, "injected stale-write bug escaped 20 seeds"


@pytest.mark.parametrize("mode", MODES)
def test_immediate_segment_reuse_is_caught_at_the_ci_depth(mode, monkeypatch):
    """ROADMAP item 1(b): a cleaned segment handed out again before the
    checkpoint that stops needing it.  With ``release_segment`` appending
    straight to the free list, the 5 seeds CI runs per mode report
    divergences — a crash image that no longer reopens, or the view held
    since the last clean reading a reused segment — each with a repro line
    that replays it."""
    runner = DifferentialRunner(Variant(mode))
    assert not runner.run(5).failures

    def reuse_at_once(self, segment, cleaned_at):
        self.used_bytes[segment] = self.live_bytes[segment] = 0
        self.free_segments.append(segment)

    monkeypatch.setattr(SegmentManager, "release_segment", reuse_at_once)
    failures = runner.run(5).failures
    assert failures, "immediate reuse escaped the CI depth"
    held = "held since the last clean"
    assert all(
        f.ops[f.op_index].kind == "crash" or held in f.detail for f in failures
    ), [f.detail for f in failures]
    assert any(held in f.detail for f in failures)
    [again] = replay(failures[0].repro_line())
    assert again == failures[0]


def test_failure_repro_line_survives_shrinking(monkeypatch):
    monkeypatch.setattr(PartitionTable, "chunk_freed", lambda self, cid: None)
    runner = DifferentialRunner(Variant("counter", one_vector_cache=True))
    caught = _first_failure(runner)
    assert caught is not None
    shrunk = runner.shrink(caught)
    assert len(shrunk.ops) < len(caught.ops) == 50
    assert shrunk.repro_line() == caught.repro_line() == (
        "PYTHONPATH=src python -m repro.testing differential --mode counter "
        f"--one-vector-cache --seed {caught.seed} --ops 50"
    )
    # a sequence that came from no seed says so instead
    assert runner.execute(list(shrunk.ops)).repro_line().startswith("# no seed")


@pytest.mark.slow
@pytest.mark.parametrize("mode", MODES)
def test_store_matches_model_deep(mode):
    """Nightly: 25 seeds × 80 ops per mode."""
    runner = DifferentialRunner(Variant(mode))
    _assert_no_failures(runner, runner.run(25, ops=80))
