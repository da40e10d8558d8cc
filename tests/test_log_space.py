"""Log space (DESIGN.md, "Log space"; ROADMAP item 1): the checkpoint
reserve and deferred segment reuse.

Two defects of a store that cleaned and reused segments with no reserve:

(a) a threshold checkpoint that ran out of segments half-way failed the
    store (``_failed``), and every later commit tripped over the same
    checkpoint;
(b) a segment the cleaner freed was reused at once, before the checkpoint
    that stops needing it, so a crash image whose last checkpoint had its
    map or leaders there no longer opened (or opened with false ``tamper``
    quarantine entries).

The reproducers below are the ones that found them.
"""

import json
import random
from pathlib import Path

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.log import VersionKind
from repro.errors import StorageFullError
from repro.testing.snapshot import PlatformSnapshot
from repro.testing.sweep import SweepDriver, SweepSite
from tests.conftest import make_config, make_platform

SEGMENT = 16 * 1024

GOLDEN = Path(__file__).parent / "golden" / "log_space_decisions.json"


@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_capacity_counts_the_tail_and_every_free_segment(mode):
    """``room`` is the rest of the tail segment plus every free segment —
    not a deferred one — and ``capacity`` is room less the reserve; an
    append takes exactly its version from the capacity."""
    platform = make_platform(size=512 * 1024)
    store = ChunkStore.format(
        platform, make_config(validation_mode=mode, segment_size=8 * 1024)
    )
    space, segman, writer = store.log_space, store.segman, store.writer
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
    store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"v") for _ in range(10)])
    for _ in range(3):  # obsolete versions for the cleaner to find
        store.commit([ops.WriteChunk(pid, r, b"z" * 500) for r in range(10)])
    store.checkpoint()
    for deferred in (0, 1):
        assert len(segman.deferred_segments) == deferred
        assert space.room() == (
            writer.max_version_size - segman.tail_offset
            + len(segman.free_segments) * writer.max_version_size
        )
        assert space.capacity() == space.room() - space.reserve()
        if not deferred:
            assert store.clean(max_segments=1) == 1
    before = space.capacity()
    with store._lock:
        writer.begin_set()
        writer.append_unnamed(VersionKind.DEALLOCATE, b"y" * 100)
    assert before - space.capacity() == store.codec.version_size(
        100, store.codec.system_cipher
    )


def loaded_store(threshold, cipher, hash_name, **overrides):
    """6,000 × 40-byte chunks loaded in 50-chunk commits into 40 segments
    of 16 KiB; returns the platform, the store, its partition and a model."""
    platform = make_platform(size=4096 + 40 * SEGMENT)
    config = make_config(checkpoint_dirty_threshold=threshold, **overrides)
    store = ChunkStore.format(platform, config)
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher, hash_name=hash_name)])
    return platform, store, pid, config


def write_batches(store, pid, model, ranks, tag):
    """Commit ``ranks`` in 50-chunk batches; ``model`` follows each commit
    that succeeded."""
    for start in range(0, len(ranks), 50):
        batch = {rank: bytes([tag, rank % 251]) * 20 for rank in ranks[start : start + 50]}
        for rank in batch:
            store.reserve_chunk(pid, rank)
        try:
            store.commit([ops.WriteChunk(pid, rank, body) for rank, body in batch.items()])
        finally:
            assert not store._failed
        model.update(batch)


@pytest.mark.parametrize("threshold", [256, 1024])
def test_a_threshold_checkpoint_always_has_room(threshold):
    """Load, then overwrite every chunk in rank order, at 67 % of the log
    live and with no cleaning ahead asked for (``clean_low_water=0``):
    every threshold checkpoint finds its reserve, so no commit is refused
    and the store never fails; the image reopens to the same bytes."""
    platform, store, pid, config = loaded_store(
        threshold, "null", "null", clean_low_water=0
    )
    model = {}
    write_batches(store, pid, model, list(range(6000)), tag=1)
    write_batches(store, pid, model, list(range(6000)), tag=2)
    assert store.stats()["log_space"]["checkpoints_for_dirty"] > 0
    sample = random.Random(threshold).sample(range(6000), 300)
    assert store.read_chunks(pid, sample) == {rank: model[rank] for rank in sample}
    platform.reboot()
    reopened = ChunkStore.open(platform, config)
    assert reopened.read_chunks(pid, sample) == {rank: model[rank] for rank in sample}


@pytest.mark.parametrize("threshold", [256, 1024])
def test_a_full_log_refuses_commits_without_failing(threshold):
    """The same load and overwrites under a 20-byte hash overfill the log
    (map and data are ≈ 86 % of it, every checkpoint's reserve on top).
    The commit that does not fit is refused before it appends anything;
    the store keeps serving what it holds, takes a commit that still fits,
    and reopens to all of it."""
    platform, store, pid, config = loaded_store(threshold, "null", "sha1")
    model = {}
    with pytest.raises(StorageFullError):
        write_batches(store, pid, model, list(range(6000)), tag=1)
        write_batches(store, pid, model, list(range(6000)), tag=2)
    assert store.read_chunks(pid, sorted(model)) == model
    # a chunk whose map chunk is dirty already costs just its own version
    last = max(model, key=lambda rank: (model[rank][0], rank))
    write_batches(store, pid, model, [last], tag=3)
    platform.reboot()
    reopened = ChunkStore.open(platform, config)
    assert reopened.read_chunks(pid, sorted(model)) == model


@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_every_crash_image_reopens_while_segments_are_reused(mode):
    """12 segments, 100 × 600-byte chunks, a checkpoint every 64 dirty
    descriptors and single-chunk overwrites: the cleaner frees segments
    all the time.  After every commit the crash image reopens, reads back
    what was committed, and quarantines nothing — with immediate reuse, the
    146th overwrite's image refused to open in direct mode, and the 359th's
    in counter mode."""
    platform = make_platform(size=4096 + 12 * SEGMENT)
    config = make_config(checkpoint_dirty_threshold=64, validation_mode=mode)
    store = ChunkStore.format(platform, config)
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    model = {rank: bytes(600) for rank in range(100)}
    store.commit(
        [ops.WriteChunk(pid, store.allocate_chunk(pid), model[r]) for r in model]
    )
    rng = random.Random(1)
    for step in range(400):
        rank = rng.randrange(100)
        model[rank] = bytes([step % 256]) * 600
        store.commit([ops.WriteChunk(pid, rank, model[rank])])
        reopened = ChunkStore.open(PlatformSnapshot.capture(platform).restore(), config)
        assert reopened.read_chunks(pid, range(100)) == model, step
        assert reopened.quarantined_chunks() == {}, step
    assert store.cleaner.cleaned_segments > 3


class _Churned:
    """A 12-segment store of 100 × 600-byte chunks, overwritten until the
    cleaner has old segments to free, ending in a checkpoint — restored
    afresh for every crash site."""

    images = {}

    def __init__(self, mode, view=False):
        if mode not in self.images:
            platform = make_platform(size=4096 + 12 * SEGMENT)
            store = ChunkStore.format(platform, self.config(mode))
            pid = store.allocate_partition()
            store.commit(
                [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
            )
            model = {rank: bytes([rank]) * 600 for rank in range(100)}
            store.commit(
                [ops.WriteChunk(pid, store.allocate_chunk(pid), model[r]) for r in model]
            )
            for rank in range(0, 100, 2):  # half of every old segment dies
                model[rank] = bytes([rank, 1]) * 300
                store.commit([ops.WriteChunk(pid, rank, model[rank])])
            store.checkpoint()
            self.images[mode] = (PlatformSnapshot.capture(platform), pid, model)
        snapshot, self.pid, model = self.images[mode]
        self.mode = mode
        self.platform = snapshot.restore()
        self.store = ChunkStore.open(self.platform, self.config(mode))
        self.model = dict(model)
        self.in_flight = {}
        self.view = view

    @staticmethod
    def config(mode):
        return make_config(validation_mode=mode, checkpoint_dirty_threshold=100_000)

    def workload(self):
        """Clean, then overwrite until the log has claimed segments past
        the ones it had, then checkpoint — with ``view``, a snapshot view
        opened before the clean is held throughout, and reads what it
        froze at the end.  The view holds every segment cleaned meanwhile,
        so it gets 8 commits: the 20 would not fit (≈ 62 KB against
        ≈ 35 KB of capacity), and the store would refuse them."""
        store, pid = self.store, self.pid
        if self.view:
            view, frozen = store.open_snapshot_view(pid), dict(self.model)
        assert store.clean(max_segments=3) > 0
        # 20 commits, ≈ four segments; 8, ≈ 1.5 under the view
        for start in range(0, 40 if self.view else 100, 5):
            batch = {r: bytes([r, 2]) * 300 for r in range(start, start + 5)}
            self.in_flight = batch
            store.commit([ops.WriteChunk(pid, r, body) for r, body in batch.items()])
            self.model.update(batch)
        self.in_flight = {}
        store.checkpoint()
        if self.view:
            assert store.stats()["snapshots"]["held_segments"] > 0
            assert view.read_chunks(range(100)) == frozen
            view.close()


@pytest.mark.parametrize(
    "mode, view",
    [("counter", False), ("direct", False), ("counter", True), ("direct", True)],
    ids=["counter", "direct", "counter-view", "direct-view"],
)
def test_every_crash_between_a_clean_and_the_next_checkpoint_reopens(mode, view):
    """Every crash point of the cleaner's re-commit, of the commits after
    it and of the checkpoint that releases what it freed — each of their
    occurrences, not a sample: the image reopens, holds every acknowledged
    write (the one in flight as it was or as it was meant to be), and
    quarantines nothing.  With immediate reuse, the commits that claimed
    a freed segment overwrote what the last checkpoint's map needed.
    ``view``: a snapshot view open since before the clean holds what it
    freed through the checkpoint; the crash drops the view, and the image
    reopens all the same."""
    driver = SweepDriver(lambda: _Churned(mode, view))
    points = {
        point: count
        for point, count in driver.discover(_Churned.workload).items()
        if point.startswith(("commit.", "checkpoint."))
    }
    sites = [SweepSite(p, n) for p, count in sorted(points.items()) for n in range(count)]

    def check(env, site):
        env.platform.reboot()
        reopened = ChunkStore.open(env.platform, env.config(env.mode))
        got = reopened.read_chunks(env.pid, range(100))
        for rank, body in got.items():
            allowed = {env.model[rank], env.in_flight.get(rank, env.model[rank])}
            assert body in allowed, (site, rank)
        assert reopened.quarantined_chunks() == {}, site

    crashed = driver.sweep(_Churned.workload, check, sites=sites)
    assert len(crashed) == len(sites) > 60


# -- the decisions, pinned ------------------------------------------------------


def decisions(store):
    """What the log-space policy decided, as the store tallies it."""
    stats = store.stats()
    return {
        "log_space": stats["log_space"],
        "cleaner": stats["cleaner"],
        "bytes_by_kind": stats["log"]["bytes_by_kind"],
    }


def loaded_run(mode, threshold, full):
    """``loaded_store`` loaded and overwritten in rank order: with null
    hashes and no cleaning ahead (every checkpoint has room), or ``full``
    under a 20-byte hash and the default low-water mark (until a commit is
    refused).  Then ``close``, whose checkpoint needs room too."""
    if full:
        platform, store, pid, _ = loaded_store(
            threshold, "null", "sha1", validation_mode=mode
        )
    else:
        platform, store, pid, _ = loaded_store(
            threshold, "null", "null", clean_low_water=0, validation_mode=mode
        )
    model = {}
    try:
        write_batches(store, pid, model, list(range(6000)), tag=1)
        write_batches(store, pid, model, list(range(6000)), tag=2)
        refused = False
    except StorageFullError:
        refused = True
    result = {"refused": refused, "committed": len(model), **decisions(store)}
    store.close()
    result["after_close"] = decisions(store)
    return result


def churn_run(mode):
    """The 12-segment churn of the crash-image test above (``Random(1)``,
    400 single-chunk overwrites), then ``clean(max_segments=3)`` and
    ``close``."""
    platform = make_platform(size=4096 + 12 * SEGMENT)
    config = make_config(checkpoint_dirty_threshold=64, validation_mode=mode)
    store = ChunkStore.format(platform, config)
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    store.commit(
        [ops.WriteChunk(pid, store.allocate_chunk(pid), bytes(600)) for _ in range(100)]
    )
    rng = random.Random(1)
    for step in range(400):
        store.commit([ops.WriteChunk(pid, rng.randrange(100), bytes([step % 256]) * 600)])
    result = decisions(store)
    result["cleaned"] = store.clean(max_segments=3)
    result["after_clean"] = decisions(store)
    store.close()
    result["after_close"] = decisions(store)
    return result


RUNS = {
    f"{mode}-{name}": (run, args)
    for mode in ("counter", "direct")
    for name, run, args in [
        ("loaded-256", loaded_run, (mode, 256, False)),
        ("loaded-1024", loaded_run, (mode, 1024, False)),
        ("full-256", loaded_run, (mode, 256, True)),
        ("full-1024", loaded_run, (mode, 1024, True)),
        ("churn", churn_run, (mode,)),
    ]
}


def write_decisions(path=GOLDEN):
    """Run with the parent's ``src`` on ``PYTHONPATH`` to (re)write the
    golden file from the policy being refactored; re-record only when a
    decision changes on purpose."""
    golden = {key: run(*args) for key, (run, args) in RUNS.items()}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("key", sorted(RUNS))
def test_log_space_decisions_match_the_golden(key):
    """Every clean, checkpoint (by cause), refusal and appended byte of
    five scripted runs per mode is the one recorded before the log-space
    policy moved into one module: the move changed no decision."""
    run, args = RUNS[key]
    assert run(*args) == json.loads(GOLDEN.read_text())[key]
