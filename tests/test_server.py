"""The concurrent serving layer: group commit, MVCC snapshots, sessions.

Three tiers:

* deterministic :class:`GroupCommitter` unit tests over a fake chunk
  store (a gate blocks the leader so batches form on command);
* MVCC snapshot semantics over a real store (isolation, staleness,
  refcounting, the segments an open view holds from reuse);
* an end-to-end stress test — N writer sessions and M snapshot readers
  hammering one :class:`TDBServer` — with invariants checked inside
  every snapshot, after the last commit, and again after crash recovery.
"""

from __future__ import annotations

import ast
import threading
import time
from pathlib import Path

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.errors import (
    ChunkStoreError,
    CrashError,
    ObjectNotFoundError,
    StorageFullError,
)
from repro.objectstore import ObjectStore
from repro.objectstore.pickling import ObjectRef
from repro import obs
from repro.objectstore.store import TxStatus
from repro.server import GroupCommitter, TDBServer
from repro.testing import SweepDriver, SweepSite
from repro.testing.snapshot import PlatformSnapshot
from tests.conftest import make_config, make_platform
from tests.parking import Gate, QueueSpy, Worker, join_all, parking_platform


def make_stack():
    platform = make_platform()
    chunks = ChunkStore.format(platform, make_config())
    objects = ObjectStore(chunks)
    pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
    return platform, chunks, objects, pid


def open_views(chunks):
    return chunks.stats()["snapshots"]["open_views"]


def busy_store(size=512 * 1024):
    """An object store on ``size`` bytes with 8 objects in one partition:
    the store, its chunk store and the objects' refs."""
    chunks = ChunkStore.format(make_platform(size), make_config())
    objects = ObjectStore(chunks)
    busy = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
    with objects.transaction() as tx:
        refs = [tx.create(busy, 0) for _ in range(8)]
    return objects, chunks, refs


#: a 12-segment chunk store whose views hold what the cleaner frees
SEGMENT = 16 * 1024


def viewed_store(platform):
    """100 × 200-byte chunks on ``platform``'s 12 segments of 16 KiB and
    a view open on them: the store, the partition, the view and a model
    of the live chunks (the view froze a copy)."""
    store = ChunkStore.format(platform, make_config(checkpoint_dirty_threshold=64))
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    model = {rank: bytes([rank]) * 200 for rank in range(100)}
    store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), model[r]) for r in model])
    return store, pid, store.open_snapshot_view(pid), model


def overwrite_and_clean(store, pid, model, rounds=2):
    """Rounds of: every chunk overwritten in 10-chunk commits, ``clean(4)``
    and a checkpoint; without the view's hold, each round's commits claim
    the segments the round before it cleaned."""
    for tag in range(1, rounds + 1):
        for start in range(0, 100, 10):
            batch = {r: bytes([r, tag]) * 100 for r in range(start, start + 10)}
            store.commit([ops.WriteChunk(pid, r, body) for r, body in batch.items()])
            model.update(batch)
        assert store.clean(4) > 0
        store.checkpoint()


def _join(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "worker thread wedged"


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_the_server_is_sessions_over_the_object_store():
    """``repro.server`` imports nothing from ``repro.chunkstore``: commit
    visibility is the object store's (its committer invalidates its
    snapshots directly), and no commit hook is left to hang anything on."""
    offenders = []
    for path in sorted((SRC / "server").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[:2] == ["repro", "chunkstore"] for m in modules):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    for path in sorted(SRC.rglob("*.py")):
        if "on_commit" in path.read_text():
            offenders.append(f"{path.relative_to(SRC)}: mentions on_commit")
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# GroupCommitter over a fake chunk store (deterministic batching)
# ---------------------------------------------------------------------------


class FakeChunks:
    """Records commits; optionally blocks the leader or rejects batches."""

    def __init__(self):
        self.commits = []
        self.calls = 0
        self.gate = None  # when set, commit() blocks until the event fires
        self.reject_merged = False

    def commit(self, ops):
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(5.0), "test gate never opened"
        ops = list(ops)
        if self.reject_merged and len(ops) > 1:
            raise ChunkStoreError("merged preflight rejected")
        if any(op == "poison" for op in ops):
            raise ChunkStoreError("poison op")
        self.commits.append(ops)


class StubSnapshots:
    """Records what each durable batch invalidates; calls ``fail(call)``
    first, which may raise."""

    def __init__(self, fail=lambda call: None):
        self.invalidated = []
        self.fail = fail

    def invalidate_many(self, pids):
        self.invalidated.append(set(pids))
        self.fail(len(self.invalidated))


class TestGroupCommitter:
    def test_single_commit_degenerates_to_plain_path(self):
        fake = FakeChunks()
        snapshots = StubSnapshots()
        committer = GroupCommitter(fake, snapshots)
        committer.commit(["a", "b"])
        assert fake.commits == [["a", "b"]]
        assert len(snapshots.invalidated) == 1  # told of the one durable batch
        stats = committer.stats()
        assert stats["batches"] == 1
        assert stats["txs_committed"] == 1
        assert stats["mean_batch_size"] == 1.0

    def test_commits_queued_behind_leader_merge_into_one_batch(self):
        fake = FakeChunks()
        fake.gate = threading.Event()
        committer = GroupCommitter(fake, StubSnapshots())

        leader = threading.Thread(target=committer.commit, args=(["a"],))
        leader.start()
        # the leader is now blocked inside FakeChunks.commit; two more
        # committers arrive and enqueue behind it
        followers = []
        for op in ("b", "c"):
            thread = threading.Thread(target=committer.commit, args=([op],))
            thread.start()
            followers.append(thread)
        deadline = time.monotonic() + 5.0
        while len(committer._queue) < 2:
            assert time.monotonic() < deadline, "followers never enqueued"
            time.sleep(0.002)

        fake.gate.set()
        _join([leader] + followers)
        # first batch is the leader alone (it took the queue before the
        # followers arrived); the second — led by the first follower, which
        # the leader handed the lead — merges both followers into one commit
        assert fake.commits[0] == ["a"]
        assert sorted(fake.commits[1]) == ["b", "c"]
        stats = committer.stats()
        assert stats["batches"] == 2
        assert stats["txs_committed"] == 3
        assert stats["largest_batch"] == 2
        assert stats["fallbacks"] == 0

    def test_rejected_merge_falls_back_to_per_entry_commits(self):
        fake = FakeChunks()
        fake.gate = threading.Event()
        fake.reject_merged = True
        committer = GroupCommitter(fake, StubSnapshots())

        leader = threading.Thread(target=committer.commit, args=(["a"],))
        leader.start()
        followers = [
            threading.Thread(target=committer.commit, args=([op],))
            for op in ("b", "c")
        ]
        for thread in followers:
            thread.start()
        deadline = time.monotonic() + 5.0
        while len(committer._queue) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        fake.gate.set()
        _join([leader] + followers)
        # the merged ["b", "c"] batch was rejected; both entries must
        # still have committed — individually
        assert ["b"] in fake.commits and ["c"] in fake.commits
        stats = committer.stats()
        assert stats["fallbacks"] == 1
        assert stats["txs_committed"] == 3

    def test_poison_entry_fails_alone_in_fallback(self):
        fake = FakeChunks()
        fake.gate = threading.Event()
        committer = GroupCommitter(fake, StubSnapshots())
        results = {}

        def commit(name, ops):
            try:
                committer.commit(ops)
                results[name] = "ok"
            except ChunkStoreError:
                results[name] = "failed"

        leader = threading.Thread(target=commit, args=("a", ["a"]))
        leader.start()
        followers = [
            threading.Thread(target=commit, args=("poison", ["poison"])),
            threading.Thread(target=commit, args=("c", ["c"])),
        ]
        for thread in followers:
            thread.start()
        deadline = time.monotonic() + 5.0
        while len(committer._queue) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        fake.gate.set()
        _join([leader] + followers)
        # the poison op fails its merged batch, then fails alone in the
        # fallback; the innocent rider still commits
        assert results == {"a": "ok", "poison": "failed", "c": "ok"}
        assert ["c"] in fake.commits
        assert committer.stats()["fallbacks"] == 1

    def test_a_failing_lone_entry_is_not_committed_again(self):
        fake = FakeChunks()
        committer = GroupCommitter(fake, StubSnapshots())
        with pytest.raises(ChunkStoreError, match="poison op"):
            committer.commit(["poison"])
        assert fake.calls == 1
        stats = committer.stats()
        assert (stats["batches"], stats["fallbacks"]) == (0, 0)

    def test_a_lone_entry_that_fails_the_store_reports_its_own_error(self):
        class FailingChunks:
            failed = False

            def commit(self, ops):
                if self.failed:
                    raise ChunkStoreError("chunk store is in a failed state")
                self.failed = True
                raise ChunkStoreError("device broke mid-commit")

        committer = GroupCommitter(FailingChunks(), StubSnapshots())
        with pytest.raises(ChunkStoreError, match="mid-commit"):
            committer.commit(["a"])

    def test_foreign_error_fails_the_whole_batch(self):
        class DyingChunks:
            def commit(self, ops):
                raise RuntimeError("device died")

        committer = GroupCommitter(DyingChunks(), StubSnapshots())
        with pytest.raises(RuntimeError, match="device died"):
            committer.commit(["a"])
        assert committer.stats()["batches"] == 0


class GatedChunks:
    """A chunk store whose every commit parks on the next gate queued for
    it (none queued: goes straight through), recording ``(ops, thread)``."""

    def __init__(self):
        self.commits = []
        self.gates = []

    def gate(self):
        self.gates.append(Gate())
        return self.gates[-1]

    def commit(self, ops):
        self.commits.append((sorted(ops), threading.get_ident()))
        if self.gates:
            self.gates.pop(0).park()


class TestLeaderHandOff:
    """The leader commits one batch and hands the lead to the first queued
    entry's thread — deterministic: commits park on gates, and the queue
    spy says when a follower has queued up (no sleeps, no polling)."""

    def _followers(self, queue, committer, names):
        """Queue one committer per name, in order; the workers."""
        workers = []
        for name in names:
            workers.append(Worker(lambda name=name: committer.commit([name])))
            queue.wait_queued()
        return workers

    def test_the_leader_returns_once_its_own_batch_is_durable(self, monkeypatch):
        queue = QueueSpy().install(monkeypatch)
        fake = GatedChunks()
        first, second = fake.gate(), fake.gate()
        committer = GroupCommitter(fake, StubSnapshots())
        leader = Worker(lambda: committer.commit(["a"]))
        first.wait_arrived()
        followers = self._followers(queue, committer, "bcd")
        assert committer._leader_active and len(committer._queue) == 3
        first.open()
        # the leader's own batch is durable: it returns, though three
        # commits are queued and the next batch has not even been flushed
        leader.done()
        second.wait_arrived()
        assert not any(worker.finished for worker in followers)
        assert committer._leader_active
        second.open()
        join_all(followers)
        # one batch of three, led by the thread of the first queued entry
        a, b, c, d = queue.entries
        assert fake.commits == [(["a"], a.thread), (["b", "c", "d"], b.thread)]
        assert [entry.batch_size for entry in queue.entries] == [1, 3, 3, 3]
        # nobody is woken twice: the first leader never, the second to lead,
        # its riders to be told they are done
        assert [entry.wake.sets for entry in queue.entries] == [0, 1, 1, 1]
        assert not committer._leader_active and committer._queue == []
        assert committer.stats()["batches"] == 2
        assert committer.stats()["largest_batch"] == 3

    def test_max_batch_one_walks_the_queue_one_hand_off_at_a_time(self, monkeypatch):
        queue = QueueSpy().install(monkeypatch)
        fake = GatedChunks()
        gates = [fake.gate() for _ in range(4)]
        committer = GroupCommitter(fake, StubSnapshots(), max_batch=1)
        workers = [Worker(lambda: committer.commit(["a"]))]
        gates[0].wait_arrived()
        workers += self._followers(queue, committer, "bcd")
        for turn, gate in enumerate(gates):
            gate.wait_arrived()
            # exactly the commits up to this one have started, each led by
            # its own entry's thread, and everyone behind is still queued
            assert len(fake.commits) == turn + 1
            assert len(committer._queue) == 3 - turn
            assert [w.finished for w in workers] == [True] * turn + [False] * (4 - turn)
            gate.open()
            workers[turn].done()
        assert fake.commits == [
            ([name], entry.thread) for name, entry in zip("abcd", queue.entries)
        ]
        assert [entry.wake.sets for entry in queue.entries] == [0, 1, 1, 1]
        assert not committer._leader_active
        assert committer.stats()["batches"] == 4
        assert committer.stats()["mean_batch_size"] == 1.0

    def test_a_leader_that_dies_still_passes_the_lead_on(self, monkeypatch):
        """Whatever becomes of the leader — here its thread is interrupted
        in the snapshot invalidation, after its batch is durable — the
        queue is not orphaned (the queued follower is handed the lead and
        commits) and the riders of the durable batch succeed."""
        queue = QueueSpy().install(monkeypatch)
        fake = GatedChunks()
        first, second = fake.gate(), fake.gate()

        def fail(call):
            if call == 2:  # the batch [a, b]
                raise KeyboardInterrupt("leader interrupted")

        committer = GroupCommitter(fake, StubSnapshots(fail), max_batch=2)
        dummy = Worker(lambda: committer.commit(["0"]))
        first.wait_arrived()
        leader, rider, follower = self._followers(queue, committer, "abc")
        first.open()
        dummy.done()
        second.wait_arrived()  # a leads the batch [a, b]; c stays queued
        second.open()
        with pytest.raises(KeyboardInterrupt):
            leader.done()
        join_all([rider, follower])
        assert [ops for ops, _ in fake.commits] == [["0"], ["a", "b"], ["c"]]
        assert fake.commits[2][1] == queue.entries[3].thread
        assert not committer._leader_active and committer._queue == []


class TestInvalidationFailure:
    """A commit's outcome is the store's alone (the hang and the false
    ``ABORTED`` a raising snapshot invalidation used to cause)."""

    def test_a_raising_invalidation_neither_aborts_nor_wedges(self):
        """The invalidation raises after the batch is durable: the commit
        is not aborted and the next session's commit is not wedged."""
        _, chunks, objects, pid = make_stack()
        with TDBServer(objects) as server:
            first, second = server.session(), server.session()
            invalidate = objects.snapshots.invalidate_many
            calls = []

            def raises_once(touched):
                calls.append(set(touched))
                if len(calls) == 1:
                    raise RuntimeError("invalidation broke")
                invalidate(touched)

            objects.snapshots.invalidate_many = raises_once
            mark = obs.events.mark()
            tx = first.transaction()
            ref = tx.create(pid, "first")
            tx.commit()  # durable: the invalidation's trouble is not the commit's
            assert tx.status == TxStatus.COMMITTED
            assert chunks.chunk_status(pid, ref.rank) == "written"
            assert objects.read_committed(ref) == "first"
            assert not objects.committer._leader_active
            (event,) = obs.events.find("group_commit_hook_failed", mark)
            assert event.fields["error"] == "RuntimeError" and event.fields["txs"] == 1
            # the second session's commit returns (it used to block forever)
            tx2 = second.transaction()
            tx2.update(ref, "second")
            Worker(tx2.commit).done()
            assert tx2.status == TxStatus.COMMITTED
            assert calls == [{pid}, {pid}]
            assert second.read(ref) == "second"

    def test_a_failing_invalidation_leaves_no_snapshot_current(self):
        """Closing the first stale view raises, yet every touched
        partition's snapshot is already marked stale — the next reader
        gets a fresh one that shows the commit."""
        _, chunks, objects, pid = make_stack()
        other_pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
        with objects.transaction() as tx:
            refs = [tx.create(pid, 0), tx.create(other_pid, 0)]
        with TDBServer(objects) as server:
            session = server.session()
            for ref in refs:  # one unused, current snapshot per partition
                assert session.read(ref) == 0
            close_view = chunks.close_snapshot_view
            failures = []

            def close_fails_once(view):
                if not failures:
                    failures.append(view.pid)
                    raise RuntimeError("close broke")
                close_view(view)

            chunks.close_snapshot_view = close_fails_once
            mark = obs.events.mark()
            with session.transaction() as tx:
                for ref in refs:
                    tx.update(ref, tx.get_for_update(ref) + 1)
            assert tx.status == TxStatus.COMMITTED and len(failures) == 1
            assert len(obs.events.find("group_commit_hook_failed", mark)) == 1
            assert objects.snapshots.stats()["active"] == 0
            assert [session.read(ref) for ref in refs] == [1, 1]


# ---------------------------------------------------------------------------
# MVCC snapshot semantics (real store)
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_snapshot_is_immune_to_later_commits(self):
        _, _, objects, pid = make_stack()
        ref = ObjectRef(pid, 0)
        with objects.transaction() as tx:
            tx.create_at(ref, "v0")
        old = objects.snapshots.acquire(pid)
        assert old.get(ref) == "v0"
        with objects.transaction() as tx:
            tx.update(ref, "v1")
        # the held snapshot still serves the state it froze...
        assert old.get(ref) == "v0"
        # ...while a fresh snapshot sees the new commit
        with objects.snapshots.acquire(pid) as new:
            assert new.get(ref) == "v1"
            assert new is not old
            assert new.view.frozen_at > old.view.frozen_at
        old.release()

    def test_concurrent_readers_share_one_snapshot(self):
        _, chunks, objects, pid = make_stack()
        with objects.transaction() as tx:
            tx.create_at(ObjectRef(pid, 0), 1)
        first = objects.snapshots.acquire(pid)
        second = objects.snapshots.acquire(pid)
        assert first is second  # refcounted share, one chunk view
        assert open_views(chunks) == 1
        first.release()
        assert open_views(chunks) == 1  # still held by `second`
        second.release()
        # released but non-stale snapshots stay current for reuse; the
        # next durable batch disposes them
        assert objects.snapshots.acquire(pid) is first
        first.release()
        with objects.transaction() as tx:
            tx.update(ObjectRef(pid, 0), 2)
        assert open_views(chunks) == 0

    def test_an_idle_snapshot_does_not_pin_the_cleaner(self):
        """Regression: a released snapshot stayed current until a commit
        touched *its* partition, so one read of a partition nobody writes
        pinned the cleaner for the whole store until the log filled up.
        Every durable batch now disposes every idle snapshot."""
        platform = make_platform(512 * 1024)
        chunks = ChunkStore.format(platform, make_config())
        objects = ObjectStore(chunks)
        quiet, busy = (
            objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
            for _ in range(2)
        )
        with objects.transaction() as tx:
            read_once = tx.create(quiet, 0)
            refs = [tx.create(busy, 0) for _ in range(8)]
        with objects.snapshots.acquire(quiet) as snapshot:
            assert snapshot.get(read_once) == 0
        # the log (≈ 480 KiB) is rewritten several times over: the cleaner
        # must run (a pinned store is full after ≈ 1,200 of these)
        for n in range(3000):
            with objects.transaction() as tx:
                tx.update(refs[n % 8], "x" * 300 + str(n))
        assert open_views(chunks) == 0
        with objects.snapshots.acquire(quiet) as snapshot:
            assert snapshot.get(read_once) == 0

    def test_overlapping_readers_do_not_starve_the_cleaner(self):
        """Regression: the cleaner declined to run while any view was
        open, so readers that overlap — each snapshot released two commits
        after it was read, one always open — left the log full after
        ≈ 1,160 commits with nothing cleaned.  An open view now holds only
        the segments cleaned after it, until a checkpoint after it closes."""
        objects, chunks, refs = busy_store()
        held = []
        for n in range(3000):
            snapshot = objects.snapshots.acquire(refs[0].partition)
            assert snapshot.get(refs[n % 8]) in (0, "x" * 300 + str(n - 8))
            held.append(snapshot)
            if len(held) > 2:
                held.pop(0).release()
            with objects.transaction() as tx:
                tx.update(refs[n % 8], "x" * 300 + str(n))
        assert chunks.stats()["cleaner"]["cleaned_segments"] > 0
        for snapshot in held:
            snapshot.release()

    def test_a_long_lived_view_ends_in_a_clean_refusal(self):
        """One view held while the log is rewritten over and over: the
        segments cleaned meanwhile stay held, so the store ends up full.
        The commit is refused before anything is appended, with the views
        and what they hold named; the store has not failed, the view still
        reads what it froze, and once it closes the next commits go in."""
        objects, chunks, refs = busy_store()
        snapshot = objects.snapshots.acquire(refs[0].partition)
        full = r"segment\(s\) held by open snapshot views frozen at \[\d+\]"
        with pytest.raises(StorageFullError, match=full):
            for n in range(3000):
                with objects.transaction() as tx:
                    tx.update(refs[n % 8], "x" * 300 + str(n))
        assert not chunks._failed and 0 < n < 3000
        assert chunks.stats()["snapshots"]["held_segments"] > 0
        assert [snapshot.get(ref) for ref in refs] == [0] * 8
        snapshot.release()
        for n in range(200):
            with objects.transaction() as tx:
                tx.update(refs[n % 8], "y" * 300 + str(n))
        assert chunks.stats()["snapshots"] == {
            "open_views": 0,
            "views_opened": 1,
            "held_segments": 0,
        }

    def test_snapshot_built_across_a_commit_is_never_shared(self):
        """Regression (benchmarks/e2e README, finding 5): a snapshot built
        while a commit was in flight was installed as current *after* that
        commit's invalidation, so the committer's next acquire was handed
        a view from before its own commit."""
        _, chunks, objects, pid = make_stack()
        ref = ObjectRef(pid, 0)
        with objects.transaction() as tx:
            tx.create_at(ref, "v0")
        manager = objects.snapshots
        build = manager._build
        built, resume = threading.Event(), threading.Event()

        def parked_build(source):
            snapshot = build(source)  # frozen before the commit below
            built.set()
            assert resume.wait(5.0), "test gate never opened"
            return snapshot

        seen = []

        def reader():
            with manager.acquire(pid) as snapshot:
                seen.append(snapshot.get(ref))

        manager._build = parked_build
        thread = threading.Thread(target=reader)
        thread.start()
        assert built.wait(5.0)
        manager._build = build
        with objects.transaction() as tx:
            tx.update(ref, "v1")  # commits and invalidates pid
        resume.set()
        _join([thread])
        assert seen == ["v0"]  # acquired before the commit: still valid
        with manager.acquire(pid) as snapshot:
            assert snapshot.get(ref) == "v1"
        assert manager.stats()["created"] == 2
        # the idle current snapshot alone: the stale one was closed
        assert open_views(chunks) == 1

    def test_view_walk_keeps_post_checkpoint_writes(self):
        """Regression: a view's map walk stored every child slot of the
        map chunk it read, overwriting the seeded dirty descriptor of a
        sibling written since the last checkpoint — the view then served
        that sibling's pre-commit bytes (the remaining
        ``server.snapshot.stale_reads`` of the e2e benchmark).  The view's
        dirty seed now shadows whatever vector its walk installs."""
        from repro.chunkstore import ops

        _, chunks, _, pid = make_stack()
        ranks = [chunks.allocate_chunk(pid) for _ in range(2)]
        chunks.commit([ops.WriteChunk(pid, r, b"old") for r in ranks])
        chunks.checkpoint()  # the persistent map now says "old" for both
        chunks.commit([ops.WriteChunk(pid, ranks[0], b"new")])  # dirty only
        chunks.cache._vectors.clear()  # as LRU eviction would
        with chunks.open_snapshot_view(pid) as view:
            assert view.read_chunk(ranks[1]) == b"old"  # walks the map
            assert view.read_chunk(ranks[0]) == b"new"

    def test_cold_view_read_completes_while_the_store_lock_is_held(self):
        """Lock freedom, deterministically: a view touches no store state
        after it is built, so a cold read — map walk and device reads —
        finishes in a worker while this thread sits on ``store._lock``."""
        from repro.chunkstore import ops

        _, chunks, _, pid = make_stack()
        values = {chunks.allocate_chunk(pid): b"v%d" % i for i in range(4)}
        chunks.commit([ops.WriteChunk(pid, r, v) for r, v in values.items()])
        chunks.checkpoint()
        chunks.cache.clear()  # nothing to seed: the view must walk the map
        view = chunks.open_snapshot_view(pid)
        seen = []

        def reader():
            seen.append(view.read_chunk(0))
            seen.append(view.read_chunks(list(values)))

        reads_before = chunks.platform.untrusted.stats.reads
        with chunks._lock:
            thread = threading.Thread(target=reader, daemon=True)
            thread.start()
            _join([thread])
        assert seen == [values[0], values]
        assert chunks.platform.untrusted.stats.reads > reads_before
        view.close()

    def test_many_readers_share_one_cold_view(self):
        """Stress: a view's readers share its read path — descriptor
        cache, payload cache, quarantine table — with no view-wide mutex,
        so racing cold walks of the same map chunks must all land on the
        committed bytes."""
        import sys

        from repro.chunkstore import ops

        platform = make_platform()
        # a payload cache of a few chunks keeps every pass going to the device
        chunks = ChunkStore.format(platform, make_config(payload_cache_bytes=256))
        pid = chunks.allocate_partition()
        chunks.commit([ops.WritePartition(pid, cipher_name="ctr-sha256")])
        values = {rank: b"chunk-%03d" % rank * 4 for rank in range(3 * 64 + 5)}
        for rank in values:
            chunks.partitions[pid].allocate_specific(rank)
        chunks.commit([ops.WriteChunk(pid, r, v) for r, v in values.items()])
        chunks.checkpoint()
        chunks.cache.clear()
        wrong = []

        def reader(which, view):
            ranks = sorted(values, reverse=which % 2 == 1)
            try:
                for rank in ranks[which::7]:
                    if view.read_chunk(rank) != values[rank]:
                        wrong.append((which, rank))
                if view.read_chunks(ranks) != values:
                    wrong.append((which, "batch"))
            except Exception as exc:  # a worker's exception must fail the test
                wrong.append((which, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                with chunks.open_snapshot_view(pid) as view:
                    threads = [
                        threading.Thread(target=reader, args=(which, view), daemon=True)
                        for which in range(12)
                    ]
                    for thread in threads:
                        thread.start()
                    _join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_snapshot_get_many_fetches_its_misses_in_one_batch(self):
        platform, _, objects, pid = make_stack()
        refs = [ObjectRef(pid, rank) for rank in range(6)]
        with objects.transaction() as tx:
            for ref in refs:
                tx.create_at(ref, f"object-{ref.rank}")
        objects.chunks.checkpoint()
        with objects.snapshots.acquire(pid) as snapshot:
            assert snapshot.get(refs[0]) == "object-0"  # warms the map
            io = platform.untrusted.stats
            before = io.snapshot()
            wanted = [refs[3], refs[0], refs[5], refs[3], refs[1]]
            assert snapshot.get_many(wanted) == [
                f"object-{ref.rank}" for ref in wanted
            ]
            delta = io.delta(before)
            # refs[0] is an object-cache hit; the other three distinct
            # chunks arrive in one round trip
            assert (delta.reads, delta.batched_extents) == (1, 3)
            with pytest.raises(ObjectNotFoundError):
                snapshot.get_many([refs[0], ObjectRef(pid, 7)])
            with pytest.raises(ObjectNotFoundError):
                snapshot.get_many([ObjectRef(pid + 1, 0)])

    def test_missing_object_raises_object_not_found(self):
        _, _, objects, pid = make_stack()
        with objects.transaction() as tx:
            tx.create_at(ObjectRef(pid, 0), "root")
        with objects.snapshots.acquire(pid) as snapshot:
            with pytest.raises(ObjectNotFoundError):
                snapshot.get(ObjectRef(pid, 7))
            with pytest.raises(ObjectNotFoundError):
                snapshot.get(ObjectRef(pid + 1, 0))  # wrong partition
            assert not snapshot.exists(ObjectRef(pid, 7))
            assert snapshot.exists(ObjectRef(pid, 0))

    def test_an_open_view_holds_the_segments_cleaned_after_it(self):
        """The cleaner runs while a view is open; the segments it frees
        stay out of the free list (though the durable table lists them
        free, so a crash image reopens), the view reads every chunk as it
        froze it, and the checkpoint after it closes frees them."""
        platform = make_platform(size=4096 + 12 * SEGMENT)
        store, pid, view, model = viewed_store(platform)
        frozen = dict(model)
        overwrite_and_clean(store, pid, model)
        assert view.read_chunks(range(100)) == frozen
        held = {segment for segment, _ in store.segman.deferred_segments}
        assert len(held) == store.stats()["snapshots"]["held_segments"] >= 4
        assert open_views(store) == 1
        assert not held & set(store.segman.free_segments)
        image = PlatformSnapshot.capture(platform).restore()
        image.reboot()
        reopened = ChunkStore.open(image, store.config)
        assert held <= set(reopened.segman.free_segments)
        assert reopened.read_chunks(pid, range(100)) == model
        assert reopened.quarantined_chunks() == {}
        view.close()
        view.close()  # idempotent
        assert open_views(store) == 0
        store.checkpoint()
        assert held <= set(store.segman.free_segments)

    def test_a_parked_view_read_validates_across_cleaning_and_reuse(self):
        """A view read parked at the device while another thread cleans
        the segments it is about to read, checkpoints, and commits into
        free segments: resumed, the read validates and returns what the
        view froze."""
        platform = parking_platform(4096 + 12 * SEGMENT)
        store, pid, view, model = viewed_store(platform)
        frozen = dict(model)
        gate = platform.untrusted.park_next_read()
        reader = Worker(lambda: view.read_chunks(range(100)))
        gate.wait_arrived()
        overwrite_and_clean(store, pid, model)
        gate.open()
        assert reader.done() == frozen
        assert store.stats()["snapshots"]["held_segments"] > 0
        view.close()

    def test_a_bare_object_store_commit_invalidates_its_snapshots(self):
        """The committer invalidates the store's own snapshots, with no
        server in sight: a commit makes the held snapshot stale (still
        readable, never handed out again) and disposes it on release."""
        _, chunks, objects, pid = make_stack()
        ref = ObjectRef(pid, 0)
        with objects.transaction() as tx:
            tx.create_at(ref, "v0")
        held = objects.snapshots.acquire(pid)
        assert held.get(ref) == "v0"
        with objects.transaction() as tx:
            tx.update(ref, "v1")
        assert held._stale and held.get(ref) == "v0"
        assert objects.snapshots._invalid_through == {pid: chunks.commit_count_stat}
        with objects.snapshots.acquire(pid) as fresh:
            assert fresh is not held and fresh.get(ref) == "v1"
        held.release()
        assert held._disposed and open_views(chunks) == 1  # `fresh`, idle
        assert objects.committer.stats()["batches"] == 2

    def test_closed_server_and_session_refuse_work(self):
        _, _, objects, pid = make_stack()
        server = TDBServer(objects)
        session = server.session()
        session.close()
        with pytest.raises(RuntimeError):
            session.transaction()
        with server.session() as reader:
            reader.snapshot(pid).release()  # idle, kept for reuse
        server.close()  # drops the store's snapshots
        assert objects.snapshots.stats()["active"] == 0
        assert open_views(objects.chunks) == 0
        with pytest.raises(RuntimeError):
            server.session()


class TestOneCommitRoute:
    """Every transaction commits through its store's committer, with or
    without a server."""

    def test_plain_commits_are_counted_by_the_store_committer(self):
        _, _, objects, pid = make_stack()
        for value in range(3):
            with objects.transaction() as tx:
                tx.create(pid, value)
        with objects.transaction() as tx:  # no writes: nothing to commit
            tx.exists(ObjectRef(pid, 0))
        stats = objects.committer.stats()
        assert (stats["batches"], stats["txs_committed"]) == (3, 3)
        assert (stats["largest_batch"], stats["fallbacks"]) == (1, 0)

    def test_two_threads_without_a_server_share_one_batch(self, monkeypatch):
        _, chunks, objects, pid = make_stack()
        with objects.transaction() as tx:
            refs = [tx.create(pid, 0) for _ in range(3)]
        queue = QueueSpy().install(monkeypatch)
        gate = Gate()
        committed = []

        def commit(operations, _commit=chunks.commit):
            committed.append(sorted(op.rank for op in operations))
            if not gate.arrived.is_set():
                gate.park()
            return _commit(operations)

        chunks.commit = commit

        def bump(ref):
            with objects.transaction() as tx:
                tx.update(ref, tx.get_for_update(ref) + 1)

        workers = [Worker(lambda: bump(refs[0]))]
        gate.wait_arrived()  # the first commit is inside the store
        for ref in refs[1:]:
            workers.append(Worker(lambda ref=ref: bump(ref)))
            queue.wait_queued()
        gate.open()
        join_all(workers)
        assert committed == [[refs[0].rank], sorted(r.rank for r in refs[1:])]
        assert [entry.batch_size for entry in queue.entries] == [1, 2, 2]
        assert objects.committer.stats()["largest_batch"] == 2
        assert [objects.read_committed(ref) for ref in refs] == [1, 1, 1]

    def test_an_oversized_transaction_is_committed_once(self):
        """A batch of one that fails its preflight is not retried: one
        ``ChunkStore.commit`` call, no fallback, the store's error."""
        _, chunks, objects, pid = make_stack()
        calls = []

        def commit(operations, _commit=chunks.commit):
            calls.append(len(operations))
            return _commit(operations)

        chunks.commit = commit
        with TDBServer(objects) as server, server.session() as session:
            tx = session.transaction()
            tx.create(pid, bytes(chunks.writer.max_version_size))
            with pytest.raises(ChunkStoreError, match="exceeds"):
                tx.commit()
        assert tx.status == TxStatus.ABORTED and calls == [1]
        stats = objects.committer.stats()
        assert (stats["batches"], stats["fallbacks"]) == (0, 0)


def test_a_dropped_server_frees_its_store_without_the_cyclic_collector():
    """Server, committer, snapshot manager and object store reference one
    another in one direction only: letting go of a stack that was built,
    committed through and closed releases the device by reference count.
    (The e2e benchmark rebuilds its workload and reads ``peak_rss_mb``: the
    cycle ``TDBServer.__init__`` used to close left a whole dead device
    to whenever generation 2 next ran.)"""
    import gc
    import weakref

    platform, chunks, objects, pid = make_stack()
    server = TDBServer(objects)
    session = server.session()
    with session.transaction() as tx:
        ref = tx.create(pid, {"n": 1})
    with session.snapshot(pid) as snapshot:
        assert snapshot.get(ref) == {"n": 1}
    session.close()
    server.close()  # disposes the snapshots the manager kept for reuse
    device = weakref.ref(platform.untrusted)
    gc.disable()
    try:
        del platform, chunks, objects, server, session, snapshot, tx
        assert device() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Crash sweep over the serving path: every commit.* point of a lone batch
# and of a batch formed by hand-off
# ---------------------------------------------------------------------------


class ServingCrashEnv:
    """Three sessions over one server.  The script: ``lone`` commits alone
    but parks on its way into the store until ``rider1`` and ``rider2`` are
    queued behind it; released, it commits a batch of one and hands the
    lead to ``rider1``'s thread, which commits the two riders as one batch.
    ``acknowledged`` collects the transactions whose ``commit`` returned."""

    NAMES = ("lone", "rider1", "rider2")

    def __init__(self, mode, monkeypatch):
        self.queue = QueueSpy().install(monkeypatch)
        self.platform = make_platform()
        self.chunks = ChunkStore.format(
            self.platform, make_config(validation_mode=mode)
        )
        self.objects = ObjectStore(self.chunks)
        self.pid = self.objects.create_partition(
            cipher_name="ctr-sha256", hash_name="sha1"
        )
        with self.objects.transaction() as tx:
            self.refs = {name: tx.create(self.pid, "before") for name in self.NAMES}
        self.acknowledged = set()
        self.errors = {}

    def run(self):
        """The script, once; the ``commit.*`` points it passed, in order.
        An armed injector (the sweep driver's) fires inside a batch: the
        workers catch it, ``errors`` holds it."""
        injector = self.platform.injector
        gate = Gate()

        def commit(operations, _commit=self.chunks.commit):
            if not gate.arrived.is_set():
                gate.park()
            return _commit(operations)

        self.chunks.commit = commit
        start = len(injector.history)
        batches = self.objects.committer.stats()["batches"]
        with TDBServer(self.objects) as server:

            def transact(name):
                with server.session() as session:
                    tx = session.transaction()
                    tx.update(self.refs[name], name)
                    try:
                        tx.commit()
                    except BaseException as exc:
                        self.errors[name] = exc
                    else:
                        self.acknowledged.add(name)

            workers = [Worker(lambda: transact("lone"))]
            gate.wait_arrived()
            for name in self.NAMES[1:]:
                workers.append(Worker(lambda name=name: transact(name)))
                self.queue.wait_queued()
            gate.open()
            join_all(workers)
            self.batches = self.objects.committer.stats()["batches"] - batches
            assert not self.objects.committer._leader_active
        return [p for p in injector.history[start:] if p.startswith("commit.")]

    def survivors(self):
        """Reboot, reopen; the transactions whose write is there."""
        self.platform.reboot()
        chunks = ChunkStore.open(self.platform)
        assert chunks.quarantined_chunks() == {}
        objects = ObjectStore(chunks)
        seen = {name: objects.read_committed(ref) for name, ref in self.refs.items()}
        assert all(value in ("before", name) for name, value in seen.items()), seen
        with objects.transaction() as tx:  # and the store still works
            probe = tx.create(self.pid, "after")
        assert objects.read_committed(probe) == "after"
        return {name for name, value in seen.items() if value == name}


def served_batches(env):
    """The :class:`SweepDriver` workload: the script, with the crash a
    committing thread caught raised here, where the driver looks for it."""
    env.points = env.run()
    for error in env.errors.values():
        if isinstance(error, CrashError):
            raise error


@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_a_crash_at_any_commit_point_of_a_served_batch_loses_only_the_unacknowledged(
    mode, monkeypatch
):
    driver = SweepDriver(lambda: ServingCrashEnv(mode, monkeypatch))
    env = driver.build()
    served_batches(env)
    points = env.points
    assert env.acknowledged == set(env.NAMES) and env.batches == 2
    assert env.survivors() == set(env.NAMES)
    # the lone batch writes one chunk, the handed-off batch two
    assert points.count("commit.begin") == 2 and points.count("commit.write") == 3
    order = list(dict.fromkeys(points))
    sites = [
        SweepSite(name, occurrence)
        for name in order
        for occurrence in range(points.count(name))
    ]
    assert set(order) >= {
        "commit.begin", "commit.write", "commit.before_flush", "commit.after_flush",
    }
    #: what the log holds once the flush returned is committed — unless the
    #: tamper-resistant write is the commit point (direct validation)
    durable_from = "commit.after_flush" if mode == "counter" else "commit.after_tr"

    def check(env, site):
        in_lone_batch = site.occurrence == 0
        batch = {"lone"} if in_lone_batch else {"rider1", "rider2"}
        # the crashed batch is told; so is whoever queued behind it
        assert env.acknowledged == (set() if in_lone_batch else {"lone"}), site
        assert isinstance(env.errors[sorted(batch)[0]], CrashError)
        survived = env.survivors()
        expected = set(env.acknowledged)
        if order.index(site.point) >= order.index(durable_from):
            expected |= batch  # durable, whole, though nobody was told
        assert survived == expected, (site, survived)

    # every site fires: the armed run passes the points the free run passed
    assert driver.sweep(served_batches, check, sites=sites) == sites


# ---------------------------------------------------------------------------
# End-to-end stress: writers + snapshot readers, then crash recovery
# ---------------------------------------------------------------------------


class TestServerStress:
    WRITERS = 4
    TXS = 6
    READERS = 2

    def test_writers_and_readers_then_crash_recovery(self):
        platform, chunks, objects, pid = make_stack()
        refs = [ObjectRef(pid, rank) for rank in range(self.WRITERS)]
        with objects.transaction() as tx:
            for ref in refs:
                tx.create_at(ref, 0)

        errors = []
        stop = threading.Event()
        objects.committer.max_batch = 8
        committed = objects.committer.txs_committed
        with TDBServer(objects) as server:

            def writer(ref):
                try:
                    with server.session() as session:
                        for _ in range(self.TXS):
                            with session.transaction() as tx:
                                tx.update(ref, tx.get_for_update(ref) + 1)
                except BaseException as exc:
                    errors.append(exc)

            def reader():
                try:
                    with server.session() as session:
                        while not stop.is_set():
                            with session.snapshot(pid) as snapshot:
                                seen = [snapshot.get(r) for r in refs]
                                again = [snapshot.get(r) for r in refs]
                                # repeatable reads within one snapshot,
                                # values never out of a writer's range
                                assert seen == again
                                assert all(0 <= v <= self.TXS for v in seen)
                            time.sleep(0.001)
                except BaseException as exc:
                    errors.append(exc)

            writers = [
                threading.Thread(target=writer, args=(ref,)) for ref in refs
            ]
            readers = [
                threading.Thread(target=reader) for _ in range(self.READERS)
            ]
            for thread in writers + readers:
                thread.start()
            _join(writers, timeout=30.0)
            stop.set()
            _join(readers)
            assert errors == []

            # every commit is in: each counter shows all its increments
            with server.session() as session, session.snapshot(pid) as snap:
                assert [snap.get(r) for r in refs] == [self.TXS] * self.WRITERS
            stats = server.stats()
            assert (
                stats["group_commit"]["txs_committed"] - committed
                == self.WRITERS * self.TXS
            )
            assert stats["group_commit"]["fallbacks"] == 0
            assert objects.stats()["locks"]["deadlocks_broken"] == 0

        # group commits flush before acking, so a crash right after the
        # last ack must lose nothing: reboot and roll the log forward
        platform.reboot()
        recovered = ObjectStore(ChunkStore.open(platform, make_config()))
        for ref in refs:
            assert recovered.read_committed(ref) == self.TXS

    def test_transfers_never_tear_for_any_kind_of_reader(self):
        """More threads than cores and a shortened switch interval: writers
        move amounts between four accounts through the server while live
        read-only transactions, snapshot readers and a raw ``read_chunk``
        hammer run beside them.  ``_lock`` is dropped and re-taken around
        every commit's flush, so every interleaving of "appended, flushing"
        with a reader is tried; the sum of the accounts is constant for
        whoever reads with isolation (2PL, or a view of durable state),
        and the raw reader at least never sees anything but an amount."""
        import sys

        platform, chunks, objects, pid = make_stack()
        accounts, opening = 4, 100
        with objects.transaction() as tx:
            refs = [tx.create(pid, opening) for _ in range(accounts)]
        total = accounts * opening
        errors = []
        stop = threading.Event()
        objects.committer.max_batch = 4
        committed = objects.committer.txs_committed
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TDBServer(objects) as server:

                def guarded(fn):
                    def run():
                        try:
                            fn()
                        except BaseException as exc:
                            errors.append(exc)
                            stop.set()
                    return threading.Thread(target=run)

                def writer(number):
                    def work():
                        with server.session() as session:
                            for turn in range(25):
                                a, b = sorted(
                                    (refs[(number + turn) % accounts],
                                     refs[(number + turn + 1 + turn % 2) % accounts])
                                )
                                with session.transaction() as tx:
                                    tx.update(a, tx.get_for_update(a) - 1)
                                    tx.update(b, tx.get_for_update(b) + 1)
                    return work

                def live_reader():
                    with server.session() as session:
                        while not stop.is_set():
                            with session.transaction() as tx:
                                assert sum(tx.get(ref) for ref in refs) == total

                def snapshot_reader():
                    with server.session() as session:
                        while not stop.is_set():
                            with session.snapshot(pid) as snapshot:
                                assert sum(snapshot.get_many(refs)) == total

                def raw_reader():
                    while not stop.is_set():
                        for ref in refs:
                            assert isinstance(objects.read_committed(ref), int)
                            assert chunks.read_chunk(pid, ref.rank)

                writers = [guarded(writer(number)) for number in range(4)]
                readers = [
                    guarded(live_reader), guarded(live_reader),
                    guarded(snapshot_reader), guarded(raw_reader),
                ]
                for thread in writers + readers:
                    thread.start()
                _join(writers, timeout=60.0)
                stop.set()
                _join(readers, timeout=60.0)
                assert errors == []
                stats = server.stats()
                assert stats["group_commit"]["txs_committed"] - committed == 100
                assert objects.stats()["locks"]["deadlocks_broken"] == 0
        finally:
            sys.setswitchinterval(interval)
        platform.reboot()
        recovered = ObjectStore(ChunkStore.open(platform, make_config()))
        assert sum(recovered.read_committed(ref) for ref in refs) == total
