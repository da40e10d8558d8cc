"""The concurrent serving layer: group commit, MVCC snapshots, sessions.

Three tiers:

* deterministic :class:`GroupCommitter` unit tests over a fake chunk
  store (a gate blocks the leader so batches form on command);
* MVCC snapshot semantics over a real store (isolation, staleness,
  refcounting, cleaner pinning);
* an end-to-end stress test — N writer sessions and M snapshot readers
  hammering one :class:`TDBServer` — with invariants checked inside
  every snapshot, after the last commit, and again after crash recovery.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chunkstore import ChunkStore
from repro.errors import ChunkStoreError, ObjectNotFoundError
from repro.objectstore import ObjectStore
from repro.objectstore.pickling import ObjectRef
from repro.server import GroupCommitter, TDBServer
from tests.conftest import make_config, make_platform


def make_stack():
    platform = make_platform()
    chunks = ChunkStore.format(platform, make_config())
    objects = ObjectStore(chunks)
    pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
    return platform, chunks, objects, pid


def _join(threads, timeout=10.0):
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "worker thread wedged"


# ---------------------------------------------------------------------------
# GroupCommitter over a fake chunk store (deterministic batching)
# ---------------------------------------------------------------------------


class FakeChunks:
    """Records commits; optionally blocks the leader or rejects batches."""

    def __init__(self):
        self.commits = []
        self.gate = None  # when set, commit() blocks until the event fires
        self.reject_merged = False

    def commit(self, ops):
        if self.gate is not None:
            assert self.gate.wait(5.0), "test gate never opened"
        ops = list(ops)
        if self.reject_merged and len(ops) > 1:
            raise ChunkStoreError("merged preflight rejected")
        if any(op == "poison" for op in ops):
            raise ChunkStoreError("poison op")
        self.commits.append(ops)


class TestGroupCommitter:
    def test_single_commit_degenerates_to_plain_path(self):
        fake = FakeChunks()
        committer = GroupCommitter(fake)
        committer.commit(["a", "b"])
        assert fake.commits == [["a", "b"]]
        stats = committer.stats()
        assert stats["batches"] == 1
        assert stats["txs_committed"] == 1
        assert stats["mean_batch_size"] == 1.0

    def test_commits_queued_behind_leader_merge_into_one_batch(self):
        fake = FakeChunks()
        fake.gate = threading.Event()
        committer = GroupCommitter(fake)

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
        # first batch is the leader alone (it drained before followers
        # arrived); the second merges both followers into one commit
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
        committer = GroupCommitter(fake)

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
        committer = GroupCommitter(fake)
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

    def test_foreign_error_fails_the_whole_batch(self):
        class DyingChunks:
            def commit(self, ops):
                raise RuntimeError("device died")

        committer = GroupCommitter(DyingChunks())
        with pytest.raises(RuntimeError, match="device died"):
            committer.commit(["a"])
        assert committer.stats()["batches"] == 0


# ---------------------------------------------------------------------------
# MVCC snapshot semantics (real store)
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_snapshot_is_immune_to_later_commits(self):
        _, _, objects, pid = make_stack()
        ref = ObjectRef(pid, 0)
        with objects.transaction() as tx:
            tx.create_at(ref, "v0")
        with TDBServer(objects) as server, server.session() as session:
            old = session.snapshot(pid)
            assert old.get(ref) == "v0"
            with session.transaction() as tx:
                tx.update(ref, "v1")
            # the held snapshot still serves the state it froze...
            assert old.get(ref) == "v0"
            # ...while a fresh snapshot sees the new commit
            with session.snapshot(pid) as new:
                assert new.get(ref) == "v1"
                assert new is not old
                assert new.version > old.version
            old.release()

    def test_concurrent_readers_share_one_snapshot(self):
        _, chunks, objects, pid = make_stack()
        with objects.transaction() as tx:
            tx.create_at(ObjectRef(pid, 0), 1)
        with TDBServer(objects) as server, server.session() as session:
            first = session.snapshot(pid)
            second = session.snapshot(pid)
            assert first is second  # refcounted share, one chunk view
            assert chunks.snapshot_pins == 1
            first.release()
            assert chunks.snapshot_pins == 1  # still held by `second`
            second.release()
            # unreleased but non-stale snapshots stay current; a commit
            # would invalidate and dispose them
            with session.transaction() as tx:
                tx.update(ObjectRef(pid, 0), 2)
            assert chunks.snapshot_pins == 0

    def test_snapshot_built_across_a_commit_is_never_shared(self):
        """Regression (benchmarks/e2e README, finding 5): a snapshot built
        while a commit was in flight was installed as current *after* that
        commit's invalidation, so the committer's next acquire was handed
        a view from before its own commit."""
        _, chunks, objects, pid = make_stack()
        ref = ObjectRef(pid, 0)
        with objects.transaction() as tx:
            tx.create_at(ref, "v0")
        with TDBServer(objects) as server, server.session() as session:
            manager = server.snapshots
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
            with session.transaction() as tx:
                tx.update(ref, "v1")  # commits and invalidates pid
            resume.set()
            _join([thread])
            assert seen == ["v0"]  # acquired before the commit: still valid
            with session.snapshot(pid) as snapshot:
                assert snapshot.get(ref) == "v1"
            assert manager.stats()["created"] == 2
        assert chunks.snapshot_pins == 0

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
        with TDBServer(objects) as server, server.session() as session:
            with session.snapshot(pid) as snapshot:
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
        with TDBServer(objects) as server, server.session() as session:
            with session.snapshot(pid) as snapshot:
                with pytest.raises(ObjectNotFoundError):
                    snapshot.get(ObjectRef(pid, 7))
                with pytest.raises(ObjectNotFoundError):
                    snapshot.get(ObjectRef(pid + 1, 0))  # wrong partition
                assert not snapshot.exists(ObjectRef(pid, 7))
                assert snapshot.exists(ObjectRef(pid, 0))

    def test_open_view_defers_the_cleaner(self):
        from repro.chunkstore.cleaner import Cleaner

        _, chunks, objects, pid = make_stack()
        with objects.transaction() as tx:
            tx.create_at(ObjectRef(pid, 0), "x")
        view = chunks.open_snapshot_view(pid)
        try:
            assert chunks.snapshot_pins == 1
            assert Cleaner(chunks).clean_one() is None  # deferred, not run
        finally:
            chunks.close_snapshot_view(view)
            chunks.close_snapshot_view(view)  # idempotent
        assert chunks.snapshot_pins == 0

    def test_close_detaches_the_commit_seam(self):
        _, _, objects, pid = make_stack()
        server = TDBServer(objects)
        assert objects.committer is server.committer
        server.close()
        assert objects.committer is None
        # plain transactions still work after the server is gone
        with objects.transaction() as tx:
            tx.create_at(ObjectRef(pid, 0), "after")
        assert objects.read_committed(ObjectRef(pid, 0)) == "after"

    def test_closed_server_and_session_refuse_work(self):
        _, _, objects, _ = make_stack()
        server = TDBServer(objects)
        session = server.session()
        session.close()
        with pytest.raises(RuntimeError):
            session.transaction()
        server.close()
        with pytest.raises(RuntimeError):
            server.session()


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
        with TDBServer(objects, max_batch=8) as server:

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
                stats["group_commit"]["txs_committed"]
                == self.WRITERS * self.TXS
            )
            assert stats["group_commit"]["fallbacks"] == 0
            assert stats["objectstore"]["locks"]["deadlocks_broken"] == 0

        # group commits flush before acking, so a crash right after the
        # last ack must lose nothing: reboot and roll the log forward
        platform.reboot()
        recovered = ObjectStore(ChunkStore.open(platform, make_config()))
        for ref in refs:
            assert recovered.read_committed(ref) == self.TXS
