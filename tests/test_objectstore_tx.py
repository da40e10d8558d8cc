"""Object store transactions (§7): 2PL, no-steal buffering, aborts,
deadlock breaking, persistence."""

import sys
import threading
import time

import pytest

from repro.chunkstore import ChunkStore
from repro.errors import DeadlockError, ObjectNotFoundError, TransactionError
from repro.objectstore import ObjectRef, ObjectStore
from repro.platform.clock import FakeClock
from tests.conftest import make_config, make_platform


@pytest.fixture
def env():
    platform = make_platform(size=8 * 1024 * 1024)
    chunks = ChunkStore.format(platform, make_config())
    objects = ObjectStore(chunks, lock_timeout=0.3)
    pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
    return platform, chunks, objects, pid


class TestBasics:
    def test_create_get(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, {"n": 1})
        with objects.transaction() as tx:
            assert tx.get(ref) == {"n": 1}

    def test_update(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, {"n": 1})
        with objects.transaction() as tx:
            tx.update(ref, {"n": 2})
        assert objects.read_committed(ref) == {"n": 2}

    def test_delete(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "victim")
        with objects.transaction() as tx:
            tx.delete(ref)
        with pytest.raises(ObjectNotFoundError):
            objects.read_committed(ref)

    def test_read_own_writes(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "v1")
            assert tx.get(ref) == "v1"
            tx.update(ref, "v2")
            assert tx.get(ref) == "v2"

    def test_read_own_delete(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "v")
        with objects.transaction() as tx:
            tx.delete(ref)
            with pytest.raises(ObjectNotFoundError):
                tx.get(ref)

    def test_exists(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "v")
        with objects.transaction() as tx:
            assert tx.exists(ref)
            assert not tx.exists(ObjectRef(pid, 999))

    def test_missing_object(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            with pytest.raises(ObjectNotFoundError):
                tx.get(ObjectRef(pid, 42))

    def test_create_at_root(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            tx.create_at(objects.root_ref(pid), {"root": True})
        assert objects.read_committed(objects.root_ref(pid)) == {"root": True}

    def test_cross_partition_transaction(self, env):
        _, _, objects, pid = env
        pid2 = objects.create_partition(cipher_name="null", hash_name="sha1")
        with objects.transaction() as tx:
            r1 = tx.create(pid, "in p1")
            r2 = tx.create(pid2, "in p2")
        assert objects.read_committed(r1) == "in p1"
        assert objects.read_committed(r2) == "in p2"

    def test_completed_transaction_rejects_use(self, env):
        _, _, objects, pid = env
        tx = objects.transaction()
        ref = tx.create(pid, "v")
        tx.commit()
        with pytest.raises(TransactionError):
            tx.get(ref)


class TestAtomicityAndAborts:
    def test_abort_discards_all(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "keep")
        try:
            with objects.transaction() as tx:
                tx.update(ref, "discard")
                tx.create(pid, "also discard")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert objects.read_committed(ref) == "keep"

    def test_abort_releases_locks(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "v")
        tx1 = objects.transaction()
        tx1.update(ref, "locked")
        tx1.abort()
        with objects.transaction() as tx2:
            tx2.update(ref, "free again")
        assert objects.read_committed(ref) == "free again"

    def test_multi_object_commit_is_atomic_across_crash(self, env):
        from repro.errors import CrashError

        platform, chunks, objects, pid = env
        with objects.transaction() as tx:
            a = tx.create(pid, {"balance": 100})
            b = tx.create(pid, {"balance": 0})
        platform.injector.arm("commit.before_flush")
        with pytest.raises(CrashError):
            with objects.transaction() as tx:
                tx.update(a, {"balance": 50})
                tx.update(b, {"balance": 50})
        platform.injector.disarm()
        platform.reboot()
        chunks2 = ChunkStore.open(platform)
        objects2 = ObjectStore(chunks2)
        # the transfer happened entirely or not at all
        assert objects2.read_committed(a) == {"balance": 100}
        assert objects2.read_committed(b) == {"balance": 0}

    def test_no_steal_nothing_persists_before_commit(self, env):
        platform, chunks, objects, pid = env
        tx = objects.transaction()
        tx.create(pid, "uncommitted" * 10)
        stats_before = platform.untrusted.stats.bytes_written
        # nothing was written to the untrusted store by the buffered create
        assert platform.untrusted.stats.bytes_written == stats_before
        tx.abort()

    def test_abort_returns_allocated_ranks(self, env):
        _, chunks, objects, pid = env
        tx = objects.transaction()
        ref = tx.create(pid, "v")
        tx.abort()
        with objects.transaction() as tx2:
            ref2 = tx2.create(pid, "w")
        assert ref2.rank == ref.rank  # the rank was recycled


class TestConcurrency:
    def test_shared_readers_coexist(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "shared")
        results = []

        def reader():
            with objects.transaction() as tx:
                results.append(tx.get(ref))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == ["shared"] * 4

    def test_writer_blocks_writer(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, 0)
        order = []
        tx1 = objects.transaction()
        tx1.update(ref, 1)

        def second_writer():
            with objects.transaction() as tx2:
                tx2.update(ref, 2)
                order.append("tx2-wrote")

        thread = threading.Thread(target=second_writer)
        thread.start()
        order.append("tx1-committing")
        tx1.commit()
        thread.join()
        assert order == ["tx1-committing", "tx2-wrote"]
        assert objects.read_committed(ref) == 2

    def test_deadlock_broken_by_timeout(self, env):
        """On virtual time the two crossed lock waits expire at distinct
        instants (tx2 at vt=10, tx1 at vt=15), so which one breaks the
        deadlock does not depend on wall-clock load."""
        _, _, objects, pid = env
        clock = FakeClock(blocking_waits=True)
        objects.locks.clock = clock
        objects.locks.timeout = 10.0
        with objects.transaction() as tx:
            a = tx.create(pid, "a")
            b = tx.create(pid, "b")
        tx1 = objects.transaction()
        tx2 = objects.transaction()
        tx1.update(a, "a1")
        tx2.update(b, "b2")
        outcome = {}

        def cross(name, tx, ref, value):
            try:
                tx.update(ref, value)
                outcome[name] = "ok"
                tx.commit()
            except DeadlockError:
                outcome[name] = "deadlock"
                tx.abort()

        def wait_for_waiters(count):
            deadline = time.monotonic() + 5.0
            while objects.locks.stats()["waits"] < count:
                assert time.monotonic() < deadline
                time.sleep(0.002)

        waits = objects.locks.stats()["waits"]
        second = threading.Thread(target=cross, args=("tx2", tx2, a, "a2"))
        second.start()
        wait_for_waiters(waits + 1)  # tx2 blocked on a: deadline vt=10
        clock.advance(5.0)
        first = threading.Thread(target=cross, args=("tx1", tx1, b, "b1"))
        first.start()
        wait_for_waiters(waits + 2)  # tx1 blocked on b: deadline vt=15
        clock.advance(5.0)  # vt=10: only tx2 expires; its abort frees b
        second.join(timeout=5.0)
        first.join(timeout=5.0)
        assert outcome == {"tx2": "deadlock", "tx1": "ok"}
        assert objects.read_committed(a) == "a1"
        assert objects.read_committed(b) == "b1"

    def test_serializable_counter_increments(self, env):
        """Concurrent increments through get_for_update never lose
        updates (upgrade deadlocks abort and retry)."""
        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, 0)

        def increment():
            for _ in range(10):
                while True:
                    try:
                        with objects.transaction() as tx:
                            tx.update(ref, tx.get_for_update(ref) + 1)
                        break
                    except DeadlockError:
                        continue

        threads = [threading.Thread(target=increment) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert objects.read_committed(ref) == 30


class _ManagerSpy:
    """Records every acquisition a transaction asks the lock manager for."""

    def __init__(self, locks):
        self.calls = []
        for mode in ("shared", "exclusive"):
            setattr(locks, f"acquire_{mode}", self._recording(mode, getattr(locks, f"acquire_{mode}")))

    def _recording(self, mode, acquire):
        def record(tx_id, ref):
            self.calls.append((mode, ref))
            acquire(tx_id, ref)

        return record


class TestTransactionLockTable:
    def _two_objects(self, objects, pid):
        with objects.transaction() as tx:
            return tx.create(pid, 1), tx.create(pid, 2)

    def test_a_held_ref_never_reaches_the_manager_again(self, env):
        _, _, objects, pid = env
        a, b = self._two_objects(objects, pid)
        spy = _ManagerSpy(objects.locks)
        with objects.transaction() as tx:
            for _ in range(3):
                assert tx.get(a) == 1
                assert tx.get_many([a]) == [1]
                assert tx.exists(a)
            tx.update(b, 20)  # X on b
            tx.update(b, 21)
            assert tx.get(b) == 21 and tx.get_for_update(b) == 21
            tx.delete(b)
        assert spy.calls == [("shared", a), ("exclusive", b)]

    def test_an_upgrade_goes_through_the_manager(self, env):
        _, _, objects, pid = env
        a, _ = self._two_objects(objects, pid)
        spy = _ManagerSpy(objects.locks)
        tx = objects.transaction()
        assert tx.get(a) == 1
        assert tx.get_for_update(a) == 1
        assert objects.locks.holds(tx.tx_id, a, exclusive=True)
        tx.update(a, 10)  # already exclusive
        assert spy.calls == [("shared", a), ("exclusive", a)]
        tx.commit()
        assert objects.read_committed(a) == 10

    def test_commit_and_abort_release_everything(self, env):
        _, _, objects, pid = env
        a, b = self._two_objects(objects, pid)
        for finish in ("commit", "abort"):
            tx = objects.transaction()
            tx.get(a)
            tx.update(b, 5)
            c = tx.create(pid, "new")
            getattr(tx, finish)()
            assert objects.locks.stats()["held_refs"] == 0
            assert objects.locks.stats()["active_transactions"] == 0
            with objects.transaction() as other:  # X on each, no waiting
                for ref in (a, b):
                    other.update(ref, other.get_for_update(ref))
                if finish == "commit":
                    other.delete(c)
        assert objects.locks.stats()["waits"] == 0

    def test_mixed_mode_transaction_hammer(self, env):
        """Writer threads increment counters through get_for_update while
        reader threads read each counter twice in one transaction: every
        pair agrees, and the final counts equal the committed increments.
        No transaction holds one lock while waiting for another, so none
        can deadlock."""
        _, _, objects, pid = env
        objects.locks.timeout = 10.0
        with objects.transaction() as tx:
            counters = [tx.create(pid, 0) for _ in range(3)]
        committed = [0] * len(counters)
        guard = threading.Lock()
        torn = []

        def writer(seed):
            for round_no in range(30):
                slot = (seed + round_no) % len(counters)
                with objects.transaction() as tx:
                    tx.update(counters[slot], tx.get_for_update(counters[slot]) + 1)
                with guard:
                    committed[slot] += 1

        def reader(seed):
            for round_no in range(60):
                ref = counters[(seed + round_no) % len(counters)]
                with objects.transaction() as tx:
                    first = tx.get(ref)
                    time.sleep(0)  # let a writer try to slip in
                    if tx.get(ref) != first:
                        torn.append(ref)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        threads += [threading.Thread(target=reader, args=(t,)) for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside every lock decision
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not torn
        assert [objects.read_committed(ref) for ref in counters] == committed
        assert sum(committed) == 90
        stats = objects.locks.stats()
        assert stats["held_refs"] == 0 and stats["deadlocks_broken"] == 0


class TestPersistence:
    def test_objects_survive_reopen(self, env):
        platform, chunks, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, {"durable": [1, 2, 3]})
        chunks.close()
        platform.reboot()
        chunks2 = ChunkStore.open(platform)
        objects2 = ObjectStore(chunks2)
        assert objects2.read_committed(ref) == {"durable": [1, 2, 3]}

    def test_cache_hit_avoids_chunk_read(self, env):
        platform, chunks, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "cached")
        platform.untrusted.stats.reset()
        objects.read_committed(ref)  # cache hit from the commit
        assert platform.untrusted.stats.reads == 0


class TestStats:
    def test_stats_exposes_lock_tallies(self, env):
        _, _, objects, pid = env
        with objects.transaction() as tx:
            tx.create(pid, "counted")
        locks = objects.locks.stats()
        assert locks["waits"] == 0
        assert locks["deadlocks_broken"] == 0
        assert locks["active_transactions"] == 0  # released at commit

    def test_deadlock_surfaces_in_stats_and_event_log(self, env):
        from repro import obs

        _, _, objects, pid = env
        with objects.transaction() as tx:
            ref = tx.create(pid, "contended")
        mark = obs.events.mark()
        tx1 = objects.transaction()
        tx1.update(ref, "held")
        tx2 = objects.transaction()
        with pytest.raises(DeadlockError):
            tx2.update(ref, "blocked")
        tx2.abort()
        tx1.abort()
        locks = objects.locks.stats()
        assert locks["waits"] >= 1
        assert locks["deadlocks_broken"] == 1
        broken = [
            e for e in obs.events.since(mark) if e.kind == "deadlock_broken"
        ]
        assert len(broken) == 1
        assert broken[0].fields["mode"] == "exclusive"

    def test_abort_emits_event(self, env):
        from repro import obs

        _, _, objects, pid = env
        mark = obs.events.mark()
        tx = objects.transaction()
        tx.create(pid, "doomed")
        tx.abort()
        aborts = [e for e in obs.events.since(mark) if e.kind == "tx_abort"]
        assert len(aborts) == 1
        assert aborts[0].fields["writes"] == 1


class TestAbortErrorHandling:
    def test_abort_records_swallowed_store_error(self, env, monkeypatch):
        """A typed store error while returning an aborted tx's allocations
        must not mask the abort — but it must be recorded, not dropped."""
        from repro import obs
        from repro.errors import ChunkStoreError

        _, chunks, objects, pid = env
        tx = objects.transaction()
        tx.create(pid, "doomed")
        state = chunks._state(pid)

        def boom(rank):
            raise ChunkStoreError("cancel_pending exploded")

        monkeypatch.setattr(state, "cancel_pending", boom)
        mark = obs.events.mark()
        tx.abort()  # must not raise
        swallowed = [
            e for e in obs.events.since(mark) if e.kind == "swallowed_error"
        ]
        assert len(swallowed) == 1
        assert swallowed[0].fields["where"] == (
            "transaction.abort.cancel_pending"
        )
        assert swallowed[0].fields["error"] == "ChunkStoreError"

    def test_abort_propagates_foreign_errors(self, env, monkeypatch):
        """Anything outside the store's error hierarchy is a genuine bug
        and must surface, not vanish into the abort path."""
        _, chunks, objects, pid = env
        tx = objects.transaction()
        tx.create(pid, "doomed")
        state = chunks._state(pid)

        def boom(rank):
            raise RuntimeError("not a store error")

        monkeypatch.setattr(state, "cancel_pending", boom)
        with pytest.raises(RuntimeError):
            tx.abort()
