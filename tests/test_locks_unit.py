"""Lock manager unit tests (§7): modes, upgrades, release semantics,
and the stale-state regression that once broke mutual exclusion."""

import threading
import time

import pytest

from repro.bench.store_bench import _CountingCondition
from repro.errors import DeadlockError
from repro.objectstore.locks import LockManager
from repro.platform.clock import FakeClock


class TestModes:
    def test_shared_is_compatible_with_shared(self):
        locks = LockManager(timeout=0.1)
        locks.acquire_shared(1, "r")
        locks.acquire_shared(2, "r")
        assert locks.holds(1, "r") and locks.holds(2, "r")

    def test_exclusive_excludes_shared(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_shared(2, "r")

    def test_shared_excludes_exclusive(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_shared(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")

    def test_exclusive_excludes_exclusive(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")

    def test_x_subsumes_s(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "r")
        locks.acquire_shared(1, "r")  # no self-deadlock
        assert locks.holds(1, "r", exclusive=True)

    def test_reentrant_exclusive(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "r")
        locks.acquire_exclusive(1, "r")

    def test_distinct_refs_independent(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "a")
        locks.acquire_exclusive(2, "b")  # no contention


class TestUpgrade:
    def test_sole_shared_holder_upgrades(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_shared(1, "r")
        locks.acquire_exclusive(1, "r")
        assert locks.holds(1, "r", exclusive=True)

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_shared(1, "r")
        locks.acquire_shared(2, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(1, "r")

    def test_upgrade_after_other_reader_leaves(self):
        locks = LockManager(timeout=0.5)
        locks.acquire_shared(1, "r")
        locks.acquire_shared(2, "r")

        def release_later():
            time.sleep(0.05)
            locks.release_all(2)

        thread = threading.Thread(target=release_later)
        thread.start()
        locks.acquire_exclusive(1, "r")  # succeeds once tx 2 releases
        thread.join()


class TestRelease:
    def test_release_all_frees_everything(self):
        locks = LockManager(timeout=0.05)
        locks.acquire_exclusive(1, "a")
        locks.acquire_shared(1, "b")
        locks.release_all(1)
        locks.acquire_exclusive(2, "a")
        locks.acquire_exclusive(2, "b")

    def test_release_unknown_tx_is_noop(self):
        locks = LockManager()
        locks.release_all(42)

    def test_holds_after_release(self):
        locks = LockManager()
        locks.acquire_exclusive(1, "r")
        locks.release_all(1)
        assert not locks.holds(1, "r")

    def test_deadlock_counter(self):
        locks = LockManager(timeout=0.02)
        locks.acquire_exclusive(1, "r")
        for _ in range(3):
            with pytest.raises(DeadlockError):
                locks.acquire_exclusive(2, "r")
        assert locks.deadlocks_broken == 3


class TestWriterFairness:
    def test_pending_writer_blocks_new_readers(self):
        """Regression: a stream of readers must not starve a waiting
        writer — while an X request waits, *new* S grants are refused, so
        the writer runs as soon as the current readers drain."""
        locks = LockManager(timeout=2.0)
        locks.acquire_shared(1, "r")
        order = []

        def writer():
            locks.acquire_exclusive(2, "r")
            order.append("writer")
            locks.release_all(2)

        def late_reader():
            locks.acquire_shared(3, "r")
            order.append("reader")
            locks.release_all(3)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        deadline = time.time() + 1.0
        while locks.stats()["waits"] < 1 and time.time() < deadline:
            time.sleep(0.005)  # until the writer is registered waiting
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)  # give the late reader every chance to jump the queue
        assert order == []  # neither ran: reader correctly held back
        locks.release_all(1)
        # the ref now has no holder, so a reader arriving before the woken
        # writer runs would take the uncontended grant, were the writer's
        # registered state not kept
        locks.acquire_shared(4, "r")
        order.append("fresh reader")
        locks.release_all(4)
        writer_thread.join(1.0)
        reader_thread.join(1.0)
        assert order[0] == "writer"
        assert sorted(order[1:]) == ["fresh reader", "reader"]

    def test_holder_reentry_not_blocked_by_waiter(self):
        """A reader that already holds S must re-enter freely even while
        a writer waits — blocking it would deadlock both."""
        locks = LockManager(timeout=1.0)
        locks.acquire_shared(1, "r")

        def writer():
            try:
                locks.acquire_exclusive(2, "r")
            except DeadlockError:
                pass
            finally:
                locks.release_all(2)

        thread = threading.Thread(target=writer)
        thread.start()
        deadline = time.time() + 1.0
        while locks.stats()["waits"] < 1 and time.time() < deadline:
            time.sleep(0.005)
        locks.acquire_shared(1, "r")  # re-entry: must return immediately
        assert locks.holds(1, "r")
        locks.release_all(1)
        thread.join(2.0)

    def test_stats_counts_waits_and_deadlocks(self):
        locks = LockManager(timeout=0.02)
        stats = locks.stats()
        assert stats["waits"] == 0 and stats["deadlocks_broken"] == 0
        locks.acquire_exclusive(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")
        stats = locks.stats()
        assert stats["waits"] == 1
        assert stats["deadlocks_broken"] == 1
        assert stats["held_refs"] == 1
        assert stats["active_transactions"] == 1


class _SpyClock(FakeClock):
    def __init__(self):
        super().__init__()
        self.waits = 0

    def wait_on(self, condition, timeout):
        self.waits += 1
        return super().wait_on(condition, timeout)


class TestUncontendedFastPath:
    def _spied(self):
        clock = _SpyClock()
        locks = LockManager(timeout=1.0, clock=clock)
        condition = locks._condition = _CountingCondition(locks._condition)
        return locks, condition, clock

    def test_grants_and_reentry_never_touch_the_condition(self):
        locks, condition, clock = self._spied()
        locks.acquire_shared(1, "a")  # no state yet
        locks.acquire_shared(2, "a")  # compatible with the holder
        locks.acquire_exclusive(1, "b")  # no state yet
        locks.acquire_shared(3, "c")
        locks.acquire_exclusive(3, "c")  # sole holder upgrades
        for _ in range(3):  # re-entry in every mode
            locks.acquire_shared(1, "a")
            locks.acquire_shared(1, "b")
            locks.acquire_exclusive(1, "b")
            locks.acquire_exclusive(3, "c")
        assert condition.entries == 0 and clock.waits == 0
        assert locks.holds(1, "a") and locks.holds(2, "a")
        assert locks.holds(1, "b", exclusive=True)
        assert locks.holds(3, "c", exclusive=True)
        assert locks.stats()["waits"] == 0

    def test_a_conflict_still_waits_on_the_condition(self):
        locks, condition, clock = self._spied()
        locks.acquire_exclusive(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_shared(2, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")
        assert clock.waits == 2
        assert locks.stats()["waits"] == 2

    def test_released_refs_are_uncontended_again(self):
        locks, condition, clock = self._spied()
        locks.acquire_exclusive(1, "r")
        locks.acquire_shared(1, "s")
        locks.release_all(1)
        assert locks.stats()["held_refs"] == 0
        locks.acquire_exclusive(2, "r")
        locks.acquire_exclusive(2, "s")
        assert condition.entries == 0 and clock.waits == 0


class TestStaleStateRegression:
    def test_waiter_does_not_grant_on_orphaned_state(self):
        """Regression: release_all pops empty state objects; a waiter
        woken afterwards must re-fetch the live object from the dict, or
        two transactions can both 'hold' X on different objects."""
        locks = LockManager(timeout=2.0)
        locks.acquire_exclusive(1, "r")
        order = []

        def waiter():
            locks.acquire_exclusive(2, "r")
            order.append("2-granted")
            time.sleep(0.05)
            order.append("2-releasing")
            locks.release_all(2)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        locks.release_all(1)  # pops nothing (waiter pending), wakes tx 2
        thread.join(0.5)
        # now acquire with tx 3: must see tx 2's release, not a stale state
        locks.acquire_exclusive(3, "r")
        order.append("3-granted")
        assert order == ["2-granted", "2-releasing", "3-granted"]

    def test_hammer_mutual_exclusion(self):
        """Three threads hammer one ref; at most one inside at any time."""
        locks = LockManager(timeout=5.0)
        inside = []
        errors = []

        def worker(tx_id):
            for _ in range(50):
                locks.acquire_exclusive(tx_id, "hot")
                inside.append(tx_id)
                if len(inside) > 1:
                    errors.append(list(inside))
                inside.remove(tx_id)
                locks.release_all(tx_id)

        threads = [threading.Thread(target=worker, args=(t,)) for t in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
