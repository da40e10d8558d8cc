"""Lock-manager concurrency suite: timeout/notify interleavings.

The centerpiece is the spurious-deadlock regression: an exclusive waiter
that times out must wake shared requesters blocked solely on the
writer-fairness gate (``waiters > 0``), or they sleep until their own
deadline and raise :class:`DeadlockError` on a lock that is actually
grantable.  Two legs cover it:

* a single-threaded white-box test that counts the ``notify_all`` the
  timeout path must issue — deterministic, no scheduling involved;
* multi-threaded liveness/interleaving tests driven by
  ``FakeClock(blocking_waits=True)``: waiters really block, and
  only explicit ``advance`` calls move their deadlines (poll ticks
  surface as spurious wake-ups, which the ``Clock`` contract allows, so
  a waiter is never stranded by a lost notification).
"""

import threading
import time

import pytest

from repro.errors import DeadlockError
from repro.objectstore.locks import LockManager
from repro.platform.clock import FakeClock


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestSpuriousDeadlockRegression:
    def test_exclusive_timeout_issues_wakeup(self):
        """Regression (white-box, deterministic): the timeout path of
        ``acquire_exclusive`` must ``notify_all`` when it abandons its
        request.  Before the fix it notified nobody, so a shared
        requester blocked solely on the writer-fairness gate slept to
        its own deadline and raised a spurious :class:`DeadlockError`."""
        clock = FakeClock()
        locks = LockManager(timeout=2.0, clock=clock)
        locks.acquire_shared(1, "r")
        notifications = []
        original_notify_all = locks._condition.notify_all

        def counting_notify_all():
            notifications.append(True)
            original_notify_all()

        locks._condition.notify_all = counting_notify_all
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")
        assert notifications, (
            "timed-out exclusive waiter failed to notify: shared "
            "requesters blocked on the fairness gate would sleep to "
            "their own deadline and raise a spurious DeadlockError"
        )

    def test_exclusive_timeout_wakes_blocked_shared_requester(self):
        """Regression: tx1 holds S; tx2's X request times out; tx3's S
        request — blocked solely on ``waiters > 0`` — must be granted as
        soon as the X waiter abandons, not deadlock at its own deadline."""
        clock = FakeClock(blocking_waits=True)
        locks = LockManager(timeout=10.0, clock=clock)
        locks.acquire_shared(1, "r")  # held for the whole test

        results = {}

        def writer():
            try:
                locks.acquire_exclusive(2, "r")
                results["writer"] = "granted"
            except DeadlockError:
                results["writer"] = "deadlock"

        def reader():
            try:
                locks.acquire_shared(3, "r")
                results["reader"] = "granted"
            except DeadlockError:
                results["reader"] = "deadlock"

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 1)
        clock.advance(5.0)  # writer deadline at vt=10, reader's will be 15

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 2)

        clock.advance(5.0)  # vt=10: the writer times out — and must notify
        writer_thread.join(timeout=5.0)
        assert results.get("writer") == "deadlock"
        # The fix: the reader is granted promptly (vt is still < its
        # deadline of 15, so this cannot be the reader's own timeout).
        # Before the fix it slept here until vt=15 — i.e. forever, since
        # nothing advances the clock again — and the join times out.
        reader_thread.join(timeout=5.0)
        assert not reader_thread.is_alive(), (
            "shared requester still asleep after the exclusive waiter "
            "abandoned — timeout path failed to notify"
        )
        assert results.get("reader") == "granted"
        assert locks.holds(3, "r")
        assert locks.stats()["deadlocks_broken"] == 1

    def test_timeout_with_surviving_waiter_keeps_fairness_gate_closed(self):
        """When one of two X waiters times out, the notify must not let a
        shared requester jump the surviving waiter's queue position."""
        clock = FakeClock(blocking_waits=True)
        locks = LockManager(timeout=10.0, clock=clock)
        locks.acquire_shared(1, "r")

        outcomes = {}

        def writer(tx_id):
            try:
                locks.acquire_exclusive(tx_id, "r")
                outcomes[tx_id] = "granted"
                locks.release_all(tx_id)
            except DeadlockError:
                outcomes[tx_id] = "deadlock"

        def reader():
            locks.acquire_shared(4, "r")
            outcomes["reader"] = "granted"

        first = threading.Thread(target=writer, args=(2,))
        first.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 1)
        clock.advance(6.0)  # tx2 deadline vt=10; tx3's will be 16

        second = threading.Thread(target=writer, args=(3,))
        second.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 2)

        shared = threading.Thread(target=reader)
        shared.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 3)

        clock.advance(4.0)  # vt=10: tx2 times out, tx3 still waiting
        first.join(timeout=5.0)
        assert outcomes.get(2) == "deadlock"
        time.sleep(0.05)  # give the reader every chance to misbehave
        assert outcomes.get("reader") is None  # gate still closed: tx3 waits

        locks.release_all(1)  # tx3 gets X, then the reader follows
        second.join(timeout=5.0)
        shared.join(timeout=5.0)
        assert outcomes.get(3) == "granted"
        assert outcomes.get("reader") == "granted"

    def test_fakeclock_timeout_leaves_waiter_count_clean(self):
        """Single-threaded FakeClock leg: a timed-out X request must not
        leave a stale ``waiters`` registration behind."""
        clock = FakeClock()
        locks = LockManager(timeout=2.0, clock=clock)
        locks.acquire_shared(1, "r")
        with pytest.raises(DeadlockError):
            locks.acquire_exclusive(2, "r")
        # the gate is open again: a new shared grant must not block
        locks.acquire_shared(3, "r")
        assert locks.holds(3, "r")


class TestNotifyInterleavings:
    def test_release_during_exclusive_wait_grants_before_deadline(self):
        clock = FakeClock(blocking_waits=True)
        locks = LockManager(timeout=10.0, clock=clock)
        locks.acquire_shared(1, "r")
        granted = threading.Event()

        def writer():
            locks.acquire_exclusive(2, "r")
            granted.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 1)
        locks.release_all(1)  # real notify, virtual clock untouched
        assert granted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert locks.holds(2, "r", exclusive=True)

    def test_virtual_deadline_applies_without_notification(self):
        clock = FakeClock(blocking_waits=True)
        locks = LockManager(timeout=3.0, clock=clock)
        locks.acquire_exclusive(1, "r")
        outcome = {}

        def contender():
            try:
                locks.acquire_exclusive(2, "r")
                outcome["result"] = "granted"
            except DeadlockError:
                outcome["result"] = "deadlock"

        thread = threading.Thread(target=contender)
        thread.start()
        assert _wait_for(lambda: locks.stats()["waits"] == 1)
        time.sleep(0.05)  # real time passes; virtual deadline untouched
        assert thread.is_alive()
        clock.advance(3.0)
        thread.join(timeout=5.0)
        assert outcome.get("result") == "deadlock"

    def test_mixed_mode_hammer_mutual_exclusion(self):
        """Threads hammer one ref in mixed S/X modes; a writer inside the
        critical section must never overlap any other holder."""
        locks = LockManager(timeout=10.0)
        guard = threading.Lock()
        readers_in = [0]
        writers_in = [0]
        violations = []

        def worker(tx_id):
            for round_no in range(40):
                if (tx_id + round_no) % 3 == 0:
                    locks.acquire_exclusive(tx_id, "hot")
                    with guard:
                        if readers_in[0] or writers_in[0]:
                            violations.append((tx_id, "x-overlap"))
                        writers_in[0] += 1
                    with guard:
                        writers_in[0] -= 1
                else:
                    locks.acquire_shared(tx_id, "hot")
                    with guard:
                        if writers_in[0]:
                            violations.append((tx_id, "s-under-x"))
                        readers_in[0] += 1
                    with guard:
                        readers_in[0] -= 1
                locks.release_all(tx_id)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(1, 6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not violations
        stats = locks.stats()
        assert stats["held_refs"] == 0
        assert stats["active_transactions"] == 0
