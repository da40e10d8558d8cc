"""Injectable time source for retry backoff and lock timeouts.

Retry backoff (:mod:`repro.platform.retry`) and deadlock timeouts
(:class:`repro.objectstore.locks.LockManager`) both need a notion of
elapsed time.  Production code uses :class:`SystemClock`; tests inject a
:class:`FakeClock` so that exponential backoff and two-second lock
timeouts complete instantly — no test ever sleeps on the wall clock.
Whether a fake wait burns its timeout at once or blocks until notified is
an argument of that test double, not an option of production code.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Monotonic time source with sleep and condition-wait primitives."""

    @abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (backoff delays)."""

    @abstractmethod
    def wait_on(self, condition: "threading.Condition", timeout: float) -> bool:
        """Wait on ``condition`` (held) for up to ``timeout`` seconds.

        Returns ``True`` on a (possibly spurious) wake-up, ``False`` once
        the timeout has elapsed.  Like any condition variable, callers
        must re-check their predicate in a loop on ``True`` — a wake-up
        is permission to re-check, not a statement that the predicate
        holds.
        """


class SystemClock(Clock):
    """Real wall-clock time (monotonic)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait_on(self, condition: "threading.Condition", timeout: float) -> bool:
        return condition.wait(timeout=timeout)


class FakeClock(Clock):
    """Deterministic clock for tests: sleeping just advances ``now`` (and
    is recorded in ``sleeps``); only :meth:`sleep`, :meth:`advance` and a
    burnt wait move time.  Safe to share between threads.

    By default ``wait_on`` advances time by the full timeout and reports a
    timeout (``False``) — exactly what a single-threaded deadlock-timeout
    test wants: the waiter "waits" its whole budget without notification,
    instantly.  That is useless for interleaving tests where one thread
    must genuinely block until another notifies it (or until the test
    advances time past its deadline), so with ``blocking_waits=True``
    ``wait_on`` really blocks on the condition, but the *deadline* is
    measured in virtual time.  A real ``notify_all`` on the condition wakes
    the waiter immediately; advancing virtual time past the waiter's
    deadline makes it report a timeout.  Each real-time poll tick also
    returns ``True`` (a spurious wake-up, which the :class:`Clock` contract
    allows): CPython's timed ``Condition.wait`` can consume a
    ``notify_all`` that lands exactly as a poll tick expires, and a waiter
    that kept sleeping after that lost notification would sleep forever,
    since virtual time never moves on its own.  Returning to the caller's
    predicate loop instead makes every waiter re-check within one poll
    interval, so lost notifications cannot hang a test — outcomes still
    depend solely on virtual time and the shared-state predicates, so
    tests stay deterministic.
    """

    #: real seconds between deadline re-checks while blocked
    POLL_INTERVAL = 0.005

    def __init__(self, start: float = 0.0, blocking_waits: bool = False) -> None:
        self._now = float(start)
        self._mutex = threading.Lock()
        self._blocking_waits = blocking_waits
        self.sleeps: list = []

    def now(self) -> float:
        with self._mutex:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            with self._mutex:
                self._now += seconds
                self.sleeps.append(seconds)

    def advance(self, seconds: float) -> None:
        """Move virtual time forward (blocked waiters re-check within one
        poll)."""
        with self._mutex:
            self._now += seconds

    def wait_on(self, condition: "threading.Condition", timeout: float) -> bool:
        if not self._blocking_waits:
            self.advance(max(timeout, 0.0))
            return False
        deadline = self.now() + max(timeout, 0.0)
        condition.wait(timeout=self.POLL_INTERVAL)
        return self.now() < deadline
