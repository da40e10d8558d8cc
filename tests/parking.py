"""A deterministic mid-flush window: test doubles, no sleeps, no timing.

* :class:`ParkingDevice` — an in-memory untrusted store whose next
  ``flush()`` (or next read) parks on a :class:`Gate` until the test opens
  it (and every flush raises ``flush_error`` while the test has one set);
  a parked flush that succeeds says so on its gate (``wait_returned``).
  While a commit's
  flush is parked the test *is* inside the window in which
  ``ChunkStore._lock`` is dropped.
* :class:`SpyLock` — wraps one of the store's two locks and releases a
  semaphore each time a thread finds it taken and settles down to wait, so
  "B is now blocked on the writers' lock" is an event the test waits for,
  not a guess after a sleep.
* :class:`QueueSpy` — the same for the group committer's queue: released
  once per follower that settles down to wait, and counting how often each
  entry is woken.
* :class:`SignallingClock` — a blocking :class:`FakeClock` that does the
  same for the object store's lock manager (its waits go through the
  platform clock), and turns retry backoff into virtual time.

Every wait below carries a long timeout as a backstop against a wedged
test; none of them is ever expected to expire.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.chunkstore import ChunkStore
from repro.objectstore import group_commit
from repro.platform import (
    CrashInjector,
    MemoryArchivalStore,
    MemoryUntrustedStore,
    SecretStore,
    TamperResistantCounter,
    TamperResistantStore,
    TrustedPlatform,
)
from repro.platform.clock import FakeClock

BACKSTOP = 30.0


class Gate:
    """One parked device call: ``arrived`` is set by the calling thread
    once it is parked (after running ``on_arrival`` there), ``open()`` lets
    it go on."""

    def __init__(self, on_arrival: Optional[Callable[[], None]] = None) -> None:
        self.arrived = threading.Event()
        self._opened = threading.Event()
        #: set by a parked flush once it has returned
        self.returned = threading.Event()
        self.on_arrival = on_arrival

    def wait_arrived(self) -> None:
        assert self.arrived.wait(BACKSTOP), "nothing ever reached the gate"

    def wait_arrived_unless(self, worker: "Worker") -> bool:
        """Return once a thread is parked here — ``True`` — or once
        ``worker``, whose thread was to get here, has finished without it:
        it failed on the way (``False``)."""
        for _ in range(int(BACKSTOP / 0.001)):
            if self.arrived.wait(0.001):
                return True
            if worker.finished:
                return self.arrived.is_set()
        raise AssertionError("nothing reached the gate, and the worker still runs")

    def open(self) -> None:
        self._opened.set()

    def wait_returned(self) -> None:
        assert self.returned.wait(BACKSTOP), "the parked flush never returned"

    def park(self) -> None:
        """Called by the thread to be parked."""
        if self.on_arrival is not None:
            self.on_arrival()
        self.arrived.set()
        assert self._opened.wait(BACKSTOP), "the test never opened the gate"


class ParkingDevice(MemoryUntrustedStore):
    """Memory device whose flushes and reads park on the gates queued for
    them (one gate per call, in order); with no gate queued it is a plain
    memory device.  The park is outside the I/O mutex, as the
    ``UntrustedStore`` contract asks of anything slow."""

    def __init__(self, size: int, injector: CrashInjector) -> None:
        super().__init__(size, injector)
        self._flush_gates: Deque[Gate] = deque()
        self._read_gates: Deque[Gate] = deque()
        #: raised by every flush while set (a device that stays dead, so
        #: the retrier gives up)
        self.flush_error: Optional[BaseException] = None

    def park_next_flush(self, on_arrival=None) -> Gate:
        gate = Gate(on_arrival)
        self._flush_gates.append(gate)
        return gate

    def park_next_read(self) -> Gate:
        gate = Gate()
        self._read_gates.append(gate)
        return gate

    def flush(self) -> None:
        gate = self._flush_gates.popleft() if self._flush_gates else None
        if gate is not None:
            gate.park()
        if self.flush_error is not None:
            self.stats.io_errors += 1
            raise self.flush_error
        super().flush()
        if gate is not None:
            gate.returned.set()

    def read(self, location: int, size: int) -> bytes:
        if self._read_gates:
            self._read_gates.popleft().park()
        return super().read(location, size)

    def read_many(self, extents):
        if self._read_gates:
            self._read_gates.popleft().park()
        return super().read_many(extents)


class SpyLock:
    """A re-entrant lock that tells the test when somebody has to wait for
    it: ``blocked`` is released once per acquisition that found the lock
    taken (just before that thread blocks on it)."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.blocked = threading.Semaphore(0)
        self.contended = 0

    def acquire(self, blocking: bool = True) -> bool:
        if self._lock.acquire(blocking=False):
            return True
        if not blocking:
            return False
        self.contended += 1
        self.blocked.release()
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def _is_owned(self) -> bool:
        return self._lock._is_owned()

    def __enter__(self) -> "SpyLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._lock.release()

    def wait_blocked(self, threads: int = 1) -> None:
        """Return once ``threads`` more acquisitions are waiting."""
        for _ in range(threads):
            assert self.blocked.acquire(timeout=BACKSTOP), (
                "nobody came to wait for the lock"
            )

    def held_by_someone_else(self) -> bool:
        """Can the calling thread *not* take the lock right now?"""
        if self._lock.acquire(blocking=False):
            self._lock.release()
            return False
        return True


class QueueSpy:
    """Spies on a :class:`GroupCommitter`'s entries (install with
    :meth:`install`): ``waiting`` is released each time a committer has
    queued its entry and is about to wait on it, ``entries`` holds every
    entry in arrival order and ``entry.wake.sets`` how often it was woken."""

    def __init__(self) -> None:
        self.waiting = threading.Semaphore(0)
        self.entries: list = []

    def install(self, monkeypatch) -> "QueueSpy":
        spy = self

        class CountedEvent(threading.Event):
            def __init__(self) -> None:
                super().__init__()
                self.sets = 0

            def set(self) -> None:
                self.sets += 1
                super().set()

            def wait(self, timeout=None) -> bool:
                spy.waiting.release()
                return super().wait(BACKSTOP)

        class SpiedEntry(group_commit._Entry):
            def __init__(self, ops) -> None:
                super().__init__(ops)
                self.wake = CountedEvent()
                self.thread = threading.get_ident()
                spy.entries.append(self)

        monkeypatch.setattr(group_commit, "_Entry", SpiedEntry)
        return self

    def wait_queued(self, followers: int = 1) -> None:
        """Return once ``followers`` more committers are queued and waiting."""
        for _ in range(followers):
            assert self.waiting.acquire(timeout=BACKSTOP), "nobody queued up"


class SignallingClock(FakeClock):
    """Blocking fake clock: a lock-manager wait really blocks (and never
    times out, virtual time standing still), and ``waiting`` is released
    each time a thread enters one."""

    def __init__(self) -> None:
        super().__init__(blocking_waits=True)
        self.waiting = threading.Semaphore(0)

    def wait_on(self, condition, timeout: float) -> bool:
        self.waiting.release()
        return super().wait_on(condition, timeout)

    def wait_waiting(self) -> None:
        assert self.waiting.acquire(timeout=BACKSTOP), (
            "nobody came to wait on an object lock"
        )


def parking_platform(
    size: int = 4 * 1024 * 1024, injector: Optional[CrashInjector] = None
) -> TrustedPlatform:
    """An in-memory platform over a :class:`ParkingDevice` and a
    :class:`SignallingClock`."""
    injector = injector or CrashInjector()
    return TrustedPlatform(
        secret_store=SecretStore(bytes(range(SecretStore.SIZE))),
        tamper_resistant=TamperResistantStore(),
        counter=TamperResistantCounter(),
        untrusted=ParkingDevice(size, injector),
        archival=MemoryArchivalStore(),
        injector=injector,
        clock=SignallingClock(),
    )


def spy_on_locks(store: ChunkStore) -> None:
    """Put a :class:`SpyLock` around both of ``store``'s locks."""
    store._writers = SpyLock(store._writers)
    store._lock = SpyLock(store._lock)


class Worker(threading.Thread):
    """Runs ``fn`` on a thread, keeping what it returned or raised."""

    def __init__(self, fn: Callable[[], object]) -> None:
        super().__init__(daemon=True)
        self._fn = fn
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.finished = False
        self.start()

    def run(self) -> None:
        try:
            self.result = self._fn()
        except BaseException as exc:  # handed to the test by done()
            self.error = exc
        self.finished = True

    def done(self) -> object:
        """Join; re-raise what ``fn`` raised, else return its result."""
        self.join(BACKSTOP)
        assert not self.is_alive(), "worker thread wedged"
        if self.error is not None:
            raise self.error
        return self.result


def join_all(workers: List[Worker]) -> list:
    return [worker.done() for worker in workers]
