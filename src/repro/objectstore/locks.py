"""Two-phase locking with timeout-based deadlock breaking (§7).

"The object store implements two-phase locking on objects and breaks
deadlocks using timeouts.  Transactions acquire locks in either shared or
exclusive mode.  We chose not to implement granular or operation-level
locks because we expect only a few concurrent transactions."

The lock manager keeps one shared/exclusive lock per object reference.
A transaction that cannot acquire a lock within the timeout raises
:class:`~repro.errors.DeadlockError` and must abort — crude but sound
deadlock handling appropriate for low concurrency.

Lock upgrade (S → X) is supported when the requester is the sole shared
holder; otherwise the upgrade waits like any other exclusive request (and
two simultaneous upgraders deadlock and time out, as they must).

Writer starvation: a pending exclusive request blocks *new* shared
grants on the same ref (``_LockState.waiters``), so a steady stream of
readers drains instead of starving the writer forever.  Transactions
already holding the lock re-enter freely — blocking them would deadlock
them against the very waiter they must release for.

Every decision is made under the plain ``_mutex``; the condition
variable built on it is entered only to wait and to wake waiters.  A
grant that need not wait — a ref with no state, a compatible shared
grant, a re-entry — therefore never touches it.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import DefaultDict, Dict, Hashable, Optional, Set

from repro import obs
from repro.errors import DeadlockError
from repro.platform.clock import Clock, SystemClock


class _LockState:
    """One ref's lock: its shared holders and exclusive holder."""

    __slots__ = ("shared", "exclusive", "waiters")

    def __init__(self, shared: Set[int], exclusive: int) -> None:
        self.shared = shared
        self.exclusive = exclusive  # transaction id, 0 = none
        #: exclusive requests currently blocked on this ref; while non-zero,
        #: new shared grants are refused so the writer eventually runs
        self.waiters = 0


class LockManager:
    """Per-object shared/exclusive locks for transactions."""

    def __init__(self, timeout: float = 2.0, clock: Optional[Clock] = None) -> None:
        self.timeout = timeout
        #: injectable time source (shared with the platform's retry layer),
        #: so deadlock-timeout tests never sleep on the wall clock
        self.clock = clock or SystemClock()
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._locks: Dict[Hashable, _LockState] = {}
        #: transaction id -> refs it holds (for release_all)
        self._held: DefaultDict[int, Set[Hashable]] = defaultdict(set)
        self.deadlocks_broken = 0
        #: acquisitions that had to wait at least once
        self.waits = 0

    def acquire_shared(self, tx_id: int, ref: Hashable) -> None:
        """Take (or wait for) a shared lock on ``ref``; an exclusive lock
        already held by ``tx_id`` subsumes it.  Raises
        :class:`DeadlockError` after the timeout."""
        self._mutex.acquire()  # cheaper than a ``with`` block's calls
        try:
            deadline = None
            while True:
                # re-fetch each iteration: release_all may pop an unheld
                # state object from the dict while we were waiting, and a
                # newer acquirer would then be operating on a *fresh*
                # object — granting ourselves on the stale one would break
                # mutual exclusion
                state = self._locks.get(ref)
                if state is None:  # nobody holds or awaits it
                    self._locks[ref] = _LockState({tx_id}, 0)
                    self._held[tx_id].add(ref)
                    return
                if state.exclusive == tx_id:
                    return  # X subsumes S
                if tx_id in state.shared:
                    return  # already held; re-entry must never block
                if state.exclusive == 0 and state.waiters == 0:
                    state.shared.add(tx_id)
                    self._held[tx_id].add(ref)
                    return
                if deadline is None:
                    deadline = self._now() + self.timeout
                    self.waits += 1
                if not self.clock.wait_on(
                    self._condition, self._remaining(deadline)
                ):
                    self._timeout(tx_id, ref, "shared")
        finally:
            self._mutex.release()

    def acquire_exclusive(self, tx_id: int, ref: Hashable) -> None:
        """Take (or wait for) an exclusive lock on ``ref``; upgrades a
        shared lock when ``tx_id`` is the sole holder.  Raises
        :class:`DeadlockError` after the timeout."""
        self._mutex.acquire()  # as in acquire_shared
        try:
            deadline = None
            while True:
                state = self._locks.get(ref)  # see above
                if state is None:
                    self._locks[ref] = _LockState(set(), tx_id)
                    self._held[tx_id].add(ref)
                    return
                if state.exclusive == tx_id:
                    return
                shared = state.shared
                if state.exclusive == 0 and (
                    not shared or (len(shared) == 1 and tx_id in shared)
                ):
                    shared.discard(tx_id)  # upgrade consumes the S lock
                    state.exclusive = tx_id
                    self._held[tx_id].add(ref)
                    return
                if deadline is None:
                    deadline = self._now() + self.timeout
                    self.waits += 1
                # register on *this* state object and deregister on the
                # same one.  release_all keeps waiter-registered states in
                # the dict (see there), so the fairness gate survives even
                # a full release of the current holders: a shared requester
                # arriving right after cannot jump our queue position.
                state.waiters += 1
                try:
                    woke = self.clock.wait_on(
                        self._condition, self._remaining(deadline)
                    )
                finally:
                    state.waiters -= 1
                    if not woke:
                        # Timing out abandons this exclusive request.  If we
                        # were the last thing keeping an otherwise-empty
                        # state alive (release_all keeps states with
                        # registered waiters), drop it now.
                        if (
                            not state.shared
                            and state.exclusive == 0
                            and state.waiters == 0
                            and self._locks.get(ref) is state
                        ):
                            self._locks.pop(ref, None)
                        # Shared requesters may be blocked *solely* on
                        # waiters > 0 (the writer-fairness gate); without a
                        # wake-up here they would sleep until their own
                        # deadline and raise DeadlockError on a lock that is
                        # actually grantable.
                        self._condition.notify_all()
                if not woke:
                    self._timeout(tx_id, ref, "exclusive")
        finally:
            self._mutex.release()

    def release_all(self, tx_id: int) -> None:
        """Two-phase locking's shrink phase happens all at once, at commit
        or abort."""
        with self._mutex:
            for ref in self._held.pop(tx_id, ()):
                state = self._locks.get(ref)
                if state is None:
                    continue
                state.shared.discard(tx_id)
                if state.exclusive == tx_id:
                    state.exclusive = 0
                # Pop the empty state ONLY if no exclusive waiter is
                # registered on it.  Waiters count on *this* object; a
                # popped state would be replaced by a fresh one whose
                # waiters == 0, so a newly arriving shared requester
                # would sail through the writer-fairness gate and jump
                # the surviving waiter's queue position — re-starving
                # the writer the gate exists to protect.
                if (
                    not state.shared
                    and state.exclusive == 0
                    and state.waiters == 0
                ):
                    self._locks.pop(ref, None)
            self._condition.notify_all()

    def holds(self, tx_id: int, ref: Hashable, exclusive: bool = False) -> bool:
        """Introspection: does ``tx_id`` currently hold a lock on ``ref``?"""
        with self._mutex:
            state = self._locks.get(ref)
            if state is None:
                return False
            if exclusive:
                return state.exclusive == tx_id
            return state.exclusive == tx_id or tx_id in state.shared

    def stats(self) -> Dict[str, int]:
        """Lock-manager tallies (read as ``ObjectStore.locks.stats()``)."""
        with self._mutex:
            return {
                "held_refs": len(self._locks),
                "active_transactions": len(self._held),
                "waits": self.waits,
                "deadlocks_broken": self.deadlocks_broken,
            }

    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now()

    def _remaining(self, deadline: float) -> float:
        return max(0.0, deadline - self._now())

    def _timeout(self, tx_id: int, ref: Hashable, mode: str) -> None:
        self.deadlocks_broken += 1
        obs.emit("deadlock_broken", tx=tx_id, ref=str(ref), mode=mode)
        raise DeadlockError(
            f"transaction {tx_id} timed out acquiring {mode} lock on {ref}; "
            f"presumed deadlock — aborting"
        )
