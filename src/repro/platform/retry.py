"""Bounded retry with exponential backoff for untrusted-store I/O.

Transient faults (:class:`~repro.errors.TransientIOError`) are retried up
to :attr:`RetryPolicy.max_attempts` times with exponential backoff and
seeded jitter, subject to a per-operation deadline.  Permanent faults and
every non-I/O error propagate immediately — retrying a bad sector or a
hash mismatch cannot help.

The delay sequence is deterministic given ``(policy, seed)``, and all
waiting goes through the injectable :class:`~repro.platform.clock.Clock`,
so tests exercise the full backoff schedule without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

import random

from repro import obs
from repro.errors import TransientIOError
from repro.platform.clock import Clock, SystemClock
from repro.platform.untrusted import IOStats, UntrustedStore

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on an untrusted-store operation."""

    #: total attempts, including the first (1 = no retries)
    max_attempts: int = 4
    #: backoff before the first retry, in seconds
    base_delay: float = 0.005
    #: multiplier applied per retry (exponential backoff)
    multiplier: float = 2.0
    #: ceiling on any single backoff delay
    max_delay: float = 0.25
    #: overall per-operation deadline in seconds (None = unbounded)
    deadline: Optional[float] = 2.0
    #: jitter as a +/- fraction of each delay (0 disables)
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def delay_for(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before the ``retry_index``-th retry (0-based), jittered."""
        delay = min(
            self.base_delay * (self.multiplier**retry_index), self.max_delay
        )
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class Retrier:
    """Applies a :class:`RetryPolicy` to callables, tallying into
    :class:`~repro.platform.untrusted.IOStats`."""

    def __init__(
        self,
        policy: RetryPolicy,
        clock: Optional[Clock] = None,
        stats: Optional[IOStats] = None,
        seed: int = 0,
    ) -> None:
        self.policy = policy
        self.clock = clock or SystemClock()
        self.stats = stats
        self.rng = random.Random(seed)

    def call(self, fn: Callable[[], T], op: str = "io") -> T:
        """Run ``fn``, retrying transient I/O faults per the policy.

        Raises the last :class:`~repro.errors.TransientIOError` once
        attempts or the deadline are exhausted (tallying ``gave_up``).
        """
        start = self.clock.now()
        retry_index = 0
        while True:
            try:
                return fn()
            except TransientIOError:
                retry_index += 1
                if retry_index >= self.policy.max_attempts:
                    self._give_up(op, retry_index)
                    raise
                delay = self.policy.delay_for(retry_index - 1, self.rng)
                if (
                    self.policy.deadline is not None
                    and self.clock.now() + delay - start > self.policy.deadline
                ):
                    self._give_up(op, retry_index)
                    raise
                if self.stats is not None:
                    self.stats.retries += 1
                obs.observe("platform.retry_backoff", delay)
                self.clock.sleep(delay)

    def _give_up(self, op: str, attempts: int) -> None:
        if self.stats is not None:
            self.stats.gave_up += 1
        obs.emit("retry_exhausted", op=op, attempts=attempts)


class RetriedReader:
    """Untrusted-store reads behind the configured retry policy.

    Every trusted read (the read path, recovery, the cleaner) goes through
    one, so transient device faults are absorbed uniformly; only exhausted
    retries or permanent faults escape.  ``before_read`` runs ahead of each
    read: the store passes ``LogWriteBuffer.seal``, because the extent may
    still sit in the pending write span."""

    def __init__(
        self,
        untrusted: UntrustedStore,
        retrier: Retrier,
        before_read: Callable[[], None] = lambda: None,
    ) -> None:
        self._untrusted = untrusted
        self._retrier = retrier
        self._before_read = before_read
        self.size = untrusted.size

    def read(self, location: int, size: int) -> bytes:
        def issue() -> bytes:
            with obs.span("platform.untrusted.read"):
                return self._untrusted.read(location, size)

        self._before_read()
        return self._retrier.call(issue, "read")

    def read_many(self, extents: List[Tuple[int, int]]) -> List[bytes]:
        """One batched round trip (re-issued whole on a transient fault)."""

        def issue() -> List[bytes]:
            with obs.span("platform.untrusted.read"):
                return self._untrusted.read_many(extents)

        self._before_read()
        return self._retrier.call(issue, "read_many")
