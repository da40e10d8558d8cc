"""Seeded I/O fault injection for the untrusted store.

Sibling of :class:`~repro.platform.crash.CrashInjector`: where the crash
injector models fail-stop power loss, the fault injector models the
*non-malicious* failures a real untrusted store exhibits — transient read
errors, failed writes, timed-out or truncated round trips to the §10
remote server, and permanently damaged extents ("bad sectors").

All randomness flows from one seeded :class:`random.Random`, so a fault
pattern is reproducible from ``(config, seed)`` alone.  Faults fire
*before* the store mutates any state or tallies any traffic, so a faulted
operation is a clean no-op and retrying it is always sound.

Permanent faults are sticky: the affected extent is remembered in
``bad_extents`` and every later access to overlapping bytes fails with
:class:`~repro.errors.PermanentIOError` even while random injection is
disabled — media damage does not heal when the test harness stops rolling
dice.  Tests can also place damage deterministically via :meth:`mark_bad`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import obs
from repro.errors import (
    PermanentIOError,
    RemoteTimeoutError,
    TransientIOError,
)


@dataclass(frozen=True)
class FaultConfig:
    """Per-operation fault probabilities (each in ``[0, 1]``)."""

    #: probability that a single-extent read fails
    read_error_rate: float = 0.0
    #: probability that a write fails (before mutating the image)
    write_error_rate: float = 0.0
    #: probability that a flush fails (before any record becomes durable)
    flush_error_rate: float = 0.0
    #: fraction of injected read/write faults that are *permanent* —
    #: the extent joins ``bad_extents`` and stays unreadable until repaired
    permanent_fraction: float = 0.0
    #: probability that a remote round trip times out
    timeout_rate: float = 0.0
    #: probability that a batched remote read returns a truncated response
    partial_response_rate: float = 0.0
    #: cap on sticky bad extents (0 disables permanent faults entirely)
    max_bad_extents: int = 4

    def __post_init__(self) -> None:
        for name in (
            "read_error_rate",
            "write_error_rate",
            "flush_error_rate",
            "permanent_fraction",
            "timeout_rate",
            "partial_response_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_bad_extents < 0:
            raise ValueError("max_bad_extents must be >= 0")


class FaultInjector:
    """Deterministic, seeded source of I/O faults.

    The untrusted store calls the ``on_*`` hooks at the top of each
    operation; a hook either returns (no fault) or raises a subclass of
    :class:`~repro.errors.IOFaultError`.  ``enabled`` gates the random
    draws — ``bad_extents`` placed while enabled (or via :meth:`mark_bad`)
    keep failing regardless, because media damage is durable.
    """

    def __init__(
        self, config: FaultConfig = FaultConfig(), seed: int = 0
    ) -> None:
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed)
        self.enabled = True
        #: sticky damaged regions as (offset, size) tuples
        self.bad_extents: List[Tuple[int, int]] = []
        #: faults raised, keyed by fault kind (for harness reporting)
        self.counts: Dict[str, int] = {}

    # -- damage placement ----------------------------------------------------

    def mark_bad(self, offset: int, size: int) -> None:
        """Deterministically damage ``[offset, offset+size)``."""
        self.bad_extents.append((offset, size))

    def clear_bad(self, offset: int, size: int) -> None:
        """Heal damage overlapping ``[offset, offset+size)`` (a repair
        re-wrote the extent somewhere the damage no longer applies)."""
        self.bad_extents = [
            (o, s)
            for (o, s) in self.bad_extents
            if not self._overlaps(o, s, offset, size)
        ]

    def is_bad(self, offset: int, size: int) -> bool:
        return any(
            self._overlaps(o, s, offset, size) for (o, s) in self.bad_extents
        )

    @staticmethod
    def _overlaps(o1: int, s1: int, o2: int, s2: int) -> bool:
        return o1 < o2 + s2 and o2 < o1 + s1

    # -- hooks called by the stores ------------------------------------------

    def on_read(self, offset: int, size: int) -> None:
        if self.is_bad(offset, size):
            self._raise_permanent("read", offset, size)
        if not self.enabled:
            return
        if self._draw(self.config.read_error_rate):
            if self._draw_permanent():
                self.bad_extents.append((offset, size))
                self._raise_permanent("read", offset, size)
            self._raise_transient("read", offset, size)

    def on_write(self, offset: int, size: int) -> None:
        if self.is_bad(offset, size):
            self._raise_permanent("write", offset, size)
        if not self.enabled:
            return
        if self._draw(self.config.write_error_rate):
            if self._draw_permanent():
                self.bad_extents.append((offset, size))
                self._raise_permanent("write", offset, size)
            self._raise_transient("write", offset, size)

    def on_flush(self) -> None:
        if not self.enabled:
            return
        if self._draw(self.config.flush_error_rate):
            self.counts["flush"] = self.counts.get("flush", 0) + 1
            raise TransientIOError("injected flush fault")

    def on_round_trip(self, op: str) -> None:
        """Remote-store hook: one chance for the whole round trip to time
        out, drawn once per trip regardless of batch size."""
        if not self.enabled:
            return
        if self._draw(self.config.timeout_rate):
            self.counts["timeout"] = self.counts.get("timeout", 0) + 1
            raise RemoteTimeoutError(f"injected timeout during remote {op}")

    def on_batch(self, requested: int) -> int:
        """Remote-store hook for batched reads: may truncate the response.

        Returns how many of the ``requested`` extents the "server"
        answered; the client raises
        :class:`~repro.errors.PartialResponseError` if short.
        """
        if not self.enabled or requested <= 1:
            return requested
        if self._draw(self.config.partial_response_rate):
            self.counts["partial"] = self.counts.get("partial", 0) + 1
            return self.rng.randrange(1, requested)
        return requested

    # ------------------------------------------------------------------------

    def _draw(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def _draw_permanent(self) -> bool:
        return (
            len(self.bad_extents) < self.config.max_bad_extents
            and self.config.permanent_fraction > 0.0
            and self.rng.random() < self.config.permanent_fraction
        )

    def _raise_transient(self, op: str, offset: int, size: int) -> None:
        self.counts[f"transient.{op}"] = self.counts.get(f"transient.{op}", 0) + 1
        raise TransientIOError(
            f"injected transient {op} fault at [{offset}, {offset + size})"
        )

    def _raise_permanent(self, op: str, offset: int, size: int) -> None:
        self.counts[f"permanent.{op}"] = self.counts.get(f"permanent.{op}", 0) + 1
        obs.emit("permanent_fault", op=op, offset=offset, size=size)
        raise PermanentIOError(
            f"bad extent: {op} at [{offset}, {offset + size})"
        )
