"""Structured event log for rare-but-critical transitions.

Counters answer *how many*; spans answer *how long*; this module answers
*what happened* — the low-frequency, high-signal transitions a sweep or
an operator cares about: a chunk entering quarantine, a repair landing,
a deadlock being broken, recovery replaying the residual log, a payload
cache being invalidated wholesale.

Events are plain records in a bounded ring (old events fall off the
back), so emitting is always cheap and the log can stay on in
production.  Harnesses use it as an *assertion surface*: capture
``mark()`` before a phase, then check ``since(mark)`` for the kinds that
must (or must not) have fired, instead of re-deriving store state.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

#: default ring capacity — deep fault sweeps emit thousands of events;
#: the tail is what diagnosis needs
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class Event:
    """One structured event: a kind plus free-form fields."""

    seq: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v!r}" for k, v in sorted(self.fields.items()))
        return f"#{self.seq} {self.kind}" + (f" {extras}" if extras else "")


class EventLog:
    """Bounded, thread-safe ring of :class:`Event` records.

    ``seq`` is monotonically increasing for the life of the log, so a
    caller can remember ``mark()`` and later ask ``since(mark)`` even if
    intervening events have been evicted from the ring (evicted events
    are simply absent; the counts survive in :attr:`counts`).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        #: total emissions per kind for the life of the log (not bounded
        #: by the ring)
        self.counts: Dict[str, int] = {}

    def emit(self, kind: str, **fields: Any) -> Event:
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, kind=kind, fields=fields)
            self._ring.append(event)
            self.counts[kind] = self.counts.get(kind, 0) + 1
        return event

    def mark(self) -> int:
        """The current sequence number; pass to :meth:`since` later."""
        with self._lock:
            return self._seq

    def events(self) -> List[Event]:
        with self._lock:
            return list(self._ring)

    def since(self, mark: int) -> List[Event]:
        with self._lock:
            return [e for e in self._ring if e.seq > mark]

    def find(self, kind: str, since: int = 0) -> List[Event]:
        with self._lock:
            return [e for e in self._ring if e.kind == kind and e.seq > since]

    def count(self, kind: str) -> int:
        with self._lock:
            return self.counts.get(kind, 0)

    def clear(self) -> None:
        """Drop all events and counts (sequence numbers keep rising)."""
        with self._lock:
            self._ring.clear()
            self.counts.clear()


# -- module-level singleton ---------------------------------------------------

_log = EventLog()
_suspended = False


def emit(kind: str, **fields: Any) -> Optional[Event]:
    """Emit to the global log; no-op (returns ``None``) while suspended."""
    if _suspended:
        return None
    return _log.emit(kind, **fields)


def suspended() -> bool:
    """True while :func:`repro.obs.suspend` has emission disabled."""
    return _suspended


def mark() -> int:
    return _log.mark()


def events() -> List[Event]:
    return _log.events()


def since(mark_: int) -> List[Event]:
    return _log.since(mark_)


def find(kind: str, since_: int = 0) -> List[Event]:
    return _log.find(kind, since_)


def count(kind: str) -> int:
    return _log.count(kind)


def counts() -> Dict[str, int]:
    with _log._lock:
        return dict(_log.counts)


def reset() -> None:
    _log.clear()
