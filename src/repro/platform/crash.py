"""Fail-stop crash injection.

TDB promises crash *atomicity*: a commit either happens entirely or not at
all with respect to fail-stop crashes such as power failures (§2.2).  To
test that promise we need to crash the system at every interesting point:
mid-way through writing a commit set, after the untrusted store is flushed
but before the tamper-resistant store is updated, between the two, during a
checkpoint, and so on.

Components call :meth:`CrashInjector.point` at named instants.  A test arms
the injector with a point name and a countdown; when the countdown reaches
zero at a matching point, :class:`~repro.errors.CrashError` is raised.  The
stores then revert any un-flushed state (see
:meth:`repro.platform.untrusted.UntrustedStore.simulate_crash`), and the
test re-opens the database to exercise recovery.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import CrashError


class CrashInjector:
    """Raises :class:`CrashError` at an armed instrumentation point."""

    def __init__(self) -> None:
        self._armed: Optional[Tuple[str, int]] = None
        #: hits per point name (crash-point discovery reads it)
        self.counts: Dict[str, int] = {}

    def arm(self, point_name: str, countdown: int = 0) -> None:
        """Crash at the ``countdown``-th future occurrence of ``point_name``.

        ``countdown=0`` crashes at the next occurrence.
        """
        self._armed = (point_name, countdown)

    def disarm(self) -> None:
        self._armed = None

    def point(self, name: str) -> None:
        """Called by instrumented components; may raise :class:`CrashError`."""
        self.counts[name] = self.counts.get(name, 0) + 1
        if self._armed is None:
            return
        armed_name, countdown = self._armed
        if armed_name != name:
            return
        if countdown > 0:
            self._armed = (armed_name, countdown - 1)
            return
        self._armed = None
        raise CrashError(f"injected crash at point {name!r}")
