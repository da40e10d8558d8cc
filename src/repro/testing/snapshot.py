"""Whole-platform snapshots for the correctness harness.

The attacker API (:meth:`UntrustedStore.tamper_image` /
:meth:`tamper_replay`) can only save and restore the *untrusted* device —
that is the point: the tamper-resistant state survives a replay, which is
how replays are caught.  The harness, however, needs something stronger: a
way to rewind the *entire world* (untrusted image, tamper-resistant store,
monotonic counter, secret) so that hundreds of seeded mutation trials can
each start from an identical, freshly-provisioned state without paying the
cost of rebuilding the store.

:class:`PlatformSnapshot` is that VM-style snapshot.  It is harness
machinery, not an attacker capability — nothing in ``src/repro`` outside
this package may use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.platform.archival import MemoryArchivalStore
from repro.platform.clock import Clock
from repro.platform.crash import CrashInjector
from repro.platform.faults import FaultInjector
from repro.platform.secret_store import SecretStore
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import MemoryUntrustedStore


@dataclass(frozen=True)
class PlatformSnapshot:
    """Immutable copy of everything a :class:`TrustedPlatform` persists.

    Only durable state is captured: un-flushed writes in the untrusted
    store's undo journal are rolled back in the copy, as a crash would
    (:meth:`~repro.platform.untrusted.UntrustedStore.durable_image`).
    """

    secret: bytes
    image: bytes
    tr_data: bytes
    counter_value: int

    @classmethod
    def capture(cls, platform: TrustedPlatform) -> "PlatformSnapshot":
        """Snapshot the durable state of ``platform``, leaving it untouched:
        un-flushed writes are rolled back in the copy only."""
        return cls(
            secret=platform.secret_store.read(),
            image=platform.untrusted.durable_image(),
            tr_data=platform.tamper_resistant.read(),
            counter_value=platform.counter.read(),
        )

    def restore(
        self,
        fault_injector: Optional[FaultInjector] = None,
        clock: Optional[Clock] = None,
    ) -> TrustedPlatform:
        """Materialise a fresh, independent platform in the captured state.

        The returned platform has its own crash injector (disarmed) and
        empty I/O statistics; mutating it never affects the platform the
        snapshot was captured from, so one snapshot can seed any number of
        adversary trials.  An optional seeded ``fault_injector`` and fake
        ``clock`` let fault-tolerance trials run the same way.
        """
        injector = CrashInjector()
        untrusted = MemoryUntrustedStore(len(self.image), injector, fault_injector)
        untrusted.tamper_replay(self.image)
        tamper_resistant = TamperResistantStore()
        if self.tr_data:
            tamper_resistant.write(self.tr_data)
        tamper_resistant.write_count = 0
        counter = TamperResistantCounter(self.counter_value)
        kwargs = {}
        if clock is not None:
            kwargs["clock"] = clock
        return TrustedPlatform(
            secret_store=SecretStore(self.secret),
            tamper_resistant=tamper_resistant,
            counter=counter,
            untrusted=untrusted,
            archival=MemoryArchivalStore(),
            injector=injector,
            faults=fault_injector,
            **kwargs,
        )
