"""Simulated trusted platform (paper §2.1).

The paper requires four pieces of infrastructure:

* a *trusted processing environment* — here, simply the Python process;
  TDB code paths are "trusted", and the test-suite's attacker only touches
  the untrusted store through its explicit ``tamper_*`` API;
* a *secret store* — a few bytes readable only by trusted code
  (:class:`SecretStore`);
* a *tamper-resistant store* — a few writable bytes updated atomically
  (:class:`TamperResistantStore`), or the weaker monotonic
  :class:`TamperResistantCounter`;
* an *untrusted store* holding the database (:class:`MemoryUntrustedStore`,
  :class:`FileUntrustedStore`, or :class:`RemoteUntrustedStore` — §10's
  untrusted server, with round trips counted and priced by a
  :class:`NetworkModel`) and an *archival store* for backups
  (:class:`MemoryArchivalStore`, :class:`FileArchivalStore`).

The untrusted store records I/O statistics (:class:`IOStats`) which a
:class:`DiskModel` converts into modeled latency — the substitution for
the paper's NTFS-on-7200rpm-disk testbed described in DESIGN.md.
Fail-stop crashes are injected through :class:`CrashInjector`.
"""

from repro.platform.archival import (
    ArchivalStore,
    FileArchivalStore,
    MemoryArchivalStore,
)
from repro.platform.clock import Clock, FakeClock, SystemClock
from repro.platform.crash import CrashInjector
from repro.platform.disk_model import DiskModel
from repro.platform.faults import FaultConfig, FaultInjector
from repro.platform.remote import NetworkModel, RemoteUntrustedStore
from repro.platform.retry import Retrier, RetryPolicy
from repro.platform.secret_store import SecretStore
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)
from repro.platform.trusted_platform import TrustedPlatform
from repro.platform.untrusted import (
    FileUntrustedStore,
    IOStats,
    MemoryUntrustedStore,
    UntrustedStore,
)

__all__ = [
    "ArchivalStore",
    "MemoryArchivalStore",
    "FileArchivalStore",
    "Clock",
    "SystemClock",
    "FakeClock",
    "CrashInjector",
    "DiskModel",
    "FaultConfig",
    "FaultInjector",
    "Retrier",
    "RetryPolicy",
    "SecretStore",
    "TamperResistantStore",
    "TamperResistantCounter",
    "TrustedPlatform",
    "UntrustedStore",
    "MemoryUntrustedStore",
    "FileUntrustedStore",
    "RemoteUntrustedStore",
    "NetworkModel",
    "IOStats",
]
