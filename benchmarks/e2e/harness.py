"""Shared machinery of the end-to-end benchmark.

Holds what every workload needs and nothing workload-specific: the pinned
store configuration, the window limit and latency recorder, the model
check, the crash/recovery timing and the tamper probe.  The benchmark only
uses the layers' public API; ``repro`` is found next to this checkout
(``../../src``), so the command needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import harmonic_mean
from typing import Any, Callable, Dict, List, Optional, Sequence

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.chunkstore import ChunkStore, StoreConfig  # noqa: E402
from repro.crypto.registry import cipher_available  # noqa: E402
from repro.errors import TamperDetectedError, TDBError  # noqa: E402
from repro.objectstore import ObjectStore  # noqa: E402
from repro.platform import TrustedPlatform  # noqa: E402
from repro.testing.snapshot import PlatformSnapshot  # noqa: E402

#: the pinned cryptographic suite (system partition and user partitions)
CIPHER = "aes-256-gcm"
HASH = "sha256"
#: keys read per batch by the model check and the tamper probe
CHECK_BATCH = 256
#: byte flips per tamper-probe round, spread evenly over the log area
PROBE_FLIPS = 64
#: the probe re-rolls its offsets on a fresh copy until one flip lands in
#: live data the check reads; each round misses with probability < 0.95
PROBE_MAX_ROUNDS = 64
#: reopen repetitions behind ``recovery_s``: at least the first number,
#: then more while they fit the budget (a reopen is the copying of a whole
#: device and an ``open`` of a millisecond or a few), up to the second
RECOVERY_MIN_REPEATS = 9
RECOVERY_REPEATS = 101
RECOVERY_BUDGET_S = 1.5

#: what one pass of the reference kernel takes, in seconds, on the box the
#: bounds were measured on while nothing else runs there
REFERENCE_S = 0.00080
#: pause between two passes of the reference kernel (it then costs ~1%)
SAMPLE_EVERY_S = 0.1

clock = time.perf_counter
_POOL = bytes(range(256)) * 64


def _reference_kernel() -> None:
    """A fixed piece of interpreter-bound work (dict and integer
    arithmetic, slicing, a few hashes) that uses no code of ``repro``, so
    no change to the program can make it faster or slower.  It never lets
    go of the interpreter lock (``hashlib`` releases it from 2 KiB up), so
    on a client thread of server_mixed it times the machine, not the wait
    for the other client."""
    table: Dict[int, int] = {}
    for index in range(4000):
        key = (index * 7919) % 1021
        table[key] = table.get(key, 0) + (index * index) % 7
        if index % 64 == 0:
            hashlib.sha256(_POOL[index % 256 : index % 256 + 1024]).digest()
    sorted(table.values())


class Speedometer:
    """How fast is this machine right now?

    The sandbox's speed changes by up to 1.5x for tens of seconds at a
    time (other tenants), which no amount of measuring within one run
    averages out.  So the driver runs a reference kernel every
    ``SAMPLE_EVERY_S`` while it measures, and reports each timing divided
    by ``slowdown()``: the kernel time over ``REFERENCE_S``.  The raw
    timings and the slowdowns are in every record."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: seconds spent in the kernel itself (not the program's time)
        self.spent = 0.0
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        start = clock()
        if start < self._due and not force:
            return
        _reference_kernel()
        took = clock() - start
        self.samples.append(took)
        self.spent += took
        self._due = start + took + SAMPLE_EVERY_S

    def slowdown(self) -> float:
        """The harmonic mean of the samples, over the reference.  Samples
        are evenly spaced in time and work gets done at a rate of
        1/slowdown, so this is the factor by which the whole phase took
        longer — also when the machine changed speed half-way through,
        where a median would report one of the two speeds.  One sample
        stretched by a pause hardly moves it."""
        return harmonic_mean(self.samples) / REFERENCE_S


def require_aead() -> None:
    """The pinned suite has no fallback: refuse to run rather than
    silently measure a weaker cipher."""
    if not cipher_available(CIPHER):
        raise SystemExit(
            f"e2e benchmark: cipher {CIPHER!r} needs the 'cryptography' AEAD "
            "backend, which is missing; refusing to downgrade"
        )


def store_config(clean_low_water: Optional[int] = None) -> StoreConfig:
    """The pinned configuration; every cache stays at its default."""
    config = StoreConfig(
        system_cipher=CIPHER,
        system_hash=HASH,
        validation_mode="counter",
        delta_ut=5,
        flush_every_commit=True,
    )
    if clean_low_water is not None:
        config.clean_low_water = clean_low_water
    return config


def platform_secret(seed: int) -> bytes:
    return random.Random(seed).randbytes(16)


def memory_platform(device_mib: int, seed: int) -> TrustedPlatform:
    return TrustedPlatform.create_in_memory(
        untrusted_size=device_mib * 1024 * 1024, secret=platform_secret(seed)
    )


class Limit:
    """When the measured window ends: after ``units`` units of work (a
    fig10 cycle, a churn transaction, a server client's operation) or, if
    ``seconds`` is given, at the first unit boundary past the deadline."""

    def __init__(
        self, seconds: Optional[float] = None, units: Optional[Sequence[int]] = None
    ) -> None:
        if (seconds is None) == (units is None):
            raise ValueError("give exactly one of seconds and units")
        self.seconds = seconds
        self.units = units
        self.deadline = 0.0
        self.speed = Speedometer()

    def start(self) -> None:
        if self.seconds is not None:
            self.deadline = clock() + self.seconds

    def more(self, done: int, client: int = 0) -> bool:
        if self.units is not None:
            return done < self.units[client]
        return clock() < self.deadline


class Recorder:
    """What one client observed during the window."""

    def __init__(self) -> None:
        self.commit_s: List[float] = []
        self.read_s: List[float] = []
        #: live read-only transactions (server_mixed only)
        self.read_txn_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: units of work completed, per client (see :class:`Limit`)
        self.units_done: List[int] = []
        #: seconds the client spent sampling the machine's speed, not working
        self.paused = 0.0
        #: outputs that differ from the model (any entry fails the run)
        self.mismatches: List[str] = []
        #: the first few typed errors behind ``failed``
        self.errors: List[str] = []
        #: snapshot reads that missed this client's own earlier commit
        self.stale_reads = 0

    def merge(self, other: "Recorder") -> None:
        self.commit_s += other.commit_s
        self.read_s += other.read_s
        self.read_txn_s += other.read_txn_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.errors += other.errors
        self.stale_reads += other.stale_reads
        self.paused += other.paused

    def fail(self, exc: TDBError) -> None:
        """A typed error fails the operation; the run continues."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def mismatch(self, text: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(text)


def traced(tracer, thread: int = 0):
    """Trace the calling thread for a ``with`` block, if there is a tracer."""
    return tracer.thread(thread) if tracer is not None else nullcontext()


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def batches(keys: Sequence[Any], size: int = CHECK_BATCH):
    for start in range(0, len(keys), size):
        yield keys[start : start + size]


def object_reader(store: ChunkStore) -> Callable[[Sequence[Any]], List[Any]]:
    """Reads object refs through a fresh (cold) ``ObjectStore`` on ``store``."""
    objects = ObjectStore(store)

    def read(refs: Sequence[Any]) -> List[Any]:
        tx = objects.transaction()
        try:
            return tx.get_many(list(refs))
        finally:
            tx.abort()

    return read


def check_model(
    read: Callable[[Sequence[Any]], List[Any]], expected: Dict[Any, Any]
) -> List[str]:
    """Every key must read back as the model's value."""
    wrong: List[str] = []
    for batch in batches(list(expected)):
        for key, value in zip(batch, read(batch)):
            if value != expected[key] and len(wrong) < 20:
                wrong.append(f"{key}: stored value differs from the model")
    return wrong


def crash(workload) -> Dict[str, Any]:
    """End the window with a power failure, then checkpoint.

    ``reboot()`` drops whatever was never flushed; an acknowledged write
    lost there cannot be brought back by what follows, so the later check
    still sees it.  The store then writes one more checkpoint, because at
    the seed commit the cleaner hands a cleaned segment out again before
    the next checkpoint, and a crash in that stretch leaves a log that
    ``open`` refuses (see README, findings).  The crash image of the
    window's end is only probed: the result says how reopening it went."""
    platform = workload.platform
    platform.reboot()
    start = clock()
    try:
        ChunkStore.open(PlatformSnapshot.capture(platform).restore(), workload.config)
        window_end = {"ok": True, "seconds": clock() - start}
    except TamperDetectedError as exc:
        window_end = {"ok": False, "error": str(exc)}
    workload.store.checkpoint()
    return window_end


def reopen(workload, repeats: int = RECOVERY_REPEATS):
    """Time ``ChunkStore.open`` on up to ``repeats`` identical copies of
    the device, while they fit ``RECOVERY_BUDGET_S``.  Returns ``(snapshot,
    open times, the same speed-corrected, mismatches)``; the last reopened
    store gets the workload's full verification — the last, because what
    the verification leaves on the heap slows every ``open`` after it by a
    tenth.

    An open takes milliseconds and each follows the copying of a whole
    device, so each is corrected by the machine's speed just before and
    just after it rather than by one figure for the phase.  The previous
    copy is dropped before the next is made: with both alive the allocator
    hands out fresh and recycled memory in turn, every other ``open`` takes
    three times as long, and the median lands on either kind."""
    snapshot = PlatformSnapshot.capture(workload.platform)
    times: List[float] = []
    corrected: List[float] = []
    spent = 0.0
    while len(times) < repeats and (
        len(times) < RECOVERY_MIN_REPEATS or spent < RECOVERY_BUDGET_S
    ):
        begun = clock()
        store = copy = None
        copy = snapshot.restore()
        speed = Speedometer()
        speed.tick(force=True)
        start = clock()
        store = ChunkStore.open(copy, workload.config)
        times.append(clock() - start)
        speed.tick(force=True)
        corrected.append(times[-1] / speed.slowdown())
        spent += clock() - begun
    try:
        wrong = workload.verify(store)
    except TDBError as exc:
        wrong = [f"verification stopped: {type(exc).__name__}: {exc}"]
    return snapshot, times, corrected, wrong


def _flip(platform: TrustedPlatform, offset: int) -> None:
    byte = platform.untrusted.tamper_read(offset, 1)[0]
    platform.untrusted.tamper_write(offset, bytes([byte ^ 0xFF]))


def tamper_probe(
    workload, snapshot: PlatformSnapshot, setup_image: bytes, seed: int
) -> Dict[str, Any]:
    """A later speed-up must not win by skipping validation.

    (a) Replaying the device image saved right after set-up must be
    refused.  (b) After one-byte flips across the log area, every read of
    the model's keys from cold caches returns the model's value or raises
    ``TamperDetectedError`` — and at least one does raise."""
    expected = workload.expected()
    keys = list(expected)

    replayed = snapshot.restore()
    replayed.untrusted.tamper_replay(setup_image)
    try:
        workload.reader(ChunkStore.open(replayed, workload.config))(keys[:1])
        replay_detected = False
    except TamperDetectedError:
        replay_detected = True

    rng = random.Random(seed * 7919 + 13)
    wrong: List[str] = []
    detections = flips = rounds = 0
    while not detections and not wrong and rounds < PROBE_MAX_ROUNDS:
        rounds += 1
        copy = snapshot.restore()
        store = ChunkStore.open(copy, workload.config)
        log_start = workload.config.superblock_size
        stride = (copy.untrusted.size - log_start) // PROBE_FLIPS
        for index in range(PROBE_FLIPS):
            _flip(copy, log_start + index * stride + rng.randrange(stride))
        flips += PROBE_FLIPS
        read = workload.reader(store)
        for batch in batches(keys):
            try:
                wrong += check_model(read, {key: expected[key] for key in batch})
            except TamperDetectedError:
                detections += 1
                for key in batch:  # which of them still read, and read right?
                    try:
                        wrong += check_model(read, {key: expected[key]})
                    except TamperDetectedError:
                        pass
    return {
        "ok": replay_detected and detections > 0 and not wrong,
        "replay_detected": replay_detected,
        "flips": flips,
        "rounds": rounds,
        "detections": detections,
        "wrong_values": wrong,
    }
