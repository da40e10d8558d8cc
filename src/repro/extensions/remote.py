"""Untrusted storage on servers (§10).

"TDB may be used to protect a database stored at an untrusted server.
This application of TDB may benefit from additional optimizations for
reducing network round-trips to the untrusted server, such as batching
reads and writes."

:class:`RemoteUntrustedStore` wraps any local
:class:`~repro.platform.untrusted.UntrustedStore` and accounts *round
trips*: each ``read``/``write``/``flush`` costs one, while ``read_many``
ships a batch of extents in a single round trip.  A
:class:`NetworkModel` turns the counts into modeled time, so benchmarks
can quantify the §10 batching optimisation without a real network.

Trust-wise nothing changes: the server is exactly as untrusted as a local
disk, so the same tamper API is exposed (the server operator *is* the
attacker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import IOFaultError, PartialResponseError
from repro.platform.untrusted import UntrustedStore


@dataclass
class NetworkModel:
    """Latency model for a remote untrusted store."""

    #: one request/response round trip, seconds (LAN ≈ 0.5 ms, WAN ≈ 50 ms)
    round_trip_latency: float = 0.001
    #: payload bandwidth, bytes/second
    bandwidth: float = 10e6

    def time(self, round_trips: int, payload_bytes: int) -> float:
        return round_trips * self.round_trip_latency + payload_bytes / self.bandwidth


class RemoteUntrustedStore(UntrustedStore):
    """An untrusted store behind a (simulated) network."""

    def __init__(self, backing: UntrustedStore) -> None:
        super().__init__(backing.size, backing.injector, backing.faults)
        self._backing = backing
        self.round_trips = 0
        self.payload_bytes = 0
        #: writes queued on the client, shipped at flush in one round trip;
        #: cleared only once the flush round trip succeeds, so a faulted
        #: flush leaves every queued write replayable
        self._write_queue: List[Tuple[int, bytes]] = []

    # -- raw image ------------------------------------------------------------

    def _image_read(self, offset: int, size: int) -> bytes:
        return self._backing._image_read(offset, size)

    def _image_write(self, offset: int, data: bytes) -> None:
        self._backing._image_write(offset, data)

    # -- fault plumbing --------------------------------------------------------

    def _fault_round_trip(self, op: str) -> None:
        if self.faults is not None:
            try:
                self.faults.on_round_trip(op)
            except IOFaultError:
                # the hook only raises IOFaultError subclasses; anything
                # else is a bug and must propagate *untallied* rather
                # than masquerade as device trouble
                self.stats.io_errors += 1
                raise

    # -- accounted operations ---------------------------------------------------

    def read(self, offset: int, size: int) -> bytes:
        self._fault_round_trip("read")
        self.round_trips += 1
        self.payload_bytes += size
        return super().read(offset, size)

    def read_many(self, extents: List[Tuple[int, int]]) -> List[bytes]:
        """The §10 batching optimisation: one round trip for the batch.

        The round trip may time out, or the server may answer only a
        prefix of the batch (:class:`~repro.errors.PartialResponseError`);
        either way no result is returned and the caller retries the whole
        batch.
        """
        if not extents:
            return []
        self._fault_round_trip("read_many")
        if self.faults is not None:
            answered = self.faults.on_batch(len(extents))
            if answered < len(extents):
                self.stats.io_errors += 1
                raise PartialResponseError(
                    f"remote batch answered {answered}/{len(extents)} extents"
                )
        self.round_trips += 1
        self.payload_bytes += sum(size for _, size in extents)
        return super().read_many(extents)

    def write(self, offset: int, data: bytes) -> None:
        # writes are queued client-side; the flush ships them in one batch
        self.payload_bytes += len(data)
        super().write(offset, data)
        self._write_queue.append((offset, bytes(data)))

    def flush(self) -> None:
        """Ship the queued writes + fsync request in one round trip.

        The queue is cleared only after the round trip and the durable
        flush both succeed; a fault anywhere leaves it intact so the next
        flush re-ships the same writes (nothing is silently dropped).
        """
        self._fault_round_trip("flush")
        self.round_trips += 1  # the batched write + fsync request
        super().flush()
        self._write_queue = []

    def pending_writes(self) -> List[Tuple[int, bytes]]:
        """Writes queued on the client but not yet acknowledged durable."""
        return list(self._write_queue)

    def simulate_crash(self) -> None:
        super().simulate_crash()
        self._write_queue = []

    def reset_accounting(self) -> None:
        self.round_trips = 0
        self.payload_bytes = 0
