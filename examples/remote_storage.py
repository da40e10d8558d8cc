#!/usr/bin/env python
"""§10 in action: the database on an untrusted *server*.

The server is exactly as untrusted as a local disk, so nothing about trust
changes; what changes is the cost of a request.  The remote store counts
round trips, and the batching the paper proposes ships many reads in one.

Run:  python examples/remote_storage.py
"""

from repro.platform import MemoryUntrustedStore, NetworkModel, RemoteUntrustedStore


def remote_demo() -> None:
    print("=== untrusted storage on a server (§10) ===")
    remote = RemoteUntrustedStore(MemoryUntrustedStore(4 * 1024 * 1024))
    extents = [(i * 2048, 512) for i in range(50)]
    for offset, _ in extents:
        remote.write(offset, b"\x42" * 512)
    remote.flush()

    remote.stats.reset()
    for offset, size in extents:
        remote.read(offset, size)
    naive = remote.round_trips

    remote.stats.reset()
    remote.read_many(extents)
    batched = remote.round_trips

    wan = NetworkModel(round_trip_latency=0.05)  # 50 ms WAN
    print(f"50 reads, one at a time: {naive} round trips "
          f"(~{wan.time(naive, 25600)*1000:.0f} ms over a WAN)")
    print(f"50 reads, batched:       {batched} round trip "
          f"(~{wan.time(batched, 25600)*1000:.0f} ms)")
    print("batching reads is the paper's suggested server-mode optimisation")


if __name__ == "__main__":
    remote_demo()
