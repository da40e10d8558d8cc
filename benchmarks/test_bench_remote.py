"""§10 extension — untrusted storage on servers: quantify the batching
optimisation the paper suggests ("reducing network round-trips to the
untrusted server, such as batching reads and writes")."""

from benchmarks.conftest import report
from repro.platform import MemoryUntrustedStore, NetworkModel, RemoteUntrustedStore


def test_read_batching_round_trips(benchmark):
    remote = RemoteUntrustedStore(MemoryUntrustedStore(4 << 20))
    extents = [(i * 1024, 256) for i in range(100)]
    for offset, _size in extents:
        remote.write(offset, b"\x7a" * 256)
    remote.flush()

    remote.reset_accounting()
    for offset, size in extents:
        remote.read(offset, size)
    unbatched = remote.round_trips

    remote.reset_accounting()
    remote.read_many(extents)
    batched = remote.round_trips

    benchmark(remote.read_many, extents)

    wan = NetworkModel(round_trip_latency=0.05)
    lan = NetworkModel(round_trip_latency=0.0005)
    report(
        "§10 remote batching",
        [
            ("round trips, one-by-one", str(unbatched), "1 per read"),
            ("round trips, batched", str(batched), "1 per batch"),
            (
                "WAN time saved (100 reads)",
                f"{wan.time(unbatched, 25600)*1000:.0f} -> "
                f"{wan.time(batched, 25600)*1000:.0f} ms",
                "batching wins on high-latency links",
            ),
            (
                "LAN time saved",
                f"{lan.time(unbatched, 25600)*1000:.1f} -> "
                f"{lan.time(batched, 25600)*1000:.1f} ms",
                "smaller but real",
            ),
        ],
    )
    assert batched == 1
    assert unbatched == len(extents)


def test_commit_write_batching(benchmark):
    """Writes cost no round trip; the flush ships them in one."""
    remote = RemoteUntrustedStore(MemoryUntrustedStore(4 << 20))
    remote.reset_accounting()
    for i in range(50):
        remote.write(i * 512, b"\x11" * 512)
    remote.flush()
    benchmark(lambda: None)
    report(
        "§10 remote write batching",
        [("round trips for 50 writes + flush", str(remote.round_trips), "1")],
    )
    assert remote.round_trips == 1
