"""Figure 11 and §9.5.2 — TDB vs XDB on the bind/release benchmark.

Paper result: "TDB outperformed XDB, primarily because of faster commits,
but also in the remaining database overhead.  We believe that XDB
performs multiple disk writes at commit."  (release: TDB ≈4.2 s vs XDB
≈7 s on their hardware.)  Stored sizes: XDB 3.8 MB vs TDB 4.0 MB at 60 %
maximum log utilization.

Both systems run the identical Figure 10 operation stream with the same
cryptographic parameters, comparable caches, and the same TR-flush
frequency (Δut = 5).  Total time = measured CPU + modeled I/O (the
DiskModel converts counted flushes/bytes into the paper's disk
constants); commit cost is isolated by attributing flush-driven I/O.
"""

from benchmarks.conftest import report
from repro.bench.adapters import TdbAdapter, XdbAdapter
from repro.bench.workload import measure


def test_figure11_release_and_bind(benchmark):
    results = {}
    for kind in ("release", "bind"):
        for system, adapter_cls in (("TDB", TdbAdapter), ("XDB", XdbAdapter)):
            result = results[(kind, system)] = measure(adapter_cls(), kind)
            result["commit_io_s"] = result["write_io_s"] + result["tr_io_s"]
    benchmark(lambda: None)  # the experiments above are the measurement
    rows = []
    for kind in ("release", "bind"):
        tdb = results[(kind, "TDB")]
        xdb = results[(kind, "XDB")]
        rows.extend(
            [
                (f"{kind} TDB total", f"{tdb['total_s']*1000:.0f} ms", "TDB wins"),
                (f"{kind} XDB total", f"{xdb['total_s']*1000:.0f} ms", "..."),
                (
                    f"{kind} commit I/O TDB/XDB",
                    f"{tdb['commit_io_s']*1000:.0f}/{xdb['commit_io_s']*1000:.0f} ms",
                    "faster commits are the main win",
                ),
                (
                    f"{kind} flushes TDB/XDB",
                    f"{tdb['flushes']}/{xdb['flushes']}",
                    "XDB: multiple disk writes per commit",
                ),
            ]
        )
    report("Figure 11 runtime comparison", rows)
    for kind in ("release", "bind"):
        tdb = results[(kind, "TDB")]
        xdb = results[(kind, "XDB")]
        assert tdb["total_s"] < xdb["total_s"], f"TDB must win on {kind}"
        assert tdb["commit_io_s"] < xdb["commit_io_s"]
        assert tdb["flushes"] < xdb["flushes"]
        assert tdb["bytes_written"] < xdb["bytes_written"]


def test_stored_size(benchmark):
    """§9.5.2: stored sizes after the release experiment.

    Paper: XDB 3.8 MB, TDB 4.0 MB (TDB computed at 60 % max log
    utilization).  Our XDB stores whole 4 KiB pages, so its footprint is
    *larger* than TDB's compact log — the one place where the
    reproduction's shape deviates; recorded in EXPERIMENTS.md."""
    adapter = TdbAdapter()
    tdb = measure(adapter, "release")
    xdb = measure(XdbAdapter(), "release")
    benchmark(lambda: None)
    # normalise TDB to the paper's 60% utilization accounting
    tdb_at_60 = adapter.chunks.live_bytes() / 0.60
    report(
        "§9.5.2 stored size",
        [
            ("TDB live/0.6 util", f"{tdb_at_60/1e6:.2f} MB", "4.0 MB"),
            ("TDB raw log", f"{tdb['stored_bytes']/1e6:.2f} MB", "n/a"),
            ("XDB pages", f"{xdb['stored_bytes']/1e6:.2f} MB", "3.8 MB"),
        ],
    )
    assert tdb_at_60 > 0 and xdb["stored_bytes"] > 0
