"""``python -m repro.bench.report`` — regenerate the paper's headline
evaluation (Figures 10–12 and the stored-size comparison) as one
markdown report on stdout.

This is the one-command version of the pytest-benchmark suite for
readers who want the paper-shaped tables without the bench plumbing; the
full sweep (micro-benchmarks, regressions, ablations) lives in
``benchmarks/``.
"""

from __future__ import annotations

import sys
import time
from typing import Dict

from repro import obs
from repro.bench.adapters import TdbAdapter, XdbAdapter
from repro.bench.workload import FIGURE_10, Workload
from repro.platform import DiskModel

_PAPER_FIG12 = {
    "collection store": 4,
    "object store": 2,
    "chunk store": 1,
    "encryption": 4,
    "hashing": 2,
    "untrusted store read": 0,
    "untrusted store write": 81,
    "tamper-resistant store": 5,
}

#: Figure 12's CPU rows as span-name prefixes: a row is the summed self
#: time of the spans under its prefixes (docs/OBSERVABILITY.md)
_FIG12_SPANS = {
    "collection store": ("collection.",),
    "object store": ("objectstore.",),
    "chunk store": ("chunkstore.",),
    "encryption": ("crypto.encrypt", "crypto.decrypt"),
    "hashing": ("crypto.hash",),
}


def figure12_components(
    self_times: Dict[str, float], read_io: float, write_io: float, tr_io: float
) -> Dict[str, float]:
    """Seconds per Figure 12 row: CPU rows from span self times ("the time
    reported for each module excludes nested calls to other reported
    modules", §9.5.3), I/O rows from the disk model."""
    components = {
        row: sum(s for name, s in self_times.items() if name.startswith(prefixes))
        for row, prefixes in _FIG12_SPANS.items()
    }
    components["untrusted store read"] = read_io
    components["untrusted store write"] = write_io
    components["tamper-resistant store"] = tr_io
    return components


def _run(adapter_cls, kind: str, profile: bool = False):
    adapter = adapter_cls()
    workload = Workload(adapter)
    workload.setup()
    if hasattr(adapter, "platform"):
        untrusted = adapter.platform.untrusted
        tr = lambda: (
            adapter.platform.counter.write_count
            + adapter.platform.tamper_resistant.write_count
        )
    else:
        untrusted = adapter.store
        tr = lambda: adapter.tr.write_count
    io_before = untrusted.stats.snapshot()
    tr_before = tr()
    if profile:
        obs.reset()
        obs.enable_tracing()  # spans keep self time only while tracing
    start = time.perf_counter()
    counts = workload.run_experiment(kind)
    cpu = time.perf_counter() - start
    self_times: Dict[str, float] = {}
    if profile:
        self_times = obs.trace.self_times()
        obs.disable_tracing()
    io = untrusted.stats.delta(io_before)
    model = DiskModel()
    return {
        "counts": counts,
        "cpu": cpu,
        "io": io,
        "tr_writes": tr() - tr_before,
        "write_io": model.write_time(io),
        "read_io": model.read_time(io),
        "tr_io": model.tamper_resistant_time(tr() - tr_before),
        "stored": adapter.stored_bytes(),
        "self_times": self_times,
        "adapter": adapter,
    }


def _figure10(result: Dict, kind: str, out) -> None:
    print(f"\n### Figure 10 — {kind} operation counts\n", file=out)
    print("| op | measured | paper |", file=out)
    print("|---|---|---|", file=out)
    for op in ("read", "update", "delete", "add", "commit"):
        print(
            f"| {op} | {result['counts'][op]} | {FIGURE_10[kind][op]} |",
            file=out,
        )


def main(out=None) -> int:
    """Run the headline experiments and print the markdown report."""
    out = out or sys.stdout
    print("# TDB reproduction — headline evaluation report", file=out)
    print(
        "\nIdentical Figure-10 workloads driven through TDB and the "
        "layered-crypto XDB baseline; I/O modeled with the paper's disk "
        "constants (see DESIGN.md).",
        file=out,
    )

    results = {}
    for kind in ("release", "bind"):
        results[(kind, "TDB")] = _run(TdbAdapter, kind, profile=(kind == "release"))
        results[(kind, "XDB")] = _run(XdbAdapter, kind)

    _figure10(results[("release", "TDB")], "release", out)
    _figure10(results[("bind", "TDB")], "bind", out)

    print("\n### Figure 11 — runtime comparison\n", file=out)
    print("| experiment | TDB | XDB | winner |", file=out)
    print("|---|---|---|---|", file=out)
    for kind in ("release", "bind"):
        tdb = results[(kind, "TDB")]
        xdb = results[(kind, "XDB")]
        tdb_total = tdb["cpu"] + tdb["write_io"] + tdb["read_io"] + tdb["tr_io"]
        xdb_total = xdb["cpu"] + xdb["write_io"] + xdb["read_io"] + xdb["tr_io"]
        print(
            f"| {kind} | {tdb_total*1000:.0f} ms | {xdb_total*1000:.0f} ms "
            f"| TDB {xdb_total/tdb_total:.1f}× |",
            file=out,
        )

    release = results[("release", "TDB")]
    components = figure12_components(
        release["self_times"],
        release["read_io"],
        release["write_io"],
        release["tr_io"],
    )
    total = sum(components.values())
    print("\n### Figure 12 — release runtime analysis\n", file=out)
    print("| module | measured | paper |", file=out)
    print("|---|---|---|", file=out)
    print(f"| DB TOTAL | {total*1000:.0f} ms | 4209 ms |", file=out)
    for module, seconds in components.items():
        print(
            f"| {module} | {seconds/total*100:.0f}% | {_PAPER_FIG12[module]}% |",
            file=out,
        )

    print("\n### §9.5.2 — stored size\n", file=out)
    tdb_rel = results[("release", "TDB")]
    xdb_rel = results[("release", "XDB")]
    chunks = tdb_rel["adapter"].chunks
    print("| system | measured | paper |", file=out)
    print("|---|---|---|", file=out)
    print(
        f"| TDB (live/0.6 util) | {chunks.live_bytes()/0.6/1e6:.2f} MB | 4.0 MB |",
        file=out,
    )
    print(f"| XDB | {xdb_rel['stored']/1e6:.2f} MB | 3.8 MB |", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
