"""The ``paper`` phase of ``python -m repro.bench``: the paper's headline
evaluation — Figures 10–12 and the §9.5.2 stored sizes — as one markdown
report (:func:`markdown`), with the paper's shape claims as floors.

The full sweep (micro-benchmarks, regressions, ablations) lives in
``benchmarks/``.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import Floor
from repro.bench.adapters import TdbAdapter, XdbAdapter
from repro.bench.workload import FIGURE_10, measure

FLOORS = (
    # Figure 10 is the workload's specification: each system runs its
    # counts exactly (summed |measured - paper| over the five operations)
    Floor("fig10_count_error", ("experiments", "*", "*", "count_error"), "<=", 0),
    # Figure 11: TDB beats XDB, CPU plus modeled I/O (XDB total / TDB total)
    Floor("tdb_speedup", ("experiments", "*", "tdb_speedup"), ">", 1.0),
    # Figure 12: "the overhead is dominated by writes to the untrusted
    # store", and encryption plus hashing are a small share
    Floor("fig12_untrusted_write_share", ("fig12", "untrusted_write_share"), ">", 0.5),
    Floor("fig12_crypto_share", ("fig12", "crypto_share"), "<", 0.25),
)

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


def run(tiny: bool) -> Dict[str, object]:
    """Both experiments on both systems; ``tiny`` changes nothing, since
    Figure 10's mix is the workload's specification."""
    experiments: Dict[str, Dict[str, object]] = {}
    for kind in ("release", "bind"):
        tdb = TdbAdapter()
        row = {
            "TDB": measure(tdb, kind, profile=(kind == "release")),
            "XDB": measure(XdbAdapter(), kind),
        }
        for result in row.values():
            result["count_error"] = sum(
                abs(result["counts"][op] - paper) for op, paper in FIGURE_10[kind].items()
            )
        row["tdb_speedup"] = round(row["XDB"]["total_s"] / row["TDB"]["total_s"], 2)
        row["tdb_live_bytes"] = tdb.chunks.live_bytes()
        experiments[kind] = row

    release = experiments["release"]["TDB"]
    components = figure12_components(
        release["self_times"], release["read_io_s"], release["write_io_s"], release["tr_io_s"]
    )
    total = sum(components.values())
    return {
        "experiments": experiments,
        "fig12": {
            "total_ms": round(total * 1e3, 1),
            "shares": {row: round(s / total, 4) for row, s in components.items()},
            "untrusted_write_share": round(components["untrusted store write"] / total, 4),
            "crypto_share": round(
                (components["encryption"] + components["hashing"]) / total, 4
            ),
        },
    }


def markdown(results: Dict[str, object]) -> str:
    """The report: Figure 10's counts, Figure 11's runtimes, Figure 12's
    breakdown and §9.5.2's stored sizes, each beside the paper's."""
    experiments = results["experiments"]
    lines = [
        "# TDB reproduction — headline evaluation report",
        "",
        "Identical Figure-10 workloads driven through TDB and the layered-crypto "
        "XDB baseline; I/O modeled with the paper's disk constants (see DESIGN.md).",
    ]
    for kind in ("release", "bind"):
        counts = experiments[kind]["TDB"]["counts"]
        lines += ["", f"### Figure 10 — {kind} operation counts", ""]
        lines += ["| op | measured | paper |", "|---|---|---|"]
        lines += [f"| {op} | {counts[op]} | {paper} |" for op, paper in FIGURE_10[kind].items()]

    lines += ["", "### Figure 11 — runtime comparison", ""]
    lines += ["| experiment | TDB | XDB | winner |", "|---|---|---|---|"]
    for kind in ("release", "bind"):
        row = experiments[kind]
        lines.append(
            f"| {kind} | {row['TDB']['total_s'] * 1000:.0f} ms "
            f"| {row['XDB']['total_s'] * 1000:.0f} ms | TDB {row['tdb_speedup']:.1f}× |"
        )

    fig12 = results["fig12"]
    lines += ["", "### Figure 12 — release runtime analysis", ""]
    lines += ["| module | measured | paper |", "|---|---|---|"]
    lines.append(f"| DB TOTAL | {fig12['total_ms']:.0f} ms | 4209 ms |")
    lines += [
        f"| {module} | {share * 100:.0f}% | {_PAPER_FIG12[module]}% |"
        for module, share in fig12["shares"].items()
    ]

    release = experiments["release"]
    lines += ["", "### §9.5.2 — stored size", ""]
    lines += ["| system | measured | paper |", "|---|---|---|"]
    lines.append(f"| TDB (live/0.6 util) | {release['tdb_live_bytes'] / 0.6 / 1e6:.2f} MB | 4.0 MB |")
    lines.append(f"| XDB | {release['XDB']['stored_bytes'] / 1e6:.2f} MB | 3.8 MB |")
    return "\n".join(lines)
