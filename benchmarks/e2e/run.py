#!/usr/bin/env python3
"""The repo's end-to-end benchmark.

One run of one workload (what ``BENCHMARK.json``'s command is called with)::

    python3 benchmarks/e2e/run.py --workload chunk_churn --seed 7 --seconds 8 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Every workload, several runs each, into one result file::

    python3 benchmarks/e2e/run.py --workload all --seed 7 --runs 3 --trace \\
        --out benchmarks/e2e/out/result.json

Without ``--seconds`` the window is a fixed number of operations, so the
counts of two same-seed runs are identical.  Each run of a workload is a
fresh process.  Exit status is non-zero if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List

import bench

SCHEMA = 1
MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> Dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def aggregate(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The result file: every run, and per workload the median and
    quartiles of each metric over its runs."""
    manifest = json.loads(MANIFEST.read_text())
    declared = {
        metric["name"]: metric
        for metric in manifest["end_to_end"] + manifest["per_layer"]
    }
    workloads: Dict[str, Any] = {}
    for record in records:
        entry = workloads.setdefault(
            record["workload"],
            {"runs": [], "e2e": {}, "per_layer": {}, "ops_attempted": 0, "ops_failed": 0},
        )
        entry["runs"].append(record)
        if not record["traced"]:
            entry["ops_attempted"] += record["ops_attempted"]
            entry["ops_failed"] += record["ops_failed"]
    for entry in workloads.values():
        for kind in ("e2e", "per_layer"):
            runs = [run[kind] for run in entry["runs"] if kind in run]
            for name in runs[0] if runs else ():
                entry[kind][name] = {
                    "unit": runs[0][name]["unit"],
                    "better": declared.get(name, {}).get("better"),
                    "bound": declared.get(name, {}).get("bound"),
                    **spread([run[name]["value"] for run in runs]),
                }
    return {
        "schema": SCHEMA,
        "claim": None,  # this benchmark defines the baseline; it claims no gain
        "correct": all(record["correct"] for record in records),
        "workloads": workloads,
    }


def child(name: str, args, traced: bool, out: Path) -> None:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    # an incorrect run exits 1 after writing its record; anything else
    # (no record) is a crash
    status = subprocess.run(command).returncode
    if status not in (0, 1) or not out.exists():
        raise SystemExit(f"run of {name} died with status {status}")


def fan_out(names: List[str], args) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as scratch:
        for name in names:
            plan = [False] * args.runs + ([True] if args.trace else [])
            for number, traced in enumerate(plan):
                out = Path(scratch) / f"{name}-{number}.json"
                child(name, args, traced, out)
                records += json.loads(out.read_text())["workloads"][name]["runs"]
    return records


def summary(result: Dict[str, Any]) -> None:
    print("\n== summary: median [q1, q3] over the untraced runs")
    for name, entry in result["workloads"].items():
        print(f"{name}: ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']}")
        for metric, stats in entry["e2e"].items():
            print(f"   {metric:20s} {stats['median']:14.4f} "
                  f"[{stats['q1']:.4f}, {stats['q3']:.4f}] {stats['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*bench.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: a fixed operation count)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="record spans around every layer")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="result file")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if args.workload == "all" or args.runs > 1:
        names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
        result = aggregate(fan_out(names, args))
        summary(result)
        last_line = None
    else:
        record = bench.run_once(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
        bench.print_record(record)
        result = aggregate([record])
        last_line = {
            "correct": record["correct"],
            "attempted": record["ops_attempted"],
            "failed": record["ops_failed"],
            "metrics": record["per_layer" if args.trace else "e2e"],
        }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
    if last_line is not None:
        print(json.dumps(last_line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
