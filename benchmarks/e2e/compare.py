#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py BASE.json NEW.json``.

One row per workload and end-to-end metric, with both medians and
quartiles, the ratio with its base, and a verdict against the metric's
bound from ``BENCHMARK.json`` (as recorded in the result files):

* ``worse``      NEW's median is worse than BASE's by more than the bound;
* ``better``     it is better by more than the bound;
* ``within``     neither;
* ``unresolved`` the run-to-run spread (quartile distance over median) of
  either side exceeds the bound, so the bound cannot be checked — unless
  every run of NEW reads better than every run of BASE (``better``).

Also compares the share of operations that failed.  Exit status 1 if any
row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple


def relative_spread(stats: Dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def verdict(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[str, float]:
    """``(verdict, worsening)``; worsening is NEW's change as a share of
    BASE's median, positive when NEW is worse."""
    bound = base["bound"]
    higher = base["better"] == "higher"
    sign = -1.0 if higher else 1.0
    worsening = (
        sign * (new["median"] - base["median"]) / abs(base["median"])
        if base["median"] else 0.0
    )
    if bound is None:
        return "within", worsening
    if max(relative_spread(base), relative_spread(new)) > bound:
        if higher:
            clear = min(new["values"]) > max(base["values"])
        else:
            clear = max(new["values"]) < min(base["values"])
        return ("better" if clear else "unresolved"), worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name, old in base["workloads"].items():
        fresh = new["workloads"].get(name)
        if fresh is None:
            rows.append({"workload": name, "metric": "(missing in NEW)", "verdict": "worse"})
            continue
        for metric, stats in old["e2e"].items():
            other = fresh["e2e"][metric]
            outcome, worsening = verdict(stats, other)
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": stats["unit"],
                "base": stats,
                "new": other,
                "ratio": other["median"] / stats["median"] if stats["median"] else 0.0,
                "worsening": worsening,
                "verdict": outcome,
            })
        shares = [
            entry["ops_failed"] / max(entry["ops_attempted"], 1) for entry in (old, fresh)
        ]
        rows.append({
            "workload": name,
            "metric": "ops_failed/ops_attempted",
            "shares": shares,
            "counts": [(e["ops_failed"], e["ops_attempted"]) for e in (old, fresh)],
            "verdict": "worse" if shares[1] > shares[0] else "within",
        })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':15s} {'metric':18s} {'base median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s} {'new/base':>18s}  verdict"
    ]
    for row in rows:
        if "base" in row:
            def cell(stats: Dict[str, Any]) -> str:
                return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

            ratio = f"{row['ratio']:.3f}x of {row['base']['median']:.4g} {row['unit']}"
            lines.append(
                f"{row['workload']:15s} {row['metric']:18s} {cell(row['base']):>34s} "
                f"{cell(row['new']):>34s} {ratio:>18s}  {row['verdict']}"
            )
        elif "counts" in row:
            (bad_a, all_a), (bad_b, all_b) = row["counts"]
            lines.append(
                f"{row['workload']:15s} {row['metric']:18s} {f'{bad_a}/{all_a}':>34s} "
                f"{f'{bad_b}/{all_b}':>34s} {'':>18s}  {row['verdict']}"
            )
        else:
            lines.append(f"{row['workload']:15s} {row['metric']}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    rows = compare(base, new)
    print(render(rows))
    tally = {v: sum(row["verdict"] == v for row in rows)
             for v in ("better", "within", "worse", "unresolved")}
    print(f"\n{tally}")
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
