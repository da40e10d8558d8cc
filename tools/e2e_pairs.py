#!/usr/bin/env python3
"""Alternating end-to-end pairs: a base revision against the working tree.

    make e2e-pairs BASE=<rev> WORKLOAD=chunk_churn PAIRS=10
    python tools/e2e_pairs.py --base <rev> --workload chunk_churn --pairs 10

Checks ``BASE`` out into a temporary ``git worktree`` and runs
``benchmarks/e2e/run.py --workload <w> --seed 7 --seconds 8 --trace 0``
once on each side per pair, alternating the two and switching which side
goes first from one pair to the next, so a drift in the machine's speed
falls on both alike.  Each side's runs are merged with the working tree's
``run.aggregate``; the output is ``compare.py``'s table (base against the
working tree) and, per metric, the pairs each side won.  The worktree is
removed at the end.  Exit status 1 if a row of the table is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
SIDES = ("base", "new")

#: one run of the benchmark in a checkout: (tree, workload, out file) -> record
Runner = Callable[[Path, str, Path], Dict[str, Any]]


def run_once(tree: Path, workload: str, out: Path) -> Dict[str, Any]:
    """One 8 s untraced seed-7 run of ``workload`` in the checkout ``tree``
    (its own ``src``: the benchmark puts it first on the path)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "8", "--trace", "0",
        "--out", str(out),
    ]
    status = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode
    if status not in (0, 1) or not out.exists():
        raise SystemExit(f"run of {workload} in {tree} died with status {status}")
    [record] = json.loads(out.read_text())["workloads"][workload]["runs"]
    return record


def alternate(
    pairs: int, trees: Dict[str, Path], workload: str, scratch: Path, runner: Runner
) -> Dict[str, List[Dict[str, Any]]]:
    """``pairs`` runs per side, the base first in even pairs and the
    working tree first in odd ones; each side's records in pair order."""
    records: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            out = scratch / f"{side}-{pair}.json"
            records[side].append(runner(trees[side], workload, out))
            print(f"pair {pair + 1}/{pairs}: {side} done", file=sys.stderr)
    return records


def wins(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]], better: Dict[str, str]
) -> Dict[str, Dict[str, int]]:
    """Per end-to-end metric, the pairs whose value each side did better
    on (a tie counts for neither)."""
    tally: Dict[str, Dict[str, int]] = {}
    for old, fresh in zip(base, new):
        for metric, stats in old["e2e"].items():
            sign = 1 if better.get(metric) == "higher" else -1
            delta = sign * (fresh["e2e"][metric]["value"] - stats["value"])
            counts = tally.setdefault(metric, dict.fromkeys(SIDES, 0))
            if delta:
                counts["new" if delta > 0 else "base"] += 1
    return tally


def report(records: Dict[str, List[Dict[str, Any]]]) -> int:
    """Print the comparison of the two sides' merged runs; 1 if a row is
    ``worse``."""
    sys.path.insert(0, str(E2E))
    import compare
    import run

    merged = {side: run.aggregate(records[side]) for side in SIDES}
    rows = compare.compare(merged["base"], merged["new"])
    print(compare.render(rows))
    (entry,) = merged["base"]["workloads"].values()
    better = {metric: stats["better"] for metric, stats in entry["e2e"].items()}
    print(f"\npairs won (of {len(records['base'])}), base / new:")
    for metric, counts in wins(records["base"], records["new"], better).items():
        print(f"   {metric:20s} {counts['base']:3d} / {counts['new']:3d}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="chunk_churn")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="e2e-pairs-"))
    worktree = scratch / "base"
    git = ["git", "-C", str(ROOT)]
    subprocess.run(
        [*git, "worktree", "add", "--detach", str(worktree), args.base],
        check=True, stdout=subprocess.DEVNULL,
    )
    try:
        trees = {"base": worktree, "new": ROOT}
        records = alternate(args.pairs, trees, args.workload, scratch, run_once)
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", str(worktree)], check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    return report(records)


if __name__ == "__main__":
    sys.exit(main())
