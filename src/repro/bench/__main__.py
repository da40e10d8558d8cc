"""``python -m repro.bench`` — the crypto, store, server and paper phases
over one floor table, one CLI and one result file.

    python -m repro.bench                               # every phase, full size
    python -m repro.bench store server --tiny           # CI smoke sizing
    python -m repro.bench --check --out BENCH.json      # what BENCH.json holds

Prints one line per floor, then the markdown report of every number the
paper gives a value for (:func:`repro.bench.report.markdown`).
``--out`` writes one section per phase plus the ``floors`` list (name,
value, bound, verdict); ``--check`` exits 1 unless every floor holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.bench import AEAD_TIERS, OPS, crypto_bench, report, server_bench, store_bench
from repro.crypto import accel

PHASES = {
    "crypto": crypto_bench,
    "store": store_bench,
    "server": server_bench,
    "paper": report,
}


def _lookup(section, keys: Sequence[str]):
    for key in keys:
        section = section[key]
    return section


def _matches(section, path: Sequence[str], keys: Tuple[str, ...] = ()) -> Iterator[Tuple[str, ...]]:
    """The key paths in ``section`` that ``path`` (``"*"``: any key) names."""
    if not path:
        yield keys
    elif isinstance(section, dict):
        head, rest = path[0], path[1:]
        for key in section if head == "*" else [head] if head in section else []:
            yield from _matches(section[key], rest, keys + (key,))


def evaluate(results: Dict[str, Dict]) -> List[Dict[str, object]]:
    """One row per floor each phase in ``results`` declares, per match of
    its path: what ``check`` enforces and ``BENCH.json`` records.  A path
    that names nothing is one ``fail`` row with no value, unless its tier
    has no backend on this machine (:data:`AEAD_TIERS`)."""
    rows = []
    for phase, section in results.items():
        for floor in PHASES[phase].FLOORS:
            matches = list(_matches(section, floor.path))
            if not matches and not (
                (phase, floor.path[0]) in AEAD_TIERS and not accel.available()
            ):
                rows.append({
                    "name": f"{phase}.{floor.name}",
                    "path": [phase, *floor.path],
                    "value": None,
                    "op": floor.op,
                    "bound": floor.bound,
                    "verdict": "fail",
                })
            for keys in matches:
                value = _lookup(section, keys)
                bound = floor.bound * (_lookup(section, floor.of) if floor.of else 1)
                wild = "".join(f"[{k}]" for k, part in zip(keys, floor.path) if part == "*")
                rows.append({
                    "name": f"{phase}.{floor.name}{wild}",
                    "path": [phase, *keys],
                    "value": value,
                    "op": floor.op,
                    "bound": bound,
                    "verdict": "pass" if OPS[floor.op](value, bound) else "fail",
                })
    return rows


def check(results: Dict[str, Dict]) -> int:
    """Print a ``FAIL`` line for each floor that does not hold; returns the
    process exit status."""
    failed = [row for row in evaluate(results) if row["verdict"] != "pass"]
    for row in failed:
        value = "missing" if row["value"] is None else row["value"]
        print(
            f"FAIL: {row['name']} is {value}, must be {row['op']} {row['bound']:g}",
            file=sys.stderr,
        )
    if failed:
        return 1
    print("acceptance floors met")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "phases", nargs="*", metavar="phase",
        help=f"any of {', '.join(PHASES)} (default: all, in that order)",
    )
    parser.add_argument("--tiny", action="store_true", help="CI smoke sizing")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 unless every floor holds"
    )
    parser.add_argument("--out", help="write the results as JSON (BENCH.json)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.phases if name not in PHASES]
    if unknown:
        parser.error(f"unknown phase {unknown[0]!r} (choose from {', '.join(PHASES)})")

    results: Dict[str, Dict] = {}
    for name in args.phases or PHASES:
        results[name] = PHASES[name].run(args.tiny)
        for row in evaluate({name: results[name]}):
            print(
                f"{row['verdict']:>4}  {row['name']:<52} {row['value']!s:>10} "
                f"{row['op']} {row['bound']:g}"
            )
    if results.keys() - {"server"}:  # the server phase has no paper value
        print("\n" + report.markdown(results) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**results, "floors": evaluate(results)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return check(results) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
