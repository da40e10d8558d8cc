"""Command-line front end for the three seeded harnesses.

Usage (see also the Makefile targets and ``docs/TESTING.md``)::

    python -m repro.testing {adversary,differential,faults}
        [--mode counter|direct] [--no-payload-cache] [--one-vector-cache]
        [--aead]                                  # the variant
        [--trials N | --seeds N] [--base-seed N]  # a sweep …
        [--seed N]                                # … or one trial
    adversary:    [--class NAME]
    differential: [--ops N]
    faults:       [--point NAME] [--rate R] [--crash-sites]

The variant flags mean the same on every subcommand:
``--no-payload-cache`` runs with the validated-payload cache disabled, so
detection results can be compared against the cache-enabled default;
``--one-vector-cache`` runs with ``cache_size = fanout`` — a descriptor
cache of one map-chunk vector, so every map-chunk load evicts the previous
one and no stale vector can hide behind a warm one; ``--aead`` puts the
authenticating suites on the partitions and the system partition.  A
harness's own flags pin what a seed would otherwise choose.

Exit status is non-zero iff a harness failure (silent corruption, foreign
exception, or store/model divergence) was found; each failure prints the
command that replays it, variant flags included.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.crypto import accel
from repro.testing.adversary import Adversary
from repro.testing.differential import DifferentialRunner
from repro.testing.faultsweep import POINTS, FaultSweep
from repro.testing.spine import Harness, SweepResult, Variant

HARNESSES = {h.NAME: h for h in (Adversary, DifferentialRunner, FaultSweep)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", default="counter", choices=["counter", "direct"])
    common.add_argument("--no-payload-cache", action="store_true",
                        help="run with the validated-payload cache disabled")
    common.add_argument("--one-vector-cache", action="store_true",
                        help="descriptor cache of a single map-chunk vector "
                             "(cache_size = fanout)")
    common.add_argument("--aead", action="store_true",
                        help="authenticating partition + system ciphers "
                             "(the one-pass path)")
    common.add_argument("--trials", "--seeds", type=int, default=None,
                        help="sweep this many consecutive seeds")
    common.add_argument("--base-seed", type=int, default=0)
    common.add_argument("--seed", type=int, default=None,
                        help="replay a single seed")

    parser = argparse.ArgumentParser(prog="python -m repro.testing")
    sub = parser.add_subparsers(dest="command", required=True)
    adversary = sub.add_parser("adversary", parents=[common],
                               help="seeded mutation sweep")
    adversary.add_argument("--class", dest="attack", choices=Adversary.CLASSES,
                           help="pin the attack class")
    differential = sub.add_parser("differential", parents=[common],
                                  help="model-based differential run")
    differential.add_argument("--ops", type=int, help="pin the sequence length")
    faults = sub.add_parser("faults", parents=[common],
                            help="seeded I/O fault-tolerance sweep")
    faults.add_argument("--point", choices=POINTS, help="pin the fault point")
    faults.add_argument("--rate", type=float, help="pin the error rate")
    faults.add_argument("--crash-sites", action="store_true",
                        help="also run the crash-under-faults site sweep")
    return parser


def run(args: argparse.Namespace) -> Tuple[Harness, SweepResult]:
    """The sweep (or the one seed) the parsed ``args`` name."""
    harness = HARNESSES[args.command](
        Variant(
            mode=args.mode,
            payload_cache=not args.no_payload_cache,
            one_vector_cache=args.one_vector_cache,
            aead=args.aead,
        )
    )
    pins = {
        name: getattr(args, name)
        for name in harness.PINS
        if getattr(args, name) is not None
    }
    if args.seed is not None:
        return harness, harness.run(1, args.seed, **pins)
    trials = args.trials or harness.TRIALS
    return harness, harness.run(trials, args.base_seed, **pins)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.aead and not accel.available():
        print(
            f"--aead needs the AEAD backend, which is unavailable "
            f"({accel.unavailable_reason()})",
            file=sys.stderr,
        )
        return 2
    harness, result = run(args)
    reports = result.reports
    print(f"{harness.NAME}: {harness.variant.flags()} trials={len(reports)}")
    for cell, row in sorted(result.by_cell().items()):
        summary = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(f"  {cell:24s} {summary}")
    if len(reports) == 1:
        print(f"  seed={reports[0].seed}: {reports[0].detail}")
    if result.failures:
        print(f"{len(result.failures)} FAILURE(S):")
        for report in result.failures:
            print(f"  {harness.explain(report)}")
            print(f"  repro: {report.repro_line()}")
    else:
        print(harness.HELD)
    if getattr(args, "crash_sites", False):
        sites = harness.sweep_crash_sites(samples_per_point=2)
        print(f"crash-under-faults: {len(sites)} site(s) swept clean")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
