"""Command-line front end for the adversary and differential harnesses.

Usage (see also the Makefile targets)::

    python -m repro.testing adversary   [--mode counter] [--trials 64]
                                        [--seed N] [--class NAME]
                                        [--no-payload-cache] [--aead]
                                        [--one-vector-cache]
    python -m repro.testing differential [--mode counter] [--seeds 20]
                                        [--seed N] [--ops 50]
                                        [--one-vector-cache]
    python -m repro.testing faults      [--mode counter] [--trials 150]
                                        [--seed N] [--point NAME]
                                        [--rate R] [--crash-sites]
                                        [--no-payload-cache]
                                        [--one-vector-cache]

``--no-payload-cache`` reruns a sweep with the validated-payload cache
disabled, so detection results can be compared against the cache-enabled
default.  ``--one-vector-cache`` reruns it with ``cache_size = fanout`` —
a descriptor cache of one map-chunk vector, so every map-chunk load
evicts the previous one and no stale vector can hide behind a warm one.

Exit status is non-zero iff a harness failure (silent corruption, foreign
exception, or store/model divergence) was found; each failure prints a
copy-pasteable repro line.
"""

from __future__ import annotations

import argparse
import sys

from repro.testing.adversary import (
    AEAD_PARTITION_SPECS,
    Adversary,
    build_scenario,
)
from repro.testing.differential import DifferentialRunner
from repro.testing.faultsweep import FaultSweep


def _run_adversary(args: argparse.Namespace) -> int:
    scenario = None
    if args.aead:
        from repro.crypto import aead

        if not aead.available():
            print(
                f"--aead needs the AEAD backend, which is unavailable "
                f"({aead.unavailable_reason()})",
                file=sys.stderr,
            )
            return 2
        scenario = build_scenario(
            args.mode,
            partition_specs=AEAD_PARTITION_SPECS,
            system_cipher="aes-256-gcm",
        )
    adversary = Adversary(
        mode=args.mode,
        payload_cache=not args.no_payload_cache,
        scenario=scenario,
        one_vector_cache=args.one_vector_cache,
    )
    if args.seed is not None:
        report = adversary.run_trial(args.seed, attack=args.attack_class)
        print(
            f"seed={report.seed} class={report.attack} "
            f"outcome={report.outcome}"
        )
        print(f"  {report.detail}")
        if report.failed:
            print(f"repro: {report.repro_line(args.mode)}")
            return 1
        return 0
    result = adversary.run(args.trials, base_seed=args.base_seed)
    print(f"adversary sweep: mode={args.mode} trials={len(result.reports)}")
    for attack, row in sorted(result.by_class().items()):
        summary = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(f"  {attack:24s} {summary}")
    if result.failures:
        print(f"{len(result.failures)} FAILURE(S):")
        for report in result.failures:
            print(f"  {report.outcome}: {report.detail}")
            print(f"  repro: {report.repro_line(args.mode)}")
        return 1
    print("oracle held: every read returned committed bytes or raised "
          "TamperDetectedError")
    return 0


def _run_differential(args: argparse.Namespace) -> int:
    runner = DifferentialRunner(
        mode=args.mode, num_ops=args.ops, one_vector_cache=args.one_vector_cache
    )
    seeds = (
        [args.seed]
        if args.seed is not None
        else range(args.base_seed, args.base_seed + args.seeds)
    )
    failures = runner.run(seeds)
    total = len(list(seeds))
    print(
        f"differential: mode={args.mode} seeds={total} "
        f"ops/seed={args.ops} failures={len(failures)}"
    )
    for failure in failures:
        shrunk = runner.shrink(failure)
        print(shrunk.describe())
    return 1 if failures else 0


def _run_faults(args: argparse.Namespace) -> int:
    sweep = FaultSweep(
        mode=args.mode,
        payload_cache=not args.no_payload_cache,
        one_vector_cache=args.one_vector_cache,
    )
    if args.seed is not None:
        report = sweep.run_trial(args.seed, point=args.point, rate=args.rate)
        print(
            f"seed={report.seed} point={report.point} rate={report.rate} "
            f"outcome={report.outcome}"
        )
        print(f"  {report.detail}")
        if report.failed:
            print(f"repro: {report.repro_line(args.mode)}")
            return 1
        return 0
    result = sweep.run(args.trials, base_seed=args.base_seed)
    print(f"fault sweep: mode={args.mode} trials={len(result.reports)}")
    for point, row in sorted(result.by_point().items()):
        summary = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(f"  {point:8s} {summary}")
    status = 0
    if result.failures:
        print(f"{len(result.failures)} FAILURE(S):")
        for report in result.failures:
            print(f"  {report.outcome}: {report.detail}")
            print(f"  repro: {report.repro_line(args.mode)}")
        status = 1
    else:
        print("invariant held: every op succeeded, raised a typed TDB "
              "error, or left a reported, healable quarantine")
    if args.crash_sites:
        sites = sweep.sweep_crash_sites(samples_per_point=2)
        print(f"crash-under-faults: {len(sites)} site(s) swept clean")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.testing")
    sub = parser.add_subparsers(dest="command", required=True)

    adv = sub.add_parser("adversary", help="seeded mutation sweep")
    adv.add_argument("--mode", default="counter",
                     choices=["counter", "direct"])
    adv.add_argument("--trials", type=int, default=64)
    adv.add_argument("--base-seed", type=int, default=0)
    adv.add_argument("--seed", type=int, default=None,
                     help="replay a single trial seed")
    adv.add_argument("--class", dest="attack_class", default=None,
                     help="pin the attack class when replaying a seed")
    adv.add_argument("--no-payload-cache", action="store_true",
                     help="judge with the validated-payload cache disabled")
    adv.add_argument("--aead", action="store_true",
                     help="sweep the AEAD scenario (authenticating "
                          "partition + system ciphers, one-pass path)")

    diff = sub.add_parser("differential", help="model-based differential run")
    diff.add_argument("--mode", default="counter",
                      choices=["counter", "direct"])
    diff.add_argument("--seeds", type=int, default=20)
    diff.add_argument("--base-seed", type=int, default=0)
    diff.add_argument("--seed", type=int, default=None,
                      help="replay a single sequence seed")
    diff.add_argument("--ops", type=int, default=50)

    faults = sub.add_parser("faults", help="seeded I/O fault-tolerance sweep")
    faults.add_argument("--mode", default="counter",
                        choices=["counter", "direct"])
    faults.add_argument("--trials", type=int, default=150)
    faults.add_argument("--base-seed", type=int, default=0)
    faults.add_argument("--seed", type=int, default=None,
                        help="replay a single trial seed")
    faults.add_argument("--point", default=None,
                        help="pin the fault point when replaying a seed")
    faults.add_argument("--rate", type=float, default=None,
                        help="pin the error rate when replaying a seed")
    faults.add_argument("--crash-sites", action="store_true",
                        help="also run the crash-under-faults site sweep")
    faults.add_argument("--no-payload-cache", action="store_true",
                        help="judge with the validated-payload cache disabled")

    for sweep in (adv, diff, faults):
        sweep.add_argument("--one-vector-cache", action="store_true",
                           help="descriptor cache of a single map-chunk "
                                "vector (cache_size = fanout)")

    args = parser.parse_args(argv)
    if args.command == "adversary":
        return _run_adversary(args)
    if args.command == "faults":
        return _run_faults(args)
    return _run_differential(args)


if __name__ == "__main__":
    sys.exit(main())
