"""Fuzz-campaign CLI for the randomized CDSS simulator.

Runs seeded random networks (see :mod:`repro.workloads.simulation`) through
the full differential-oracle suite and reports per-seed outcomes::

    python -m repro.simulate --seeds 25
    python -m repro.simulate --seeds 200 --seed-base 20260728 --epochs 6

Every seed generates a fresh network (random peers, schemas, acyclic tgd
mapping graph, trust policies), drives a random insert/modify/delete/conflict
workload over several replicas, and asserts after every epoch that

* incremental maintenance matches from-scratch recomputation,
* provenance-based deletion matches DRed,
* ``cdss.sync()`` matches a hand-rolled publish/reconcile loop,
* memory-backed peers match SQLite-backed peers,
* the sharded, replicated distributed update store produces reconcile
  outcomes and instances identical to the centralized archive,
* every archived transaction stays k-way replicated under churn, so losing
  up to k-1 replicas of a shard never loses published data,
* gossip sketch reconciliation produces reconcile outcomes and instances
  identical to scalar-cursor catch-up.

Each mode flag (``--store``, ``--sync``: one per row of
:data:`repro.config.OPTIONS` with two or more words) chooses the word the
*primary* replica runs; the mirror that checks the option runs the other
word (:data:`repro.workloads.simulation.MIRRORS`).

Exit status is 0 when every oracle holds for every seed, 1 otherwise; each
mismatch prints the failing seed, the (minimal) epoch at which it first
became observable, and the exact ``--seeds 1 --seed-base S ...`` invocation
(including the campaign's mode flags) that reproduces it.

The nightly CI job runs this with a date-derived ``--seed-base`` so every
night covers a fresh region of the seed space.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ConfigurationError
from .workloads.simulation import (
    MODE_OPTIONS,
    SimulationConfig,
    run_simulation,
    simulated_system,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulate",
        description="Randomized CDSS fuzz campaigns with differential oracles.",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of consecutive seeds to run (default: 25)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=1,
        help="first seed of the batch (default: 1); nightly CI passes a date",
    )
    parser.add_argument(
        "--epochs", type=int, default=4,
        help="workload epochs per network (default: 4)",
    )
    parser.add_argument(
        "--max-peers", type=int, default=4,
        help="largest generated network size (default: 4)",
    )
    parser.add_argument(
        "--transactions", type=int, default=6,
        help="upper bound on transactions per epoch (default: 6, min: 1)",
    )
    for flag, option in MODE_OPTIONS.items():
        parser.add_argument(
            f"--{flag}", choices=option.choices, default=option.default,
            help=f"{option.group}.{option.field} of the primary replica "
                 f"(default: {option.default}); the mirror that checks it "
                 "runs the other",
        )
    parser.add_argument(
        "--quiet", action="store_true",
        help="only print failures and the final summary",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    modes = {flag: getattr(args, flag) for flag in MODE_OPTIONS}
    try:
        config = SimulationConfig(
            epochs=args.epochs,
            max_peers=args.max_peers,
            transactions_per_epoch=(min(2, args.transactions), args.transactions),
            system=simulated_system(**modes),
        )
    except ConfigurationError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2

    # A reproduction names every mode the campaign moved off its default.
    mode_flags = "".join(
        f" --{flag} {word}"
        for flag, word in modes.items()
        if word != MODE_OPTIONS[flag].default
    )
    failed = 0
    transactions = 0
    checks = 0
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        repro = (
            f"--seeds 1 --seed-base {seed} --epochs {args.epochs} "
            f"--max-peers {args.max_peers} --transactions {args.transactions}"
            f"{mode_flags}"
        )
        try:
            result = run_simulation(seed, config)
        except Exception as error:  # crashes are fuzz findings too: name the seed
            failed += 1
            print(
                f"FAIL seed {seed}: crashed with {type(error).__name__}: {error} "
                f"(reproduce: {repro})",
                file=sys.stderr,
            )
            continue
        transactions += result.transactions
        checks += result.oracle_checks
        if result.ok:
            if not args.quiet:
                print(
                    f"seed {seed}: ok ({result.peers} peers, {result.mappings} "
                    f"mappings, {result.transactions} txns, "
                    f"{result.oracle_checks} oracle checks)"
                )
        else:
            failed += 1
            for failure in result.failures:
                print(
                    f"FAIL {failure.describe()} (reproduce: {repro})",
                    file=sys.stderr,
                )

    verdict = "ok" if failed == 0 else f"{failed} seed(s) FAILED"
    print(
        f"simulate: {args.seeds} seeds from {args.seed_base}: {verdict} "
        f"({transactions} transactions, {checks} oracle checks)"
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
