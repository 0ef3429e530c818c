"""Exhaustive pole-order sweep over the shipped model catalogue.

Determines the pole order of every (theta1, theta2, chi) triple of every
catalogue model, checks the partial-permutation shape and the p bound on each
matching matrix, and prints the pole-order histogram.  Shifting theta1 or
theta2 by sigma only permutes the rows and columns of the matching matrix, so
the sweep evaluates one (theta1, theta2) pair per sigma x sigma orbit and
counts it once for each of the orbit's p * p pairs: "examined" counts every
triple, 18,048,156 on the default catalogue, though only about one in p * p
is evaluated.  Any violation or quadratic-rigidity breach is a bug in the
calculus and exits 1, reported for every triple of the orbit it was found in.
"""

import argparse
import sys
import time

from triplepole.sweep import SweepBudget, shipped_catalogue, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--p-values", type=int, nargs="+", default=[2, 3, 5],
        help="extension degrees to include",
    )
    parser.add_argument(
        "--max-group-order", type=int, default=64,
        help="largest character-group order to include",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="examine at most this many triples, cut at a pair boundary",
    )
    args = parser.parse_args()

    family = shipped_catalogue(
        p_values=tuple(args.p_values), max_group_order=args.max_group_order
    )
    print(f"catalogue: {len(family.models)} models")

    budget = SweepBudget(strategy="exhaustive", limit=args.limit)
    start = time.monotonic()
    report = sweep(family, budget)
    elapsed = time.monotonic() - start

    print(f"examined {report.triples_examined} triples in {elapsed:.1f}s "
          f"(complete={report.complete})")
    print(f"max pole order: {report.max_ell}")
    for ell in sorted(report.histogram):
        print(f"  ell={ell}: {report.histogram[ell]}")
    print("sharpest witnesses by pole order:")
    for w in report.witnesses:
        print(f"  ell={w['ell']}: model={w['model']} theta1={w['theta1']} "
              f"theta2={w['theta2']} chi={w['chi']}")
    if report.violations:
        print(f"VIOLATIONS: {len(report.violations)}")
        return 1
    if report.rigidity_breaches:
        print(f"RIGIDITY BREACHES: {len(report.rigidity_breaches)}")
        return 1
    print("no violations, no rigidity breaches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
