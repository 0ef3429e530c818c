"""Numeric cross-check of the calculus on Hecke characters of Q(i).

Uses the inert modulus (7): its ideal characters pull back from the 48-unit
residue group, the Galois action is coordinate conjugation, and partial sums
of each character over ideals of bounded norm separate poles from no-poles.
The demo triple has symbolic pole order 2; the numeric estimate must agree.
"""

import argparse
import math
import sys
import time

from triplepole.gauss import (
    GaussianModulus,
    HeckeGaussianModel,
    ideal_density,
    unit_trivial_characters,
)
from triplepole.gauss_sums import ideal_count, numeric_triple_estimate, probe_pole


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--X", type=int, default=200000, help="norm bound")
    parser.add_argument("--tau", type=float, default=0.05, help="pole threshold")
    args = parser.parse_args()

    modulus = GaussianModulus((7, 0))
    model = HeckeGaussianModel(modulus)
    chars = model.characters
    print(f"modulus (7): norm {modulus.norm}, {len(modulus.units)} units, "
          f"{len(chars)} ideal characters, density {ideal_density(modulus):.6f}")

    anchor = GaussianModulus((1, 0))
    count = ideal_count(args.X)
    print(f"ideal count up to {args.X}: {count} "
          f"(X*pi/4 = {args.X * math.pi / 4:.0f})")
    trivial = unit_trivial_characters(anchor)[0]
    probe = probe_pole(trivial, args.X, tau=args.tau)
    print(f"anchor ratio {probe.ratio:.6f} vs pi/4 = {math.pi / 4:.6f}")

    theta1 = model.character_label(1)
    theta2 = model.character_label(1)
    chi = model.character_label(10)
    start = time.monotonic()
    est = numeric_triple_estimate(theta1, theta2, chi, X=args.X, tau=args.tau)
    elapsed = time.monotonic() - start
    print(f"demo triple at X={args.X} ({elapsed:.2f}s): "
          f"numeric ell={est.ell_hat}, symbolic ell={est.ell_symbolic}")
    for cell in est.cells:
        print(f"  cell ({cell['j']}, {cell['k']}): ratio={cell['ratio']:.6f} "
              f"-> {cell['verdict']}")
    if not est.agree:
        print("DISAGREEMENT between numeric and symbolic pole orders")
        return 1
    print("numeric and symbolic pole orders agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
