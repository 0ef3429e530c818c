"""Numeric cross-check of the calculus on Hecke characters of Q(i).

Uses the inert modulus (7): its ideal characters pull back from the 48-unit
residue group, the Galois action is coordinate conjugation, and partial sums
of each character over ideals of bounded norm separate poles from no-poles.
The demo triple has symbolic pole order 2; the numeric estimate must agree.

With --moduli m1 m2 ..., the script instead estimates every triple of each
modulus (m, 0): theta1 and theta2 run over the non-invariant ideal
characters, chi over all ideal characters.  It prints how many triples agree
with the calculus, disagree, or are indeterminate (some cell's ratio lies
between the no-pole ceiling and tau), and exits 1 if any triple disagrees or
is indeterminate, or if a modulus has no triple to check (no non-invariant
ideal character, as for 3 and 5).  A modulus the numeric lane does not
support (even, or 1) exits 2 before any family is checked.
"""

import argparse
import math
import sys
import time

from triplepole.errors import IndeterminatePoleError, UnsupportedModulusError
from triplepole.gauss import (
    GaussianModulus,
    HeckeGaussianModel,
    ideal_density,
    unit_trivial_characters,
)
from triplepole.gauss_sums import ideal_count, numeric_triple_estimate, probe_pole


def check_family(model: HeckeGaussianModel, X: int, tau: float) -> bool:
    """Estimate every triple of the model's modulus and print the counts;
    True when there is at least one and all of them agree with the calculus."""
    labels = [model.label(psi) for psi in model.characters]
    noninvariant = [lab for lab in labels if not model.is_invariant(lab)]
    agree = disagree = indeterminate = 0
    start = time.monotonic()
    for theta1 in noninvariant:
        for theta2 in noninvariant:
            for chi in labels:
                try:
                    est = numeric_triple_estimate(theta1, theta2, chi, X=X, tau=tau)
                except IndeterminatePoleError:
                    indeterminate += 1
                    continue
                if est.agree:
                    agree += 1
                else:
                    disagree += 1
    elapsed = time.monotonic() - start
    total = agree + disagree + indeterminate
    print(f"modulus {model.modulus.generator} at X={X}: {total} triples "
          f"({len(noninvariant)} non-invariant of {len(labels)} ideal characters), "
          f"{agree} agree, {disagree} disagree, {indeterminate} indeterminate "
          f"({elapsed:.2f}s)")
    if total == 0:
        print(f"modulus {model.modulus.generator} has no non-invariant ideal character, "
              f"so no triple to check")
    return total > 0 and agree == total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--X", type=int, default=200000, help="norm bound")
    parser.add_argument("--tau", type=float, default=0.05, help="pole threshold")
    parser.add_argument("--moduli", type=int, nargs="+", metavar="M",
                        help="check every triple of each modulus (M, 0) instead of the demo")
    args = parser.parse_args()

    if args.moduli:
        models = []
        for m in args.moduli:
            try:
                models.append(HeckeGaussianModel(GaussianModulus((m, 0))))
            except UnsupportedModulusError as exc:
                print(f"modulus ({m}, 0) is not supported: {exc}", file=sys.stderr)
                return 2
        results = [check_family(model, args.X, args.tau) for model in models]
        if not all(results):
            print("numeric and symbolic pole orders NOT confirmed: some family "
                  "disagrees, is indeterminate or has no triple")
            return 1
        print("numeric and symbolic pole orders agree on every triple")
        return 0

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
