"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its headline numbers; run with -v
(or -s) to see one line per criterion.  Runtime ceilings are asserted so a
performance regression fails the gate, not just slows it.
"""

import math
import time

import pytest

from triplepole import (
    AbelianModel,
    CharacterOfA,
    CuspidalDatumF,
    CyclicData,
    GenericAtom,
    GenericRelationModel,
    GaussianModulus,
    HeckeGaussianModel,
    PreconditionError,
    SweepBudget,
    automorphic_induction,
    build_semidirect,
    find_witness,
    ideal_density,
    matching_matrix,
    numeric_triple_estimate,
    oracle_agreement_sweep,
    oracle_group,
    probe_pole,
    projection_formula_sweep,
    shipped_catalogue,
    triple_pole_order,
    trivial_multiplicity,
    unit_trivial_characters,
)
from triplepole.sweep import sweep


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def catalogue_sweep():
    """Exhaustive sweep of the full shipped catalogue, shared by the bound
    check and the quadratic rigidity check."""
    family = shipped_catalogue()
    start = time.monotonic()
    rep = sweep(family, SweepBudget(strategy="exhaustive"))
    elapsed = time.monotonic() - start
    return family, rep, elapsed


def test_criterion_1_bound_and_shape_full_catalogue(catalogue_sweep):
    family, rep, elapsed = catalogue_sweep
    assert rep.complete is True
    assert rep.violations == []
    assert rep.triples_examined > 10_000_000
    assert rep.max_ell <= max(m.p for m in family.models)
    assert elapsed <= 300.0
    report(
        1,
        f"{rep.triples_examined} triples over {len(family.models)} models, "
        f"0 violations, max ell {rep.max_ell}, {elapsed:.1f}s",
    )


def test_criterion_2_sharp_witness_order_three():
    model = AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3))
    family = shipped_catalogue(p_values=(3,))
    start = time.monotonic()
    w = find_witness(family, target_ell=3)
    elapsed = time.monotonic() - start
    assert w is not None
    found = family.models[w["model"]]
    assert found.describe() == model.describe()
    assert (w["theta1"], w["theta2"], w["chi"], w["ell"]) == ([1], [3], [0], 3)

    # Re-verify the witness from the matrix itself.
    m = matching_matrix(model.label((1,)), model.label((3,)), model.label((0,)))
    assert m.ell == 3 == model.p
    assert m.true_cells == [(0, 2), (1, 0), (2, 1)]
    assert elapsed <= 1.0
    report(2, f"ell=3=p witness (1,3,0) on Z/7 with doubling, {elapsed:.3f}s")


def test_criterion_3_oracle_agreement_full_catalogue(catalogue_sweep):
    family, sweep_rep, _ = catalogue_sweep
    start = time.monotonic()
    triples = 0
    for model in family.models:
        rep = oracle_agreement_sweep(model)
        assert rep["mismatches"] == []
        triples += rep["triples"]
    elapsed = time.monotonic() - start
    # the oracle examines exactly the triples of criterion 1's sweep
    assert triples == 18_048_156 == sweep_rep.triples_examined

    # Spot values on the order-6 group: inducing a faithful character of the
    # normal cyclic part pairs once against itself twisted by itself, twice
    # against itself untwisted.
    G = build_semidirect((3,), ((2,),), 2)
    omega, trivial = CharacterOfA(G, (1,)), CharacterOfA(G, (0,))
    assert trivial_multiplicity(omega, omega, omega, G) == 1
    assert trivial_multiplicity(omega, omega, trivial, G) == 2
    assert elapsed <= 600.0
    report(
        3,
        f"oracle equals calculus on {triples} triples over all "
        f"{len(family.models)} catalogue models, {elapsed:.1f}s",
    )


def test_criterion_4_projection_formula_catalogue_groups():
    # every catalogue group passes the sweep's check that its sigma table
    # composes cyclically (a group that failed it would raise
    # InvariantViolationError)
    family = shipped_catalogue()
    start = time.monotonic()
    checked = statements = 0
    seen = set()
    for model in family.models:
        G = oracle_group(model)
        key = (G.factors, G.sigma, G.p)
        if key in seen:
            continue
        seen.add(key)
        rep = projection_formula_sweep(G)
        assert rep["failures"] == []
        checked += rep["checked"]
        statements += rep["statements"]
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    report(
        4,
        f"projection identity on {checked} induced-character pairs, as "
        f"{statements} orbit statements, over {len(seen)} groups, {elapsed:.1f}s",
    )


def test_criterion_5_degree_mismatch_kills_every_pole():
    cases = [(2, 1, 2), (3, 2, 3), (5, 1, 4)]
    for p, d1, d2 in cases:
        model = GenericRelationModel(
            cyclic=CyclicData(p),
            atoms=(GenericAtom("theta1", d1), GenericAtom("theta2", d2)),
            relations=frozenset(),
            chi_invariant=False,
        )
        t1, t2, chi = model.theta1_label(), model.theta2_label(), model.chi_label()
        m = matching_matrix(t1, t2, chi)
        assert m.ell == 0 and m.true_cells == []
        ell = triple_pole_order(
            automorphic_induction(t1), automorphic_induction(t2), chi
        )
        assert ell == 0

    # The mismatch verdict comes before any cuspidality concern: with an
    # invariant inducing atom the matrix is still all-off at mismatched
    # degrees, while inducing that atom at matched degrees is refused.
    lopsided = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 1, noninvariant=False), GenericAtom("theta2", 2)),
        relations=frozenset(),
        chi_invariant=False,
    )
    assert matching_matrix(
        lopsided.theta1_label(), lopsided.theta2_label(), lopsided.chi_label()
    ).ell == 0
    balanced = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 2, noninvariant=False), GenericAtom("theta2", 2)),
        relations=frozenset(),
        chi_invariant=False,
    )
    with pytest.raises(PreconditionError):
        triple_pole_order(
            automorphic_induction(balanced.theta1_label()),
            automorphic_induction(balanced.theta2_label()),
            balanced.chi_label(),
        )
    report(5, f"all-off matrix for degree pairs {[(d1, d2) for _, d1, d2 in cases]}")


def test_criterion_6_stable_side_contracts_at_most_once():
    models = [
        AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
        AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
        AbelianModel(factors=(5,), sigma=((4,),), cyclic=CyclicData(2)),
    ]
    checked = 0
    ones = 0
    for model in models:
        coords = [model.decode(i) for i in range(model.order)]
        labels = {a: model.label(a) for a in coords}
        invariant = [a for a in coords if model.is_invariant(labels[a])]
        moved = [a for a in coords if not model.is_invariant(labels[a])]

        def expect(sides, chi):
            # 1 exactly when some extension constituent of the first side is
            # the dual of one of the second, twisted by chi.
            lefts, rights = sides
            hits = {
                tuple(
                    (x + y + z) % f
                    for x, y, z, f in zip(left, right, chi, model.factors)
                )
                for left in lefts
                for right in rights
            }
            return 1 if tuple(0 for _ in model.factors) in hits else 0

        for a in invariant:
            pi1 = CuspidalDatumF.stays_cuspidal(labels[a])
            for t2 in moved:
                pi2 = automorphic_induction(labels[t2])
                orbit = [model.apply_sigma(t2, j) for j in range(model.p)]
                for chi in coords:
                    got = triple_pole_order(pi1, pi2, labels[chi])
                    assert got in (0, 1)
                    assert got == expect(([a], orbit), chi)
                    checked += 1
                    ones += got
            for b in invariant:
                pi2 = CuspidalDatumF.stays_cuspidal(labels[b])
                for chi in coords:
                    got = triple_pole_order(pi1, pi2, labels[chi])
                    assert got in (0, 1)
                    assert got == expect(([a], [b]), chi)
                    checked += 1
                    ones += got
    assert ones > 0
    report(6, f"{checked} stable-side triples, all 0/1 with {ones} contractions")


def test_criterion_7_double_pole_forces_invariant_twist():
    family = shipped_catalogue(p_values=(2,))
    rep = sweep(family, SweepBudget(strategy="exhaustive"))
    assert rep.complete is True
    assert rep.rigidity_breaches == []
    double = rep.histogram.get(2, 0)
    assert double > 0

    w = find_witness(family, target_ell=2)
    assert w is not None
    model = family.models[w["model"]]
    assert model.is_invariant(model.label(tuple(w["chi"])))

    restricted = find_witness(family, target_ell=2, require_noninvariant_chi=True)
    assert restricted is None
    report(
        7,
        f"{double} double poles, every twist invariant; restricted search "
        f"exhausted over {len(family.models)} models",
    )


def test_criterion_8_numeric_agreement_on_gaussian_demo():
    X, tau = 10**6, 0.05
    start = time.monotonic()
    model = HeckeGaussianModel(GaussianModulus((7, 0)))
    est = numeric_triple_estimate(
        model.character_label(1),
        model.character_label(1),
        model.character_label(10),
        X=X,
        tau=tau,
    )
    assert est.agree is True
    assert est.ell_hat == 2 == est.ell_symbolic
    density = ideal_density(model.modulus)
    poles = set()
    for cell in est.cells:
        if cell["verdict"] == "pole":
            assert abs(cell["ratio"] - density) <= 0.05
            poles.add((cell["j"], cell["k"]))
        else:
            assert cell["verdict"] == "no-pole"
            assert cell["ratio"] < 0.01
    assert poles == {(0, 0), (1, 1)}

    anchor = unit_trivial_characters(GaussianModulus((1, 0)))[0]
    probe = probe_pole(anchor, X)
    assert abs(probe.ratio - math.pi / 4) <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    report(
        8,
        f"ell_hat=2=ell at X={X}, pole ratios within 0.05 of {density:.4f}, "
        f"anchor within 0.01 of pi/4, {elapsed:.1f}s",
    )


def test_criterion_9_numeric_agreement_on_whole_gaussian_families():
    # every triple with non-invariant theta1 and theta2 and any ideal chi;
    # (13, 0) and (15, 0) take seconds each and stay out of tier-1
    X, tau = 10**6, 0.05
    start = time.monotonic()
    triples = 0
    for modulus, expected in [((7, 0), 432), ((9, 0), 2592)]:
        model = HeckeGaussianModel(GaussianModulus(modulus))
        labels = [model.label(psi) for psi in model.characters]
        noninvariant = [lab for lab in labels if not model.is_invariant(lab)]
        count = 0
        for theta1 in noninvariant:
            for theta2 in noninvariant:
                for chi in labels:
                    # an indeterminate cell raises
                    est = numeric_triple_estimate(theta1, theta2, chi, X=X, tau=tau)
                    assert est.ell_hat == est.ell_symbolic, (modulus, theta1, theta2, chi)
                    count += 1
        assert count == expected
        triples += count
    elapsed = time.monotonic() - start
    assert triples == 3024
    assert elapsed <= 60.0
    report(
        9,
        f"ell_hat = ell on all {triples} triples of moduli (7, 0) and (9, 0) "
        f"at X={X}, none indeterminate, {elapsed:.1f}s",
    )
