"""Exact character-theory oracle: induced characters, multiplicities, and
agreement with the matching-matrix calculus.

The frozen values here were computed by hand from the character table of
the order-6 dihedral group (Z/3 by negation) and the order-21 Frobenius
group (Z/7 by doubling).  Group law, character values, induction and inner
products are those of the reference oracle in `class_function_oracle`,
against which the package's kernel is compared.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triplepole.group_oracle as group_oracle
import triplepole.sweep as sweep_module
from triplepole.calculus import matching_matrix
from triplepole.errors import (
    InvariantViolationError,
    ModelMismatchError,
    PreconditionError,
)
from triplepole.gauss import GaussianModulus, HeckeGaussianModel
from triplepole.group_oracle import (
    PAIRING_NOTE,
    CharacterOfA,
    FiniteGroupModel,
    build_semidirect,
    dual_sigma,
    oracle_agreement_sweep,
    oracle_compare,
    oracle_group,
    projection_formula_sweep,
    trivial_multiplicity,
)
from triplepole.models import AbelianModel, CyclicData, _mat_apply, sigma_powers
from triplepole.sweep import shipped_catalogue

from class_function_oracle import (
    ClassFunction,
    CyclotomicInt,
    character_order,
    characters_of_base,
    conjugacy_classes,
    elements,
    identity,
    induced_character,
    inner_product,
    inv,
    mul,
    projection_formula_check,
    sigma_apply,
    trivial_class_function,
    value,
)


@pytest.fixture
def dihedral6():
    return build_semidirect((3,), ((2,),), 2)


@pytest.fixture
def frobenius21():
    return build_semidirect((7,), ((2,),), 3)


# ---------------------------------------------------------------------------
# dual pairing


def test_dual_sigma_mixed_factors():
    # the plain transpose of this automorphism is not well defined on (2, 4)
    assert dual_sigma((2, 4), ((1, 1), (0, 1))) == ((1, 0), (2, 1))


def test_dual_sigma_identity():
    ident = ((1, 0), (0, 1))
    assert dual_sigma((2, 4), ident) == ident


def test_dual_sigma_is_an_involution():
    for factors, sigma in [
        ((2, 4), ((1, 1), (0, 1))),
        ((3, 3), ((0, 1), (1, 0))),
        ((7,), ((2,),)),
        ((2, 2, 2), ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
    ]:
        assert dual_sigma(factors, dual_sigma(factors, sigma)) == tuple(
            tuple(row) for row in sigma
        )


def test_dual_sigma_rejects_ill_defined():
    with pytest.raises(PreconditionError):
        dual_sigma((2, 4), ((1, 0), (1, 1)))


def pairing_exponent(factors, nexp, a, b):
    return sum(x * y * (nexp // d) for x, y, d in zip(a, b, factors)) % nexp


@pytest.mark.parametrize(
    "factors,sigma",
    [((2, 4), ((1, 1), (0, 1))), ((3, 3), ((0, 1), (1, 0))), ((8,), ((3,),))],
)
def test_dual_sigma_pairing_identity(factors, sigma):
    # pairing(sigma a, b) == pairing(a, dual_sigma b) for all a, b
    from itertools import product
    from math import lcm

    dual = dual_sigma(factors, sigma)
    n = lcm(*factors)
    for a in product(*(range(d) for d in factors)):
        for b in product(*(range(d) for d in factors)):
            lhs = pairing_exponent(factors, n, _mat_apply(sigma, factors, a), b)
            rhs = pairing_exponent(factors, n, a, _mat_apply(dual, factors, b))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# group construction


def test_group_orders(dihedral6, frobenius21):
    assert dihedral6.order == 6
    assert dihedral6.base_order == 3
    assert frobenius21.order == 21
    assert frobenius21.nexp == 7


def test_direct_product_allowed():
    g = build_semidirect((5,), ((1,),), 3)
    assert g.order == 15
    assert mul(g, ((2,), 1), ((4,), 2)) == ((1,), 0)


def test_sigma_order_must_divide_p():
    with pytest.raises(PreconditionError):
        build_semidirect((7,), ((2,),), 2)  # doubling has order 3 mod 7


def test_group_axioms_spot_check(frobenius21):
    G = frobenius21
    elems = elements(G)
    assert len(elems) == 21
    e = identity(G)
    sample = elems[::4]
    for g in sample:
        assert mul(G, g, e) == g
        assert mul(G, e, g) == g
        assert mul(G, g, inv(G, g)) == e
    for g in sample:
        for h in sample:
            for k in sample:
                assert mul(G, mul(G, g, h), k) == mul(G, g, mul(G, h, k))


def test_conjugation_twists_the_base(dihedral6):
    G = dihedral6
    s = ((0,), 1)
    a = ((1,), 0)
    assert mul(G, mul(G, s, a), inv(G, s)) == ((2,), 0)


def test_conjugacy_classes(dihedral6, frobenius21):
    sizes = sorted(len(c) for c in conjugacy_classes(dihedral6))
    assert sizes == [1, 2, 3]
    sizes21 = sorted(len(c) for c in conjugacy_classes(frobenius21))
    assert sizes21 == [1, 3, 3, 7, 7]


# ---------------------------------------------------------------------------
# characters of the base


def test_character_values_are_roots(dihedral6):
    omega = CharacterOfA(dihedral6, (1,))
    assert value(omega, (0,)) == CyclotomicInt.one(3)
    assert value(omega, (1,)) == CyclotomicInt.root(3, 1)
    assert omega.value_exponent((2,)) == 2


def test_character_is_multiplicative(frobenius21):
    lam = CharacterOfA(frobenius21, (3,))
    for a in range(7):
        for b in range(7):
            combined = lam.value_exponent(((a + b) % 7,))
            assert combined == (lam.value_exponent((a,)) + lam.value_exponent((b,))) % 7


def test_character_orders(dihedral6):
    assert character_order(CharacterOfA(dihedral6, (0,))) == 1
    assert character_order(CharacterOfA(dihedral6, (1,))) == 3
    assert character_order(CharacterOfA(dihedral6, (2,))) == 3


def test_characters_of_base_are_distinct(dihedral6):
    chars = characters_of_base(dihedral6)
    assert len(chars) == 3
    assert len({c.exponents for c in chars}) == 3


def test_character_arity_checked(dihedral6):
    with pytest.raises(PreconditionError):
        CharacterOfA(dihedral6, (1, 0))


# ---------------------------------------------------------------------------
# induction


def test_induced_character_dihedral_values(dihedral6):
    ind = induced_character(CharacterOfA(dihedral6, (1,)), dihedral6)
    assert ind(((0,), 0)).as_integer() == 2
    assert ind(((1,), 0)).as_integer() == -1
    assert ind(((2,), 0)).as_integer() == -1
    for a in range(3):
        assert ind(((a,), 1)).is_zero()


def test_induced_degree_is_p_times_one(frobenius21):
    ind = induced_character(CharacterOfA(frobenius21, (1,)), frobenius21)
    assert ind(((0,), 0)).as_integer() == 3


def test_induction_restricts_to_orbit_sum(frobenius21):
    G = frobenius21
    lam = CharacterOfA(G, (1,))
    ind = induced_character(lam, G)
    for a in G.base_elements():
        orbit_sum = CyclotomicInt.zero(G.nexp)
        for t in range(G.p):
            orbit_sum = orbit_sum + value(lam, sigma_apply(G, a, t))
        assert ind((a, 0)) == orbit_sum


def test_induced_character_is_a_class_function(frobenius21):
    ind = induced_character(CharacterOfA(frobenius21, (2,)), frobenius21)
    ClassFunction(frobenius21, ind.values, check=True)


def test_induction_rejects_foreign_character(dihedral6, frobenius21):
    lam = CharacterOfA(dihedral6, (1,))
    with pytest.raises(ModelMismatchError):
        induced_character(lam, frobenius21)


# ---------------------------------------------------------------------------
# inner products


def test_norm_one_for_noninvariant(dihedral6, frobenius21):
    for G in (dihedral6, frobenius21):
        ind = induced_character(CharacterOfA(G, (1,)), G)
        assert inner_product(ind, ind) == 1


def test_norm_p_for_invariant(dihedral6):
    ind = induced_character(CharacterOfA(dihedral6, (0,)), dihedral6)
    assert inner_product(ind, ind) == 2


def test_trivial_component(dihedral6):
    one = trivial_class_function(dihedral6)
    ind0 = induced_character(CharacterOfA(dihedral6, (0,)), dihedral6)
    ind1 = induced_character(CharacterOfA(dihedral6, (1,)), dihedral6)
    assert inner_product(ind0, one) == 1
    assert inner_product(ind1, one) == 0


def test_inner_product_rejects_cross_group(dihedral6, frobenius21):
    f = trivial_class_function(dihedral6)
    g = trivial_class_function(frobenius21)
    with pytest.raises(ModelMismatchError):
        inner_product(f, g)


# ---------------------------------------------------------------------------
# trivial multiplicity


def test_dihedral_triple_multiplicities(dihedral6):
    omega = CharacterOfA(dihedral6, (1,))
    omega2 = CharacterOfA(dihedral6, (2,))
    triv = CharacterOfA(dihedral6, (0,))
    assert trivial_multiplicity(omega, omega, omega, dihedral6) == 1
    assert trivial_multiplicity(omega, omega, triv, dihedral6) == 2
    assert trivial_multiplicity(omega, omega, omega2, dihedral6) == 1


def test_multiplicity_matches_honest_inner_product(monkeypatch):
    # the kernel, called as the agreement sweep calls it (every chi at once,
    # in one block and one base element per block) and as
    # trivial_multiplicity calls it (one chi), must agree with literally
    # multiplying the three induced class functions and pairing against the
    # trivial one: on every triple of the small groups, and on the triples
    # of orbit representatives of Z11p5
    for name, G in ORBIT_GROUPS.items():
        chars = characters_of_base(G)
        one = trivial_class_function(G)
        inds = [induced_character(lam, G) for lam in chars]
        idx = np.unique(group_oracle._orbit_reps(G)) if name == "Z11p5" else np.arange(len(chars))
        E = group_oracle._exponent_table(G)
        R = group_oracle._remainder_matrix(G.nexp)
        stack = E[idx] + (np.arange(len(idx)) * 3 * G.nexp)[:, None, None]
        for i1, i2 in itertools.product(idx.tolist(), repeat=2):
            batched = group_oracle._multiplicities(E[i1], E[i2], stack, G, R)
            with monkeypatch.context() as m:
                m.setattr(group_oracle, "_BLOCK_ENTRIES", 1)
                assert (group_oracle._multiplicities(E[i1], E[i2], stack, G, R) == batched).all()
            for i3, value in zip(idx.tolist(), batched.tolist()):
                values = {g: inds[i1](g) * inds[i2](g) * inds[i3](g) for g in elements(G)}
                direct = inner_product(ClassFunction(G, values, check=False), one)
                single = trivial_multiplicity(chars[i1], chars[i2], chars[i3], G)
                assert value == direct == single, (name, i1, i2, i3)


def test_kernel_rejects_an_exponent_row_that_is_not_sigma_stable(frobenius21):
    # lam_1 at sigma(b) replaced by lam_1 at b for one b: no character has
    # this row, and its sum is not a rational integer
    G = frobenius21
    E = group_oracle._exponent_table(G)
    R = group_oracle._remainder_matrix(G.nexp)
    corrupt = E[1].copy()
    corrupt[1, 1] = corrupt[0, 1]
    with pytest.raises(InvariantViolationError):
        group_oracle._multiplicities(corrupt, E[1], E[:1], G, R)
    row = G.sigma_index[1]
    row[1], row[2] = row[2], row[1]
    lam = CharacterOfA(G, (1,))
    with pytest.raises(InvariantViolationError):
        trivial_multiplicity(lam, lam, lam, G)


def test_oracle_compare_on_a_large_prime_base_holds_no_per_element_tables():
    # |A| = 100003 at p = 3: the group keeps its sigma table as one intp
    # array and the multiplicity reads three characters' exponent rows, a
    # few MB each (a peak of about 17 MB); a Python table per base element
    # (coordinates, their index, each character's exponents) takes the peak
    # past 50 MB, and the sigma table as a list of Python ints past 25 MB
    model = AbelianModel(factors=(100003,), sigma=((7120,),), cyclic=CyclicData(3))
    labels = [model.label((1,)), model.label((1,)), model.label((0,))]
    tracemalloc.start()
    try:
        report = oracle_compare(model, *labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.multiplicity == report.ell == 0
    assert peak < 20 << 20  # bytes


# ---------------------------------------------------------------------------
# projection formula


def test_projection_formula_single(dihedral6):
    V = induced_character(CharacterOfA(dihedral6, (1,)), dihedral6)
    W = CharacterOfA(dihedral6, (2,))
    assert projection_formula_check(V, W, dihedral6)


def test_projection_formula_sweep_counts(dihedral6, frobenius21):
    # characters of Z/3 fall into 2 sigma-orbits, those of Z/7 into 3
    r6 = projection_formula_sweep(dihedral6)
    assert r6 == {"checked": 9, "statements": 4, "failures": []}
    r21 = projection_formula_sweep(frobenius21)
    assert r21 == {"checked": 49, "statements": 9, "failures": []}
    # p = 1: sigma is the identity, every orbit a single character
    r5 = projection_formula_sweep(FiniteGroupModel((5,), ((1,),), 1))
    assert r5 == {"checked": 25, "statements": 25, "failures": []}
    assert all(type(r5[key]) is int for key in ("checked", "statements"))  # JSON-ready


def test_projection_formula_sweep_mixed_factors():
    G = build_semidirect((2, 4), dual_sigma((2, 4), ((1, 1), (0, 1))), 2)
    r = projection_formula_sweep(G)
    assert r["checked"] == 64
    assert r["failures"] == []


def test_projection_sweep_rejects_an_unstable_sigma_index():
    # swapping two images of sigma in the index table (not in the group
    # itself) breaks the stability test, which the sweep reports as a broken
    # invariant instead of certifying anything
    G = build_semidirect((7,), ((2,),), 3)
    row = G.sigma_index[1]
    row[1], row[2] = row[2], row[1]
    with pytest.raises(InvariantViolationError, match="not sigma-stable"):
        projection_formula_sweep(G)


def test_projection_sweep_rejects_a_sigma_index_without_the_identity():
    # a constant row composes with itself; only row 0 = identity rules it out
    G = FiniteGroupModel((5,), ((1,),), 1)
    G.sigma_index[0] = [0] * 5
    with pytest.raises(InvariantViolationError, match=r"rows \[0\] are not powers"):
        projection_formula_sweep(G)


def test_oracle_sweeps_price_their_exponent_table(monkeypatch):
    # every catalogue model and Gaussian test model is admitted
    models = list(shipped_catalogue().models)
    models += [HeckeGaussianModel(GaussianModulus((m, 0))) for m in (3, 5, 7)]
    ceiling = group_oracle.ORACLE_MAX_EXPONENT_ENTRIES
    assert max(m.p * m.order**2 for m in models) <= ceiling

    # (2003,) at p = 2 is a small group with a table of 2 * 2003^2 entries:
    # the agreement sweep rejects it before building anything quadratic, and
    # the projection sweep, which checks the sigma table alone, certifies it
    model = AbelianModel(factors=(2003,), sigma=((2002,),), cyclic=CyclicData(2))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="8024018 entries, over the ceiling"):
            oracle_agreement_sweep(model)
        assert projection_formula_sweep(oracle_group(model))["checked"] == 2003**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22  # bytes: the group's own tables, not the 64 MB exponent table

    # the estimate is p * |A|^2 exactly: admitted at the ceiling, not above
    z7 = AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3))
    monkeypatch.setattr(group_oracle, "ORACLE_MAX_EXPONENT_ENTRIES", 3 * 7**2)
    assert oracle_agreement_sweep(z7)["mismatches"] == []
    monkeypatch.setattr(group_oracle, "ORACLE_MAX_EXPONENT_ENTRIES", 3 * 7**2 - 1)
    with pytest.raises(PreconditionError, match="147 entries"):
        oracle_agreement_sweep(z7)


def test_projection_formula_detects_corruption(dihedral6):
    # the identity holds for every class function, so only a non-class
    # function can break it: corrupt one base value of an induced character
    G = dihedral6
    ind = induced_character(CharacterOfA(G, (1,)), G)
    values = dict(ind.values)
    values[((1,), 0)] = CyclotomicInt.from_monomials(G.nexp, [(0, 5)])
    fake = ClassFunction(G, values, check=False)
    W = CharacterOfA(G, (1,))
    assert not projection_formula_check(fake, W, G)


# ---------------------------------------------------------------------------
# sigma-orbits of characters


MIXED_MODEL = AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2))

ORBIT_GROUPS = {
    "Z3p2": build_semidirect((3,), ((2,),), 2),
    "Z7p3": build_semidirect((7,), ((2,),), 3),
    "Z11p5": build_semidirect((11,), ((3,),), 5),
    "Z2xZ4p2": oracle_group(MIXED_MODEL),
}


@pytest.mark.parametrize(
    "G",
    [*ORBIT_GROUPS.values(), build_semidirect((1, 3), ((0, 0), (0, 2)), 2)],
    ids=[*ORBIT_GROUPS, "Z1xZ3p2"],
)
def test_sigma_index_is_the_mat_apply_table(G):
    base = G.base_elements()
    powers = sigma_powers(G.factors, G.sigma, G.p)
    expected = [[base.index(_mat_apply(m, G.factors, a)) for a in base] for m in powers]
    assert G.sigma_index.dtype == np.intp
    assert G.sigma_index.tolist() == expected


@pytest.mark.parametrize("name", list(ORBIT_GROUPS))
def test_projection_formula_holds_on_every_pair(name):
    # the sweep proves one statement per pair of orbits through the cyclic
    # law of the sigma table; the literal value-by-value identity must hold
    # on every pair that statement covers
    G = ORBIT_GROUPS[name]
    chars = characters_of_base(G)
    assert projection_formula_sweep(G)["checked"] == len(chars) ** 2
    for v in chars:
        V = induced_character(v, G)
        for w in chars:
            assert projection_formula_check(V, w, G), (name, v.exponents, w.exponents)


@pytest.mark.parametrize("name", list(ORBIT_GROUPS))
def test_multiplicity_is_constant_on_sigma_orbits(name):
    G = ORBIT_GROUPS[name]
    chars = characters_of_base(G)
    base = G.base_elements()
    values = [[lam.value_exponent(a) for a in base] for lam in chars]
    dual = dual_sigma(G.factors, G.sigma)
    if name == "Z2xZ4p2":
        # the oracle group carries the dual; characters move by the model's sigma
        assert G.sigma != dual == MIXED_MODEL.sigma
    # shift[i]: the index of lam_i o sigma, found by evaluating it
    shift = []
    for lam in chars:
        moved = [lam.value_exponent(_mat_apply(G.sigma, G.factors, a)) for a in base]
        j = values.index(moved)
        assert chars[j].exponents == _mat_apply(dual, G.factors, lam.exponents)
        shift.append(j)
    powers = [list(range(len(chars)))]
    for _ in range(G.p - 1):
        powers.append([shift[i] for i in powers[-1]])
    assert [shift[i] for i in powers[-1]] == powers[0]

    mult = {
        triple: trivial_multiplicity(*(chars[i] for i in triple), G)
        for triple in itertools.product(range(len(chars)), repeat=3)
    }
    for (i1, i2, i3), value in mult.items():
        # the agreement sweep fills its table once per unordered pair
        assert mult[i2, i1, i3] == value
        for a, b, c in itertools.product(range(G.p), repeat=3):
            assert mult[powers[a][i1], powers[b][i2], powers[c][i3]] == value

    reps = group_oracle._orbit_reps(G)
    assert reps.tolist() == [min(pw[i] for pw in powers) for i in range(len(chars))]


@pytest.mark.parametrize(
    "model, oracle_sums",
    [
        # oracle_sums: k(k + 1)/2 unordered pairs of k inducing representatives
        (AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)), 3),
        (MIXED_MODEL, 3),
        # 60 non-invariant labels in 20 orbits, 3600 pairs over several
        # kernel blocks
        (AbelianModel(factors=(63,), sigma=((4,),), cyclic=CyclicData(3)), 210),
    ],
    ids=["Z7p3", "Z2xZ4p2", "Z63p3"],
)
def test_agreement_sweep_compares_every_triple(model, oracle_sums, monkeypatch):
    # bump the kernel's ell on one triple none of whose labels is its orbit's
    # representative: the sweep must still report exactly that triple.
    kernel = sweep_module.TripleKernel(model)
    reps = group_oracle._orbit_reps(oracle_group(model))
    noninv = kernel.noninv.tolist()
    moved = [pos for pos, i in enumerate(noninv) if reps[i] != i]
    a, b = moved[-1], moved[len(moved) // 2]
    c = max(i for i in range(model.order) if reps[i] != i)
    target = a * kernel.m + b
    real = sweep_module.pole_orders
    seen = [0]

    def bumped(chi, n):
        ells = real(chi, n)
        q = target - seen[0]
        if 0 <= q < len(ells):
            ells[q, c] += 1
        seen[0] += len(ells)
        return ells

    monkeypatch.setattr(sweep_module, "pole_orders", bumped)
    rep = oracle_agreement_sweep(model)
    labels = [model.label(model.decode(i)) for i in (noninv[a], noninv[b], c)]
    ell = matching_matrix(*labels).ell
    assert seen[0] == kernel.m**2
    assert rep["triples"] == kernel.m**2 * model.order
    assert rep["oracle_sums"] == oracle_sums
    assert rep["mismatches"] == [
        {
            "theta1": list(model.decode(noninv[a])),
            "theta2": list(model.decode(noninv[b])),
            "chi": list(model.decode(c)),
            "ell": ell + 1,
            "multiplicity": ell,
        }
    ]


# ---------------------------------------------------------------------------
# calculus comparison


@pytest.fixture
def model_z7():
    return AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3))


def test_oracle_group_carries_dual(model_z7):
    # on a cyclic group the pairing is symmetric, so the dual of doubling
    # is doubling again; mixed factors genuinely rescale (see dual tests)
    G = oracle_group(model_z7)
    assert G.sigma == ((2,),)
    assert G.p == 3


def test_oracle_compare_sharp_example(model_z7):
    m = model_z7
    rep = oracle_compare(m, m.label((1,)), m.label((3,)), m.label((0,)))
    assert rep.ell == 3
    assert rep.multiplicity == 3
    assert rep.equal is True
    assert rep.precondition_violated is False
    assert rep.p == 3
    assert rep.group_order == 21
    assert rep.pairing == PAIRING_NOTE


def test_oracle_compare_single_cell():
    m = AbelianModel(factors=(3,), sigma=((2,),), cyclic=CyclicData(2))
    rep = oracle_compare(m, m.label((1,)), m.label((1,)), m.label((1,)))
    assert (rep.ell, rep.multiplicity, rep.equal) == (1, 1, True)


def test_oracle_compare_invariant_inducer_reported():
    m = AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2))
    rep = oracle_compare(m, m.label((1, 1)), m.label((1, 0)), m.label((0, 0)))
    assert rep.precondition_violated is True
    assert rep.ell is None
    assert rep.equal is None
    assert isinstance(rep.multiplicity, int)
    d = rep.to_dict()
    assert d["precondition_violated"] is True
    assert d["pairing"] == PAIRING_NOTE


def test_oracle_compare_rejects_foreign_labels(model_z7):
    other = AbelianModel(factors=(7,), sigma=((4,),), cyclic=CyclicData(3))
    with pytest.raises(ModelMismatchError):
        oracle_compare(
            model_z7, other.label((1,)), model_z7.label((3,)), model_z7.label((0,))
        )


AGREEMENT_MODELS = [
    AbelianModel(factors=(3,), sigma=((2,),), cyclic=CyclicData(2)),
    AbelianModel(factors=(5,), sigma=((4,),), cyclic=CyclicData(2)),
    AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
    AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
    AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2)),
    AbelianModel(factors=(8,), sigma=((3,),), cyclic=CyclicData(2)),
    AbelianModel(factors=(13,), sigma=((3,),), cyclic=CyclicData(3)),
    AbelianModel(factors=(11,), sigma=((3,),), cyclic=CyclicData(5)),
]


@pytest.mark.parametrize("model", AGREEMENT_MODELS, ids=lambda m: str(m.describe()["factors"]) + "p" + str(m.p))
def test_agreement_sweep_is_clean(model):
    rep = oracle_agreement_sweep(model)
    assert rep["mismatches"] == []
    noninv = sum(
        1
        for idx in range(model.order)
        if not model.is_invariant(model.label(model.decode(idx)))
    )
    assert rep["triples"] == noninv * noninv * model.order
    assert rep["group_order"] == model.p * model.order


@pytest.mark.parametrize("m, triples", [(3, 288), (5, 2304), (7, 84672)])
def test_agreement_sweep_on_gaussian_moduli(m, triples):
    # the whole character group of the units mod m, conjugation as sigma
    rep = oracle_agreement_sweep(HeckeGaussianModel(GaussianModulus((m, 0))))
    assert rep["mismatches"] == []
    assert rep["triples"] == triples


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_oracle_matches_calculus_on_random_triples(data):
    model = data.draw(st.sampled_from(AGREEMENT_MODELS[:5]))
    n = model.order
    i1 = data.draw(st.integers(0, n - 1))
    i2 = data.draw(st.integers(0, n - 1))
    ic = data.draw(st.integers(0, n - 1))
    t1 = model.label(model.decode(i1))
    t2 = model.label(model.decode(i2))
    chi = model.label(model.decode(ic))
    rep = oracle_compare(model, t1, t2, chi)
    if model.is_invariant(t1) or model.is_invariant(t2):
        assert rep.precondition_violated
    else:
        assert rep.equal is True
