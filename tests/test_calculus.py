import itertools
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

import triplepole.calculus as calculus
from triplepole import (
    CuspidalDatumF,
    CyclicData,
    GenericAtom,
    GenericRelationModel,
    InvariantViolationError,
    IsobaricRep,
    ModelMismatchError,
    PreconditionError,
    RelationValidationError,
    UnsupportedOperationError,
    automorphic_induction,
    base_change,
    factorize,
    galois_shift,
    is_isomorphic,
    matching_matrix,
    rs_pole_order,
    triple_pole_order,
    twist,
)

from conftest import small_models, p2_models


def label_st(m):
    return st.integers(0, m.order - 1).map(lambda i: m.label(m.decode(i)))


def noninv_label_st(m):
    return label_st(m).filter(lambda lab: not m.is_invariant(lab))


# ---------------------------------------------------------------------------
# Label operations


def test_rs_pole_order_is_duality(z7_p3):
    one, six = z7_p3.label([1]), z7_p3.label([6])
    assert rs_pole_order(one, six) == 1
    assert rs_pole_order(one, one) == 0
    assert rs_pole_order(z7_p3.label([0]), z7_p3.label([0])) == 1


def test_cross_model_operations_rejected(z7_p3, z3sq_p2):
    with pytest.raises(ModelMismatchError):
        rs_pole_order(z7_p3.label([1]), z3sq_p2.label([1, 0]))
    with pytest.raises(ModelMismatchError):
        twist(z7_p3.label([1]), z3sq_p2.label([1, 0]))
    with pytest.raises(ModelMismatchError):
        is_isomorphic(z7_p3.label([1]), z3sq_p2.label([1, 0]))


def test_rs_pole_order_unsupported_on_relation_model():
    m = GenericRelationModel(
        cyclic=CyclicData(2),
        atoms=(GenericAtom("theta1", 1), GenericAtom("theta2", 1)),
        relations=frozenset(),
        chi_invariant=False,
    )
    with pytest.raises(UnsupportedOperationError):
        rs_pole_order(m.theta1_label(), m.theta2_label())


# ---------------------------------------------------------------------------
# Cuspidal data and base change


def test_induced_degree_and_cuspidality_derive_from_theta(z7_p3):
    ai = automorphic_induction(z7_p3.label([0]))
    assert not ai.cuspidal
    assert ai.degree == 3
    ai = automorphic_induction(z7_p3.label([1]))
    assert ai.cuspidal
    assert ai.degree == 3
    m = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 2), GenericAtom("theta2", 2, noninvariant=False)),
        relations=frozenset(),
        chi_invariant=False,
    )
    ai = automorphic_induction(m.theta1_label())
    assert ai.cuspidal and ai.degree == 6
    ai = automorphic_induction(m.theta2_label())
    assert not ai.cuspidal and ai.degree == 6
    lam = CuspidalDatumF.stays_cuspidal(m.theta2_label())
    assert lam.cuspidal and lam.degree == 2
    assert [f.name for f in fields(CuspidalDatumF)] == ["behavior"]


def test_datum_behavior_type_checked(z7_p3):
    with pytest.raises(PreconditionError):
        CuspidalDatumF(z7_p3.label([1]))


def test_stays_cuspidal_requires_invariant_label(z7_p3):
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    assert lam.cuspidal and lam.degree == 1
    with pytest.raises(PreconditionError):
        CuspidalDatumF.stays_cuspidal(z7_p3.label([1]))


def test_base_change_of_induction_is_shift_orbit(z7_p3):
    chi = z7_p3.label([3])
    bc = base_change(automorphic_induction(chi))
    assert bc == IsobaricRep(tuple(galois_shift(chi, j) for j in range(3)))
    assert bc.degree == 3


def test_isobaric_equality_is_multiset(z7_p3):
    a, b = z7_p3.label([1]), z7_p3.label([2])
    assert IsobaricRep((a, b)) == IsobaricRep((b, a))
    assert IsobaricRep((a, a)) != IsobaricRep((a, b))


@given(st.sampled_from(small_models()), st.data())
def test_mackey_round_trip(m, data):
    chi = data.draw(label_st(m))
    bc = base_change(automorphic_induction(chi))
    expect = IsobaricRep(tuple(galois_shift(chi, j) for j in range(m.p)))
    assert bc == expect


# ---------------------------------------------------------------------------
# Matching matrix


def test_matrix_z7_example(z7_p3):
    M = matching_matrix(z7_p3.label([1]), z7_p3.label([3]), z7_p3.label([0]))
    assert M.true_cells == [(0, 2), (1, 0), (2, 1)]
    assert M.ell == 3
    rows = M.as_rows()
    assert rows[0] == [False, False, True]


def test_matrix_z3sq_example(z3sq_p2):
    M = matching_matrix(
        z3sq_p2.label([1, 0]), z3sq_p2.label([1, 2]), z3sq_p2.label([1, 1])
    )
    assert M.true_cells == [(0, 0), (1, 1)]
    assert M.ell == 2


def test_matrix_requires_noninvariant_thetas(z7_p3):
    with pytest.raises(PreconditionError):
        matching_matrix(z7_p3.label([0]), z7_p3.label([3]), z7_p3.label([0]))
    with pytest.raises(PreconditionError):
        matching_matrix(z7_p3.label([1]), z7_p3.label([0]), z7_p3.label([0]))


def test_matrix_degree_mismatch_is_all_off():
    m = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 1), GenericAtom("theta2", 2)),
        relations=frozenset(),
        chi_invariant=False,
    )
    M = matching_matrix(m.theta1_label(), m.theta2_label(), m.chi_label())
    assert M.ell == 0
    assert M.true_cells == []


@given(st.sampled_from(small_models()), st.data())
def test_matrix_is_partial_permutation_and_bounded(m, data):
    t1 = data.draw(noninv_label_st(m))
    t2 = data.draw(noninv_label_st(m))
    chi = data.draw(label_st(m))
    M = matching_matrix(t1, t2, chi)  # constructor rejects non-partial-perms
    assert 0 <= M.ell <= m.p


@given(st.sampled_from(small_models()), st.data())
def test_counting_identity(m, data):
    """The number of (j, k, t) with shift^j(t1) + shift^k(t2) + shift^t(chi)
    vanishing equals p times the matrix count."""
    t1 = data.draw(noninv_label_st(m))
    t2 = data.draw(noninv_label_st(m))
    chi = data.draw(label_st(m))
    e1, e2, ec = t1.payload, t2.payload, chi.payload
    p = m.p
    count = 0
    for j in range(p):
        for k in range(p):
            for t in range(p):
                s = m.add(
                    m.add(m.apply_sigma(e1, j), m.apply_sigma(e2, k)),
                    m.apply_sigma(ec, t),
                )
                if s == m.zero():
                    count += 1
    assert count == p * matching_matrix(t1, t2, chi).ell


@given(st.sampled_from(p2_models()), st.data())
def test_degree_two_rigidity(m, data):
    """At p = 2 a double pole forces the twisting character to be invariant."""
    t1 = data.draw(noninv_label_st(m))
    t2 = data.draw(noninv_label_st(m))
    chi = data.draw(label_st(m))
    if matching_matrix(t1, t2, chi).ell >= 2:
        assert m.is_invariant(chi)


# ---------------------------------------------------------------------------
# Triple products and factorization


def test_triple_both_induced_z7(z7_p3):
    pi1 = automorphic_induction(z7_p3.label([1]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    assert triple_pole_order(pi1, pi2, z7_p3.label([0])) == 3


def test_triple_both_induced_z3sq(z3sq_p2):
    pi1 = automorphic_induction(z3sq_p2.label([1, 0]))
    pi2 = automorphic_induction(z3sq_p2.label([1, 2]))
    assert triple_pole_order(pi1, pi2, z3sq_p2.label([1, 1])) == 2


def test_triple_rejects_noncuspidal_inputs(z7_p3):
    bad = automorphic_induction(z7_p3.label([0]))  # not cuspidal
    good = automorphic_induction(z7_p3.label([1]))
    with pytest.raises(PreconditionError):
        triple_pole_order(bad, good, z7_p3.label([0]))


def test_triple_one_side_cuspidal_stable(z7_p3):
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    # lambda + shift^j(theta2) + chi = 0 has a solution exactly for chi in
    # the negated shift orbit of theta2, here {4, 1, 2}
    assert triple_pole_order(lam, pi2, z7_p3.label([-3])) == 1
    assert triple_pole_order(lam, pi2, z7_p3.label([-6])) == 1
    assert triple_pole_order(lam, pi2, z7_p3.label([5])) == 0
    assert triple_pole_order(lam, pi2, z7_p3.label([0])) == 0


def test_triple_both_cuspidal_stable(z7_p3):
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    assert triple_pole_order(lam, lam, z7_p3.label([0])) == 1
    assert triple_pole_order(lam, lam, z7_p3.label([1])) == 0


def test_factorize_layout_and_sum(z7_p3):
    pi1 = automorphic_induction(z7_p3.label([1]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    chi = z7_p3.label([0])
    fs = factorize(pi1, pi2, chi)
    assert len(fs) == 9
    assert {(f.j, f.k) for f in fs} == {(j, k) for j in range(3) for k in range(3)}
    assert sum(f.pole_order for f in fs) == 3
    for f in fs:
        assert f.pole_order == rs_pole_order(f.left, f.right)
        assert f.left == galois_shift(z7_p3.label([1]), f.k)
        assert f.right == twist(galois_shift(z7_p3.label([3]), f.j), chi)


def test_factorize_mixed_case(z7_p3):
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    fs = factorize(lam, pi2, z7_p3.label([-3]))
    assert [(f.j, f.k, f.pole_order) for f in fs] == [(0, 0, 1), (1, 0, 0), (2, 0, 0)]


@pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "both-induced"])
def test_factorize_walks_the_constituent_pairs_once(z7_p3, monkeypatch, mixed):
    walks = []
    real = calculus._constituent_poles

    def counted(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(calculus, "_constituent_poles", counted)
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    pi1 = lam if mixed else automorphic_induction(z7_p3.label([1]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    fs = factorize(pi1, pi2, z7_p3.label([-3]))
    assert len(walks) == 1
    assert len(fs) == (3 if mixed else 9)


def test_stable_side_contracting_twice_is_an_invariant_violation(z7_p3, monkeypatch):
    # factorize and triple_pole_order share the "at most 1" bound
    real = calculus._constituent_poles

    def every_pair_contracts(*args):
        return (replace(f, pole_order=1) for f in real(*args))

    monkeypatch.setattr(calculus, "_constituent_poles", every_pair_contracts)
    lam = CuspidalDatumF.stays_cuspidal(z7_p3.label([0]))
    pi2 = automorphic_induction(z7_p3.label([3]))
    for compute in (factorize, triple_pole_order):
        with pytest.raises(InvariantViolationError, match="cannot contract twice"):
            compute(lam, pi2, z7_p3.label([-3]))


@settings(max_examples=60)
@given(st.sampled_from(small_models()), st.data())
def test_factorization_consistency(m, data):
    """Factor pole orders always sum to the triple pole order."""
    t1 = data.draw(noninv_label_st(m))
    chi = data.draw(label_st(m))
    if data.draw(st.booleans()):
        inv = data.draw(label_st(m).filter(lambda lab: m.is_invariant(lab)))
        pi1 = CuspidalDatumF.stays_cuspidal(inv)
    else:
        pi1 = automorphic_induction(t1)
    pi2 = automorphic_induction(data.draw(noninv_label_st(m)))
    fs = factorize(pi1, pi2, chi)
    assert sum(f.pole_order for f in fs) == triple_pole_order(pi1, pi2, chi)


def test_generic_triple_uses_declared_relations():
    m = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 2), GenericAtom("theta2", 2)),
        relations=frozenset({(0, 1), (1, 2), (2, 0)}),
        chi_invariant=False,
    )
    pi1 = automorphic_induction(m.theta1_label())
    pi2 = automorphic_induction(m.theta2_label())
    assert triple_pole_order(pi1, pi2, m.chi_label()) == 3
    fs = factorize(pi1, pi2, m.chi_label())
    assert sum(f.pole_order for f in fs) == 3


def test_generic_degree_mismatch_triple_is_zero():
    m = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(GenericAtom("theta1", 1), GenericAtom("theta2", 2)),
        relations=frozenset(),
        chi_invariant=False,
    )
    pi1 = automorphic_induction(m.theta1_label())
    pi2 = automorphic_induction(m.theta2_label())
    assert triple_pole_order(pi1, pi2, m.chi_label()) == 0


def test_generic_mixed_case_with_invariant_stable_side():
    m = GenericRelationModel(
        cyclic=CyclicData(3),
        atoms=(
            GenericAtom("theta1", 2, noninvariant=False),
            GenericAtom("theta2", 2),
        ),
        relations=frozenset({(1, 0)}),
        chi_invariant=False,
    )
    lam = CuspidalDatumF.stays_cuspidal(m.theta1_label())
    pi2 = automorphic_induction(m.theta2_label())
    assert triple_pole_order(lam, pi2, m.chi_label()) == 1
    fs = factorize(lam, pi2, m.chi_label())
    assert [(f.j, f.pole_order) for f in fs] == [(0, 0), (1, 1), (2, 0)]


def _relation_tables(p):
    cells = [(j, k) for j in range(p) for k in range(p)]
    for n in range(len(cells) + 1):
        yield from itertools.combinations(cells, n)


@pytest.mark.parametrize("p", [2, 3])
def test_generic_factor_poles_follow_relations(p):
    """Reference rule for the relation model: the factor pairing the k-th
    shift of theta1 with the j-th shift of theta2 under the sc-th shift of
    chi has a pole exactly when ((j - sc) % p, (k - sc) % p) is a declared
    relation.  Checked on every relation table the model accepts, with
    either side induced or staying cuspidal, for every shift of chi."""
    checked = 0
    for rels, chi_inv, moves1, moves2 in itertools.product(
        _relation_tables(p), (False, True), (True, False), (True, False)
    ):
        try:
            m = GenericRelationModel(
                cyclic=CyclicData(p),
                atoms=(GenericAtom("theta1", 1, moves1), GenericAtom("theta2", 1, moves2)),
                relations=frozenset(rels),
                chi_invariant=chi_inv,
            )
        except RelationValidationError:
            continue
        pi1, pi2 = (
            automorphic_induction(lab) if moves else CuspidalDatumF.stays_cuspidal(lab)
            for lab, moves in ((m.theta1_label(), moves1), (m.theta2_label(), moves2))
        )
        for shift in range(p):
            chi = m.chi_label(shift)
            sc = chi.payload[1]
            want = [
                ((j, k), int(((j - sc) % p, (k - sc) % p) in m.relations))
                for j in range(p if moves2 else 1)
                for k in range(p if moves1 else 1)
            ]
            got = [((f.j, f.k), f.pole_order) for f in factorize(pi1, pi2, chi)]
            assert got == want, (rels, chi_inv, moves1, moves2, shift)
            checked += len(got)
    assert checked == {2: 180, 3: 1824}[p]
