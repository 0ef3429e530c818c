import itertools

import pytest
from hypothesis import given, strategies as st

from triplepole import (
    AbelianModel,
    CyclicData,
    GenericAtom,
    GenericRelationModel,
    PreconditionError,
    RelationValidationError,
    UnsupportedOperationError,
    build_semidirect,
    validate_relations,
)
from triplepole.models import _mat_apply, sigma_powers, sigma_table

from conftest import small_models


def test_cyclic_data_requires_prime():
    for p in (2, 3, 5, 7, 11):
        assert CyclicData(p).p == p
    for bad in (-1, 0, 1, 4, 6, 9):
        with pytest.raises(PreconditionError):
            CyclicData(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda factors, sigma, p: AbelianModel(factors, sigma, CyclicData(p)),
        build_semidirect,
    ],
    ids=["AbelianModel", "build_semidirect"],
)
@pytest.mark.parametrize(
    "factors,sigma,p,reason",
    [
        ((3, 3), ((0, 1),), 2, "square"),
        ((2, 4), ((1, 0), (1, 1)), 2, "does not define a map"),
        ((7,), ((2,),), 2, r"sigma\^p"),  # doubling has order 3 mod 7
    ],
    ids=["not-square", "not-well-defined", "order-not-dividing-p"],
)
def test_shared_sigma_checks(build, factors, sigma, p, reason):
    with pytest.raises(PreconditionError, match=reason):
        build(factors, sigma, p)


class TestAbelianValidation:
    def test_sigma_must_have_order_p(self):
        with pytest.raises(PreconditionError):
            AbelianModel(factors=(7,), sigma=((3,),), cyclic=CyclicData(3))  # order 6

    def test_trivial_sigma_rejected_by_default(self):
        with pytest.raises(PreconditionError):
            AbelianModel(factors=(7,), sigma=((1,),), cyclic=CyclicData(3))

    def test_trivial_sigma_opt_in(self):
        m = AbelianModel(
            factors=(7,), sigma=((1,),), cyclic=CyclicData(3), allow_trivial_sigma=True
        )
        assert m.apply_sigma((5,)) == (5,)

    def test_mixed_factors_well_definedness(self):
        # On Z/2 x Z/4 the matrix [[1,1],[0,1]] is a valid order-2 action
        m = AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2))
        assert m.apply_sigma(m.apply_sigma((1, 1))) == (1, 1)
        # ... but its transpose is not even well defined on the factors
        with pytest.raises(PreconditionError):
            AbelianModel(factors=(2, 4), sigma=((1, 0), (1, 1)), cyclic=CyclicData(2))

    def test_factor_bounds(self):
        with pytest.raises(PreconditionError):
            AbelianModel(factors=(), sigma=(), cyclic=CyclicData(2))
        with pytest.raises(PreconditionError):
            AbelianModel(factors=(1,), sigma=((1,),), cyclic=CyclicData(2))


def test_invariants_of_multiplication_by_two(z7_p3):
    invariant = [a for a in z7_p3.elements() if z7_p3.is_invariant(z7_p3.label(a))]
    assert invariant == [(0,)]


def test_invariants_of_swap(z3sq_p2):
    invariant = sorted(
        a for a in z3sq_p2.elements() if z3sq_p2.is_invariant(z3sq_p2.label(a))
    )
    assert invariant == [(0, 0), (1, 1), (2, 2)]


def test_matching_cell_convention_z7(z7_p3):
    t1, t2, chi = z7_p3.label([1]), z7_p3.label([3]), z7_p3.label([0])
    on = z7_p3.on_cells(t1, t2, chi)
    # 2^j * 3 + 2^k * 1 = 0 mod 7 exactly at these cells
    assert on == {(0, 2), (1, 0), (2, 1)}


def test_matching_cell_convention_z3sq(z3sq_p2):
    t1, t2, chi = z3sq_p2.label([1, 0]), z3sq_p2.label([1, 2]), z3sq_p2.label([1, 1])
    on = z3sq_p2.on_cells(t1, t2, chi)
    assert on == {(0, 0), (1, 1)}


models_st = st.sampled_from(small_models())


@given(models_st, st.data())
def test_encode_decode_round_trip(m, data):
    idx = data.draw(st.integers(0, m.order - 1))
    assert m.encode(m.decode(idx)) == idx


@given(models_st, st.data())
def test_shift_additivity(m, data):
    a = m.decode(data.draw(st.integers(0, m.order - 1)))
    s = data.draw(st.integers(-6, 6))
    t = data.draw(st.integers(-6, 6))
    assert m.apply_sigma(m.apply_sigma(a, s), t) == m.apply_sigma(a, s + t)


@given(models_st, st.data())
def test_sigma_is_additive_hom(m, data):
    a = m.decode(data.draw(st.integers(0, m.order - 1)))
    b = m.decode(data.draw(st.integers(0, m.order - 1)))
    assert m.apply_sigma(m.add(a, b)) == m.add(m.apply_sigma(a), m.apply_sigma(b))


@pytest.mark.parametrize(
    "factors, sigma, p",
    [
        ((2, 4), ((1, 1), (0, 1)), 2),
        ((1, 3), ((0, 0), (0, 2)), 2),  # a factor of 1, as FiniteGroupModel allows
        ((11,), ((3,),), 5),
        ((5, 5), ((0, 4), (1, 4)), 3),
    ],
)
def test_sigma_table_matches_mat_apply(factors, sigma, p):
    powers = sigma_powers(factors, sigma, p)
    elements = list(itertools.product(*(range(d) for d in factors)))  # mixed radix
    table = sigma_table(factors, powers)
    assert table.shape == (p, len(elements))
    for t, mat in enumerate(powers):
        for x, a in enumerate(elements):
            assert elements[table[t, x]] == _mat_apply(mat, factors, a)


@given(models_st, st.data())
def test_dual_involution_and_twist_composition(m, data):
    lab = m.label(m.decode(data.draw(st.integers(0, m.order - 1))))
    c1 = m.label(m.decode(data.draw(st.integers(0, m.order - 1))))
    c2 = m.label(m.decode(data.draw(st.integers(0, m.order - 1))))
    assert m.dual(m.dual(lab)) == lab
    assert m.twist(m.twist(lab, c1), c2) == m.twist(lab, m.twist(c1, c2))


# ---------------------------------------------------------------------------
# Generic relation model


def _rel_model(relations, p=3, chi_invariant=False, deg1=1, deg2=1, **kw):
    return GenericRelationModel(
        cyclic=CyclicData(p),
        atoms=(
            GenericAtom("theta1", deg1),
            GenericAtom("theta2", deg2),
        ),
        relations=frozenset(relations),
        chi_invariant=chi_invariant,
        **kw,
    )


def test_row_conflict_rejected():
    with pytest.raises(RelationValidationError) as exc:
        _rel_model({(0, 0), (0, 1)})
    assert any(d.code == "row-conflict" for d in exc.value.diagnostics)


def test_column_conflict_rejected():
    with pytest.raises(RelationValidationError) as exc:
        _rel_model({(0, 0), (1, 0)})
    assert any(d.code == "column-conflict" for d in exc.value.diagnostics)


def test_degree_mismatch_rejected_when_relations_nonempty():
    with pytest.raises(RelationValidationError) as exc:
        _rel_model({(0, 0)}, deg1=1, deg2=2)
    assert any(d.code == "degree-mismatch" for d in exc.value.diagnostics)
    # empty relations with mismatched degrees are fine
    m = _rel_model(set(), deg1=1, deg2=2)
    assert m.relations == frozenset()


def test_invariant_chi_forces_diagonal_closure():
    with pytest.raises(RelationValidationError) as exc:
        _rel_model({(0, 0)}, p=2, chi_invariant=True)
    assert any(d.code == "missing-diagonal-shift" for d in exc.value.diagnostics)
    m = _rel_model({(0, 0), (1, 1)}, p=2, chi_invariant=True)
    assert len(m.relations) == 2


def test_validate_false_defers_checks():
    m = _rel_model({(0, 0), (0, 1)}, validate=False)
    diags = validate_relations(m)
    assert [d.code for d in diags] == ["row-conflict"]
    assert diags[0].pairs == ((0, 0), (0, 1))


def test_generic_shift_reindexes_relations():
    m = _rel_model({(0, 1)})
    t1, t2, chi = m.theta1_label(), m.theta2_label(), m.chi_label()
    assert m.matching_cell(t1, t2, chi, 0, 1)
    # shifting theta1 by s moves the hit column by -s
    assert m.matching_cell(m.shift(t1, 1), t2, chi, 0, 0)
    assert m.matching_cell(t1, m.shift(t2, 1), chi, 2, 1)
    # shifting chi moves both indices together
    assert m.matching_cell(t1, t2, m.chi_label(1), 1, 2)


def test_generic_invariant_labels_ignore_shift():
    m = _rel_model({(0, 0), (1, 1), (2, 2)}, chi_invariant=True)
    chi = m.chi_label()
    assert m.shift(chi, 2) == chi
    assert m.chi_label(2) == chi


def test_generic_dual_twist_unsupported():
    m = _rel_model({(0, 1)})
    with pytest.raises(UnsupportedOperationError):
        m.dual(m.theta1_label())
    with pytest.raises(UnsupportedOperationError):
        m.twist(m.theta2_label(), m.chi_label())


def test_generic_role_checks():
    m = _rel_model({(0, 1)})
    with pytest.raises(PreconditionError):
        m.matching_cell(m.theta2_label(), m.theta1_label(), m.chi_label(), 0, 0)


@pytest.mark.parametrize("chi_invariant", [False, True])
def test_generic_cells_are_shift_covariant(chi_invariant):
    """Cell (0, 0) of the shifted labels is cell (j, k) of the unshifted
    ones, on every relation table the model accepts: the calculus pairs
    base-changed constituents through this."""
    cells = list(itertools.product(range(3), repeat=2))
    tables = 0
    for n in range(4):
        for rels in itertools.combinations(cells, n):
            try:
                m = _rel_model(rels, chi_invariant=chi_invariant)
            except RelationValidationError:
                continue
            tables += 1
            t1, t2 = m.theta1_label(), m.theta2_label()
            for s, j, k in itertools.product(range(3), repeat=3):
                chi = m.chi_label(s)
                assert m.matching_cell(m.shift(t1, k), m.shift(t2, j), chi, 0, 0) == (
                    m.matching_cell(t1, t2, chi, j, k)
                )
    assert tables == (4 if chi_invariant else 34)


def test_reserved_atom_id():
    with pytest.raises(PreconditionError):
        GenericAtom("@chi", 1)
