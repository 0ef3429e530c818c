"""The p x p cell grid of a triple against the definition of its cells.

Cell (j, k) of (theta1, theta2, chi) is the element shift^j(theta2) +
shift^k(theta1) + chi; its vanishing turns the matching cell on.  Here the
shifts are taken by applying sigma j times, one step at a time (for the
Gaussian models: by conjugating the character), never through the model's
stored powers, and the sums coordinate by coordinate.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from triplepole import (
    GaussianModulus,
    GenericAtom,
    GenericRelationModel,
    HeckeGaussianModel,
    PreconditionError,
    conjugate_char,
    matching_matrix,
    numeric_triple_estimate,
    shipped_catalogue,
)
from triplepole.models import AbelianModel, CyclicData, _mat_apply

from conftest import small_models

INVARIANT_MESSAGE = "inducing labels must be non-invariant for cuspidal induction"

CATALOGUE = shipped_catalogue().models
GAUSSIAN = [HeckeGaussianModel(GaussianModulus((m, 0))) for m in (7, 9)]
# every (p, rank) of the catalogue, and models whose factors differ
GROUPS = {
    (p, rank): [m for m in CATALOGUE if m.p == p and len(m.factors) == rank]
    for p in (2, 3, 5)
    for rank in (1, 2)
}
GROUPS["mixed factors"] = [m for m in small_models() if len(set(m.factors)) > 1]
GROUPS["gaussian"] = GAUSSIAN


def shifted(model, a, t):
    """sigma^t(a), one application of sigma (or conjugation) at a time."""
    for _ in range(t):
        if isinstance(model, HeckeGaussianModel):
            a = conjugate_char(model.character(a)).exps
        else:
            a = _mat_apply(model.sigma, model.factors, a)
    return a


def cell_by_definition(model, e1, e2, ec, j, k):
    terms = (shifted(model, e2, j), shifted(model, e1, k), ec)
    return tuple(sum(xs) % d for xs, d in zip(zip(*terms), model.factors))


def elements(model):
    """The elements that labels stand for: the ideal characters' exponents
    in a Gaussian model, all of the group otherwise."""
    if isinstance(model, HeckeGaussianModel):
        return [psi.exps for psi in model.characters]
    return [model.decode(i) for i in range(model.order)]


def label_of(model, e):
    if isinstance(model, HeckeGaussianModel):
        return model.label(model.character(e))
    return model.label(e)


@st.composite
def triples(draw):
    """A model from one of GROUPS and three of its elements."""
    model = draw(st.sampled_from(GROUPS[draw(st.sampled_from(sorted(GROUPS, key=str)))]))
    element = st.sampled_from(elements(model))
    return model, draw(element), draw(element), draw(element)


def test_groups_cover_every_p_and_rank():
    assert all(GROUPS.values())


@settings(max_examples=400, deadline=None)
@given(triples())
def test_grid_cells_match_the_definition(triple):
    model, e1, e2, ec = triple
    t1, t2, chi = (label_of(model, e) for e in (e1, e2, ec))
    p = model.p
    grid = model.cell_grid(t1, t2, chi)
    assert len(grid) == p and all(len(row) == p for row in grid)
    for j, k in itertools.product(range(p), repeat=2):
        assert grid[j][k] == cell_by_definition(model, e1, e2, ec, j, k)
    invariant = shifted(model, e1, 1) == e1 or shifted(model, e2, 1) == e2
    if invariant:
        with pytest.raises(PreconditionError, match=f"^{INVARIANT_MESSAGE}$"):
            matching_matrix(t1, t2, chi)
        return
    zeros = {(j, k) for j, k in itertools.product(range(p), repeat=2)
             if grid[j][k] == model.zero()}
    assert matching_matrix(t1, t2, chi).cells == zeros


def relation_model(p, rels, chi_invariant):
    return GenericRelationModel(
        cyclic=CyclicData(p),
        atoms=(GenericAtom("theta1", 1), GenericAtom("theta2", 1)),
        relations=frozenset(rels),
        chi_invariant=chi_invariant,
    )


@st.composite
def relation_models(draw):
    """A relation model the structural checks accept: a partial permutation,
    closed under the diagonal shift when chi is invariant."""
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        offset = draw(st.integers(0, p - 1))
        rels = {(j, (j + offset) % p) for j in range(p)} if draw(st.booleans()) else set()
        return relation_model(p, rels, chi_invariant=True)
    perm = draw(st.permutations(range(p)))
    rows = draw(st.sets(st.integers(0, p - 1)))
    return relation_model(p, {(j, perm[j]) for j in rows}, chi_invariant=False)


@settings(max_examples=200, deadline=None)
@given(relation_models(), st.data())
def test_generic_on_cells_are_the_matching_cells(m, data):
    s1, s2, sc = (data.draw(st.integers(0, m.p - 1)) for _ in range(3))
    t1, t2, chi = m.theta1_label(s1), m.theta2_label(s2), m.chi_label(sc)
    lookups = {(j, k) for j, k in itertools.product(range(m.p), repeat=2)
               if m.matching_cell(t1, t2, chi, j, k)}
    assert m.on_cells(t1, t2, chi) == lookups
    assert matching_matrix(t1, t2, chi).cells == lookups


def test_generic_on_cells_keep_the_role_checks():
    m = relation_model(3, {(0, 1)}, chi_invariant=False)
    with pytest.raises(PreconditionError, match="cannot fill the first role"):
        m.on_cells(m.theta2_label(), m.theta2_label(), m.chi_label())
    with pytest.raises(PreconditionError, match="cannot fill the twisting role"):
        m.on_cells(m.theta1_label(), m.theta2_label(), m.theta1_label())


# ---------------------------------------------------------------------------
# work per triple


@pytest.fixture
def sigma_calls(monkeypatch):
    """A list that grows by one entry per `AbelianModel.apply_sigma` call."""
    calls = []
    apply_sigma = AbelianModel.apply_sigma

    def counted(self, a, t=1):
        calls.append(t)
        return apply_sigma(self, a, t)

    monkeypatch.setattr(AbelianModel, "apply_sigma", counted)
    return calls


@pytest.mark.parametrize(
    "model", small_models() + GAUSSIAN, ids=lambda m: f"{m.kind}{m.factors}-p{m.p}"
)
def test_matching_matrix_applies_sigma_2_p_minus_1_times(model, sigma_calls):
    labels = [label_of(model, e) for e in elements(model)]
    moved = [lab for lab in labels if model.apply_sigma(lab.payload) != lab.payload]
    for t1, t2, chi in itertools.product(moved[:4], moved[-4:], labels[:6]):
        del sigma_calls[:]
        matching_matrix(t1, t2, chi)
        assert len(sigma_calls) <= 2 * (model.p - 1)


def test_numeric_estimate_applies_sigma_twice(sigma_calls):
    model = GAUSSIAN[0]
    t1, chi = model.character_label(1), model.character_label(10)
    del sigma_calls[:]
    est = numeric_triple_estimate(t1, t1, chi, X=50000)
    assert est.agree and est.ell_symbolic == 2
    assert len(sigma_calls) <= 2
