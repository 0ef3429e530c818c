"""Residue rings Z[i]/(m), ideal characters, and the conjugation calculus
model."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplepole.calculus import automorphic_induction, matching_matrix, triple_pole_order
from triplepole.errors import PreconditionError, UnsupportedModulusError
from triplepole.gauss import (
    GaussianHeckeChar,
    GaussianModulus,
    HeckeGaussianModel,
    conjugate_char,
    ideal_density,
    unit_trivial_characters,
)
from triplepole.models import AbelianModel

from conftest import invertible_residues

gaussian = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


# ---------------------------------------------------------------------------
# residue systems


MODULI = [(1, 0), (3, 0), (7, 0), (11, 0), (13, 0), (5, 0), (9, 0)]


@pytest.mark.parametrize("gen", MODULI)
def test_residue_box_is_complete(gen):
    m = GaussianModulus(gen)
    res = m.residues()
    assert len(res) == m.norm
    assert len(set(res)) == m.norm
    for r in res:
        assert m.reduce(r) == r


@pytest.mark.parametrize("gen", MODULI)
@settings(max_examples=30, deadline=None)
@given(z=gaussian)
def test_reduce_is_congruent(gen, z):
    # z - r lies in the ideal (m) = m Z[i]: both parts are multiples of m
    m = GaussianModulus(gen)
    r = m.reduce(z)
    assert (z[0] - r[0]) % gen[0] == 0 and (z[1] - r[1]) % gen[0] == 0


def test_even_norm_rejected():
    with pytest.raises(UnsupportedModulusError):
        GaussianModulus((1, 1))
    with pytest.raises(UnsupportedModulusError):
        GaussianModulus((4, 2))
    with pytest.raises(UnsupportedModulusError):
        GaussianModulus((0, 0))
    with pytest.raises(UnsupportedModulusError, match="even-norm"):
        GaussianModulus((0, 6))


@pytest.mark.parametrize("gen", [(2, 1), (3, 2), (6, 3), (1, 1), (4, 2), (0, 0)], ids=str)
def test_modulus_rejects_all_but_odd_rational_generators(gen):
    with pytest.raises(UnsupportedModulusError):
        GaussianModulus(gen)


def test_modulus_normalizes_generator():
    for gen in [(0, 7), (-7, 0), (0, -7), (7, 0)]:
        assert GaussianModulus(gen).generator == (7, 0)
        assert GaussianModulus(gen) == GaussianModulus((7, 0))
    assert GaussianModulus((-3, 0)).generator == (3, 0)


@pytest.mark.parametrize(
    "gen,count",
    [((1, 0), 1), ((3, 0), 8), ((7, 0), 48), ((11, 0), 120), ((13, 0), 144), ((5, 0), 16), ((9, 0), 72)],
)
def test_unit_counts(gen, count):
    assert len(GaussianModulus(gen).units) == count


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 13, 15, 21])
def test_units_are_the_invertible_residues(m):
    # the norm rule against a literal search for inverses, in residue order
    modulus = GaussianModulus((m, 0))
    units = invertible_residues(m)
    assert modulus.units == [r for r in modulus.residues() if r in units]


def test_unit_structure_shapes():
    assert GaussianModulus((7, 0)).unit_structure[1] == [48]
    assert GaussianModulus((3, 0)).unit_structure[1] == [8]
    assert GaussianModulus((5, 0)).unit_structure[1] == [4, 4]
    assert GaussianModulus((1, 0)).unit_structure[1] == []


@pytest.mark.parametrize("gen", [(1, 0), (5, 0), (7, 0), (15, 0), (9, 0), (3, 0)])
def test_unit_log_matrix_matches_value_exponent(gen):
    # every character of the unit group, not only the ideal characters
    modulus = GaussianModulus(gen)
    matrix = modulus.unit_log_matrix
    orders = modulus.unit_structure[1]
    L = modulus.unit_exponent
    assert matrix.shape == (len(modulus.units), len(orders))
    for exps in itertools.product(*(range(t) for t in orders)):
        psi = GaussianHeckeChar(modulus, exps, check=False)
        expo = (matrix @ np.array(exps, dtype=np.int64)) % L
        assert expo.tolist() == [psi.value_exponent(u) for u in modulus.units]


def test_conjugation_stability():
    # every modulus is conjugation-stable, so conjugation stays on it; the
    # generators of unstable ideals are refused
    for gen in [(1, 0), (7, 0), (15, 0)]:
        modulus = GaussianModulus(gen)
        for psi in unit_trivial_characters(modulus):
            assert conjugate_char(psi).modulus is modulus
    for gen in [(2, 1), (3, 2)]:
        with pytest.raises(UnsupportedModulusError):
            GaussianModulus(gen)


# ---------------------------------------------------------------------------
# ideal characters


def test_unit_trivial_character_counts():
    # |units| / ord(i mod m) characters survive the i-triviality condition
    assert len(unit_trivial_characters(GaussianModulus((7, 0)))) == 12
    assert len(unit_trivial_characters(GaussianModulus((3, 0)))) == 2
    assert len(unit_trivial_characters(GaussianModulus((5, 0)))) == 4
    assert len(unit_trivial_characters(GaussianModulus((1, 0)))) == 1


def test_characters_sorted_trivial_first():
    chars = unit_trivial_characters(GaussianModulus((7, 0)))
    assert chars[0].order == 1
    exps = [c.exps for c in chars]
    assert exps == sorted(exps)
    assert exps == [(4 * k,) for k in range(12)]


def test_character_rejects_i_visible():
    m = GaussianModulus((7, 0))
    with pytest.raises(PreconditionError):
        GaussianHeckeChar(m, (1,))  # exponent 1 does not kill i


def test_character_is_multiplicative():
    m = GaussianModulus((7, 0))
    psi = unit_trivial_characters(m)[2]
    L = m.unit_exponent
    for a in m.units[::5]:
        for b in m.units[::5]:
            lhs = psi.value_exponent(m.unit_mul(a, b))
            rhs = (psi.value_exponent(a) + psi.value_exponent(b)) % L
            assert lhs == rhs


def test_character_value_on_nonunit_raises():
    m = GaussianModulus((7, 0))
    psi = unit_trivial_characters(m)[1]
    with pytest.raises(PreconditionError):
        psi.value((7, 0))


def test_character_group_operations():
    m = GaussianModulus((7, 0))
    chars = unit_trivial_characters(m)
    a, b = chars[1], chars[3]
    assert a.mul(b) == chars[4]
    assert a.mul(a.pow(-1)).order == 1
    assert a.pow(3) == chars[3]
    assert a.pow(0) == chars[0]
    assert chars[0].order == 1
    assert chars[1].order == 12
    assert chars[6].order == 2
    assert chars[4].order == 3


def test_character_well_defined_on_ideals():
    # the same value at every generator of the same ideal
    m = GaussianModulus((7, 0))
    psi = unit_trivial_characters(m)[1]
    z = (3, 2)
    for assoc in [z, (-z[1], z[0]), (-z[0], -z[1]), (z[1], -z[0])]:
        assert cmath.isclose(psi.value(assoc), psi.value(z))


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_char_is_frobenius_on_prime_field():
    m = GaussianModulus((7, 0))
    for psi in unit_trivial_characters(m):
        assert conjugate_char(psi) == psi.pow(7)


def test_conjugate_char_involution_stable_modulus():
    for psi in unit_trivial_characters(GaussianModulus((7, 0))):
        assert conjugate_char(conjugate_char(psi)) == psi


def test_conjugate_char_pointwise():
    m = GaussianModulus((7, 0))
    psi = unit_trivial_characters(m)[5]
    bar = conjugate_char(psi)
    for u in m.units[::7]:
        assert bar.value_exponent(m.reduce((u[0], -u[1]))) == psi.value_exponent(u)


def test_conjugate_respects_multiplication():
    m = GaussianModulus((7, 0))
    chars = unit_trivial_characters(m)
    for a in chars[:4]:
        for b in chars[:4]:
            assert conjugate_char(a.mul(b)) == conjugate_char(a).mul(conjugate_char(b))


# ---------------------------------------------------------------------------
# density


def test_ideal_density_values():
    assert math.isclose(
        ideal_density(GaussianModulus((7, 0))), (math.pi / 4) * 48 / 49
    )
    assert math.isclose(ideal_density(GaussianModulus((1, 0))), math.pi / 4)
    assert math.isclose(ideal_density(GaussianModulus((5, 0))), (math.pi / 4) * 16 / 25)


# ---------------------------------------------------------------------------
# calculus adapter


@pytest.fixture
def model7():
    return HeckeGaussianModel(GaussianModulus((7, 0)))


def test_adapter_requires_stable_modulus():
    # the modulus itself refuses a conjugation-unstable generator
    with pytest.raises(UnsupportedModulusError, match="conjugation-stable"):
        HeckeGaussianModel(GaussianModulus((2, 1)))


def test_adapter_rejects_unit_ideal():
    # a trivial unit group: no Galois action and no cuspidal induced datum
    with pytest.raises(UnsupportedModulusError, match="unit ideal"):
        HeckeGaussianModel(GaussianModulus((1, 0)))


def test_adapter_is_an_abelian_model(model7):
    assert isinstance(model7, AbelianModel)
    assert model7.factors == (48,) and model7.p == 2
    assert model7.sigma == ((7,),)  # conjugation is Frobenius on F_49
    other = HeckeGaussianModel(GaussianModulus((7, 0)))
    assert model7 == model7 and model7 != other  # identity, not value, equality
    assert len({model7, other}) == 2
    assert repr(model7) == "HeckeGaussianModel((7, 0))"


def test_adapter_character_rejects_non_ideal_elements(model7):
    assert model7.character((4,)) == model7.characters[1]
    with pytest.raises(PreconditionError, match="image of i"):
        model7.character((1,))


# The label protocol is inherited from AbelianModel; the character formulas
# it replaced are kept here as the reference.


@pytest.mark.parametrize(
    "gen", [(3, 0), (5, 0), (7, 0), (9, 0), (13, 0), (15, 0), (21, 0), (25, 0)], ids=str
)
def test_label_protocol_matches_character_formulas(gen):
    model = HeckeGaussianModel(GaussianModulus(gen))
    for psi in model.characters:
        lab = model.label(psi)
        bar = conjugate_char(psi)
        assert model.shift(lab, 1).payload == bar.exps
        assert model.dual(lab).payload == psi.pow(-1).exps
        assert model.is_invariant(lab) == (bar == psi)


def test_sigma_of_13_is_not_symmetric():
    # so that a sigma built from rows instead of columns fails the test above
    sigma = HeckeGaussianModel(GaussianModulus((13, 0))).sigma
    assert sigma != tuple(zip(*sigma))


@pytest.mark.parametrize("gen", [(7, 0), (9, 0), (15, 0)], ids=str)
def test_cells_match_character_products(gen):
    model = HeckeGaussianModel(GaussianModulus(gen))
    chars = model.characters
    labels = [model.label(psi) for psi in chars]
    shifts = [(psi, conjugate_char(psi)) for psi in chars]
    for (lab1, shift1), (lab2, shift2) in itertools.product(zip(labels, shifts), repeat=2):
        for chi, lab_chi in zip(chars, labels):
            grid = model.cell_grid(lab1, lab2, lab_chi)
            for j, k in itertools.product(range(2), repeat=2):
                assert grid[j][k] == shift2[j].mul(shift1[k]).mul(chi).exps


def test_adapter_demo_matrix(model7):
    t1 = model7.character_label(1)
    chi = model7.character_label(10)
    mat = matching_matrix(t1, t1, chi)
    assert mat.true_cells == [(0, 0), (1, 1)]
    assert mat.ell == 2


def test_adapter_invariant_chi_antidiagonal(model7):
    t1 = model7.character_label(1)
    chi4 = model7.character_label(4)
    assert model7.is_invariant(chi4)
    mat = matching_matrix(t1, t1, chi4)
    assert mat.true_cells == [(0, 1), (1, 0)]


def test_adapter_empty_matrix(model7):
    mat = matching_matrix(
        model7.character_label(1),
        model7.character_label(5),
        model7.character_label(3),
    )
    assert mat.ell == 0


def test_adapter_rejects_invariant_inducer(model7):
    inv = model7.character_label(4)
    with pytest.raises(PreconditionError):
        matching_matrix(inv, model7.character_label(1), model7.character_label(0))


def test_adapter_label_operations(model7):
    lab = model7.character_label(3)
    assert model7.shift(lab, 2) == lab  # conjugation is an involution
    assert model7.shift(model7.shift(lab, 1), 1) == lab
    psi = model7.characters[3]
    assert model7.character(model7.dual(lab).payload) == psi.pow(-1)
    twisted = model7.twist(lab, model7.character_label(2))
    assert model7.character(twisted.payload) == psi.mul(model7.characters[2])
    assert model7.is_isomorphic(lab, model7.character_label(3))
    assert not model7.is_isomorphic(lab, model7.character_label(2))


def test_adapter_full_triple(model7):
    pi1 = automorphic_induction(model7.character_label(1))
    pi2 = automorphic_induction(model7.character_label(1))
    assert triple_pole_order(pi1, pi2, model7.character_label(10)) == 2
    assert triple_pole_order(pi1, pi2, model7.character_label(3)) == 0


def test_adapter_wrong_modulus_label(model7):
    other = GaussianModulus((3, 0))
    psi = unit_trivial_characters(other)[0]
    with pytest.raises(PreconditionError):
        model7.label(psi)


def test_adapter_describe(model7):
    d = model7.describe()
    assert d == {
        "kind": "gaussian",
        "modulus": [7, 0],
        "norm": 49,
        "p": 2,
        "characters": 12,
    }
