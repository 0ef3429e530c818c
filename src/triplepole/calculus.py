"""Pole-order calculus for triple products with an induced character factor.

The objects of interest are L-functions of triples (pi1, pi2, AI(chi)) where
pi1, pi2 are cuspidal data over the base field, chi is a character label over
the cyclic prime-degree extension, and AI denotes automorphic induction.
After base change, each pi_i either stays cuspidal or splits into the p
Galois shifts of an inducing character; the order of the pole at the edge is
the number of constituent pairings that contract to a pole, and when both
sides are induced this count is the number of on-cells of a p x p matching
matrix that is always a partial permutation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    InvariantViolationError,
    ModelMismatchError,
    PreconditionError,
)
from .models import CuspidalLabelK


# ---------------------------------------------------------------------------
# Label-level operations (thin wrappers adding cross-model checks)


def _model_of(*labels: CuspidalLabelK):
    model = labels[0].model
    for lab in labels[1:]:
        if lab.model is not model:
            raise ModelMismatchError("labels come from different models")
    return model


def galois_shift(label: CuspidalLabelK, t: int) -> CuspidalLabelK:
    """Apply the t-th power of the distinguished Galois generator."""
    return label.model.shift(label, t)


def dual(label: CuspidalLabelK) -> CuspidalLabelK:
    return label.model.dual(label)


def twist(label: CuspidalLabelK, chi: CuspidalLabelK) -> CuspidalLabelK:
    if chi.degree != 1:
        raise PreconditionError("twisting label must have degree 1")
    _model_of(label, chi)
    return label.model.twist(label, chi)


def is_isomorphic(a: CuspidalLabelK, b: CuspidalLabelK) -> bool:
    model = _model_of(a, b)
    return a.degree == b.degree and model.is_isomorphic(a, b)


def rs_pole_order(a: CuspidalLabelK, b: CuspidalLabelK) -> int:
    """Pole order at the edge of the Rankin-Selberg pairing of two cuspidal
    labels: 1 exactly when one is the dual of the other, else 0."""
    model = _model_of(a, b)
    if a.degree != b.degree:
        return 0
    return 1 if model.is_isomorphic(a, model.dual(b)) else 0


# ---------------------------------------------------------------------------
# Cuspidal data over the base field


@dataclass(frozen=True)
class StaysCuspidal:
    """Base change remains cuspidal; `label` is its image over the extension."""

    label: CuspidalLabelK


@dataclass(frozen=True)
class InducedFrom:
    """The datum is automorphically induced from `theta` over the extension."""

    theta: CuspidalLabelK


@dataclass(frozen=True)
class CuspidalDatumF:
    """An automorphic datum over the base field, tagged with its base-change
    behavior, which fixes its degree and cuspidality.

    An induced datum has degree p times its inducing label's and is cuspidal
    exactly when the Galois shift moves that label.  A stays-cuspidal datum
    has its label's degree, is cuspidal, and must carry a shift-invariant
    label; otherwise construction raises PreconditionError.
    """

    behavior: StaysCuspidal | InducedFrom

    def __post_init__(self):
        b = self.behavior
        if not isinstance(b, (StaysCuspidal, InducedFrom)):
            raise PreconditionError("behavior must be StaysCuspidal or InducedFrom")
        if isinstance(b, StaysCuspidal) and not b.label.model.is_invariant(b.label):
            raise PreconditionError("stays-cuspidal base change must be shift-invariant")

    @classmethod
    def stays_cuspidal(cls, label: CuspidalLabelK) -> "CuspidalDatumF":
        return cls(StaysCuspidal(label))

    @property
    def model(self):
        b = self.behavior
        return b.theta.model if isinstance(b, InducedFrom) else b.label.model

    @property
    def is_induced(self) -> bool:
        return isinstance(self.behavior, InducedFrom)

    @property
    def degree(self) -> int:
        b = self.behavior
        return self.model.p * b.theta.degree if self.is_induced else b.label.degree

    @property
    def cuspidal(self) -> bool:
        return not self.is_induced or not self.model.is_invariant(self.behavior.theta)


def automorphic_induction(chi: CuspidalLabelK) -> CuspidalDatumF:
    """The induced datum AI(chi) over the base field."""
    return CuspidalDatumF(InducedFrom(chi))


@dataclass(frozen=True, eq=False)
class IsobaricRep:
    """An unordered sum of cuspidal constituents over the extension field.

    Equality is multiset equality of the constituents.
    """

    constituents: tuple[CuspidalLabelK, ...]

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.constituents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsobaricRep):
            return NotImplemented
        return Counter(self.constituents) == Counter(other.constituents)

    __hash__ = None


def base_change(pi: CuspidalDatumF) -> IsobaricRep:
    """Base change to the extension: a stays-cuspidal datum keeps its single
    label; an induced datum splits into the p Galois shifts of its inducing
    label."""
    model = pi.model
    b = pi.behavior
    if isinstance(b, StaysCuspidal):
        return IsobaricRep((b.label,))
    theta = b.theta
    return IsobaricRep(tuple(model.shift(theta, j) for j in range(model.p)))


# ---------------------------------------------------------------------------
# Matching matrix


@dataclass(frozen=True)
class MatchingMatrix:
    """p x p boolean matrix of contracting constituent pairs.

    Cell (j, k) pairs the j-th shift on the second side with the k-th shift
    on the first.  The on-cells always form a partial permutation; the pole
    order is their count.
    """

    p: int
    cells: frozenset

    def __post_init__(self):
        cells = frozenset((j % self.p, k % self.p) for j, k in self.cells)
        object.__setattr__(self, "cells", cells)
        rows = [j for j, _ in cells]
        cols = [k for _, k in cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise InvariantViolationError(
                "matching cells do not form a partial permutation"
            )

    @property
    def ell(self) -> int:
        return len(self.cells)

    @property
    def true_cells(self) -> list[tuple[int, int]]:
        return sorted(self.cells)

    def as_rows(self) -> list[list[bool]]:
        return [[(j, k) in self.cells for k in range(self.p)] for j in range(self.p)]


def _matching_model(theta1: CuspidalLabelK, theta2: CuspidalLabelK, chi: CuspidalLabelK):
    """The one model of a triple's labels, once chi is checked to be a
    character (degree 1)."""
    model = _model_of(theta1, theta2, chi)
    if chi.degree != 1:
        raise PreconditionError("twisting label must have degree 1")
    return model


def matching_matrix(
    theta1: CuspidalLabelK,
    theta2: CuspidalLabelK,
    chi: CuspidalLabelK,
) -> MatchingMatrix:
    """Matching matrix for the pair of induced data AI(theta1), AI(theta2)
    against the twisting character chi.

    A degree mismatch between the inducing labels yields the all-off matrix.
    Otherwise the model gives the on-cells in one call; abelian models read
    them off the triple's cell grid and require both inducing labels to be
    non-invariant (the induced data must be cuspidal).
    """
    model = _matching_model(theta1, theta2, chi)
    if theta1.degree != theta2.degree:
        return MatchingMatrix(model.p, frozenset())
    return MatchingMatrix(model.p, model.on_cells(theta1, theta2, chi))


def matching_grid(
    theta1: CuspidalLabelK,
    theta2: CuspidalLabelK,
    chi: CuspidalLabelK,
) -> tuple[tuple, MatchingMatrix]:
    """The `cell_grid` of a triple over an abelian model and its matching
    matrix, read off that one grid with the checks of `matching_matrix`."""
    model = _matching_model(theta1, theta2, chi)
    grid = model.cell_grid(theta1, theta2, chi)
    cells = frozenset() if theta1.degree != theta2.degree else model.grid_on_cells(grid)
    return grid, MatchingMatrix(model.p, cells)


# ---------------------------------------------------------------------------
# Triple products


@dataclass(frozen=True)
class RSFactor:
    """One Rankin-Selberg factor of the triple product after base change.

    `j` indexes the constituent of the second datum, `k` of the first.  When
    the model supports twisting, `right` already carries the twisting
    character, so `pole_order` equals rs_pole_order(left, right); otherwise
    it is the model's matching cell (0, 0) of (left, right, chi).
    """

    j: int
    k: int
    left: CuspidalLabelK
    right: CuspidalLabelK
    pole_order: int


def _constituent_poles(
    pi1: CuspidalDatumF, pi2: CuspidalDatumF, chi: CuspidalLabelK
) -> Iterator[RSFactor]:
    model = _model_of(chi)
    if pi1.model is not model or pi2.model is not model:
        raise ModelMismatchError("data and twisting label come from different models")
    cons1 = base_change(pi1).constituents
    cons2 = base_change(pi2).constituents
    for j, c2 in enumerate(cons2):
        for k, c1 in enumerate(cons1):
            if model.supports_twist:
                right = model.twist(c2, chi)
                pole = rs_pole_order(c1, right)
            else:
                right = c2
                pole = int(c1.degree == c2.degree and model.matching_cell(c1, c2, chi, 0, 0))
            yield RSFactor(j=j, k=k, left=c1, right=right, pole_order=pole)


def _check_triple_inputs(pi1: CuspidalDatumF, pi2: CuspidalDatumF, chi: CuspidalLabelK):
    if not pi1.cuspidal or not pi2.cuspidal:
        raise PreconditionError("both data must be cuspidal over the base field")
    if chi.degree != 1:
        raise PreconditionError("twisting label must have degree 1")


def _stable_side_total(factors) -> int:
    """The pole order when at most one side is induced: the sum of the
    constituent pairings, which is 0 or 1."""
    total = sum(f.pole_order for f in factors)
    if total > 1:
        raise InvariantViolationError(
            "a pairing with a cuspidal-stable side cannot contract twice"
        )
    return total


def triple_pole_order(
    pi1: CuspidalDatumF, pi2: CuspidalDatumF, chi: CuspidalLabelK
) -> int:
    """Order of the edge pole of the triple product of pi1, pi2 and the
    datum induced from chi.

    Both sides induced: the count of on-cells of the matching matrix (at
    most p, and 0 outright on a degree mismatch).  At most one side induced:
    the sum of the constituent pairings, which is 0 or 1.
    """
    _check_triple_inputs(pi1, pi2, chi)
    if pi1.is_induced and pi2.is_induced:
        return matching_matrix(pi1.behavior.theta, pi2.behavior.theta, chi).ell
    return _stable_side_total(_constituent_poles(pi1, pi2, chi))


def factorize(
    pi1: CuspidalDatumF, pi2: CuspidalDatumF, chi: CuspidalLabelK
) -> list[RSFactor]:
    """Full list of Rankin-Selberg factors of the triple product, one per
    constituent pair after base change.

    The factor pole orders always sum to triple_pole_order: to the matching
    matrix's count when both sides are induced (a mismatch is an internal
    error), and otherwise to at most 1, as `triple_pole_order` checks.
    """
    _check_triple_inputs(pi1, pi2, chi)
    factors = list(_constituent_poles(pi1, pi2, chi))
    if pi1.is_induced and pi2.is_induced:
        total = sum(f.pole_order for f in factors)
        expected = matching_matrix(pi1.behavior.theta, pi2.behavior.theta, chi).ell
        if total != expected:
            raise InvariantViolationError(
                f"factor poles sum to {total} but the triple pole order is {expected}"
            )
    else:
        _stable_side_total(factors)
    return factors
