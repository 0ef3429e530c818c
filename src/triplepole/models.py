"""Label models for cuspidal data over a cyclic prime-degree extension.

A label model supplies concrete meaning for the symbols the pole calculus
manipulates: labels for cuspidal representations over the extension field,
the Galois shift on them, duals, character twists, and the cell predicate
that decides when a Rankin-Selberg pairing has a pole.  Three models ship:

* AbelianModel: labels are elements of a finite abelian group A on which a
  distinguished automorphism of order p acts.  Everything is decidable by
  arithmetic in A.
* GenericRelationModel: labels are opaque atoms with declared matching
  relations; used to express situations (higher-degree constituents,
  unknown character groups) where only the relation pattern is known.
* HeckeGaussianModel (in triplepole.gauss): an AbelianModel whose group is
  the character group of the units modulo an odd rational Gaussian modulus
  (m), with conjugation as sigma; labels are its ideal characters.

AbelianModel and GenericRelationModel expose the same duck-typed protocol,
which HeckeGaussianModel inherits: label construction, ``shift``,
``dual``/``twist`` (or UnsupportedOperationError), ``is_isomorphic``,
``is_invariant`` and ``on_cells`` (a triple's on-cells of the p x p matching
matrix, all at once), plus the class flag ``supports_twist`` and the
class-level ``kind`` ("abelian", "generic" or "gaussian"), which callers
dispatch on without importing the Gaussian lane.  AbelianModel also exposes
``cell_grid``, a triple's p x p grid of group elements shift^j(theta2) +
shift^k(theta1) + chi, whose zeros are the on-cells, and ``grid_on_cells``,
which reads them off a grid.  GenericRelationModel, which supports no
twist, also exposes ``matching_cell``, one cell of its relations table, for
the calculus's pairing of base-changed constituents.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import (
    ModelMismatchError,
    PreconditionError,
    RelationValidationError,
    UnsupportedOperationError,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CyclicData:
    """Degree data of the cyclic extension: the prime p."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise PreconditionError(f"extension degree must be prime, got {self.p}")


@dataclass(frozen=True)
class CuspidalLabelK:
    """A label for a cuspidal representation over the extension field.

    ``payload`` is model-specific: an element tuple in the abelian model, an
    (atom_id, shift) pair in the generic model, the exponent tuple
    ``psi.exps`` of a Hecke character in the Gaussian model.
    """

    model: object
    degree: int
    payload: object

    def __post_init__(self):
        if self.degree < 1:
            raise PreconditionError("label degree must be >= 1")


# ---------------------------------------------------------------------------
# Abelian model


def _mat_apply(mat, factors, a):
    return tuple(
        sum(mat[i][j] * a[j] for j in range(len(factors))) % factors[i]
        for i in range(len(factors))
    )


def _mat_mul(m1, m2, factors):
    r = len(factors)
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(r)) % factors[i] for j in range(r))
        for i in range(r)
    )


def sigma_powers(factors, sigma, p: int):
    """The powers sigma^0 .. sigma^(p-1) of an automorphism of prod Z/d_i.

    Entries of `sigma` are reduced mod d_i; the matrix must be square, well
    defined on the factors (d_i | d_j * sigma[i][j]) and satisfy sigma^p = 1.
    """
    r = len(factors)
    if len(sigma) != r or any(len(row) != r for row in sigma):
        raise PreconditionError("sigma must be a square matrix over the factors")
    sigma = tuple(tuple(int(sigma[i][j]) % factors[i] for j in range(r)) for i in range(r))
    for i in range(r):
        for j in range(r):
            if (factors[j] * sigma[i][j]) % factors[i] != 0:
                raise PreconditionError(
                    f"sigma entry ({i},{j}) does not define a map on the factors"
                )
    powers = [tuple(tuple(int(i == j) % factors[i] for j in range(r)) for i in range(r))]
    power = sigma
    for _ in range(p - 1):
        powers.append(power)
        power = _mat_mul(power, sigma, factors)
    if power != powers[0]:
        raise PreconditionError("sigma does not satisfy sigma^p = identity")
    return tuple(powers)


def sigma_table(factors, powers):
    """index[t, x]: the mixed-radix index, as `AbelianModel.encode` gives
    it, of powers[t] applied to the element of index x; an intp numpy array
    of shape (len(powers), prod factors)."""
    import numpy as np  # only the dense lanes need numpy

    d = np.array(factors, dtype=np.intp)
    strides = np.cumprod(np.r_[1, d[:0:-1]])[::-1]
    coords = np.arange(int(np.prod(d)))[:, None] // strides % d
    return coords @ np.array(powers, dtype=np.intp).transpose(0, 2, 1) % d @ strides


@dataclass(frozen=True)
class AbelianModel:
    """Finite abelian group A = prod Z/d_i with an order-p automorphism.

    ``sigma`` is an integer matrix acting on column vectors; entry (i, j) is
    taken mod d_i.  Well-definedness requires d_i | d_j * sigma[i][j], and by
    default sigma must have order exactly p.  Hecke-character labels over the
    extension are identified with elements of A written additively, so the
    dual is negation and twisting is addition.
    """

    factors: tuple[int, ...]
    sigma: tuple[tuple[int, ...], ...]
    cyclic: CyclicData
    allow_trivial_sigma: bool = False

    kind = "abelian"
    supports_twist = True

    def __post_init__(self):
        factors = tuple(int(d) for d in self.factors)
        if not factors or any(d < 2 for d in factors):
            raise PreconditionError("factors must be integers >= 2")
        powers = sigma_powers(factors, self.sigma, self.cyclic.p)
        if powers[1] == powers[0] and not self.allow_trivial_sigma:
            raise PreconditionError("sigma is trivial; automorphism of order p required")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "sigma", powers[1])
        object.__setattr__(self, "_sigma_powers", powers)

    @property
    def p(self) -> int:
        return self.cyclic.p

    @cached_property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    # -- element arithmetic

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    def element(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.factors):
            raise PreconditionError("coordinate arity does not match the factors")
        return tuple(c % d for c, d in zip(coords, self.factors))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.factors))

    def apply_sigma(self, a, t: int = 1) -> tuple[int, ...]:
        return _mat_apply(self._sigma_powers[t % self.p], self.factors, a)

    def encode(self, a) -> int:
        """Mixed-radix index of an element, for dense table lookups."""
        idx = 0
        for x, d in zip(a, self.factors):
            idx = idx * d + x
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        coords = []
        for d in reversed(self.factors):
            coords.append(idx % d)
            idx //= d
        return tuple(reversed(coords))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.factors))

    # -- label protocol

    def label(self, coords) -> CuspidalLabelK:
        return CuspidalLabelK(model=self, degree=1, payload=self.element(coords))

    def _payload(self, lab: CuspidalLabelK):
        if lab.model is not self:
            raise ModelMismatchError("label does not belong to this abelian model")
        return lab.payload

    def shift(self, lab: CuspidalLabelK, t: int) -> CuspidalLabelK:
        return CuspidalLabelK(self, lab.degree, self.apply_sigma(self._payload(lab), t))

    def dual(self, lab: CuspidalLabelK) -> CuspidalLabelK:
        return CuspidalLabelK(self, lab.degree, self.neg(self._payload(lab)))

    def twist(self, lab: CuspidalLabelK, chi: CuspidalLabelK) -> CuspidalLabelK:
        a = self._payload(lab)
        c = self._payload(chi)
        return CuspidalLabelK(self, lab.degree, self.add(a, c))

    def is_isomorphic(self, a: CuspidalLabelK, b: CuspidalLabelK) -> bool:
        return self._payload(a) == self._payload(b)

    def is_invariant(self, lab: CuspidalLabelK) -> bool:
        a = self._payload(lab)
        return self.apply_sigma(a, 1) == a

    def _orbit(self, a) -> list[tuple[int, ...]]:
        # sigma^0 is the identity, so p - 1 applications give all p shifts
        return [a] + [self.apply_sigma(a, t) for t in range(1, self.p)]

    def cell_grid(self, theta1, theta2, chi) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """grid[j][k] is the element shift^j(theta2) + shift^k(theta1) + chi
        of A, for 0 <= j, k < p, from p - 1 sigma applications per inducing
        label."""
        orbit1 = self._orbit(self._payload(theta1))
        orbit2 = self._orbit(self._payload(theta2))
        ec = self._payload(chi)
        return tuple(tuple(self.add(self.add(e2, e1), ec) for e1 in orbit1) for e2 in orbit2)

    def grid_on_cells(self, grid) -> frozenset:
        """The on-cells (j, k) of a `cell_grid`: those whose element vanishes.

        The grid shows invariance as well: grid[0][1] equals grid[0][0]
        exactly when sigma fixes theta1, and grid[1][0] exactly when it fixes
        theta2.  Either raises PreconditionError, since the induced data
        must be cuspidal.
        """
        if grid[0][1] == grid[0][0] or grid[1][0] == grid[0][0]:
            raise PreconditionError(
                "inducing labels must be non-invariant for cuspidal induction"
            )
        zero = self.zero()
        return frozenset(
            (j, k) for j, row in enumerate(grid) for k, c in enumerate(row) if c == zero
        )

    def on_cells(self, theta1, theta2, chi) -> frozenset:
        """The on-cells of the triple's matching matrix, read off its grid."""
        return self.grid_on_cells(self.cell_grid(theta1, theta2, chi))

    def describe(self) -> dict:
        return {
            "kind": "abelian",
            "factors": list(self.factors),
            "sigma": [list(row) for row in self.sigma],
            "p": self.p,
            "order": self.order,
        }


# ---------------------------------------------------------------------------
# Generic relation model

CHI_ATOM_ID = "@chi"


@dataclass(frozen=True)
class GenericAtom:
    """Opaque cuspidal label over the extension: an identifier, a degree,
    and whether the Galois shift moves it."""

    atom_id: str
    degree: int
    noninvariant: bool = True

    def __post_init__(self):
        if self.degree < 1:
            raise PreconditionError("atom degree must be >= 1")
        if self.atom_id == CHI_ATOM_ID:
            raise PreconditionError(f"atom id {CHI_ATOM_ID!r} is reserved")


@dataclass(frozen=True)
class RelationDiagnostic:
    code: str
    pairs: tuple[tuple[int, int], ...]
    message: str


@dataclass(frozen=True)
class GenericRelationModel:
    """Matching data declared by hand instead of computed from a group.

    ``relations`` lists the cells (j, k) that hold for the base (unshifted)
    labels; shifted labels reindex into the same table.  Twisting and duals
    are not meaningful here and raise UnsupportedOperationError.
    """

    cyclic: CyclicData
    atoms: tuple[GenericAtom, ...]
    relations: frozenset
    chi_invariant: bool
    theta1_id: str = "theta1"
    theta2_id: str = "theta2"
    validate: bool = True

    kind = "generic"
    supports_twist = False

    def __post_init__(self):
        p = self.cyclic.p
        rels = frozenset((j % p, k % p) for j, k in self.relations)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        ids = [a.atom_id for a in self.atoms]
        if len(set(ids)) != len(ids):
            raise PreconditionError("duplicate atom ids")
        if self.theta1_id == self.theta2_id:
            raise PreconditionError("theta1 and theta2 must be distinct atoms")
        for needed in (self.theta1_id, self.theta2_id):
            if needed not in ids:
                raise PreconditionError(f"no atom with id {needed!r}")
        if self.validate:
            diagnostics = validate_relations(self)
            if diagnostics:
                raise RelationValidationError(
                    "declared relations fail structural checks: "
                    + "; ".join(d.code for d in diagnostics),
                    diagnostics,
                )

    @property
    def p(self) -> int:
        return self.cyclic.p

    def atom(self, atom_id: str) -> GenericAtom:
        for a in self.atoms:
            if a.atom_id == atom_id:
                return a
        raise PreconditionError(f"no atom with id {atom_id!r}")

    # -- label protocol

    def _make_label(self, atom_id: str, degree: int, shift: int, invariant: bool) -> CuspidalLabelK:
        # Shifts are only meaningful on labels the Galois action moves.
        s = 0 if invariant else shift % self.p
        return CuspidalLabelK(self, degree, (atom_id, s))

    def theta1_label(self, shift: int = 0) -> CuspidalLabelK:
        a = self.atom(self.theta1_id)
        return self._make_label(a.atom_id, a.degree, shift, not a.noninvariant)

    def theta2_label(self, shift: int = 0) -> CuspidalLabelK:
        a = self.atom(self.theta2_id)
        return self._make_label(a.atom_id, a.degree, shift, not a.noninvariant)

    def chi_label(self, shift: int = 0) -> CuspidalLabelK:
        return self._make_label(CHI_ATOM_ID, 1, shift, self.chi_invariant)

    def _payload(self, lab: CuspidalLabelK):
        if lab.model is not self:
            raise ModelMismatchError("label does not belong to this relation model")
        return lab.payload

    def shift(self, lab: CuspidalLabelK, t: int) -> CuspidalLabelK:
        if self.is_invariant(lab):
            return lab
        atom_id, s = self._payload(lab)
        return CuspidalLabelK(self, lab.degree, (atom_id, (s + t) % self.p))

    def dual(self, lab: CuspidalLabelK) -> CuspidalLabelK:
        raise UnsupportedOperationError("relation model has no dual operation")

    def twist(self, lab: CuspidalLabelK, chi: CuspidalLabelK) -> CuspidalLabelK:
        raise UnsupportedOperationError("relation model has no twist operation")

    def is_isomorphic(self, a: CuspidalLabelK, b: CuspidalLabelK) -> bool:
        return self._payload(a) == self._payload(b)

    def is_invariant(self, lab: CuspidalLabelK) -> bool:
        atom_id, _ = self._payload(lab)
        if atom_id == CHI_ATOM_ID:
            return self.chi_invariant
        return not self.atom(atom_id).noninvariant

    def _role_shift(self, lab: CuspidalLabelK, expected_id: str, role: str) -> int:
        atom_id, s = self._payload(lab)
        if atom_id != expected_id:
            raise PreconditionError(
                f"label {atom_id!r} cannot fill the {role} role (expected {expected_id!r})"
            )
        return s

    def _role_shifts(self, theta1, theta2, chi) -> tuple[int, int, int]:
        return (
            self._role_shift(theta1, self.theta1_id, "first"),
            self._role_shift(theta2, self.theta2_id, "second"),
            self._role_shift(chi, CHI_ATOM_ID, "twisting"),
        )

    def on_cells(self, theta1, theta2, chi) -> frozenset:
        """The declared relations, reindexed by the labels' shifts: cell
        (j, k) is on exactly when (j + s2 - sc, k + s1 - sc) is a relation."""
        s1, s2, sc = self._role_shifts(theta1, theta2, chi)
        p = self.p
        return frozenset(((j - s2 + sc) % p, (k - s1 + sc) % p) for j, k in self.relations)

    def matching_cell(self, theta1, theta2, chi, j: int, k: int) -> bool:
        s1, s2, sc = self._role_shifts(theta1, theta2, chi)
        p = self.p
        return ((j + s2 - sc) % p, (k + s1 - sc) % p) in self.relations

    def describe(self) -> dict:
        return {
            "kind": "generic",
            "p": self.p,
            "atoms": [
                {"id": a.atom_id, "degree": a.degree, "noninvariant": a.noninvariant}
                for a in self.atoms
            ],
            "relations": sorted([list(c) for c in self.relations]),
            "chi_invariant": self.chi_invariant,
        }


def validate_relations(model: GenericRelationModel) -> list[RelationDiagnostic]:
    """Structural checks on declared relations; returns one diagnostic per
    violated constraint (empty list when clean).

    Checks: the two roles must have equal degrees for any relation to hold;
    relations must form a partial permutation (no repeated row, no repeated
    column); and when the twisting character is declared invariant the
    relation set must be closed under the simultaneous diagonal shift.
    """
    out: list[RelationDiagnostic] = []
    p = model.cyclic.p
    rels = sorted(model.relations)
    deg1 = model.atom(model.theta1_id).degree
    deg2 = model.atom(model.theta2_id).degree
    if rels and deg1 != deg2:
        out.append(
            RelationDiagnostic(
                "degree-mismatch",
                tuple(rels),
                f"roles have degrees {deg1} and {deg2}; no pairing can have a pole",
            )
        )
    rows: dict[int, list] = {}
    cols: dict[int, list] = {}
    for j, k in rels:
        rows.setdefault(j, []).append((j, k))
        cols.setdefault(k, []).append((j, k))
    row_bad = [c for cells in rows.values() if len(cells) > 1 for c in cells]
    if row_bad:
        out.append(
            RelationDiagnostic(
                "row-conflict",
                tuple(sorted(row_bad)),
                "two relations share a row; matching cells must form a partial permutation",
            )
        )
    col_bad = [c for cells in cols.values() if len(cells) > 1 for c in cells]
    if col_bad:
        out.append(
            RelationDiagnostic(
                "column-conflict",
                tuple(sorted(col_bad)),
                "two relations share a column; matching cells must form a partial permutation",
            )
        )
    if model.chi_invariant:
        missing = [
            (j, k) for j, k in rels if ((j + 1) % p, (k + 1) % p) not in model.relations
        ]
        if missing:
            out.append(
                RelationDiagnostic(
                    "missing-diagonal-shift",
                    tuple(sorted(missing)),
                    "invariant twisting character forces closure under the diagonal shift",
                )
            )
    return out
