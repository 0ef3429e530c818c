"""Hecke characters of the Gaussian field and their pole calculus model.

Gaussian integers are plain tuples (a, b) meaning a + bi.  The moduli are
the ideals (m) of Z[i] for odd rational m >= 1: complex conjugation, the
order-2 Galois action of the numeric lane, acts on the characters modulo an
ideal only when it fixes the ideal, and an ideal of odd norm is fixed
exactly when a rational integer generates it.  The residue ring Z[i]/(m) is
then (Z/m)^2.  Finite-order ideal characters modulo m are the characters of
its unit group that are trivial on the image of i; they form the numeric
side of the cross-verification.
"""

from __future__ import annotations

import math
from functools import cached_property

from .char_group import abelian_basis
from .errors import PreconditionError, UnsupportedModulusError
from .models import AbelianModel, CuspidalLabelK, CyclicData


# ---------------------------------------------------------------------------
# residue systems


class GaussianModulus:
    """The quotient ring Z[i]/(m) for an odd rational m >= 1, as (Z/m)^2.

    The generator may be any associate of m, (m, 0), (0, m) or their
    negatives, and is normalised to (m, 0).  Zero, even norms and every
    other generator raise UnsupportedModulusError.  x + yi reduces to the
    residue (x mod m, y mod m), and a residue is a unit exactly when its
    norm x^2 + y^2 is prime to m: for odd m a rational prime q divides the
    norm of z exactly when a prime ideal above q divides z.
    """

    def __init__(self, generator):
        a, b = int(generator[0]), int(generator[1])
        if (a, b) == (0, 0):
            raise UnsupportedModulusError("modulus must be a nonzero ideal")
        if (a * a + b * b) % 2 == 0:
            raise UnsupportedModulusError(
                "even-norm moduli are not supported; the ramified prime is excluded"
            )
        if a and b:
            raise UnsupportedModulusError(
                "the Galois action needs a conjugation-stable modulus"
            )
        self.m = abs(a or b)
        self.generator = (self.m, 0)
        self.norm = self.m * self.m

    def __repr__(self):
        return f"GaussianModulus({self.generator})"

    def __eq__(self, other):
        return isinstance(other, GaussianModulus) and other.generator == self.generator

    def __hash__(self):
        return hash(("GaussianModulus", self.generator))

    def reduce(self, z):
        """Canonical representative of z modulo the ideal."""
        return (int(z[0]) % self.m, int(z[1]) % self.m)

    def residues(self):
        return [(x, y) for y in range(self.m) for x in range(self.m)]

    @cached_property
    def units(self) -> list:
        m = self.m
        return [(x, y) for x, y in self.residues() if math.gcd(x * x + y * y, m) == 1]

    def unit_mul(self, a, b):
        return self.reduce((a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))

    @cached_property
    def unit_structure(self):
        """(basis, invariant factor orders, log table) of the unit group."""
        one = self.reduce((1, 0))
        return abelian_basis(self.units, self.unit_mul, one)

    @cached_property
    def unit_log_matrix(self):
        """Log coordinates of the units, in `units` order, each scaled by
        L/t to a common exponent L, as an int64 numpy array: a character's
        value exponents are then (unit_log_matrix @ exps) % L."""
        import numpy as np  # only the numeric lane needs numpy

        _, orders, log = self.unit_structure
        L = self.unit_exponent
        rows = [[c * (L // t) for c, t in zip(log[u], orders)] for u in self.units]
        return np.array(rows, dtype=np.int64)

    @property
    def unit_exponent(self) -> int:
        orders = self.unit_structure[1]
        return orders[0] if orders else 1

    @cached_property
    def i_image(self):
        return self.reduce((0, 1))


# ---------------------------------------------------------------------------
# ideal characters


class GaussianHeckeChar:
    """A finite-order ideal character modulo m.

    Stored as an exponent vector over the invariant-factor basis of the unit
    group; the character must kill the image of i, which is exactly the
    condition for chi(generator) to be independent of the generator choice,
    so values are well defined on ideals.
    """

    def __init__(self, modulus: GaussianModulus, exps, check: bool = True):
        basis, orders, log = modulus.unit_structure
        if len(exps) != len(orders):
            raise PreconditionError("exponent arity does not match the unit basis")
        self.modulus = modulus
        self.exps = tuple(int(e) % t for e, t in zip(exps, orders))
        self._orders = orders
        self._L = modulus.unit_exponent
        self._log = log
        if check and self.value_exponent(modulus.i_image) != 0:
            raise PreconditionError(
                "character does not kill the image of i; it is not an ideal character"
            )

    def __repr__(self):
        return f"GaussianHeckeChar({self.modulus.generator}, {self.exps})"

    def __eq__(self, other):
        return (
            isinstance(other, GaussianHeckeChar)
            and other.modulus == self.modulus
            and other.exps == self.exps
        )

    def __hash__(self):
        return hash((self.modulus.generator, self.exps))

    def value_exponent(self, unit) -> int:
        """Exponent e with value zeta_L^e at a unit residue."""
        coords = self._log.get(unit)
        if coords is None:
            raise PreconditionError(f"{unit} is not a unit modulo the ideal")
        L = self._L
        return sum(e * c * (L // t) for e, c, t in zip(self.exps, coords, self._orders)) % L

    def value(self, z) -> complex:
        """Value at any Gaussian integer coprime to the modulus."""
        e = self.value_exponent(self.modulus.reduce(z))
        return complex(
            math.cos(2 * math.pi * e / self._L), math.sin(2 * math.pi * e / self._L)
        )

    @cached_property
    def order(self) -> int:
        out = 1
        for e, t in zip(self.exps, self._orders):
            out = math.lcm(out, t // math.gcd(e, t))
        return out

    def mul(self, other: "GaussianHeckeChar") -> "GaussianHeckeChar":
        if other.modulus != self.modulus:
            raise PreconditionError("characters live on different moduli")
        exps = tuple((a + b) % t for a, b, t in zip(self.exps, other.exps, self._orders))
        return GaussianHeckeChar(self.modulus, exps, check=False)

    def pow(self, k: int) -> "GaussianHeckeChar":
        exps = tuple((a * k) % t for a, t in zip(self.exps, self._orders))
        return GaussianHeckeChar(self.modulus, exps, check=False)


def unit_trivial_characters(modulus: GaussianModulus) -> list[GaussianHeckeChar]:
    """All ideal characters modulo m, in ascending exponent order (the
    trivial character first).  There are |units| / ord(i mod m) of them."""
    import itertools

    _, orders, _ = modulus.unit_structure
    out = []
    for exps in itertools.product(*(range(t) for t in orders)):
        cand = GaussianHeckeChar(modulus, exps, check=False)
        if cand.value_exponent(modulus.i_image) == 0:
            out.append(cand)
    return out


def _solve_exponents(modulus: GaussianModulus, value_exp_of_basis) -> tuple[int, ...]:
    """Exponent vector of the character of the unit group whose value at
    basis generator j is zeta_L^{value_exp_of_basis[j]}."""
    _, orders, _ = modulus.unit_structure
    L = modulus.unit_exponent
    exps = []
    for v, t in zip(value_exp_of_basis, orders):
        step = L // t
        if v % step != 0:
            raise PreconditionError(
                "values do not define a character of the stated orders"
            )
        exps.append((v // step) % t)
    return tuple(exps)


def conjugate_char(psi: GaussianHeckeChar) -> GaussianHeckeChar:
    """The character z -> psi(conj z) on the same modulus: the Galois action
    on ideal characters, an involution."""
    modulus = psi.modulus
    basis, _, _ = modulus.unit_structure
    vals = [psi.value_exponent(modulus.reduce((x, -y))) for x, y in basis]
    exps = _solve_exponents(modulus, vals)
    return GaussianHeckeChar(modulus, exps, check=False)


# ---------------------------------------------------------------------------
# density


def ideal_density(modulus: GaussianModulus) -> float:
    """Limit of (ideals of norm <= X coprime to m) / X: pi/4 scaled by the
    coprime fraction of the residue ring."""
    return (math.pi / 4.0) * len(modulus.units) / modulus.norm


# ---------------------------------------------------------------------------
# calculus adapter


class HeckeGaussianModel(AbelianModel):
    """The characters of the units modulo (m), as an abelian model with
    complex conjugation as the degree-2 Galois action.  Every modulus is
    conjugation-stable, since `GaussianModulus` admits only rational ones.

    An element is an exponent vector over the invariant-factor basis of the
    unit group, so a label's payload is `psi.exps` and the label protocol is
    the abelian one: twisting multiplies characters, the dual inverts, and
    sigma, whose column j is the conjugate of the j-th basis character,
    conjugates.  Labels come from the ideal characters (those killing i),
    which these operations preserve.  Models compare by identity.
    """

    kind = "gaussian"
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, modulus: GaussianModulus):
        orders = modulus.unit_structure[1]
        if not orders:
            raise UnsupportedModulusError(
                "the unit ideal has a trivial unit group and no Galois action"
            )
        n = len(orders)
        basis = [[int(i == j) for i in range(n)] for j in range(n)]
        columns = [
            conjugate_char(GaussianHeckeChar(modulus, unit, check=False)).exps
            for unit in basis
        ]
        super().__init__(factors=orders, sigma=tuple(zip(*columns)), cyclic=CyclicData(2))
        self.modulus = modulus

    def __repr__(self):
        return f"HeckeGaussianModel({self.modulus.generator})"

    @cached_property
    def characters(self) -> list[GaussianHeckeChar]:
        return unit_trivial_characters(self.modulus)

    def label(self, psi: GaussianHeckeChar) -> CuspidalLabelK:
        if psi.modulus != self.modulus:
            raise PreconditionError("character modulus does not match the model")
        return CuspidalLabelK(model=self, degree=1, payload=psi.exps)

    def character_label(self, index: int) -> CuspidalLabelK:
        return self.label(self.characters[index])

    def character(self, element) -> GaussianHeckeChar:
        """The ideal character an element of the model stands for."""
        return GaussianHeckeChar(self.modulus, element)

    def describe(self) -> dict:
        return {
            "kind": "gaussian",
            "modulus": list(self.modulus.generator),
            "norm": self.modulus.norm,
            "p": 2,
            "characters": len(self.characters),
        }
