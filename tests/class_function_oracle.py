"""Reference oracle for the tests: characters as class functions with values
in exact cyclotomic integers, summed element by element.

The package computes every trivial multiplicity with one certified kernel
(`group_oracle._multiplicities`, exponent counts reduced modulo the
cyclotomic polynomial).  This module computes the same numbers the slow,
literal way, on the same `FiniteGroupModel` and `CharacterOfA`: the group
law written out on pairs (a, t), induced characters as dictionaries of
`CyclotomicInt` values, and the inner product (1/|G|) sum f * conj(g).  It
shares no arithmetic with the kernel, so the tests compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from triplepole.errors import InvariantViolationError, ModelMismatchError, PreconditionError
from triplepole.group_oracle import CharacterOfA, FiniteGroupModel, cyclotomic_polynomial
from triplepole.models import _mat_apply, sigma_powers

# ---------------------------------------------------------------------------
# Z[zeta_n]


def _poly_rem_monic(num: list[int], den: list[int]) -> list[int]:
    """Remainder of `num` modulo monic `den`, over the integers."""
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for j, dj in enumerate(den):
                num[k - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return num


class NotAnInteger(ArithmeticError):
    """A cyclotomic value expected to be a rational integer was not;
    `residual` holds its reduced remainder polynomial."""

    def __init__(self, message: str, residual: tuple):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_n] as a length-n coefficient vector.

    `coeffs[r]` is the integer coefficient of zeta^r.  The vector is not
    canonical (zeta satisfies the n-th cyclotomic polynomial, not x^n - 1),
    so equality, zero testing and integer certification reduce modulo that
    polynomial first.  A shorter vector is padded with zeros.

    >>> z = CyclotomicInt.root(3)
    >>> (z + z * z).as_integer()
    -1
    >>> (CyclotomicInt.root(4) * CyclotomicInt.root(4)).as_integer()
    -1
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be a positive integer")
        if len(self.coeffs) != self.order:
            padded = tuple(self.coeffs) + (0,) * (self.order - len(self.coeffs))
            if len(padded) != self.order:
                raise ValueError("coefficient vector longer than the order")
            object.__setattr__(self, "coeffs", padded)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        return cls(order, (0,) * order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicInt":
        return cls(order, (1,) + (0,) * (order - 1))

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> "CyclotomicInt":
        """zeta_n raised to `exponent` (reduced mod n)."""
        return cls.from_monomials(order, [(exponent, 1)])

    @classmethod
    def from_monomials(cls, order: int, terms: Iterable[tuple[int, int]]) -> "CyclotomicInt":
        """Sum of coeff * zeta^exponent over `terms` of (exponent, coeff)."""
        c = [0] * order
        for exp, coeff in terms:
            c[exp % order] += coeff
        return cls(order, tuple(c))

    def _check_same_ring(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, tuple(a * other for a in self.coeffs))
        self._check_same_ring(other)
        n = self.order
        out = [0] * n
        support_b = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in support_b:
                    out[(i + j) % n] += a * b
        return CyclotomicInt(n, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation: sends zeta^r to zeta^(-r)."""
        return CyclotomicInt.from_monomials(self.order, [(-r, a) for r, a in enumerate(self.coeffs)])

    def residual(self) -> tuple[int, ...]:
        """Canonical remainder modulo the cyclotomic polynomial, trimmed."""
        return tuple(_poly_rem_monic(list(self.coeffs), list(cyclotomic_polynomial(self.order))))

    def is_zero(self) -> bool:
        return self.residual() == ()

    def as_integer(self) -> int:
        """Certify the value as a rational integer and return it; raise
        NotAnInteger, carrying the residual, otherwise."""
        rem = self.residual()
        if len(rem) > 1:
            raise NotAnInteger(
                f"value is not a rational integer (residual degree {len(rem) - 1})", rem
            )
        return rem[0] if rem else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.one(self.order) * other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.order == other.order and (self - other).is_zero()

    __hash__ = None  # equality is modular; hashing the raw vector would lie


# ---------------------------------------------------------------------------
# The group law of A x| C_p, written out on pairs (a, t)


_powers = lru_cache(maxsize=None)(sigma_powers)


def sigma_apply(G: FiniteGroupModel, a, t: int = 1):
    """sigma^t applied to the base element a, by matrix multiplication."""
    return _mat_apply(_powers(G.factors, G.sigma, G.p)[t % G.p], G.factors, a)


def identity(G: FiniteGroupModel):
    return ((0,) * len(G.factors), 0)


def elements(G: FiniteGroupModel) -> list:
    return [(a, t) for t in range(G.p) for a in G.base_elements()]


def mul(G: FiniteGroupModel, g, h):
    """(a, t)(b, s) = (a + sigma^t b, t + s)."""
    (a, t), (b, s) = g, h
    shifted = sigma_apply(G, b, t)
    return (tuple((x + y) % d for x, y, d in zip(a, shifted, G.factors)), (t + s) % G.p)


def inv(G: FiniteGroupModel, g):
    a, t = g
    neg = tuple((-x) % d for x, d in zip(a, G.factors))
    return (sigma_apply(G, neg, -t), (-t) % G.p)


def conjugacy_classes(G: FiniteGroupModel) -> list[frozenset]:
    seen = set()
    classes = []
    everything = elements(G)
    for g in everything:
        if g not in seen:
            cls = frozenset(mul(G, mul(G, x, g), inv(G, x)) for x in everything)
            seen |= cls
            classes.append(cls)
    return classes


# ---------------------------------------------------------------------------
# Characters


def value(lam: CharacterOfA, a) -> CyclotomicInt:
    return CyclotomicInt.root(lam.group.nexp, lam.value_exponent(a))


def character_order(lam: CharacterOfA) -> int:
    """The least k >= 1 with k * exponents = 0."""
    k, acc = 1, lam.exponents
    while any(acc):
        acc = tuple((e + f) % d for e, f, d in zip(acc, lam.exponents, lam.group.factors))
        k += 1
    return k


def characters_of_base(G: FiniteGroupModel) -> list[CharacterOfA]:
    """Every base character, in mixed-radix order of exponent vectors."""
    return [CharacterOfA(G, exps) for exps in itertools.product(*(range(d) for d in G.factors))]


class ClassFunction:
    """A map G -> Z[zeta_n], stored on every element, constant on classes."""

    def __init__(self, group: FiniteGroupModel, values: dict, check: bool = True):
        self.group = group
        self.values = values
        if len(values) != group.order:
            raise PreconditionError("class function must be defined on all of G")
        if check:
            for cls in conjugacy_classes(group):
                rep = next(iter(cls))
                if any(values[g] != values[rep] for g in cls):
                    raise InvariantViolationError("values are not constant on a conjugacy class")

    def __call__(self, g) -> CyclotomicInt:
        return self.values[g]


def trivial_class_function(G: FiniteGroupModel) -> ClassFunction:
    one = CyclotomicInt.one(G.nexp)
    return ClassFunction(G, {g: one for g in elements(G)}, check=False)


def induced_character(lam: CharacterOfA, G: FiniteGroupModel) -> ClassFunction:
    """Character of the representation induced from the base: zero off the
    base, and the sum of `lam` over the sigma-orbit on it."""
    if lam.group is not G:
        raise ModelMismatchError("character belongs to a different group")
    zero = CyclotomicInt.zero(G.nexp)
    values = {}
    for a in G.base_elements():
        values[(a, 0)] = CyclotomicInt.from_monomials(
            G.nexp, [(lam.value_exponent(sigma_apply(G, a, t)), 1) for t in range(G.p)]
        )
        for t in range(1, G.p):
            values[(a, t)] = zero
    return ClassFunction(G, values, check=False)


def inner_product(f: ClassFunction, g: ClassFunction) -> int:
    """(1/|G|) sum f * conj(g), certified an integer."""
    if f.group is not g.group:
        raise ModelMismatchError("class functions live on different groups")
    G = f.group
    total = CyclotomicInt.zero(G.nexp)
    for x in elements(G):
        total = total + f(x) * g(x).conjugate()
    whole = total.as_integer()
    if whole % G.order:
        raise InvariantViolationError(f"inner product sum {whole} is not divisible by |G| = {G.order}")
    return whole // G.order


def projection_formula_check(V: ClassFunction, W: CharacterOfA, G: FiniteGroupModel) -> bool:
    """Ind(Res(V) * W) = V * Ind(W), value by value: the left side by
    inducing the product of V's restriction with W, the right by pointwise
    multiplication with the induced character of W."""
    if V.group is not G or W.group is not G:
        raise ModelMismatchError("inputs belong to a different group")
    ind_w = induced_character(W, G)
    zero = CyclotomicInt.zero(G.nexp)
    for g in elements(G):
        a, t = g
        lhs = zero
        if t == 0:
            for s in range(G.p):
                sa = sigma_apply(G, a, s)
                lhs = lhs + V((sa, 0)) * value(W, sa)
        if lhs != V(g) * ind_w(g):
            return False
    return True
