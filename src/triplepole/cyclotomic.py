"""Exact arithmetic in Z[zeta_n], the ring of integers adjoined an n-th root
of unity.

Elements are stored as integer coefficient vectors of length n, representing
sum(c[r] * zeta^r) with exponents taken mod n.  This representation is not
canonical (zeta satisfies the n-th cyclotomic polynomial, not x^n - 1), so
equality, zero testing and integer certification all reduce modulo the n-th
cyclotomic polynomial first.  All arithmetic is exact integer arithmetic;
nothing here touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import NotAnIntegerError


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials exactly; `den` must be monic and divide
    `num` with zero remainder."""
    num = list(num)
    dd = len(den) - 1
    assert den[-1] == 1, "divisor must be monic"
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    assert all(c == 0 for c in num), "division was not exact"
    return quot


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by the classical recursion: x^n - 1 divided by the product of
    the cyclotomic polynomials of all proper divisors of n.  The division is
    exact in Z[x].

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    acc = [1]
    for d in range(1, n):
        if n % d == 0:
            acc = _poly_mul(acc, list(cyclotomic_polynomial(d)))
    xn1 = [0] * (n + 1)
    xn1[0], xn1[n] = -1, 1
    return tuple(_poly_div_exact(xn1, acc))


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_n] as a length-n coefficient vector.

    `coeffs[r]` is the integer coefficient of zeta^r.  Construction with a
    shorter vector pads with zeros; exponents never need reducing because the
    vector length equals the order.

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
        c = [0] * order
        c[exponent % order] = 1
        return cls(order, tuple(c))

    @classmethod
    def from_monomials(cls, order: int, terms: Iterable[tuple[int, int]]) -> "CyclotomicInt":
        """Sum of coeff * zeta^exponent over `terms` of (exponent, coeff)."""
        c = [0] * order
        for exp, coeff in terms:
            c[exp % order] += coeff
        return cls(order, tuple(c))

    def _check_same_ring(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}"
            )

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.order, tuple(a * other for a in self.coeffs))
        self._check_same_ring(other)
        n = self.order
        out = [0] * n
        # Iterate only the nonzero support: products of induced characters
        # are extremely sparse and this dominates the oracle's runtime.
        support_a = [(i, a) for i, a in enumerate(self.coeffs) if a]
        support_b = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in support_a:
            for j, b in support_b:
                out[(i + j) % n] += a * b
        return CyclotomicInt(n, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation: sends zeta^r to zeta^(-r)."""
        n = self.order
        c = [0] * n
        for r, a in enumerate(self.coeffs):
            c[(-r) % n] += a
        return CyclotomicInt(n, tuple(c))

    def residual(self) -> tuple[int, ...]:
        """Canonical remainder modulo the cyclotomic polynomial, trimmed."""
        rem = _poly_rem_monic(list(self.coeffs), list(cyclotomic_polynomial(self.order)))
        return tuple(rem)

    def is_zero(self) -> bool:
        return self.residual() == ()

    def as_integer(self) -> int:
        """Certify the value as a rational integer and return it.

        Raises NotAnIntegerError, carrying the reduced residual, if the value
        has a nonzero component outside Q.
        """
        rem = self.residual()
        if len(rem) == 0:
            return 0
        if len(rem) == 1:
            return rem[0]
        raise NotAnIntegerError(
            f"value is not a rational integer (residual degree {len(rem) - 1})",
            residual=rem,
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CyclotomicInt.one(self.order) * other
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        if self.order != other.order:
            return False
        return (self - other).is_zero()

    __hash__ = None  # equality is modular; hashing the raw vector would lie
