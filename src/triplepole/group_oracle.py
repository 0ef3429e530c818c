"""Exact character-theory oracle on semidirect products A x| C_p.

The pole calculus predicts a count; this module independently reproduces it
as the multiplicity of the trivial representation in a tensor product of
induced characters.  One certified kernel computes it from the full sum over
the group: the exponents of the summed roots of unity are counted, the count
vector is reduced modulo the cyclotomic polynomial, and the result is
certified a rational integer divisible by |G|.  The bridge between an
abelian label model and the oracle is a duality pairing: model elements
index characters of a base group with the same factors, carrying the dual
(scaled-transpose) automorphism.

All values live in Z[zeta_n] for n the exponent of the base group; nothing
here uses floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import lcm, prod

import numpy as np

from .errors import InvariantViolationError, ModelMismatchError, PreconditionError
from .models import AbelianModel, CuspidalLabelK, sigma_powers, sigma_table

PAIRING_NOTE = (
    "model elements index base-group characters via the coordinate-wise "
    "root-of-unity pairing; the base group carries the scaled-transpose "
    "(dual) of the model automorphism"
)


def dual_sigma(factors, sigma):
    """The automorphism dual to `sigma` under the coordinate pairing.

    Entry (i, j) is sigma[j][i] * d_i / d_j; the quotient is exact whenever
    `sigma` itself is well defined on the factors, and the result is the
    unique matrix S with pairing(sigma(a), b) = pairing(a, S(b)) for all a, b.
    """
    r = len(factors)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            num = sigma[j][i] * factors[i]
            if num % factors[j] != 0:
                raise PreconditionError(
                    "sigma is not well defined on the factors; no dual exists"
                )
            row.append((num // factors[j]) % factors[i])
        out.append(tuple(row))
    return tuple(out)


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


def _totient(n: int) -> int:
    """Euler's phi by trial division."""
    out, rest, q = n, n, 2
    while q * q <= rest:
        if rest % q == 0:
            out -= out // q
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        out -= out // rest
    return out


# Ceilings on building an oracle group, checked by `FiniteGroupModel` from
# the factors and p before anything is allocated.  p * |A| bounds the group's
# tables (sigma_index, and the exponent rows of a character or an orbit table
# of the sweeps); n * (n - phi(n)) for the base exponent n bounds the integer
# steps of computing Phi_n and the n - phi(n) remainder rows
# `_remainder_matrix` builds, phi(n) entries each.
ORACLE_MAX_BASE_ENTRIES = 1 << 19
ORACLE_MAX_CYCLOTOMIC_STEPS = 1 << 25


def _check_oracle_cost(factors: tuple[int, ...], p: int) -> None:
    entries = p * prod(factors)
    if entries > ORACLE_MAX_BASE_ENTRIES:
        raise PreconditionError(
            f"the oracle group of factors {list(factors)} and p = {p} needs base "
            f"tables of {entries} entries, over the ceiling of {ORACLE_MAX_BASE_ENTRIES}"
        )
    n = lcm(*factors)
    steps = n * (n - _totient(n))
    if steps > ORACLE_MAX_CYCLOTOMIC_STEPS:
        raise PreconditionError(
            f"reducing modulo the {n}-th cyclotomic polynomial takes about {steps} "
            f"integer steps, over the ceiling of {ORACLE_MAX_CYCLOTOMIC_STEPS}"
        )


class FiniteGroupModel:
    """The semidirect product of an abelian base by a cyclic p-group.

    Elements are pairs (a, t) with a in the base and t in Z/p, multiplying as
    (a, t)(a', t') = (a + sigma^t a', t + t').  The base is prod Z/d_i and
    sigma's order must divide p.  Groups over the ceilings
    ORACLE_MAX_BASE_ENTRIES and ORACLE_MAX_CYCLOTOMIC_STEPS are rejected with
    PreconditionError before any table is built.
    """

    def __init__(self, factors, sigma, p: int):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise PreconditionError("factors must be positive integers")
        if p < 1:
            raise PreconditionError("p must be a positive integer")
        _check_oracle_cost(factors, p)
        powers = sigma_powers(factors, sigma, p)
        self.factors = factors
        self.sigma = powers[1 % p]  # sigma^1, the identity when p = 1
        self.p = p
        self.nexp = lcm(*factors)
        self.base_order = prod(factors)
        self.order = p * self.base_order
        # sigma_index[t, i]: base index of sigma^t applied to base element i
        self.sigma_index = sigma_table(factors, powers)

    def base_elements(self):
        return list(itertools.product(*(range(d) for d in self.factors)))


def build_semidirect(factors, sigma, p: int) -> FiniteGroupModel:
    """Construct the semidirect product, validating that sigma's order
    divides p (the identity automorphism gives the direct product)."""
    return FiniteGroupModel(factors, sigma, p)


class CharacterOfA:
    """A character of the abelian base, given by an exponent vector.

    The value at a is zeta_n ^ (sum_i e_i a_i (n / d_i)) for n the base
    exponent: the coordinate-wise root-of-unity pairing.
    """

    def __init__(self, group: FiniteGroupModel, exponents):
        if len(exponents) != len(group.factors):
            raise PreconditionError("exponent arity does not match the base factors")
        self.group = group
        self.exponents = tuple(int(e) % d for e, d in zip(exponents, group.factors))

    def value_exponent(self, a) -> int:
        n = self.group.nexp
        return sum(e * x * (n // d) for e, x, d in zip(self.exponents, a, self.group.factors)) % n


def trivial_multiplicity(
    lambda1: CharacterOfA,
    lambda2: CharacterOfA,
    chi: CharacterOfA,
    group: FiniteGroupModel,
) -> int:
    """Multiplicity of the trivial representation in the tensor product of
    the three induced characters: (1/|G|) sum over G of their value product.

    The full sum is certified by `_multiplicities` (the induced characters
    vanish off the base, so those terms contribute nothing).
    """
    for lam in (lambda1, lambda2, chi):
        if lam.group is not group:
            raise ModelMismatchError("character belongs to a different group")
    e1, e2, e3 = _exponent_rows(group, [lam.exponents for lam in (lambda1, lambda2, chi)])
    return int(_multiplicities(e1, e2, e3[None], group, _remainder_matrix(group.nexp))[0])


# Entries of the largest temporary a `_multiplicities` call holds: the
# exponent sums over one block of base elements for every chi.  No catalogue
# model reaches it; the largest, (50,) at p = 5, needs 112,500.
_BLOCK_ENTRIES = 1 << 17


def _exponent_rows(group: FiniteGroupModel, exponents) -> np.ndarray:
    """E[i, t, b]: exponent of the base character with exponent vector
    exponents[i] at sigma^t of base element b, elements in mixed-radix index
    order: sum_j e_j b_j (n / d_j) mod n for the base exponent n."""
    coords = np.indices(group.factors).reshape(len(group.factors), -1)
    weights = np.array([group.nexp // d for d in group.factors], dtype=np.int64)
    E = (np.asarray(exponents, dtype=np.int64) * weights) @ coords
    return (E % group.nexp)[:, group.sigma_index]


# Ceiling on the exponent table of `oracle_agreement_sweep`: p * |A|^2 int64
# entries, checked before the table is built.  The sweep's largest
# temporaries are a few times this size.
ORACLE_MAX_EXPONENT_ENTRIES = 1 << 22


def _exponent_table(group: FiniteGroupModel) -> np.ndarray:
    """E[lam, t, b]: `_exponent_rows` of every base character lam, in
    mixed-radix index order.  A table of over ORACLE_MAX_EXPONENT_ENTRIES
    entries raises PreconditionError before anything is allocated."""
    entries = group.p * group.base_order**2
    if entries > ORACLE_MAX_EXPONENT_ENTRIES:
        raise PreconditionError(
            f"sweeping the oracle group of factors {list(group.factors)} and p = {group.p} "
            f"needs an exponent table of {entries} entries, over the ceiling of "
            f"{ORACLE_MAX_EXPONENT_ENTRIES}"
        )
    return _exponent_rows(group, group.base_elements())


def _remainder_matrix(n: int) -> np.ndarray:
    """Row e - deg: coefficients of x^e reduced modulo the n-th cyclotomic
    polynomial, of degree deg, for deg <= e < n.  Reduction is linear and
    leaves x^e with e < deg as it is, so a monomial-count vector c reduces to
    c[:deg] + c[deg:] @ R.

    Phi_n is monic, so x^deg = -(Phi_n - x^deg), and each further row is the
    one before times x with its x^deg term folded back in the same way.
    """
    low = np.array(cyclotomic_polynomial(n)[:-1], dtype=np.int64)
    deg = len(low)
    R = np.empty((n - deg, deg), dtype=np.int64)
    row = -low
    for e in range(n - deg):
        R[e] = row
        row = np.concatenate(([0], row[:-1])) - row[-1] * low
    return R


def _multiplicities(e1, e2, chis, group: FiniteGroupModel, R) -> np.ndarray:
    """Certified trivial multiplicities of (lam1, lam2, chi_c) for a stack
    of chis, from rows of `_exponent_table`: e1, e2 of shape (p, base) and
    chis of shape (c, p, base), row c offset by 3nc for n = group.nexp so
    that the exponent sums of chi c, in [0, 3n - 3], fall in bins of their
    own.  The exponents are counted over blocks of base elements, reduced by
    R = `_remainder_matrix(n)`, certified rational integers and divided by
    |G|.
    """
    n = group.nexp
    nchi, p, nbase = chis.shape
    step = max(1, _BLOCK_ENTRIES // (nchi * p**3))
    counts = 0
    for lo in range(0, nbase, step):
        sl = slice(lo, lo + step)
        d12 = (e1[:, None, sl] + e2[None, :, sl]).reshape(p * p, -1)
        combined = d12[None, :, None, :] + chis[:, None, :, sl]
        counts = counts + np.bincount(combined.ravel(), minlength=nchi * 3 * n)
    counts = counts.reshape(nchi, 3, n).sum(axis=1)
    deg = R.shape[1]
    reduced = counts[:, :deg] + counts[:, deg:] @ R
    if deg > 1 and np.any(reduced[:, 1:]):
        raise InvariantViolationError("oracle sum is not a rational integer")
    sums = reduced[:, 0]
    if np.any(sums % group.order):
        raise InvariantViolationError("oracle sum is not divisible by |G|")
    return sums // group.order


# ---------------------------------------------------------------------------
# Projection formula


def _orbit_reps(group: FiniteGroupModel) -> np.ndarray:
    """rep[i]: the least index in the orbit of base character i under
    lam -> lam o sigma.

    Characters are indexed by their exponent vectors in mixed radix, as
    model elements are; lam o sigma has the exponent vector
    dual_sigma(sigma) e, which for `oracle_group(model)` is model.sigma e.
    """
    dual = dual_sigma(group.factors, group.sigma)
    return sigma_table(group.factors, sigma_powers(group.factors, dual, group.p)).min(axis=0)


def projection_formula_sweep(group: FiniteGroupModel) -> dict:
    """Run the projection-formula identity over every pair (V = induced
    character, W = base character) of the group.

    The identity for (v, w) is the same statement as for (v o sigma, w),
    since Ind lambda_v depends only on the sigma-orbit of lambda_v, and as
    for (v, w o sigma), since Res V is sigma-stable and Ind(W o sigma) =
    Ind W.  So one statement is proved per pair of orbits: `statements`
    counts them and `checked` counts the base_order**2 pairs they cover.

    Off the base both sides vanish.  At a base element a both are monomial
    sums with exponents E[lam, b] of lam at b:

        Ind(Res V * W)(a) = sum_{s,t} lambda_v(sigma^s sigma^t a) lambda_w(sigma^t a)
        V(a) * Ind W(a)   = sum_{s,t} lambda_v(sigma^s a) lambda_w(sigma^t a)

    so the left side's exponent multiset is the union over t of
    {E[v, sigma^s sigma^t a]}_s + E[w, sigma^t a], and the right side's the
    union over t of {E[v, sigma^s a]}_s + E[w, sigma^t a].  They agree term
    by term for every v and w, and equal exponent multisets give equal
    values in the cyclotomic ring, when sigma^s sigma^t = sigma^((s + t) mod
    p).  The sweep checks that law on sigma_index in O(p * |A|) memory: row
    0 is the identity and row (s + 1) mod p is row s followed by row 1 mod
    p, so row s is the s-th power of row 1 and its p-th power the identity.
    Every group the constructors build passes; a table that fails (only a
    hand-edited sigma_index can) raises InvariantViolationError.
    `failures` is therefore always empty; the key stays for readers of the
    report.
    """
    nbase, p = group.base_order, group.p
    sig = group.sigma_index  # (p, nbase): row s is sigma^s
    broken = np.any(np.roll(sig, -1, axis=0) != sig[1 % p][sig], axis=1)
    bad = {(s + 1) % p for s in np.flatnonzero(broken).tolist()}
    if np.any(sig[0] != np.arange(nbase)):
        bad.add(0)
    if bad:
        raise InvariantViolationError(
            "sigma_index is not the table of an automorphism whose order divides p: "
            f"rows {sorted(bad)} are not powers of row 1, so the exponent rows of its "
            "characters are not sigma-stable"
        )
    nrep = int(np.count_nonzero(_orbit_reps(group) == np.arange(nbase)))
    return {"checked": nbase * nbase, "statements": nrep * nrep, "failures": []}


# ---------------------------------------------------------------------------
# Calculus-vs-oracle comparison


@dataclass(frozen=True)
class OracleComparison:
    ell: int | None
    multiplicity: int
    equal: bool | None
    precondition_violated: bool
    pairing: str
    p: int
    group_order: int

    def to_dict(self) -> dict:
        return asdict(self)


def oracle_group(model: AbelianModel) -> FiniteGroupModel:
    """The semidirect product the oracle pairs with an abelian model: same
    factors, dual automorphism."""
    return build_semidirect(model.factors, dual_sigma(model.factors, model.sigma), model.p)


def oracle_compare(
    model: AbelianModel,
    theta1: CuspidalLabelK,
    theta2: CuspidalLabelK,
    chi: CuspidalLabelK,
) -> OracleComparison:
    """Compare the calculus pole count against the oracle multiplicity.

    When an inducing label is shift-invariant the calculus refuses the
    input; the oracle still computes its multiplicity and the report says
    the precondition was violated instead of carrying a verdict.
    """
    from .calculus import matching_matrix

    for lab in (theta1, theta2, chi):
        if lab.model is not model:
            raise ModelMismatchError("label does not belong to the model under test")
    G = oracle_group(model)
    lam1 = CharacterOfA(G, theta1.payload)
    lam2 = CharacterOfA(G, theta2.payload)
    lam3 = CharacterOfA(G, chi.payload)
    multiplicity = trivial_multiplicity(lam1, lam2, lam3, G)
    violated = model.is_invariant(theta1) or model.is_invariant(theta2)
    ell = None if violated else matching_matrix(theta1, theta2, chi).ell
    return OracleComparison(
        ell=ell,
        multiplicity=multiplicity,
        equal=None if violated else ell == multiplicity,
        precondition_violated=violated,
        pairing=PAIRING_NOTE,
        p=model.p,
        group_order=G.order,
    )


def oracle_agreement_sweep(model: AbelianModel) -> dict:
    """Criterion-level agreement check: for every valid triple of the model,
    the oracle's trivial multiplicity must equal the matching-matrix count.

    The multiplicity of (theta1, theta2, chi) is that of the tensor product
    of the three induced characters, and Ind lambda depends only on the
    sigma-orbit of lambda; so it equals the multiplicity of (sigma^a theta1,
    sigma^b theta2, sigma^c chi) for every a, b, c.  It is also symmetric in
    theta1 and theta2: the sum (1/|G|) sum_a prod_i sum_t lambda_i(sigma^t a)
    is, and so is the multiset of its monomial exponents, which is all the
    count vector records.  It is therefore computed once for each unordered
    pair of non-invariant orbit representatives, for every representative
    chi in one `_multiplicities` call (`oracle_sums` counts the pairs:
    k(k+1)/2 for k representatives), and written to both cells of the
    table.  Every triple is then compared with the kernel's pole order
    through its representatives, in (theta1, theta2, chi) index order: the
    kernel's full walk (`TripleKernel.dense_blocks`), which also checks on
    every triple the orbit invariance that the exhaustive `sweep` relies
    on.  A model whose
    exponent table is over ORACLE_MAX_EXPONENT_ENTRIES raises
    PreconditionError before the table is built.
    """
    from .sweep import TripleKernel

    G = oracle_group(model)
    E = _exponent_table(G)  # characters indexed as model elements
    R = _remainder_matrix(G.nexp)
    kernel = TripleKernel(model)
    rep = _orbit_reps(G)
    # chi_at[c], inducer_at[a]: position of the representative of chi c,
    # of theta = noninv[a], among the representatives
    chis, chi_at = np.unique(rep, return_inverse=True)
    inducers, inducer_at = np.unique(rep[kernel.noninv], return_inverse=True)
    E_chi = E[chis] + (np.arange(len(chis)) * 3 * G.nexp)[:, None, None]
    # M[x, y, c]: multiplicity of (inducers[x], inducers[y], chis[c]),
    # symmetric in x and y
    k = len(inducers)
    M = np.empty((k, k, len(chis)), dtype=np.int64)
    for x, i1 in enumerate(inducers):
        for y in range(x, k):
            M[x, y] = M[y, x] = _multiplicities(E[i1], E[inducers[y]], E_chi, G, R)

    mismatches = []
    triples = 0
    for a, b, _, ells in kernel.dense_blocks():
        mult = M[inducer_at[a][:, None], inducer_at[b][:, None], chi_at]
        triples += ells.size
        for q, c in zip(*np.nonzero(mult != ells)):
            mismatches.append(
                {
                    "theta1": list(model.decode(int(kernel.noninv[a[q]]))),
                    "theta2": list(model.decode(int(kernel.noninv[b[q]]))),
                    "chi": list(model.decode(int(c))),
                    "ell": int(ells[q, c]),
                    "multiplicity": int(mult[q, c]),
                }
            )
    return {
        "model": model.describe(),
        "group_order": G.order,
        "triples": triples,
        "oracle_sums": k * (k + 1) // 2,
        "mismatches": mismatches,
        "pairing": PAIRING_NOTE,
    }
