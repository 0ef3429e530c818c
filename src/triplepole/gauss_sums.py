"""Truncated ideal-character sums over the Gaussian lattice.

Every nonzero ideal of Z[i] has a unique generator in the closed quadrant
(a >= 1, b >= 0), so summing a character over ideals of norm up to X is a
sum over lattice points.  It is reduced to integer residue counts per norm
band, computed in closed form from one integer square root per real part
and band boundary, without visiting the points; only the final conversion
to a complex number touches floating point.  The `workers` arguments are
accepted for compatibility and have no effect.

A truncated sum of a principal character grows linearly with density
pi/4 * |units|/norm, while a non-principal one cancels; the ratio |S|/X
therefore separates poles from non-poles at modest X, with an explicit
indeterminate verdict in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .errors import IndeterminatePoleError, PreconditionError
from .gauss import GaussianHeckeChar, GaussianModulus, HeckeGaussianModel, ideal_density
from .models import CuspidalLabelK

BANDS = 32
NO_POLE_CEILING = 0.01
DEFAULT_TAU = 0.05

_counts_cache: dict = {}
_COUNTS_CACHE_LIMIT = 8
# Ceiling on the arrays one band count builds (docs/formats.md, "Exit codes").
BAND_COUNTS_MAX_BYTES = 1 << 30


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative int64 values below 2**62."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _count_layout(modulus: GaussianModulus, X: int) -> tuple[int, int]:
    """(P, rows) of a band count: the residue period of imaginary parts and
    the real parts a = 0 .. rows - 1 it folds, in whole classes mod x_span."""
    span = modulus.x_span
    period = modulus.g * span // math.gcd(modulus.v[0], span)
    return period, (isqrt(X) // span + 1) * span


def band_counts_bytes(modulus: GaussianModulus, X: int) -> int:
    """Bytes of the int64 arrays `below` (rows x P) and `cumulative`
    ((BANDS + 1) x x_span x P) that counting (modulus, X) builds.  The peak
    is higher: each band boundary adds temporaries of up to that size."""
    period, rows = _count_layout(modulus, X)
    return 8 * period * (rows + (BANDS + 1) * modulus.x_span)


def _band_counts(modulus: GaussianModulus, X: int) -> np.ndarray:
    """Counts[band, unit] over all ideals of norm <= X, cached per
    (modulus, X).

    The count is closed-form rather than a walk over the lattice.  The
    residue of a generator a + bi depends only on (a mod x_span, b mod P)
    with P = g * x_span / gcd(v0, x_span), and for each real part a the
    imaginary parts b <= isqrt(T - a^2) with b = r (mod P) number
    (isqrt(T - a^2) - r + P) // P.  Taking T at every band boundary
    ceil(kX / BANDS), folding a by its class mod x_span and differencing
    over k gives exact integer counts per (band, a class, r) in
    O(sqrt(X) * BANDS * P); unit (x, y) collects the P / g classes
    (x + j*v0 mod x_span, y + j*g).  Raises PreconditionError, before any
    array is built, when `band_counts_bytes` exceeds BAND_COUNTS_MAX_BYTES.
    """
    key = (modulus.generator, X)
    cached = _counts_cache.get(key)
    if cached is not None:
        return cached
    need = band_counts_bytes(modulus, X)
    if need > BAND_COUNTS_MAX_BYTES:
        raise PreconditionError(
            f"counting ideals of norm <= {X} for modulus {modulus.generator} needs "
            f"about {need} bytes, over the ceiling of {BAND_COUNTS_MAX_BYTES} bytes"
        )
    g, span, v0 = modulus.g, modulus.x_span, modulus.v[0]
    period, rows = _count_layout(modulus, X)
    r = np.arange(period, dtype=np.int64)
    # b-counts per (a, r) up to the current boundary; a boundary only grows,
    # so rows past its isqrt stay zero, and row a = 0 is never written
    below = np.zeros((rows, period), dtype=np.int64)
    cumulative = np.zeros((BANDS + 1, span, period), dtype=np.int64)
    for k in range(1, BANDS + 1):
        bound = -(-k * X // BANDS)
        top = isqrt(bound) + 1
        b_max = _isqrt(bound - np.arange(1, top, dtype=np.int64) ** 2)
        below[1:top] = (b_max[:, None] - r + period) // period
        cumulative[k] = below.reshape(-1, span, period).sum(axis=0)
    per_band = np.diff(cumulative, axis=0)
    units = np.array(modulus.units, dtype=np.int64)
    j = np.arange(period // g, dtype=np.int64)
    a_class = (units[:, :1] + j * v0) % span
    r_class = units[:, 1:] + j * g
    counts = per_band[:, a_class, r_class].sum(axis=2)
    if len(_counts_cache) >= _COUNTS_CACHE_LIMIT:
        _counts_cache.pop(next(iter(_counts_cache)))
    _counts_cache[key] = counts
    return counts


def character_sum(psi: GaussianHeckeChar, X: int, workers: int | None = None) -> complex:
    """Sum of psi over all nonzero ideals of norm at most X.

    Ideals sharing a prime with the modulus contribute zero.  Counts are
    exact integers per norm band; bands are converted and added in fixed
    order.  `workers` is accepted for compatibility and has no effect.
    """
    if X < 1:
        raise PreconditionError("summation bound X must be at least 1")
    modulus = psi.modulus
    counts = _band_counts(modulus, X)
    L = modulus.unit_exponent
    expo = (modulus.unit_log_matrix @ np.array(psi.exps, dtype=np.int64)) % L
    cells = (np.arange(BANDS)[:, None] * L + expo).ravel()
    expo_counts = np.bincount(cells, weights=counts.ravel(), minlength=BANDS * L)
    expo_counts = expo_counts.reshape(BANDS, L)
    angles = 2.0 * math.pi * np.arange(L) / L
    roots = np.cos(angles) + 1j * np.sin(angles)
    total = 0.0 + 0.0j
    for band in range(BANDS):
        total += complex(expo_counts[band] @ roots)
    return total


def ideal_count(X: int) -> int:
    """Number of nonzero ideals of norm at most X."""
    if X < 1:
        raise PreconditionError("summation bound X must be at least 1")
    modulus = GaussianModulus((1, 0))
    return int(_band_counts(modulus, X).sum())


# ---------------------------------------------------------------------------
# pole probing


@dataclass(frozen=True)
class PoleProbe:
    """One character's truncated-sum evidence at bound X."""

    ratio: float
    value: complex
    X: int
    tau: float
    verdict: str  # "pole" | "no-pole" | "indeterminate"
    density: float

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "value": [self.value.real, self.value.imag],
            "X": self.X,
            "tau": self.tau,
            "verdict": self.verdict,
            "density": self.density,
        }


def probe_pole(
    psi: GaussianHeckeChar,
    X: int,
    tau: float = DEFAULT_TAU,
    workers: int | None = None,
) -> PoleProbe:
    """Probe whether the L-series of psi has a pole at the edge: principal
    characters drive |S(X)|/X toward the ideal density, non-principal ones
    toward zero."""
    if not 0 < tau < 1:
        raise PreconditionError("tau must be strictly between 0 and 1")
    value = character_sum(psi, X, workers)
    ratio = abs(value) / X
    if ratio > tau:
        verdict = "pole"
    elif ratio <= NO_POLE_CEILING:
        verdict = "no-pole"
    else:
        verdict = "indeterminate"
    return PoleProbe(
        ratio=ratio,
        value=value,
        X=X,
        tau=tau,
        verdict=verdict,
        density=ideal_density(psi.modulus),
    )


def classify_pole(
    psi: GaussianHeckeChar,
    X: int,
    tau: float = DEFAULT_TAU,
    workers: int | None = None,
) -> int:
    """1 if the truncated sum says pole, 0 if it says none; a ratio between
    the two thresholds raises instead of guessing."""
    probe = probe_pole(psi, X, tau, workers)
    if probe.verdict == "pole":
        return 1
    if probe.verdict == "no-pole":
        return 0
    raise IndeterminatePoleError(
        f"truncated-sum ratio {probe.ratio:.6f} lies between the no-pole "
        f"ceiling {NO_POLE_CEILING} and tau {tau}; raise X or adjust tau",
        ratio=probe.ratio,
    )


# ---------------------------------------------------------------------------
# full triple estimate


@dataclass(frozen=True)
class TripleEstimate:
    """Numeric and symbolic pole orders for one Gaussian triple."""

    ell_hat: int
    ell_symbolic: int
    agree: bool
    X: int
    tau: float
    cells: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ell_hat": self.ell_hat,
            "ell_symbolic": self.ell_symbolic,
            "agree": self.agree,
            "X": self.X,
            "tau": self.tau,
            "cells": self.cells,
        }


def numeric_triple_estimate(
    theta1: CuspidalLabelK,
    theta2: CuspidalLabelK,
    chi: CuspidalLabelK,
    X: int,
    tau: float = DEFAULT_TAU,
    workers: int | None = None,
) -> TripleEstimate:
    """Estimate the triple pole order by probing all four matching cells
    numerically, and compare with the symbolic count.

    Cell (j, k) contributes the probe of conj^j(theta2) * conj^k(theta1)
    * chi; the estimate is the number of cells whose product character has a
    pole.  An indeterminate cell raises, carrying the cell coordinates.
    """
    from .calculus import matching_matrix

    model = theta1.model
    if not isinstance(model, HeckeGaussianModel):
        raise PreconditionError("numeric estimates need Gaussian character labels")
    symbolic = matching_matrix(theta1, theta2, chi).ell
    ell_hat = 0
    cells = []
    for j in range(2):
        for k in range(2):
            product = model.character(model.cell(theta1, theta2, chi, j, k))
            probe = probe_pole(product, X, tau, workers)
            if probe.verdict == "indeterminate":
                raise IndeterminatePoleError(
                    f"cell ({j}, {k}) is numerically indeterminate at X={X}: "
                    f"ratio {probe.ratio:.6f}",
                    ratio=probe.ratio,
                    pair=(j, k),
                )
            contribution = 1 if probe.verdict == "pole" else 0
            ell_hat += contribution
            record = {"j": j, "k": k, "pole": contribution}
            record.update(probe.to_dict())
            cells.append(record)
    return TripleEstimate(
        ell_hat=ell_hat,
        ell_symbolic=symbolic,
        agree=(ell_hat == symbolic),
        X=X,
        tau=tau,
        cells=cells,
    )
