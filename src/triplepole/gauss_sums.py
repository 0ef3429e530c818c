"""Truncated ideal-character sums over the Gaussian lattice.

Every nonzero ideal of Z[i] has a unique generator in the closed quadrant
(a >= 1, b >= 0), so summing a character over ideals of norm up to X is a
sum over lattice points.  It is reduced to integer residue counts per norm
band, computed in closed form from one integer square root per real part
and band boundary, without visiting the points; only the final conversion
to a complex number touches floating point.  The counts of the last few
(modulus, X) are cached, and each character sum taken over them is kept in
the same entry, so a character probed again, as the cells of many triples
are, costs a lookup.  The `workers` arguments are accepted for
compatibility and have no effect.

A truncated sum of a principal character grows linearly with density
pi/4 * |units|/norm, while a non-principal one cancels; the ratio |S|/X
therefore separates poles from non-poles at modest X, with an explicit
indeterminate verdict in between.

A triple estimate probes the p x p = 4 cells of the triple's matching
grid.  Their product characters and the symbolic pole order come from one
cell grid of the Gaussian model (`AbelianModel.cell_grid`), built from one
conjugation of each inducing character.
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
# Ceiling on the peak of one band count (docs/formats.md, "Exit codes").
BAND_COUNTS_MAX_BYTES = 1 << 30
# Temporaries of one band boundary: int64 vectors of length rows, m x m arrays.
_ROW_TEMPORARIES = 7
_SPAN_TEMPORARIES = 4
_FIXED_BYTES = 1 << 14  # numpy's small per-call objects, which a small count shows


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of nonnegative int64 values below 2**62."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    t = s + 1
    s += t * t <= n
    return s


def _count_layout(modulus: GaussianModulus, X: int) -> tuple[int, int]:
    """(m, rows) of a band count: the residue period m of real and imaginary
    parts, and the real parts a = 0 .. rows - 1 it folds, in whole classes
    mod m."""
    m = modulus.m
    return m, (isqrt(X) // m + 1) * m


def _band_arrays_bytes(modulus: GaussianModulus, X: int) -> int:
    """Bytes of the two zero-filled int64 arrays that counting (modulus, X)
    keeps: `quotients` (rows) and `cumulative` ((BANDS + 1) x units)."""
    rows = _count_layout(modulus, X)[1]
    return 8 * (rows + (BANDS + 1) * len(modulus.units))


def band_counts_bytes(modulus: GaussianModulus, X: int) -> int:
    """Bytes that counting (modulus, X) holds at its peak, at most: the two
    arrays of `_band_arrays_bytes` and the temporaries of one band boundary.
    Those are at most _ROW_TEMPORARIES int64 vectors of length rows (the
    class offsets, the previous b_max, the radicand, and `_isqrt`'s root,
    successor, square and bool mask, rounded up) and _SPAN_TEMPORARIES
    arrays of at most m x m entries (the unit classes and two boundaries'
    folded counts, with room for one more; units <= m x m), plus
    _FIXED_BYTES (16 KiB) for numpy's small per-call objects."""
    m, rows = _count_layout(modulus, X)
    temporaries = _ROW_TEMPORARIES * rows + _SPAN_TEMPORARIES * m * m
    return _band_arrays_bytes(modulus, X) + 8 * temporaries + _FIXED_BYTES


def _band_counts(modulus: GaussianModulus, X: int) -> np.ndarray:
    """Counts[band, unit] over all ideals of norm <= X.

    Closed-form rather than a walk over the lattice.  The residue of a
    generator a + bi is (a mod m, b mod m).  For a real part a, the b <=
    b_max = isqrt(T - a^2) with b = r (mod m) number (b_max - r + m) // m =
    q + [r <= s], where (q, s) = divmod(b_max, m).  At a band boundary T =
    ceil(kX / BANDS), the count over a = x (mod m) is thus the sum of q plus
    #{s >= r}, a reversed cumulative sum of one histogram of (x, s); taken
    per unit (x, y) at flat index x * m + y and differenced over k, these
    are exact counts per (band, unit) in O(sqrt(X) * BANDS + BANDS * m^2).
    Raises PreconditionError, before any array is built, when
    `band_counts_bytes` exceeds BAND_COUNTS_MAX_BYTES.
    """
    need = band_counts_bytes(modulus, X)
    if need > BAND_COUNTS_MAX_BYTES:
        raise PreconditionError(
            f"counting ideals of norm <= {X} for modulus {modulus.generator} needs "
            f"about {need} bytes, over the ceiling of {BAND_COUNTS_MAX_BYTES} bytes"
        )
    m, rows = _count_layout(modulus, X)
    classes = np.fromiter((x * m + y for x, y in modulus.units), dtype=np.int64)
    # per real part a, the offset x * m of its class and its q; a boundary
    # only grows, so rows past its isqrt keep q = 0, as row a = 0 does
    offsets = np.tile(np.arange(0, m * m, m, dtype=np.int64), rows // m)
    quotients = np.zeros(rows, dtype=np.int64)
    cumulative = np.zeros((BANDS + 1, len(classes)), dtype=np.int64)
    for k in range(1, BANDS + 1):
        bound = -(-k * X // BANDS)
        top = isqrt(bound) + 1
        b_max = _isqrt(bound - np.arange(1, top, dtype=np.int64) ** 2)
        np.divmod(b_max, m, out=(quotients[1:top], b_max))
        # #{a = x : s >= r}, the (x, s) histogram summed down, plus q's sum
        folded = np.bincount(b_max + offsets[1:top], minlength=m * m).reshape(m, m)
        np.cumsum(folded[:, ::-1], axis=1, out=folded[:, ::-1])
        folded += quotients.reshape(-1, m).sum(axis=0)[:, None]
        np.take(folded, classes, out=cumulative[k])
    # difference in place, highest boundary first
    for k in range(BANDS, 0, -1):
        cumulative[k] -= cumulative[k - 1]
    return cumulative[1:]


def _counts_entry(modulus: GaussianModulus, X: int) -> tuple[np.ndarray, dict]:
    """(counts, sums) for (modulus, X), cached together: the band counts and
    the character sums already taken over them, keyed by `psi.exps`.
    Evicting or clearing an entry drops its sums with its counts.  The sums
    hold at most one complex per unit character, fewer than the counts'
    BANDS x units cells."""
    key = (modulus.generator, X)
    entry = _counts_cache.get(key)
    if entry is None:
        counts = _band_counts(modulus, X)
        if len(_counts_cache) >= _COUNTS_CACHE_LIMIT:
            _counts_cache.pop(next(iter(_counts_cache)))
        entry = _counts_cache[key] = (counts, {})
    return entry


def character_sum(psi: GaussianHeckeChar, X: int, workers: int | None = None) -> complex:
    """Sum of psi over all nonzero ideals of norm at most X.

    Ideals sharing a prime with the modulus contribute zero.  Counts are
    exact integers per norm band; bands are converted and added in fixed
    order.  Each sum is evaluated once per (modulus, X) and kept with the
    band counts, so a repeated character is a lookup.  `workers` is
    accepted for compatibility and has no effect.
    """
    if X < 1:
        raise PreconditionError("summation bound X must be at least 1")
    modulus = psi.modulus
    counts, sums = _counts_entry(modulus, X)
    total = sums.get(psi.exps)
    if total is not None:
        return total
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
    sums[psi.exps] = total
    return total


def ideal_count(X: int) -> int:
    """Number of nonzero ideals of norm at most X."""
    if X < 1:
        raise PreconditionError("summation bound X must be at least 1")
    modulus = GaussianModulus((1, 0))
    return int(_counts_entry(modulus, X)[0].sum())


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
    pole.  The four product characters and the symbolic count come from one
    cell grid (`calculus.matching_grid`), which takes two conjugations.  An
    indeterminate cell raises, carrying the cell coordinates.
    """
    from .calculus import matching_grid

    model = theta1.model
    if not isinstance(model, HeckeGaussianModel):
        raise PreconditionError("numeric estimates need Gaussian character labels")
    grid, matrix = matching_grid(theta1, theta2, chi)
    symbolic = matrix.ell
    ell_hat = 0
    cells = []
    for j in range(2):
        for k in range(2):
            product = model.character(grid[j][k])
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
