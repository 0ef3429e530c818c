"""Lattice character sums and the numeric pole classifier.

Brute-force comparisons use a literal loop over normalized generators, with
the units found by a literal search for inverses; the production path counts
residues per norm band in closed form and must agree exactly.
`gauss_pins.json` holds counts and sums recorded from the lattice walk that
the closed-form count replaced, and whole triple estimates recorded before
the Gaussian label model became an `AbelianModel`.  Its band counts for the
non-rational generators (2, 1) and (3, 2) date from a residue system for
every Gaussian ideal; those moduli are now refused.
"""

import cmath
import hashlib
import json
import math
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

import triplepole.gauss_sums as gs
from triplepole.errors import IndeterminatePoleError, PreconditionError, UnsupportedModulusError
from triplepole.gauss import (
    GaussianHeckeChar,
    GaussianModulus,
    HeckeGaussianModel,
    ideal_density,
    unit_trivial_characters,
)
from triplepole.gauss_sums import (
    BAND_COUNTS_MAX_BYTES,
    NO_POLE_CEILING,
    band_counts_bytes,
    character_sum,
    ideal_count,
    numeric_triple_estimate,
    probe_pole,
)

from conftest import invertible_residues


def brute_sum(psi, X):
    total = 0.0 + 0.0j
    m = psi.modulus.generator[0]
    units = invertible_residues(m)
    for a in range(1, isqrt(X) + 1):
        for b in range(0, isqrt(X - a * a) + 1):
            if (a % m, b % m) in units:
                total += psi.value((a, b))
    return total


def test_ideal_count_small():
    assert ideal_count(1) == 1  # the unit ideal
    assert ideal_count(2) == 2
    assert ideal_count(10) == 9
    with pytest.raises(PreconditionError):
        ideal_count(0)


def test_trivial_sum_counts_ideals():
    triv = GaussianHeckeChar(GaussianModulus((1, 0)), ())
    s = character_sum(triv, 200)
    assert s.imag == 0.0
    assert round(s.real) == ideal_count(200)


@pytest.mark.parametrize("index", [0, 1, 5, 10])
def test_character_sum_matches_brute_force(index):
    chars = unit_trivial_characters(GaussianModulus((7, 0)))
    psi = chars[index]
    fast = character_sum(psi, 500)
    slow = brute_sum(psi, 500)
    assert cmath.isclose(fast, slow, abs_tol=1e-9)


def test_character_sum_brute_force_other_modulus():
    psi = unit_trivial_characters(GaussianModulus((3, 0)))[1]
    assert cmath.isclose(character_sum(psi, 300), brute_sum(psi, 300), abs_tol=1e-9)


def test_character_sum_requires_positive_bound():
    triv = GaussianHeckeChar(GaussianModulus((1, 0)), ())
    with pytest.raises(PreconditionError):
        character_sum(triv, 0)


@pytest.fixture
def evaluations(monkeypatch):
    """Records the character sums evaluated, not looked up: an evaluation
    keeps its sum in the entry of its counts, a lookup only reads it."""
    calls = []

    class Sums(dict):
        def __setitem__(self, exps, total):
            calls.append(exps)
            super().__setitem__(exps, total)

    real_entry = gs._counts_entry

    def counts_entry(modulus, X):
        counts, sums = real_entry(modulus, X)
        if not isinstance(sums, Sums):
            sums = Sums(sums)
            gs._counts_cache[(modulus.generator, X)] = (counts, sums)
        return counts, sums

    monkeypatch.setattr(gs, "_counts_entry", counts_entry)
    return calls


def test_worker_split_is_bit_identical(evaluations):
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[3]
    gs._counts_cache.clear()
    one = character_sum(psi, 40000, workers=1)
    gs._counts_cache.clear()
    four = character_sum(psi, 40000, workers=4)
    gs._counts_cache.clear()
    seven = character_sum(psi, 40000, workers=7)
    # each call evaluated, so the three values are not one kept sum
    assert len(evaluations) == 3
    assert one == four == seven


def test_repeated_sum_is_kept_with_the_counts(evaluations):
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[5]
    gs._counts_cache.clear()
    first = character_sum(psi, 4321)
    assert len(evaluations) == 1
    assert character_sum(psi, 4321) is first
    assert character_sum(GaussianHeckeChar(psi.modulus, psi.exps), 4321) is first
    assert len(evaluations) == 1
    # another bound is another entry; clearing the counts drops the sums
    character_sum(psi, 4322)
    assert len(evaluations) == 2
    gs._counts_cache.clear()
    again = character_sum(psi, 4321)
    assert len(evaluations) == 3
    assert again == first and again is not first


def test_evicted_counts_take_their_sums(evaluations):
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[1]
    gs._counts_cache.clear()
    character_sum(psi, 100)
    for X in range(101, 101 + gs._COUNTS_CACHE_LIMIT):
        character_sum(psi, X)
    assert ((7, 0), 100) not in gs._counts_cache
    assert len(gs._counts_cache) == gs._COUNTS_CACHE_LIMIT
    before = len(evaluations)
    character_sum(psi, 100)
    assert len(evaluations) == before + 1


PINS = json.loads((Path(__file__).parent / "gauss_pins.json").read_text())


def brute_counts(modulus, X):
    counts = np.zeros((gs.BANDS, len(modulus.units)), dtype=np.int64)
    index = {u: i for i, u in enumerate(modulus.units)}
    m = modulus.generator[0]
    units = invertible_residues(m)
    for a in range(1, isqrt(X) + 1):
        for b in range(0, isqrt(X - a * a) + 1):
            if (a % m, b % m) in units:
                band = gs.BANDS * (a * a + b * b - 1) // X
                counts[band, index[(a % m, b % m)]] += 1
    return counts


def test_isqrt_is_exact_near_squares():
    roots = [0, 1, 2, 3, 1000, 2**26 + 1, 94906265, 2**31 - 1]
    values = sorted({max(0, s * s + d) for s in roots for d in (-1, 0, 1, 2 * s)})
    got = gs._isqrt(np.array(values, dtype=np.int64))
    assert got.tolist() == [isqrt(v) for v in values]


@pytest.mark.parametrize("X", [1, 2, 31, 32, 33, 64, 4097, 3480, 3599, 3600, 3844, 3969])
@pytest.mark.parametrize("gen", [(1, 0), (5, 0), (7, 0), (3, 0), (9, 0), (15, 0), (59, 0)])
def test_band_counts_match_brute_force(gen, X):
    # X on and beside band edges; isqrt(X) = 58, 59, 60, 62, 63 for the last
    # five, which for every m here include one = 0 and one = m - 1 (mod m);
    # (59, 0) also at X < m^2, where no class of real parts is whole
    modulus = GaussianModulus(gen)
    counts = gs._band_counts(modulus, X)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, brute_counts(modulus, X))


@pytest.mark.parametrize("pin", PINS["band_counts"], ids=lambda p: str(tuple(p["modulus"])))
def test_band_counts_match_pin(pin):
    if pin["modulus"][1] != 0:
        # a pin of a non-rational generator, which is now refused
        assert pin["modulus"] in ([2, 1], [3, 2])
        with pytest.raises(UnsupportedModulusError):
            GaussianModulus(tuple(pin["modulus"]))
        return
    counts = gs._band_counts(GaussianModulus(tuple(pin["modulus"])), pin["X"])
    assert list(counts.shape) == pin["shape"]
    assert int(counts.sum()) == pin["total"]
    digest = hashlib.sha256(np.ascontiguousarray(counts, dtype="<i8").tobytes()).hexdigest()
    assert digest == pin["sha256"]


@pytest.mark.parametrize("pin", PINS["character_sums"], ids=lambda p: str(tuple(p["modulus"])))
def test_character_sums_match_pin(pin):
    chars = unit_trivial_characters(GaussianModulus(tuple(pin["modulus"])))
    assert [repr(character_sum(psi, pin["X"])) for psi in chars] == pin["values"]


def test_ideal_count_matches_pin():
    assert PINS["ideal_count"] == {"X": 10**7, "count": 7854006}
    assert ideal_count(10**7) == 7854006


def test_ideal_count_is_exact_at_a_large_bound():
    # one generator a + bi with a >= 1, b >= 0 per ideal, counted in Python
    X = 10**12
    assert ideal_count(X) == sum(isqrt(X - a * a) + 1 for a in range(1, isqrt(X) + 1))


@pytest.mark.parametrize("modulus", [(7, 0), (9, 0), (15, 0), (21, 0)], ids=str)
def test_triple_estimates_match_pin(modulus):
    # every other pinned chi is aimed at one cell, so that poles occur
    pins = [p for p in PINS["triple_estimates"] if tuple(p["modulus"]) == modulus]
    assert len(pins) == 20
    model = HeckeGaussianModel(GaussianModulus(modulus))
    for pin in pins:
        labels = [model.character_label(pin[role]) for role in ("theta1", "theta2", "chi")]
        est = numeric_triple_estimate(*labels, X=pin["X"])
        assert est.to_dict() == pin["estimate"], pin


@pytest.mark.parametrize("gen", [(1, 0), (7, 0), (9, 0), (15, 0)])
def test_band_counts_bytes_is_what_counting_builds(gen, monkeypatch):
    # the arrays a small count zero-fills are the ones the estimate's
    # arrays term prices; the rest of the estimate is temporaries
    real_zeros, built = np.zeros, []

    def zeros(*args, **kwargs):
        built.append(real_zeros(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(gs.np, "zeros", zeros)
    modulus = GaussianModulus(gen)
    gs._band_counts(modulus, 5000)
    assert len(built) == 2
    assert sum(a.nbytes for a in built) == gs._band_arrays_bytes(modulus, 5000)
    assert band_counts_bytes(modulus, 5000) > gs._band_arrays_bytes(modulus, 5000)


@pytest.mark.parametrize("gen", [(1, 0), (7, 0), (15, 0), (59, 0), (3, 0)])
def test_band_counts_peak_is_within_the_estimate(gen):
    # small counts only: the largest, (59, 0), peaks near 1.5 MB; at the
    # smallest X the fixed allowance is most of the estimate
    modulus = GaussianModulus(gen)
    modulus.units  # the modulus's own tables are not the count's
    for X in (1, 10**2, 10**4, 10**6):
        tracemalloc.start()
        try:
            gs._band_counts(modulus, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs._band_arrays_bytes(modulus, X) < peak <= band_counts_bytes(modulus, X), X


def test_band_counts_bytes_bounds_the_numeric_lane():
    # never allocated: the estimate alone decides
    m59 = GaussianModulus((59, 0))
    assert band_counts_bytes(m59, 10**12) == 65049696
    assert band_counts_bytes(m59, 10**12) < BAND_COUNTS_MAX_BYTES
    assert band_counts_bytes(m59, 10**16) == 6401049312
    assert band_counts_bytes(m59, 10**16) > BAND_COUNTS_MAX_BYTES
    assert BAND_COUNTS_MAX_BYTES == 2**30
    # the benchmark's moduli and bounds stay far below the ceiling
    for gen in [(7, 0), (9, 0), (13, 0), (15, 0), (21, 0)]:
        assert band_counts_bytes(GaussianModulus(gen), 10**7) < 10**6


def test_counts_cache_reused():
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[2]
    gs._counts_cache.clear()
    character_sum(psi, 1234)
    assert ((7, 0), 1234) in gs._counts_cache
    again = character_sum(psi, 1234)
    assert cmath.isclose(again, brute_sum(psi, 1234), abs_tol=1e-9)


# ---------------------------------------------------------------------------
# pole probes


def test_probe_trivial_is_pole():
    m7 = GaussianModulus((7, 0))
    triv = unit_trivial_characters(m7)[0]
    probe = probe_pole(triv, 50000)
    assert probe.verdict == "pole"
    assert abs(probe.ratio - ideal_density(m7)) < 0.05
    assert probe.density == ideal_density(m7)
    d = probe.to_dict()
    assert d["verdict"] == "pole" and d["X"] == 50000


def test_probe_nontrivial_is_no_pole():
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[1]
    probe = probe_pole(psi, 50000)
    assert probe.verdict == "no-pole"
    assert probe.ratio <= NO_POLE_CEILING


def test_probe_tau_validated():
    psi = unit_trivial_characters(GaussianModulus((7, 0)))[0]
    with pytest.raises(PreconditionError):
        probe_pole(psi, 1000, tau=0.0)
    with pytest.raises(PreconditionError):
        probe_pole(psi, 1000, tau=1.0)


def test_anchor_against_quarter_pi():
    triv = GaussianHeckeChar(GaussianModulus((1, 0)), ())
    ratio = abs(character_sum(triv, 100000)) / 100000
    assert abs(ratio - math.pi / 4) < 0.01


# ---------------------------------------------------------------------------
# triple estimates


@pytest.fixture
def model7():
    return HeckeGaussianModel(GaussianModulus((7, 0)))


def test_demo_triple_estimate(model7):
    t1 = model7.character_label(1)
    chi = model7.character_label(10)
    est = numeric_triple_estimate(t1, t1, chi, X=50000)
    assert est.ell_hat == 2
    assert est.ell_symbolic == 2
    assert est.agree is True
    assert [(c["j"], c["k"], c["pole"]) for c in est.cells] == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (1, 1, 1),
    ]
    d = est.to_dict()
    assert d["ell_hat"] == 2 and len(d["cells"]) == 4


def test_zero_triple_estimate(model7):
    est = numeric_triple_estimate(
        model7.character_label(1),
        model7.character_label(5),
        model7.character_label(3),
        X=50000,
    )
    assert est.ell_hat == 0
    assert est.ell_symbolic == 0
    assert est.agree is True


def test_indeterminate_carries_cell(model7):
    t1 = model7.character_label(1)
    chi = model7.character_label(10)
    with pytest.raises(IndeterminatePoleError) as exc:
        numeric_triple_estimate(t1, t1, chi, X=50000, tau=0.9)
    assert exc.value.pair == (0, 0)


def test_estimate_rejects_foreign_labels():
    from triplepole.models import AbelianModel, CyclicData

    m = AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2))
    lab = m.label((1, 0))
    with pytest.raises(PreconditionError):
        numeric_triple_estimate(lab, lab, m.label((0, 0)), X=100)


def test_one_evaluation_per_character_over_a_modulus(model7, evaluations):
    # 6 non-invariant labels, so 432 triples and 1,728 probed cells
    gs._counts_cache.clear()
    noninvariant = [lab for lab in map(model7.label, model7.characters)
                    if not model7.is_invariant(lab)]
    triples = 0
    for theta1 in noninvariant:
        for theta2 in noninvariant:
            for psi in model7.characters:
                est = numeric_triple_estimate(theta1, theta2, model7.label(psi), X=10**5)
                assert est.agree
                triples += 1
    assert triples == 432
    assert len(evaluations) <= len(model7.characters) == 12
