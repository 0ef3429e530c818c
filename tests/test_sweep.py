"""Exhaustive and sampled sweeps over model families, plus the shipped
model catalogue."""

import itertools
import json
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplepole.calculus import matching_matrix
from triplepole.errors import PreconditionError
from triplepole.models import AbelianModel, CyclicData
from triplepole.sweep import (
    SweepBudget,
    SweepFamily,
    TripleKernel,
    _Runs,
    catalogue_cyclic,
    catalogue_rank2,
    find_witness,
    grid_conflicts,
    pole_orders,
    shipped_catalogue,
    sweep,
)

PINS = json.loads((Path(__file__).parent / "sweep_pins.json").read_text())


@pytest.fixture
def m7():
    return AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3))


@pytest.fixture
def m3sq():
    return AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2))


# ---------------------------------------------------------------------------
# the kernel equals the reference matrix


def conflict_rows(chi, n):
    """Mask [q, c]: grid_conflicts as dense rows of n chi values."""
    bad = np.zeros((len(chi), n), dtype=bool)
    bad[grid_conflicts(chi)] = True
    return bad


def kernel_cells(model):
    """{(theta1, theta2, chi) indices: (on-cells, ell)} from the kernel over
    every pair of non-invariant labels."""
    kernel = TripleKernel(model)
    out = {}
    for a, b, chi, ells in kernel.dense_blocks():
        assert len(grid_conflicts(chi)[0]) == 0
        for q in range(len(a)):
            i1, i2 = int(kernel.noninv[a[q]]), int(kernel.noninv[b[q]])
            for ic in range(model.order):
                cells = sorted(map(tuple, np.argwhere(chi[q] == ic).tolist()))
                out[i1, i2, ic] = (cells, int(ells[q, ic]))
    return out


# Z/109 with a shift of order 3: 108 labels in 36 orbits, so 1,296
# representative pairs of 11,664, and 910 grids of 3 x 3 to a block
Z109 = AbelianModel(factors=(109,), sigma=((45,),), cyclic=CyclicData(3))


@pytest.mark.parametrize("npairs", [None, 0, 1, 519, 520, 909, 910, 1234, 3600, 11663])
def test_blocks_walk_every_pair_once_in_index_order(npairs):
    kernel = TripleKernel(Z109)
    m = kernel.m
    assert (m, len(kernel.reps)) == (108, 36)
    total = m * m if npairs is None else npairs
    # every position, the representatives and other position sets, each
    # walked whole, then the pairs below npairs over every position, and
    # below m * m + 5, which stops at m * m: 910 pairs to a block
    sets = (None, kernel.reps, np.array([0, 7, 8, 59]), np.arange(1, 108, 3), np.array([], int))
    walks = [(positions, None) for positions in sets] + [(None, npairs), (None, m * m + 5)]
    for positions, below in walks:
        listed = np.arange(m) if positions is None else positions
        want = [a * m + b for a in listed.tolist() for b in listed.tolist()]
        if below is not None:
            want = want[:below]
        blocks = list(kernel.blocks(positions, below))
        assert [len(a) for a, _, _ in blocks] == [910] * (len(want) // 910) + (
            [len(want) % 910] if len(want) % 910 else []
        )
        walked = [a * m + b for a, b, _ in blocks]
        assert np.concatenate(walked or [[]]).tolist() == want
        for a, b, chi in blocks:
            assert np.array_equal(chi, kernel.chi(a, b))
    # the full walk with dense rows, 300 pairs (2^15 // 109 triples) to a block
    blocks = list(kernel.dense_blocks(npairs))
    assert len(blocks) == -(-total // 300)
    walked = [a * m + b for a, b, _, _ in blocks]
    assert np.concatenate(walked or [[]]).tolist() == list(range(total))
    for a, b, chi, ells in blocks:
        assert np.array_equal(chi, kernel.chi(a, b))
        assert np.array_equal(ells, pole_orders(chi, kernel.n))


@pytest.mark.parametrize("npairs", [None, 0, 1, 500, 11663])
def test_a_cut_model_is_evaluated_at_exactly_its_pairs(monkeypatch, npairs):
    """A whole model evaluates its representative pairs, each once; a model
    that `limit` cuts evaluates the pairs below the cut, each once."""
    kernel = TripleKernel(Z109)
    m, n = kernel.m, kernel.n
    real_chi = TripleKernel.chi
    seen = []

    def spy(self, a, b):
        seen.extend((a * self.m + b).tolist())
        return real_chi(self, a, b)

    monkeypatch.setattr(TripleKernel, "chi", spy)
    limit = None if npairs is None else npairs * n + n - 1
    rep = sweep(SweepFamily((Z109,)), SweepBudget(limit=limit))
    if npairs is None:
        assert seen == (kernel.reps[:, None] * m + kernel.reps).ravel().tolist()
        assert rep.triples_examined == m * m * n
    else:
        assert seen == list(range(npairs))
        assert rep.triples_examined == npairs * n


def reference_cells(model, i1, i2, ic):
    t1, t2, chi = (model.label(model.decode(i)) for i in (i1, i2, ic))
    return sorted(matching_matrix(t1, t2, chi).true_cells)


@pytest.mark.parametrize(
    "model",
    [
        AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
        AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
        AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2)),
        AbelianModel(factors=(11,), sigma=((3,),), cyclic=CyclicData(5)),
    ],
    ids=lambda m: "x".join(map(str, m.factors)) + "p" + str(m.p),
)
def test_buckets_agree_with_matching_matrix(model):
    got = kernel_cells(model)
    noninv = [i for i in range(model.order) if not model.is_invariant(model.label(model.decode(i)))]
    assert len(got) == len(noninv) ** 2 * model.order
    for (i1, i2, ic), (cells, ell) in got.items():
        assert cells == reference_cells(model, i1, i2, ic)
        assert ell == len(cells)


def small_abelian_models(p):
    return catalogue_cyclic(p, 40) + catalogue_rank2(p, 3)


small_models_p235 = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.sampled_from(small_abelian_models(p))
)


@settings(max_examples=60, deadline=None)
@given(small_models_p235, st.data())
def test_kernel_matches_reference_on_random_models(model, data):
    kernel = TripleKernel(model)
    a = data.draw(st.integers(0, kernel.m - 1))
    b = data.draw(st.integers(0, kernel.m - 1))
    chi = kernel.chi(np.array([a]), np.array([b]))
    ells = pole_orders(chi, model.order)[0]
    assert len(grid_conflicts(chi)[0]) == 0
    i1, i2 = int(kernel.noninv[a]), int(kernel.noninv[b])
    for ic in range(model.order):
        cells = sorted(map(tuple, np.argwhere(chi[0] == ic).tolist()))
        assert cells == reference_cells(model, i1, i2, ic)
        assert ells[ic] == len(cells) <= model.p


def brute_conflicts(grid):
    """The chi values of a p x p grid on two cells of one row or column."""
    p = len(grid)
    cells = [(j, k) for j in range(p) for k in range(p)]
    return {
        int(grid[j][k])
        for (j, k), (j2, k2) in itertools.combinations(cells, 2)
        if grid[j][k] == grid[j2][k2] and (j == j2 or k == k2)
    }


@settings(max_examples=60, deadline=None)
@given(small_models_p235, st.data())
def test_grid_reduction_equals_the_dense_rows(model, data):
    """Runs, gaps, conflicts, counts and first hits of a block of grids, some
    with cells overwritten by other cells' chi, equal what the dense
    pole-order rows of the same block show."""
    kernel = TripleKernel(model)
    p, n = kernel.p, kernel.n
    pairs = data.draw(st.integers(1, 6))
    a = np.array(data.draw(st.lists(st.integers(0, kernel.m - 1), min_size=pairs, max_size=pairs)))
    b = np.array(data.draw(st.lists(st.integers(0, kernel.m - 1), min_size=pairs, max_size=pairs)))
    chi = kernel.chi(a, b)
    cell = st.tuples(st.integers(0, pairs - 1), *[st.integers(0, p - 1)] * 4)
    for q, j, k, j2, k2 in data.draw(st.lists(cell, max_size=4)):
        chi[q, j, k] = chi[q, j2, k2]
    weight = data.draw(st.integers(1, p * p))

    runs = _Runs(kernel, chi)
    good = ~runs.marked(*grid_conflicts(chi))
    rows = pole_orders(chi, n)
    want = {}  # ell: weighted triples off the conflicts
    firsts = {}  # (ell, moved only): first (q, c) in (pair, chi) order, off the conflicts
    for q in range(pairs):
        bad = brute_conflicts(chi[q].tolist())
        on = {int(c): int(rows[q, c]) for c in np.flatnonzero(rows[q])}
        assert {int(v): int(e) for v, e in zip(runs.value[runs.row == q], runs.length[runs.row == q])} == on
        assert runs.gaps[q] == n - len(on)
        assert set(runs.value[(runs.row == q) & ~good].tolist()) == bad
        for c in range(n):
            if c not in bad:
                ell = int(rows[q, c])
                want[ell] = want.get(ell, 0) + weight
                firsts.setdefault((ell, False), (q, c))
                if not kernel.invariant[c]:
                    firsts.setdefault((ell, True), (q, c))
    counts = runs.counts(weight, good)
    assert {ell: int(x) for ell, x in enumerate(counts) if x} == want
    for ell in range(p * p + 2):
        for moved_only in (False, True):
            assert runs.first(ell, good, moved_only) == firsts.get((ell, moved_only))


def test_grid_conflicts_flags_repeated_row_and_column():
    chi = np.array(
        [
            [[0, 0, 1], [2, 3, 4], [5, 3, 6]],  # chi 0 twice in row 0, chi 3 twice in column 1
            [[0, 1, 2], [1, 2, 0], [2, 0, 1]],  # every chi a permutation
        ]
    )
    bad = conflict_rows(chi, 7)
    assert np.flatnonzero(bad[0]).tolist() == [0, 3]
    assert not bad[1].any()
    assert pole_orders(chi, 7).tolist() == [[2, 1, 1, 2, 1, 1, 1], [3, 3, 3, 0, 0, 0, 0]]

    # p = 5: repeats two cells apart, in row 0 and in column 4
    chi = np.arange(25).reshape(1, 5, 5)
    chi[0, 0, 2] = chi[0, 0, 0]
    chi[0, 3, 4] = chi[0, 1, 4]
    assert np.flatnonzero(conflict_rows(chi, 25)[0]).tolist() == [0, 9]


def test_sweep_reports_what_the_chi_block_shows(monkeypatch, m7, m3sq):
    """Violations and rigidity breaches come from the chi block itself."""
    real_chi = TripleKernel.chi

    def repeated_row(self, a, b):
        chi = real_chi(self, a, b)
        chi[:, :, 1] = chi[:, :, 0]
        return chi

    monkeypatch.setattr(TripleKernel, "chi", repeated_row)
    rep = sweep(SweepFamily(models=(m7,)), SweepBudget())
    assert rep.violations and all(v["model"] == 0 for v in rep.violations)
    assert sum(rep.histogram.values()) + len(rep.violations) == 36 * 7

    def diagonal_double(self, a, b):
        chi = real_chi(self, a, b)
        chi[:, 1, 1] = chi[:, 0, 0]
        return chi

    monkeypatch.setattr(TripleKernel, "chi", diagonal_double)
    rep = sweep(SweepFamily(models=(m3sq,)), SweepBudget())
    assert rep.violations == []
    assert rep.rigidity_breaches
    for w in rep.rigidity_breaches:
        assert w["ell"] >= 2 and m3sq.apply_sigma(tuple(w["chi"])) != tuple(w["chi"])
    keys = [
        tuple(m3sq.encode(w[k]) for k in ("theta1", "theta2", "chi"))
        for w in rep.rigidity_breaches
    ]
    assert sorted(keys) == keys


# ---------------------------------------------------------------------------
# exhaustive sweeps


def test_exhaustive_two_model_family(m7, m3sq):
    rep = sweep(SweepFamily(models=(m7, m3sq)), SweepBudget(strategy="exhaustive"))
    assert rep.strategy == "exhaustive"
    assert rep.complete is True
    # Z/7: 6 noninvariant labels, 36 pairs of 7 triples; (Z/3)^2: 6
    # noninvariant labels, 36 pairs of 9 triples
    assert rep.triples_examined == 36 * 7 + 36 * 9
    assert sum(rep.histogram.values()) == rep.triples_examined
    assert rep.max_ell == 3
    assert rep.violations == []
    assert rep.rigidity_breaches == []


def test_witnesses_are_first_in_index_order(m7, m3sq):
    rep = sweep(SweepFamily(models=(m7, m3sq)), SweepBudget(strategy="exhaustive"))
    by_ell = {w["ell"]: w for w in rep.witnesses}
    assert set(by_ell) == {0, 1, 2, 3}
    assert by_ell[3] == {
        "model": 0,
        "theta1": [1],
        "theta2": [3],
        "chi": [0],
        "ell": 3,
    }
    assert by_ell[0] == {
        "model": 0,
        "theta1": [1],
        "theta2": [1],
        "chi": [0],
        "ell": 0,
    }
    for w in rep.witnesses:
        assert not any(k.startswith("_") for k in w)


def test_histogram_counts_every_chi(m7):
    rep = sweep(SweepFamily(models=(m7,)), SweepBudget(strategy="exhaustive"))
    # per pair: all 7 chi values are attributed, on-cells or not
    assert sum(rep.histogram.values()) == 36 * 7
    brute = {}
    for cells, _ in kernel_cells(m7).values():
        brute[len(cells)] = brute.get(len(cells), 0) + 1
    assert rep.histogram == brute


def test_limit_stops_before_pair_boundary(m7, m3sq):
    rep = sweep(
        SweepFamily(models=(m7, m3sq)),
        SweepBudget(strategy="exhaustive", limit=100),
    )
    assert rep.complete is False
    assert rep.triples_examined <= 100
    assert rep.triples_examined % 7 == 0  # whole pairs of the first model


def test_report_is_json_serializable(m7):
    rep = sweep(SweepFamily(models=(m7,)), SweepBudget(strategy="exhaustive"))
    text = json.dumps(rep.to_dict())
    assert json.loads(text)["strategy"] == "exhaustive"


# ---------------------------------------------------------------------------
# one representative pair per shift x shift orbit


@settings(max_examples=40, deadline=None)
@given(small_models_p235, st.data())
def test_shifting_a_pair_rolls_its_grid(model, data):
    # (shift^s theta1, shift^t theta2) has the grid chi'[j, k] = chi[j + t, k + s]
    kernel = TripleKernel(model)
    a = data.draw(st.integers(0, kernel.m - 1))
    b = data.draw(st.integers(0, kernel.m - 1))
    s, t = data.draw(st.integers(0, model.p - 1)), data.draw(st.integers(0, model.p - 1))
    chi = kernel.chi(np.array([a]), np.array([b]))[0]
    shifted = kernel.chi(kernel.orbit[[a], s], kernel.orbit[[b], t])[0]
    assert np.array_equal(shifted, np.roll(chi, (-t, -s), axis=(0, 1)))
    members = kernel.orbit_members(np.array([a * kernel.m + b]))[0]
    assert members[s * model.p + t] == kernel.orbit[a, s] * kernel.m + kernel.orbit[b, t]


def test_every_pair_has_its_representatives_pole_orders_and_conflicts():
    for model in shipped_catalogue().models:
        kernel = TripleKernel(model)
        m, n, p = kernel.m, kernel.n, kernel.p
        assert m > 0
        # orbits of p distinct positions, each led by its least member
        assert (np.sort(kernel.orbit, axis=1) == np.sort(kernel.orbit[kernel.rep], axis=1)).all()
        assert (np.diff(np.sort(kernel.orbit, axis=1), axis=1) > 0).all()
        assert (kernel.rep == kernel.orbit.min(axis=1)).all()
        assert np.array_equal(kernel.reps, np.unique(kernel.rep))
        # the orbits of the representative pairs split the m * m pairs
        pairs = (kernel.reps[:, None] * m + kernel.reps).ravel()
        members = np.sort(kernel.orbit_members(pairs).ravel())
        assert np.array_equal(members, np.arange(m * m)) and len(members) == len(pairs) * p * p
        rep = (kernel.rep[:, None] * m + kernel.rep).ravel()
        # a representative comes no later than its members in the full walk,
        # so its rows are kept (at slot[pair]) before any member needs them
        is_rep = rep == np.arange(m * m)
        slot = np.cumsum(is_rep) - 1
        kept = np.zeros((is_rep.sum(), 2, n), dtype=np.int64)
        for a, b, chi, ells in kernel.dense_blocks():
            q = a * m + b
            rows = np.stack((ells, conflict_rows(chi, n)), axis=1)
            kept[slot[q[is_rep[q]]]] = rows[is_rep[q]]
            assert np.array_equal(rows, kept[slot[rep[q]]])


def full_walk_report(family, limit=None):
    """triples_examined, complete, histogram and witnesses of an exhaustive
    sweep, from the full walk (`TripleKernel.dense_blocks`) of every pair of
    the prefix."""
    out = {"triples_examined": 0, "complete": True, "histogram": {}, "witnesses": []}
    for mi, model in enumerate(family.models):
        kernel = TripleKernel(model)
        n, npairs = kernel.n, kernel.m**2
        if limit is not None and out["triples_examined"] + npairs * n > limit:
            npairs = (limit - out["triples_examined"]) // n
            out["complete"] = False
        for a, b, _, ells in kernel.dense_blocks(npairs):
            values, counts = np.unique(ells, return_counts=True)
            for ell, count in zip(values.tolist(), counts.tolist()):
                if ell not in out["histogram"]:
                    q, c = divmod(int(np.argmax(ells == ell)), n)
                    out["witnesses"].append(kernel.triple(mi, a[q], b[q], c, ell))
                out["histogram"][ell] = out["histogram"].get(ell, 0) + count
        out["triples_examined"] += npairs * n
        if not out["complete"]:
            break
    out["histogram"] = {str(k): v for k, v in sorted(out["histogram"].items())}
    out["witnesses"].sort(key=lambda w: w["ell"])
    return out


def full_walk_witness(family, target, require_noninvariant_chi):
    for mi, model in enumerate(family.models):
        kernel = TripleKernel(model)
        for a, b, _, ells in kernel.dense_blocks():
            hits = ells == (model.p if target is None else target)
            if require_noninvariant_chi:
                hits &= ~kernel.invariant
            if hits.any():
                q, c = divmod(int(np.argmax(hits)), kernel.n)
                return kernel.triple(mi, a[q], b[q], c, ells[q, c])
    return None


def test_representative_walk_matches_the_full_walk():
    family = shipped_catalogue((2, 3), 16)
    total = full_walk_report(family)["triples_examined"]
    rng = np.random.default_rng(17)
    limits = [None, 0, 1, total - 1, total, *rng.integers(0, total, 6).tolist()]
    for limit in limits:
        got = sweep(family, SweepBudget(limit=limit)).to_dict()
        want = full_walk_report(family, limit)
        for key in want:
            assert got[key] == want[key], (limit, key)
    for target in (None, 0, 1, 2, 3, 4):
        for restricted in (False, True):
            assert find_witness(family, target, restricted) == full_walk_witness(
                family, target, restricted
            ), (target, restricted)


def test_a_large_model_is_walked_a_block_at_a_time():
    # Z/100003 with a shift of order 3 moves 100,002 labels: 10^10 pairs,
    # which are never listed; a limit or a first hit ends the walk at once
    n = 100003
    model = AbelianModel(factors=(n,), sigma=((pow(2, (n - 1) // 3, n),),), cyclic=CyclicData(3))
    family = SweepFamily((model,))
    tracemalloc.start()
    try:
        reports = [sweep(family, SweepBudget(limit=limit)) for limit in (0, 50 * n + 7)]
        witness = find_witness(family, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 25  # bytes: the kernel's O(p * n) tables (about 15 MB) and a block
    for limit, report in zip((0, 50 * n + 7), reports):
        got = report.to_dict()
        want = full_walk_report(family, limit)
        assert {key: got[key] for key in want} == want
    assert reports[1].triples_examined == 50 * n
    assert witness == full_walk_witness(family, 1, False)


def test_a_mixed_family_is_walked_a_block_at_a_time():
    # p = 3, 2, 3, 5 and 2 interleaved, with ranks 1 and 2 mixed; the sixth
    # model is Z/100003, whose 10^10 pairs are never listed
    n = 100003
    big = AbelianModel(factors=(n,), sigma=((pow(2, (n - 1) // 3, n),),), cyclic=CyclicData(3))
    family = SweepFamily(
        (
            AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
            AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
            AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2)),
            AbelianModel(factors=(13,), sigma=((3,),), cyclic=CyclicData(3)),
            AbelianModel(factors=(3, 3), sigma=((0, 2), (1, 2)), cyclic=CyclicData(3)),
            big,
            AbelianModel(factors=(11,), sigma=((3,),), cyclic=CyclicData(5)),
            AbelianModel(factors=(5,), sigma=((4,),), cyclic=CyclicData(2)),
        )
    )
    # triples before each model: 252 of Z/7, 324 of (Z/3)^2, 128 of Z/2 x Z/4
    # (4 labels), 1872 of Z/13 and 324 of (Z/3)^2 (6 labels)
    ends = np.cumsum([252, 324, 128, 1872, 324]).tolist()
    assert ends == [252, 576, 704, 2576, 2900]
    # cuts at and inside every model up to Z/100003, and inside it
    limits = [0, 300, 600, 650, 1000, 2600, 2899, 2900, 2900 + 50 * n + 7]
    witnesses = [(None, False), (0, False), (1, True), (2, False), (3, True)]
    tracemalloc.start()
    try:
        reports = [sweep(family, SweepBudget(limit=limit)).to_dict() for limit in limits]
        found = [find_witness(family, *w) for w in witnesses]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 25  # bytes: a kernel's O(p * n) tables and a block
    for limit, got in zip(limits, reports):
        want = full_walk_report(family, limit)
        assert {key: got[key] for key in want} == want, limit
        assert got["violations"] == got["rigidity_breaches"] == []
    assert reports[-1]["triples_examined"] == 2900 + 50 * n
    for (target, restricted), witness in zip(witnesses, found):
        assert witness["model"] < 5
        assert witness == full_walk_witness(family, target, restricted)


def test_set_up_memory_does_not_grow_with_the_family():
    # 1,368 models at p = 2 of up to 400 elements: a limit of 0 and a first
    # hit in the first model build that model's tables only
    family = shipped_catalogue((2,), 400)
    tracemalloc.start()
    try:
        report = sweep(family, SweepBudget(limit=0))
        witness = find_witness(family, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.triples_examined == 0 and witness["model"] == 0
    assert peak < 4 << 20  # bytes; the tables of every model take about 50 MB


def full_walk_flags(family, limit, flag):
    """Every triple of the prefix with flag(kernel, ells) set, rendered in
    (model, theta1, theta2, chi) index order from the full walk."""
    out, examined = [], 0
    for mi, model in enumerate(family.models):
        kernel = TripleKernel(model)
        m = kernel.m
        npairs = min(m**2, (limit - examined) // model.order)
        for a, b, _, ells in kernel.dense_blocks(npairs):
            for q, c in zip(*np.nonzero(flag(kernel, ells))):
                out.append(kernel.triple(mi, a[q], b[q], c, ells[q, c]))
        examined += npairs * model.order
        if npairs < m**2:
            break
    return out


@pytest.mark.parametrize("limit", [10**7, 300_000, 54_321])
def test_flags_on_a_representative_cover_its_orbit(monkeypatch, limit):
    """An orbit-invariant fault, found on one pair per orbit, is reported for
    every pair of the orbit inside the prefix, in index order."""
    family = shipped_catalogue((2, 3), 16)

    # every double pole taken for a shared row or column
    monkeypatch.setattr(
        "triplepole.sweep.grid_conflicts", lambda chi: np.nonzero(pole_orders(chi, chi.max() + 1) == 2)
    )
    rep = sweep(family, SweepBudget(limit=limit))
    want = full_walk_flags(family, limit, lambda k, ells: ells == 2)
    assert want and rep.violations == want
    assert "2" not in rep.to_dict()["histogram"]
    monkeypatch.undo()

    # every invariant chi taken for a moved one at p = 2
    real_init = TripleKernel.__init__

    def flipped(self, model):
        real_init(self, model)
        self.invariant = ~self.invariant

    monkeypatch.setattr(TripleKernel, "__init__", flipped)
    rep = sweep(family, SweepBudget(limit=limit))
    monkeypatch.undo()
    want = full_walk_flags(
        family, limit, lambda k, ells: (ells >= 2) & k.invariant if k.p == 2 else ells < 0
    )
    assert want and rep.rigidity_breaches == want
    assert rep.violations == []


# ---------------------------------------------------------------------------
# sampled sweeps


def test_sampled_deterministic(m7, m3sq):
    fam = SweepFamily(models=(m7, m3sq))
    a = sweep(fam, SweepBudget(strategy="sample", samples=400, seed=11))
    b = sweep(fam, SweepBudget(strategy="sample", samples=400, seed=11))
    assert a.to_dict() == b.to_dict()
    assert a.complete is False
    assert a.rng == {"name": "numpy-pcg64", "seed": 11}
    assert a.triples_examined == 400


def test_sampled_respects_bound(m7, m3sq):
    rep = sweep(
        SweepFamily(models=(m7, m3sq)),
        SweepBudget(strategy="sample", samples=600, seed=5),
    )
    assert rep.violations == []
    assert rep.max_ell <= 3


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SweepBudget(strategy="surprise")
    with pytest.raises(PreconditionError):
        SweepBudget(limit=-1)
    with pytest.raises(PreconditionError):
        SweepBudget(samples=-2)


# ---------------------------------------------------------------------------
# witness search


def test_find_sharp_witness(m7):
    w = find_witness(SweepFamily(models=(m7,)))
    assert w == {"model": 0, "theta1": [1], "theta2": [3], "chi": [0], "ell": 3}


def test_find_double_pole_witness_chi_invariant(m3sq):
    w = find_witness(SweepFamily(models=(m3sq,)), target_ell=2)
    assert w is not None
    chi = tuple(w["chi"])
    assert m3sq.apply_sigma(chi) == chi


def test_restricted_search_exhausts(m3sq):
    w = find_witness(
        SweepFamily(models=(m3sq,)), target_ell=2, require_noninvariant_chi=True
    )
    assert w is None


def test_find_zero_witness(m7):
    w = find_witness(SweepFamily(models=(m7,)), target_ell=0)
    assert w == {"model": 0, "theta1": [1], "theta2": [1], "chi": [0], "ell": 0}


def test_witness_skips_to_later_model(m3sq, m7):
    # first model has no triple pole; the search must move on
    w = find_witness(SweepFamily(models=(m3sq, m7)), target_ell=3)
    assert w is not None
    assert w["model"] == 1


# ---------------------------------------------------------------------------
# catalogue


def unit_order(u, n):
    assert gcd(u, n) == 1
    k, acc = 1, u % n
    while acc != 1:
        acc = (acc * u) % n
        k += 1
    return k


def reference_cyclic(p, max_group_order):
    """The catalogue's cyclic models, by each unit's multiplicative order."""
    return [
        ((n,), ((u,),))
        for n in range(2, max_group_order + 1)
        for u in range(2, n)
        if gcd(u, n) == 1 and unit_order(u, n) == p
    ]


def reference_rank2(p, max_side):
    """The catalogue's rank-2 models, by a hand-written 2x2 power mod d."""
    out = []
    ident = ((1, 0), (0, 1))
    for d in range(2, max_side + 1):
        for a, b, c, e in itertools.product(range(d), repeat=4):
            m = ((a, b), (c, e))
            power = m
            for _ in range(p - 1):
                (w, x), (y, z) = power
                power = (
                    ((w * a + x * c) % d, (w * b + x * e) % d),
                    ((y * a + z * c) % d, (y * b + z * e) % d),
                )
            if m != ident and power == ident:
                out.append(((d, d), m))
    return out


def model_keys(models, p):
    assert all(m.p == p for m in models)
    return [(m.factors, m.sigma) for m in models]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_catalogues_equal_reference_builders(p):
    for side in range(2, 6):
        assert model_keys(catalogue_rank2(p, side), p) == reference_rank2(p, side)
    cyclic = reference_cyclic(p, 64)
    for order in range(2, 65):
        expected = [key for key in cyclic if key[0][0] <= order]
        assert model_keys(catalogue_cyclic(p, order), p) == expected
    for models in (catalogue_rank2(p, 5), catalogue_cyclic(p, 64)):
        for m in models:
            assert all(type(x) is int for row in m.sigma for x in row)


def test_catalogue_cyclic_members():
    cat = catalogue_cyclic(3, 64)
    assert all(len(m.factors) == 1 and m.p == 3 for m in cat)
    assert all(m.order <= 64 for m in cat)
    sigmas = {(m.factors[0], m.sigma[0][0]) for m in cat}
    assert (7, 2) in sigmas and (7, 4) in sigmas
    for n, u in sigmas:
        assert unit_order(u, n) == 3


def test_catalogue_rank2_members():
    cat = catalogue_rank2(2, 5)
    assert all(len(m.factors) == 2 and m.p == 2 for m in cat)
    swaps = [m for m in cat if m.factors == (3, 3) and m.sigma == ((0, 1), (1, 0))]
    assert len(swaps) == 1


def test_shipped_catalogue_shape():
    fam = shipped_catalogue()
    models = fam.models
    assert {m.p for m in models} == {2, 3, 5}
    assert max(m.order for m in models) <= 64
    assert len(models) == len(set(id(m) for m in models))
    assert len(models) > 300


def test_shipped_catalogue_respects_custom_bound():
    fam = shipped_catalogue(p_values=(3,), max_group_order=20)
    assert all(m.p == 3 for m in fam.models)
    cyclic_orders = [m.order for m in fam.models if len(m.factors) == 1]
    assert cyclic_orders and max(cyclic_orders) <= 20
    assert all(m.order <= 25 for m in fam.models)  # rank-2 side is capped at 5


# ---------------------------------------------------------------------------
# property: sweep histogram equals brute force on tiny models


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(
        [
            ((5,), ((4,),), 2),
            ((3,), ((2,),), 2),
            ((13,), ((3,),), 3),
        ]
    )
)
def test_sweep_matches_brute_force(spec):
    factors, sigma, p = spec
    model = AbelianModel(factors=factors, sigma=sigma, cyclic=CyclicData(p))
    rep = sweep(SweepFamily(models=(model,)), SweepBudget(strategy="exhaustive"))
    labels = [model.label(model.decode(i)) for i in range(model.order)]
    noninv = [t for t in labels if not model.is_invariant(t)]
    brute = {}
    for t1 in noninv:
        for t2 in noninv:
            for chi in labels:
                ell = matching_matrix(t1, t2, chi).ell
                brute[ell] = brute.get(ell, 0) + 1
    assert rep.histogram == brute


# ---------------------------------------------------------------------------
# regression pins: reports of the per-pair implementation the kernel replaced


def pinned_family(name):
    if name == "m7+m3sq":
        return SweepFamily(
            models=(
                AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
                AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
            )
        )
    assert name == "catalogue(2,3;16)"
    return shipped_catalogue((2, 3), 16)


@pytest.mark.parametrize(
    "pin", PINS["sampled"], ids=lambda pin: f"{pin['family']}-seed{pin['seed']}"
)
def test_sampled_sweep_matches_pin(pin):
    budget = SweepBudget(strategy="sample", samples=pin["samples"], seed=pin["seed"])
    got = sweep(pinned_family(pin["family"]), budget).to_dict()
    for key in ("triples_examined", "histogram", "witnesses", "violations", "rigidity_breaches"):
        assert got[key] == pin[key], key


@pytest.mark.parametrize("pin", PINS["exhaustive"], ids=lambda pin: f"limit{pin['limit']}")
def test_exhaustive_limit_matches_pin(pin):
    got = sweep(pinned_family(pin["family"]), SweepBudget(limit=pin["limit"])).to_dict()
    for key in ("triples_examined", "complete", "histogram", "witnesses"):
        assert got[key] == pin[key], key
