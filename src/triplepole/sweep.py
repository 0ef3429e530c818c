"""Family sweeps: enumerate triples over abelian models, histogram the pole
orders, cross-check structural invariants, and collect first witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import PreconditionError
from .models import AbelianModel, CyclicData, sigma_table


@dataclass(frozen=True)
class SweepFamily:
    models: tuple[AbelianModel, ...]

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))


@dataclass(frozen=True)
class SweepBudget:
    """Enumeration strategy: 'exhaustive' walks every triple (optionally
    truncated by `limit`), 'sample' draws `samples` random triples."""

    strategy: str = "exhaustive"
    limit: int | None = None
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("exhaustive", "sample"):
            raise PreconditionError(f"unknown sweep strategy {self.strategy!r}")
        if self.limit is not None and self.limit < 0:
            raise PreconditionError("limit must be >= 0")
        if self.samples < 0:
            raise PreconditionError("samples must be >= 0")
        if self.seed < 0:
            raise PreconditionError("seed must be >= 0")


@dataclass
class SweepReport:
    strategy: str
    complete: bool
    triples_examined: int
    max_ell: int = 0
    histogram: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    rigidity_breaches: list = field(default_factory=list)
    rng: dict | None = None
    models: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        return out


# Grid cells per block of the sweep's walk: bounds the memory one block of
# pairs takes.
_BLOCK_CELLS = 1 << 13

# Triples per block of the full walk's dense pole-order rows.
_DENSE_TRIPLES = 1 << 15


class TripleKernel:
    """Pole-order kernel for one abelian model.

    Elements are indexed by mixed radix, as in ``model.encode``.  ``noninv``
    lists the indices of the labels the shift moves, and a pair (a, b) of
    positions in it stands for theta1 = noninv[a], theta2 = noninv[b].
    Pairs are numbered a * m + b, which is (theta1, theta2) index order.

    The grid of the pair (shift^s theta1, shift^t theta2) is the grid of
    (theta1, theta2) with its rows and columns shifted cyclically, chi'[j, k]
    = chi[j + t, k + s] mod p, so every pair of a shift x shift orbit has the
    same pole orders and cell conflicts for each chi.  ``orbit[a, t]`` is the
    position of shift^t(noninv[a]); p is prime, so the p positions of a row
    are distinct, and ``rep[a]``, the least of them, stands for the orbit.
    ``reps`` lists the positions that lead their orbits, in order, and the
    pairs of reps x reps are the representative pairs, each the least pair
    of its orbit.
    """

    def __init__(self, model: AbelianModel):
        self.model = model
        self.p, self.n = model.p, model.order
        factors = model.factors
        strides = np.cumprod([1, *factors[:0:-1]])[::-1].tolist()
        index = sigma_table(factors, model._sigma_powers)
        self.invariant = index[1] == np.arange(self.n)
        self.noninv = np.flatnonzero(~self.invariant)
        self.m = len(self.noninv)
        shifted = index[:, self.noninv]  # [t, a]: the index of shift^t(noninv[a])
        self.orbit = np.searchsorted(self.noninv, shifted.T)
        self.rep = self.orbit.min(axis=1)
        self.reps = np.flatnonzero(self.rep == np.arange(self.m))
        # per coordinate: that coordinate of shift^t(noninv[a]) at [t, a],
        # and -x mod d times the stride for a sum x of two
        self._coords = [shifted // s % d for d, s in zip(factors, strides)]
        self._neg = [(-np.arange(2 * d - 1)) % d * s for d, s in zip(factors, strides)]

    def blocks(
        self, positions: np.ndarray | None = None, npairs: int | None = None, step: int | None = None
    ):
        """(a, b, chi) for the pairs of the sorted array `positions` (default
        every position) with itself, or for the pairs numbered below `npairs`
        (at most m * m), in index order, `step` pairs a block (default: a grid
        of at most _BLOCK_CELLS cells); chi = self.chi(a, b).  Only one block
        of pairs is ever held."""
        if positions is None:
            positions = np.arange(self.m)
        k = len(positions)
        count = k * k if npairs is None else min(npairs, self.m * self.m)
        if step is None:
            step = max(1, _BLOCK_CELLS // self.p**2)
        for lo in range(0, count, step):
            i, j = np.divmod(np.arange(lo, min(lo + step, count)), k)
            a, b = positions[i], positions[j]
            yield a, b, self.chi(a, b)

    def dense_blocks(self, npairs: int | None = None):
        """(a, b, chi, ell) for every pair numbered below `npairs` (default
        m * m), in index order, at most _DENSE_TRIPLES triples a block: the
        full walk, with ell = pole_orders(chi, n) the dense rows of pole
        orders over every chi."""
        for a, b, chi in self.blocks(npairs=npairs, step=max(1, _DENSE_TRIPLES // self.n)):
            yield a, b, chi, pole_orders(chi, self.n)

    def orbit_members(self, pairs: np.ndarray) -> np.ndarray:
        """members[i]: the p * p pair numbers of the orbit of pair pairs[i],
        (shift^s theta1, shift^t theta2) at s * p + t."""
        a, b = np.divmod(pairs, self.m)
        members = self.orbit[a][:, :, None] * self.m + self.orbit[b][:, None, :]
        return members.reshape(len(pairs), -1)

    def chi(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """chi[q, j, k]: index of the chi turning cell (j, k) of pair q on,
        -(shift^j(theta2) + shift^k(theta1)).  The array is laid out as
        [j, k, q], pairs innermost, which keeps numpy's inner loops long:
        ``chi.transpose(1, 2, 0)`` is contiguous."""
        out = 0
        for x, neg in zip(self._coords, self._neg):
            out = out + neg[x.take(b, axis=1)[:, None, :] + x.take(a, axis=1)[None, :, :]]
        return out.transpose(2, 0, 1)

    def triple(self, model_index: int, a, b, c, ell) -> dict:
        decode = self.model.decode
        return {
            "model": model_index,
            "theta1": list(decode(int(self.noninv[a]))),
            "theta2": list(decode(int(self.noninv[b]))),
            "chi": list(decode(int(c))),
            "ell": int(ell),
        }


def pole_orders(chi: np.ndarray, n: int) -> np.ndarray:
    """ell[q, c]: on-cells of pair q for the chi of index c, by one offset
    bincount over a block of `TripleKernel.chi`."""
    keys = chi + (np.arange(len(chi)) * n)[:, None, None]
    return np.bincount(keys.ravel("K"), minlength=len(chi) * n).reshape(len(chi), n)


def grid_conflicts(chi: np.ndarray):
    """(q, c): the pairs q and chi values c whose on-cells are not a partial
    permutation, because two of them share a row or a column; a (q, c) may
    repeat.  With no shared row there is at most one on-cell per row, so
    ell <= p."""
    qs, cs = [], []
    grid = chi.transpose(1, 2, 0)  # [j, k, q], as `TripleKernel.chi` lays it out
    for lines in (grid, grid.transpose(1, 0, 2)):  # [row, column, q], [column, row, q]
        # distances 1 .. p - 1 along a line reach every pair of its cells
        for d in range(1, len(grid)):
            later = lines[:, d:]
            same = later == lines[:, :-d]
            if same.any():
                qs.append(np.nonzero(same)[2])
                cs.append(later[same])
    if not qs:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=chi.dtype)
    return np.concatenate(qs), np.concatenate(cs)


class _Runs:
    """A block of grids of one model reduced to its runs of equal chi.

    Run r is chi value ``value[r]`` on ``length[r]`` cells of the grid of
    pair ``row[r]``: the pole order of that triple.  Runs come in (pair,
    chi) order.  Every chi of the model off a pair's grid has pole order 0;
    there are ``gaps[q]`` of them for pair q."""

    def __init__(self, kernel: TripleKernel, chi: np.ndarray):
        self.kernel = kernel
        pairs, n = len(chi), kernel.n
        # one sort of the keys q * n + chi groups the cells by pair, then chi
        keys = np.sort(chi.transpose(1, 2, 0) + np.arange(pairs) * n, axis=None)
        head = np.ones(len(keys), dtype=bool)
        head[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(head)
        self.row, self.value = np.divmod(keys[starts], n)
        self.length = np.diff(starts, append=len(keys))
        self.gaps = n - np.bincount(self.row, minlength=pairs)

    def counts(self, weight: int, good: np.ndarray) -> np.ndarray:
        """counts[ell]: the triples of pole order ell, when each pair stands
        for `weight` pairs and only the runs of the mask `good` count."""
        counts = np.bincount(self.length[good], minlength=1) * weight
        counts[0] = weight * self.gaps.sum()
        return counts

    def marked(self, q: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Mask of the runs whose (pair, chi) is among the (q[i], c[i])."""
        if not len(q):
            return np.zeros(len(self.row), dtype=bool)
        n = self.kernel.n
        return np.isin(self.row * n + self.value, q * n + c)

    def first(self, ell: int, among=None, moved_only: bool = False):
        """(q, c) of the first triple of pole order `ell` in (pair, chi)
        order, or None: among the runs of the mask `among` (default all)
        for ell > 0, and with chi not fixed by the shift if `moved_only`."""
        moved = ~self.kernel.invariant
        if ell == 0:
            gaps = self.gaps
            if moved_only:
                gaps = self.kernel.m - np.bincount(self.row[moved[self.value]], minlength=len(gaps))
            hit = np.flatnonzero(gaps > 0)
            if not len(hit):
                return None
            q = int(hit[0])
            free = moved.copy() if moved_only else np.ones(self.kernel.n, dtype=bool)
            free[self.value[self.row == q]] = False
            return q, int(np.argmax(free))
        hits = self.length == ell
        if among is not None:
            hits &= among
        if moved_only:
            hits &= moved[self.value]
        if not hits.any():
            return None
        r = int(np.argmax(hits))
        return int(self.row[r]), int(self.value[r])


def _count(report: SweepReport, counts, first) -> None:
    """Add counts[ell] triples of each pole order ell to the histogram of
    `report`; an order new to it also gets `first(ell)`, its first triple,
    as a witness."""
    for ell in np.flatnonzero(counts).tolist():
        if ell not in report.histogram:
            report.witnesses.append(first(ell))
            report.witnesses.sort(key=lambda w: w["ell"])
        report.histogram[ell] = report.histogram.get(ell, 0) + int(counts[ell])
    report.max_ell = max(report.histogram, default=0)


def sweep(family: SweepFamily, budget: SweepBudget) -> SweepReport:
    """Histogram pole orders over all (theta1, theta2, chi) triples with both
    inducing labels non-invariant, across every model in the family.

    Both strategies also verify, for every triple, that the on cells form a
    partial permutation of size at most p, and at p = 2 that a double pole
    only occurs with an invariant chi; breaches are reported, not raised.
    Witnesses record the first triple attaining each distinct pole order, in
    (model, theta1, theta2, chi) index order (in draw order when sampled).
    An exhaustive `limit` stops at the last whole pair that fits.

    The exhaustive sweep evaluates one representative pair per shift x shift
    orbit of a whole model (see `TripleKernel`), weighted by the p * p pairs
    of its orbit, and every pair of a model that `limit` cuts;
    `triples_examined` still counts every triple whose pole order it
    determined.  A pair's pole orders are read off its p x p grid: a chi on
    e of its cells has ell = e, every other chi of the model ell = 0.  The
    first pair of a pole order is a representative, so the witnesses are
    those of the full walk, and a violation or breach found on a
    representative is reported for every member of its orbit, at the same
    chi, in (theta1, theta2, chi) index order.
    """
    if budget.strategy == "sample":
        return _sweep_sampled(family, budget)

    models = [m.describe() for m in family.models]
    report = SweepReport("exhaustive", complete=True, triples_examined=0, models=models)
    for mi, model in enumerate(family.models):
        kernel = TripleKernel(model)
        n = kernel.n
        npairs = kernel.m * kernel.m
        if budget.limit is not None and report.triples_examined + npairs * n > budget.limit:
            npairs = (budget.limit - report.triples_examined) // n
            report.complete = False
        _sweep_model(report, kernel, mi, npairs)
        report.triples_examined += npairs * n
        if not report.complete:
            break
    return report


def _sweep_model(report: SweepReport, kernel: TripleKernel, mi: int, npairs: int) -> None:
    """Add the pairs of model `mi` numbered below `npairs` to `report`, a
    block at a time: one pair per orbit, for its p * p pairs, in a whole
    model, and every pair in a model that `limit` cuts."""
    found = ([], [])  # (pair, c, ell) of the violations and breaches
    whole = npairs == kernel.m * kernel.m
    weight = kernel.p**2 if whole else 1
    walk = kernel.blocks(kernel.reps) if whole else kernel.blocks(npairs=npairs)
    for a, b, chi in walk:
        runs = _Runs(kernel, chi)
        good = ~runs.marked(*grid_conflicts(chi))

        def first(ell):
            q, c = runs.first(ell, good)
            return kernel.triple(mi, a[q], b[q], c, ell)

        _count(report, runs.counts(weight, good), first)
        flagged = [~good]
        if kernel.p == 2:
            flagged.append(good & (runs.length >= 2) & ~kernel.invariant[runs.value])
        for out, flags in zip(found, flagged):
            r = np.flatnonzero(flags)
            if len(r):
                q = (a * kernel.m + b)[runs.row[r]]
                members = kernel.orbit_members(q).ravel() if whole else q
                out.append((members, runs.value[r].repeat(weight), runs.length[r].repeat(weight)))
    report.violations.extend(_render(kernel, mi, found[0]))
    report.rigidity_breaches.extend(_render(kernel, mi, found[1]))


def _render(kernel: TripleKernel, mi: int, found: list) -> list[dict]:
    """The triples (pair, c, ell) of `found`, in (pair, c) index order."""
    if not found:
        return []
    q, c, ell = (np.concatenate(x) for x in zip(*found))
    a, b = np.divmod(q, kernel.m)
    return [kernel.triple(mi, a[i], b[i], c[i], ell[i]) for i in np.lexsort((c, q))]


def _sweep_sampled(family: SweepFamily, budget: SweepBudget) -> SweepReport:
    if not family.models:
        raise PreconditionError("cannot sample from an empty family")
    rng = np.random.default_rng(budget.seed)
    kernels = [TripleKernel(m) for m in family.models]
    usable = [mi for mi, k in enumerate(kernels) if k.m]
    if not usable:
        raise PreconditionError("no model in the family has non-invariant labels")

    draws = np.zeros((budget.samples, 4), dtype=np.intp)
    for row in draws:
        mi = usable[int(rng.integers(len(usable)))]
        m, n = kernels[mi].m, kernels[mi].n
        row[:] = mi, rng.integers(m), rng.integers(m), rng.integers(n)
    mis, a, b, c = draws.T
    ells = np.zeros(budget.samples, dtype=np.intp)
    bad = np.zeros(budget.samples, dtype=bool)
    chi_moved = np.zeros(budget.samples, dtype=bool)
    for mi in sorted(set(mis.tolist())):
        k = kernels[mi]
        rows = np.flatnonzero(mis == mi)
        step = max(1, _BLOCK_CELLS // k.p**2)
        for r in (rows[lo : lo + step] for lo in range(0, len(rows), step)):
            chi = k.chi(a[r], b[r])
            ells[r] = (chi == c[r][:, None, None]).sum(axis=(1, 2))
            q, v = grid_conflicts(chi)
            bad[r[q[v == c[r][q]]]] = True
        if k.p == 2:
            chi_moved[rows] = ~k.invariant[c[rows]]

    report = SweepReport(
        "sample",
        complete=False,
        triples_examined=budget.samples,
        rng={"name": "numpy-pcg64", "seed": budget.seed},
        models=[m.describe() for m in family.models],
    )
    triple = lambda s: kernels[mis[s]].triple(int(mis[s]), a[s], b[s], c[s], ells[s])
    good = ~bad
    _count(
        report,
        np.bincount(ells[good], minlength=1),
        lambda ell: triple(int(np.argmax(good & (ells == ell)))),
    )
    report.violations = [triple(s) for s in np.flatnonzero(bad)]
    report.rigidity_breaches = [triple(s) for s in np.flatnonzero(good & (ells >= 2) & chi_moved)]
    return report


def find_witness(
    family: SweepFamily,
    target_ell: int | None = None,
    require_noninvariant_chi: bool = False,
) -> dict | None:
    """First triple (model, theta1, theta2, chi in index order) whose pole
    order equals `target_ell` (default: the model's p, the sharp bound).
    Only the representative pairs of the shift x shift orbits are evaluated:
    the first pair of a pole order is one of them (see `sweep`).

    Returns None when the family contains no such triple.
    """
    for mi, model in enumerate(family.models):
        kernel = TripleKernel(model)
        target = model.p if target_ell is None else target_ell
        for a, b, chi in kernel.blocks(kernel.reps):
            hit = _Runs(kernel, chi).first(target, moved_only=require_noninvariant_chi)
            if hit is not None:
                q, c = hit
                return kernel.triple(mi, a[q], b[q], c, target)
    return None


def catalogue_cyclic(p: int, max_group_order: int = 64) -> list[AbelianModel]:
    out = []
    cyc = CyclicData(p)
    for n in range(2, max_group_order + 1):
        for u in range(2, n):
            if pow(u, p, n) == 1:  # with p prime and u != 1: a unit of order p
                out.append(AbelianModel(factors=(n,), sigma=((u,),), cyclic=cyc))
    return out


def catalogue_rank2(p: int, max_side: int = 5) -> list[AbelianModel]:
    out = []
    cyc = CyclicData(p)
    ident = np.eye(2, dtype=np.int64)
    for d in range(2, max_side + 1):
        # every 2x2 matrix mod d, lexicographic in its entries (a, b, c, e)
        mats = np.indices((d,) * 4).reshape(4, -1).T.reshape(-1, 2, 2)
        power = mats
        for _ in range(p - 1):
            power = power @ mats % d
        keep = (power == ident).all(axis=(1, 2)) & (mats != ident).any(axis=(1, 2))
        for (a, b), (c, e) in mats[keep].tolist():
            out.append(AbelianModel(factors=(d, d), sigma=((a, b), (c, e)), cyclic=cyc))
    return out


def shipped_catalogue(p_values=(2, 3, 5), max_group_order: int = 64) -> SweepFamily:
    """The default model family: all cyclic groups up to `max_group_order`
    with a unit of order p, rank-2 groups with sides up to 5, and a few
    larger rank-2 involutions."""
    models: list[AbelianModel] = []
    for p in p_values:
        models.extend(catalogue_cyclic(p, max_group_order))
        models.extend(catalogue_rank2(p))
    if 2 in p_values:
        cyc2 = CyclicData(2)
        for d in (6, 7, 8):
            models.append(
                AbelianModel(factors=(d, d), sigma=((0, 1), (1, 0)), cyclic=cyc2)
            )
            models.append(
                AbelianModel(
                    factors=(d, d), sigma=((d - 1, 0), (0, d - 1)), cyclic=cyc2
                )
            )
    return SweepFamily(tuple(models))
