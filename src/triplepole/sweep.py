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


# Triples per kernel block: bounds the memory one block of pairs takes.
_BLOCK_TRIPLES = 1 << 15


class TripleKernel:
    """Dense pole-order kernel for one abelian model.

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
        shifted = index[:, self.noninv].T
        self.orbit = np.searchsorted(self.noninv, shifted)
        self.rep = self.orbit.min(axis=1)
        self.reps = np.flatnonzero(self.rep == np.arange(self.m))
        # per coordinate: the shifted coordinate of each non-invariant label,
        # shape (m, p), and -x mod d times the stride for a sum x of two
        self._coords = [shifted // s % d for d, s in zip(factors, strides)]
        self._neg = [(-np.arange(2 * d - 1)) % d * s for d, s in zip(factors, strides)]

    def blocks(self, positions: np.ndarray | None = None, npairs: int | None = None):
        """(a, b, chi, ell) for the pairs (a, b) with a and b in the sorted
        array `positions` (default every position) and pair number below
        `npairs` (default m * m), in index order, a block at a time: a and b
        are position arrays, chi = self.chi(a, b) and ell = pole_orders(chi,
        n).  Only one block of pairs is ever held."""
        if positions is None:
            positions = np.arange(self.m)
        k = len(positions)
        count = k * k
        if npairs is not None and npairs < self.m * self.m:
            # whole rows of positions before row npairs // m, then the part
            # of that row (if it is a position) below column npairs % m
            row, col = divmod(npairs, self.m)
            full = int(np.searchsorted(positions, row))
            in_row = full < k and positions[full] == row
            count = full * k + (int(np.searchsorted(positions, col)) if in_row else 0)
        for sl in _slices(count, self.n):
            i, j = np.divmod(np.arange(sl.start, sl.stop), k)
            a, b = positions[i], positions[j]
            chi = self.chi(a, b)
            yield a, b, chi, pole_orders(chi, self.n)

    def orbit_members(self, pairs: np.ndarray) -> np.ndarray:
        """members[i]: the p * p pair numbers of the orbit of pair pairs[i],
        (shift^s theta1, shift^t theta2) at s * p + t."""
        a, b = np.divmod(pairs, self.m)
        members = self.orbit[a][:, :, None] * self.m + self.orbit[b][:, None, :]
        return members.reshape(len(pairs), -1)

    def chi(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """chi[q, j, k]: index of the chi turning cell (j, k) of pair q on,
        -(shift^j(theta2) + shift^k(theta1))."""
        out = 0
        for x, neg in zip(self._coords, self._neg):
            out = out + neg[x[b][:, :, None] + x[a][:, None, :]]
        return out

    def triple(self, model_index: int, a, b, c, ell) -> dict:
        decode = self.model.decode
        return {
            "model": model_index,
            "theta1": list(decode(int(self.noninv[a]))),
            "theta2": list(decode(int(self.noninv[b]))),
            "chi": list(decode(int(c))),
            "ell": int(ell),
        }


def _slices(count: int, n: int):
    step = max(1, _BLOCK_TRIPLES // n)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def pole_orders(chi: np.ndarray, n: int) -> np.ndarray:
    """ell[q, c]: on-cells of pair q for the chi of index c, by one offset
    bincount over a block of `TripleKernel.chi`."""
    keys = chi + (np.arange(len(chi)) * n)[:, None, None]
    return np.bincount(keys.ravel(), minlength=len(chi) * n).reshape(len(chi), n)


def cell_conflicts(chi: np.ndarray, n: int) -> np.ndarray:
    """Mask [q, c]: the on-cells of pair q for the chi of index c are not a
    partial permutation, because two of them share a row or a column.  With
    no shared row there is at most one on-cell per row, so ell <= p."""
    bad = np.zeros((len(chi), n), dtype=bool)
    for lines in (chi, chi.transpose(0, 2, 1)):
        # cyclic distances 1 .. p // 2 reach every pair of cells of a line
        for d in range(1, chi.shape[1] // 2 + 1):
            same = lines == np.roll(lines, d, axis=2)
            if same.any():
                bad[np.nonzero(same)[0], lines[same]] = True
    return bad


def _tally(report: SweepReport, ells, bad, chi_moved, triple, weights=None):
    """Add a run of triples, handed over in index order, to the histogram and
    witnesses of `report`: `ells` and the `bad` mask cover the run,
    `chi_moved` (p = 2 only, else None) marks its non-invariant chi,
    `triple(i, ell)` renders flat index i, and `weights[r]` (default 1) is
    the number of triples each triple of row r stands for.  Returns the flat
    indices of the run's violations, which the histogram leaves out, and of
    its rigidity breaches."""
    if bad.any():
        ells = np.where(bad, -1, ells)
    if weights is None:
        weights = np.ones(len(ells), dtype=np.intp)
    # one unweighted bincount per distinct weight, as a weighted one is
    # slower; violations fall in the dropped bin
    for w in np.flatnonzero(np.bincount(weights)).tolist():
        counts = np.bincount(ells[weights == w].ravel() + 1)[1:]
        for ell in np.flatnonzero(counts).tolist():
            report.histogram[ell] = report.histogram.get(ell, 0) + w * int(counts[ell])
    for ell in sorted(report.histogram.keys() - {w["ell"] for w in report.witnesses}):
        report.witnesses.append(triple(int(np.argmax(ells == ell)), ell))
    report.witnesses.sort(key=lambda w: w["ell"])
    report.max_ell = max(report.histogram, default=0)
    if chi_moved is None:
        return np.flatnonzero(bad), []
    return np.flatnonzero(bad), np.flatnonzero((ells >= 2) & chi_moved)


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
    orbit (see `TripleKernel`), weighted by the orbit's pairs inside the
    walked prefix; `triples_examined` still counts every triple whose pole
    order it determined.  The first pair of a pole order is a
    representative, so the witnesses are those of the full walk, and a
    violation or breach found on a representative is reported for every
    member of its orbit inside the prefix, at the same chi, in (theta1,
    theta2, chi) index order.
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
        chi_moved = ~kernel.invariant if kernel.p == 2 else None
        found = ([], [])  # (pair, c, ell) of the violations and breaches seen
        for a, b, chi, ells in kernel.blocks(kernel.reps, npairs):
            # the orbit members inside the prefix, which each pair stands for
            members = kernel.orbit_members(a * kernel.m + b)
            inside = members < npairs
            triple = lambda i, ell: kernel.triple(mi, a[i // n], b[i // n], i % n, ell)
            bad = cell_conflicts(chi, n)
            flagged = _tally(report, ells, bad, chi_moved, triple, inside.sum(axis=1))
            for out, flat in zip(found, flagged):
                if len(flat):
                    q, c = np.divmod(flat, n)
                    rows, cols = np.nonzero(inside[q])
                    out.append((members[q[rows], cols], c[rows], ells[q, c][rows]))
        report.violations.extend(_render(kernel, mi, found[0]))
        report.rigidity_breaches.extend(_render(kernel, mi, found[1]))
        report.triples_examined += npairs * n
        if not report.complete:
            break
    return report


def _render(kernel: TripleKernel, mi: int, found: list) -> list[dict]:
    """The triples (pair, c, ell) of `found`, rendered in (pair, c) index
    order."""
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
        for r in (rows[sl] for sl in _slices(len(rows), k.n)):
            chi = k.chi(a[r], b[r])
            ells[r] = pole_orders(chi, k.n)[np.arange(len(r)), c[r]]
            bad[r] = cell_conflicts(chi, k.n)[np.arange(len(r)), c[r]]
        if k.p == 2:
            chi_moved[rows] = ~k.invariant[c[rows]]

    report = SweepReport(
        "sample",
        complete=False,
        triples_examined=budget.samples,
        rng={"name": "numpy-pcg64", "seed": budget.seed},
        models=[m.describe() for m in family.models],
    )
    triple = lambda s, ell: kernels[mis[s]].triple(int(mis[s]), a[s], b[s], c[s], ell)
    violations, breaches = _tally(report, ells, bad, chi_moved, triple)
    report.violations = [triple(s, ells[s]) for s in violations]
    report.rigidity_breaches = [triple(s, ells[s]) for s in breaches]
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
        for a, b, _, ells in kernel.blocks(kernel.reps):
            hits = ells == target
            if require_noninvariant_chi:
                hits &= ~kernel.invariant
            if hits.any():
                q, c = divmod(int(np.argmax(hits)), kernel.n)
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
