"""The reference loops: fixed pieces of work that measure how fast the host
runs at a given moment, and the times scaled by them.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half, in periods of seconds to minutes, with the load of its neighbours.
The package slows down with it, so a time measured in one run says as much
about the host at that moment as about the program.  The benchmark therefore
times these loops in the same stretch of time as the program and reports each
time scaled by `scale`: the time the work would have taken on a host that
runs each loop in `NOMINAL_S`.  A change to the program changes its own times
but not the loops', so it shows in full.

Not all code slows down alike.  `python_loop` is a stand-in for the sweep's
inner loop (list-of-list lookups, dict buckets of tuples, set comprehensions,
small calls); `numpy_loop` for the oracle's agreement sweep on an order-25
model (broadcast sums of 25 x 25 x 5 x 25 exponent arrays, a `bincount` per
row, a small matrix product).  Loops of this kind (the same operations on
other fixed data), run alternately with pieces of the package every few
milliseconds for 100 s in one process, measured these: the time of a piece
of the sweep went with `python_loop`'s to the power 0.92 (and with
`numpy_loop`'s to the power 2.2), 5 estimates of hecke-numerics to the power
0.97 (2.4), and the agreement sweep of an order-25 model to the power 0.33
of `python_loop`'s but 0.98 of `numpy_loop`'s.  Scaled by the matching loop,
the 8-sample medians of the sweep varied by 8 % (21 % as measured) and those
of the order-25 agreement sweep by 3.5 % (9 %).  Timed seconds away from the
program, the loops followed it much less, so they are sampled while the
program runs (`Sampler`), in the process that runs it.

The loops depend on nothing but the standard library and numpy.  They must
never change: scaled times are only comparable while they stay the same.
"""

from __future__ import annotations

import signal
import time

# Seconds one call of each loop takes at nominal speed, about its time on a
# 2-core Xeon VM.  Scaled times are in seconds at this speed.
NOMINAL_S = {"python": 0.003, "numpy": 0.003}
INTERVAL_S = 0.05  # how often `Sampler` runs a loop

# The loops' data is fixed arithmetic, not drawn from a generator, and the
# module imports nothing but `signal` and `time` until a sampler needs the
# numpy loop: it is imported before the package in the processes it
# measures, and must not do part of the package's imports for it.
_N = 97
_P = 5
_ADD = [[(a + b) % _N for b in range(_N)] for a in range(_N)]
_NEG = [(-a) % _N for a in range(_N)]
_SHIFT = [[(a * (2 * t + 3) + 7 * t) % _N for a in range(_N)] for t in range(_P)]
_PAIRS = [((37 * i + 11) % _N, (53 * i + 29) % _N) for i in range(100)]
_numpy_data = None


def _partial_permutation(cells: list) -> bool:
    rows = {j for j, _ in cells}
    cols = {k for _, k in cells}
    return len(rows) == len(cells) and len(cols) == len(cells)


def python_loop() -> dict:
    """Bucket the p x p cells of 100 fixed pairs by the label that turns them
    on, and histogram the bucket sizes."""
    histogram: dict[int, int] = {}
    for i1, i2 in _PAIRS:
        buckets: dict[int, list] = {}
        row2 = [_SHIFT[j][i2] for j in range(_P)]
        col1 = [_SHIFT[k][i1] for k in range(_P)]
        for j in range(_P):
            arow = _ADD[row2[j]]
            for k in range(_P):
                buckets.setdefault(_NEG[arow[col1[k]]], []).append((j, k))
        for cells in buckets.values():
            if _partial_permutation(cells):
                histogram[len(cells)] = histogram.get(len(cells), 0) + 1
    return histogram


def _load_numpy():
    global _numpy_data
    if _numpy_data is None:
        import numpy as np

        exp = (np.arange(25 * 5 * 25, dtype=np.int64).reshape(25, 5, 25) * 7919) % 25
        rem = (np.arange(25 * 20, dtype=np.int64).reshape(25, 20) * 31) % 3
        _numpy_data = np, exp, rem
    return _numpy_data


def numpy_loop() -> int:
    """For 3 fixed pairs, the exponent sums of every cell and character,
    counted per character and reduced by a fixed matrix."""
    np, exp, rem = _load_numpy()
    total = 0
    for i in range(3):
        d12 = (exp[i][:, None, :] + exp[i + 1][None, :, :]).reshape(25, 25)
        combined = (d12[None, :, None, :] + exp[:, None, :, :]) % 25
        flat = combined.reshape(25, -1)
        counts = np.zeros((25, 25), dtype=np.int64)
        for c in range(25):
            counts[c] = np.bincount(flat[c], minlength=25)
        total += int((counts @ rem)[:, 0].sum())
    return total


LOOPS = {"python": python_loop, "numpy": numpy_loop}


def scale(times: dict[str, list[float]], weights: dict[str, float]) -> float:
    """The factor that takes a time measured while the loops took `times`,
    sampled at even steps of wall time, to the nominal speed, for code that
    slows down like the loops in `weights` (name -> exponent, summing to 1).

    The work done in a stretch of time goes with the speed, the inverse of a
    loop's time, so the factor for one loop is `NOMINAL_S` times its mean
    speed: `NOMINAL_S` over the harmonic mean of its times.  A sample that
    the host stalled counts for little, as the program did little in that
    time too."""
    from math import prod
    from statistics import harmonic_mean

    return prod((NOMINAL_S[name] / harmonic_mean(times[name])) ** w for name, w in weights.items())


class Sampler:
    """Runs the loops named in `loops` in turn, one every `INTERVAL_S`, from a
    timer signal in the thread that runs the program, and keeps their times
    (`times`) and the seconds they took away from the program (`spent`),
    which the caller subtracts from what it times.  Python runs the handler
    between two bytecodes of the main thread, so the loops interleave with
    the program at fine grain."""

    def __init__(self, loops) -> None:
        self.loops = [LOOPS[name] for name in loops]
        self.times: dict[str, list[float]] = {name: [] for name in loops}
        self.spent = 0.0
        self._names = list(loops)
        self._turn = 0
        self._previous = None
        if "numpy" in loops:
            _load_numpy()

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        i = self._turn % len(self.loops)
        self._turn += 1
        loop_start = time.perf_counter()
        self.loops[i]()
        self.times[self._names[i]].append(time.perf_counter() - loop_start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
