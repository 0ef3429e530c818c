import functools

import pytest

from triplepole import AbelianModel, CyclicData


@pytest.fixture
def z7_p3():
    """Z/7 with the shift acting as multiplication by 2 (order 3)."""
    return AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3))


@pytest.fixture
def z3sq_p2():
    """(Z/3)^2 with the coordinate swap (order 2)."""
    return AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2))


def small_models():
    """A spread of small abelian models used by property tests."""
    return [
        AbelianModel(factors=(7,), sigma=((2,),), cyclic=CyclicData(3)),
        AbelianModel(factors=(7,), sigma=((4,),), cyclic=CyclicData(3)),
        AbelianModel(factors=(3, 3), sigma=((0, 1), (1, 0)), cyclic=CyclicData(2)),
        AbelianModel(factors=(5,), sigma=((4,),), cyclic=CyclicData(2)),
        AbelianModel(factors=(8,), sigma=((3,),), cyclic=CyclicData(2)),
        AbelianModel(factors=(2, 4), sigma=((1, 1), (0, 1)), cyclic=CyclicData(2)),
        AbelianModel(factors=(31,), sigma=((5,),), cyclic=CyclicData(3)),
        AbelianModel(factors=(11,), sigma=((3,),), cyclic=CyclicData(5)),
    ]


def p2_models():
    return [m for m in small_models() if m.p == 2]


@functools.cache
def invertible_residues(m):
    """The residues (x, y) of x + yi modulo m that have an inverse, found by
    a literal search for (u, v) with (x + yi)(u + vi) = 1 (mod m): a
    reference for the units that owes nothing to the norm rule."""
    box = [(x, y) for y in range(m) for x in range(m)]
    return frozenset(
        (x, y) for x, y in box
        if any((x * u - y * v - 1) % m == 0 and (x * v + y * u) % m == 0 for u, v in box)
    )
