"""Exact cyclotomic arithmetic: the package's cyclotomic polynomials and
remainder rows, and the reference ring Z[zeta_n] the tests compare against."""

import pytest
from hypothesis import given, strategies as st

from triplepole import cyclotomic_polynomial
from triplepole.group_oracle import _poly_mul, _remainder_matrix, _totient

import class_function_oracle
from class_function_oracle import CyclotomicInt, NotAnInteger, _poly_rem_monic


def totient(n):
    return sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)


KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1,) * 11,
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomial_table(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


@pytest.mark.parametrize("n", range(1, 40))
def test_cyclotomic_polynomial_degree_is_totient(n):
    # _totient prices the oracle's reduction before Phi_n is built
    assert len(cyclotomic_polynomial(n)) - 1 == totient(n) == _totient(n)


def test_remainder_rows_match_per_row_reduction():
    # row e - deg is x^e reduced modulo Phi_n one monomial at a time, for
    # deg <= e < n; n = 1 has no rows, n = 2 the single row x = -1
    assert _remainder_matrix(1).shape == (0, 1)
    assert _remainder_matrix(2).tolist() == [[-1]]
    for n in range(1, 130):
        phi = list(cyclotomic_polynomial(n))
        deg = len(phi) - 1
        expected = []
        for e in range(deg, n):
            rem = _poly_rem_monic([0] * e + [1], phi)
            expected.append(rem + [0] * (deg - len(rem)))
        R = _remainder_matrix(n)
        assert R.shape == (n - deg, deg), n
        assert R.tolist() == expected, n


@pytest.mark.parametrize("n", range(1, 30))
def test_cyclotomic_product_recovers_xn_minus_one(n):
    acc = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            acc = _poly_mul(acc, list(cyclotomic_polynomial(d)))
    expect = [0] * (n + 1)
    expect[0], expect[n] = -1, 1
    assert acc == expect


def test_third_roots_sum_to_minus_one():
    z = CyclotomicInt.root(3)
    assert (z + z * z).as_integer() == -1


def test_fourth_root_squares_to_minus_one():
    i = CyclotomicInt.root(4)
    assert (i * i).as_integer() == -1


def test_fifth_root_is_not_an_integer():
    z = CyclotomicInt.root(5)
    with pytest.raises(NotAnInteger) as exc:
        z.as_integer()
    assert exc.value.residual is not None
    assert len(exc.value.residual) > 1


@pytest.mark.parametrize("n", range(2, 20))
def test_all_roots_sum_to_zero(n):
    total = CyclotomicInt.from_monomials(n, [(r, 1) for r in range(n)])
    assert total.as_integer() == 0
    assert total.is_zero()


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_nontrivial_roots_of_prime_order_sum_to_minus_one(q):
    total = CyclotomicInt.from_monomials(q, [(r, 1) for r in range(1, q)])
    assert total.as_integer() == -1


def test_equality_is_modular():
    # zeta_3^0 + zeta_3^1 + zeta_3^2 equals 0 even though the raw vectors differ
    a = CyclotomicInt.from_monomials(3, [(0, 1), (1, 1), (2, 1)])
    assert a == CyclotomicInt.zero(3)
    assert a == 0
    assert CyclotomicInt.root(4, 2) == -1


def test_mixed_orders_do_not_combine():
    with pytest.raises(ValueError):
        CyclotomicInt.root(3) + CyclotomicInt.root(4)


elements = st.integers(1, 24).flatmap(
    lambda n: st.builds(
        CyclotomicInt,
        st.just(n),
        st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple),
    )
)


@given(elements, st.data())
def test_ring_laws(a, data):
    same_order = st.lists(st.integers(-9, 9), min_size=a.order, max_size=a.order).map(
        lambda c: CyclotomicInt(a.order, tuple(c))
    )
    b = data.draw(same_order)
    c = data.draw(same_order)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CyclotomicInt.zero(a.order)
    assert a * CyclotomicInt.one(a.order) == a


@given(elements, st.data())
def test_conjugation_is_a_ring_involution(a, data):
    b = data.draw(
        st.lists(st.integers(-9, 9), min_size=a.order, max_size=a.order).map(
            lambda c: CyclotomicInt(a.order, tuple(c))
        )
    )
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(elements)
def test_integer_certification_round_trip(a):
    try:
        v = a.as_integer()
    except NotAnInteger:
        return
    assert a == CyclotomicInt.one(a.order) * v


def test_module_doctests():
    import doctest

    import triplepole.group_oracle

    for module in (triplepole.group_oracle, class_function_oracle):
        result = doctest.testmod(module)
        assert result.attempted > 0
        assert result.failed == 0
