"""Structure of a finite abelian group given only its multiplication.

`abelian_basis` decomposes a finite abelian group, supplied as a list of
hashable, orderable elements plus a multiplication callable, into an
invariant-factor basis: generators g_1, ..., g_r with orders t_r | ... | t_2
| t_1 descending, every element writing uniquely as a product of basis
powers.  The returned log table maps each element to its coordinate vector,
which is what character evaluation needs.
"""

from __future__ import annotations

from .errors import InvariantViolationError


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _pow(mul, identity, g, e: int):
    acc = identity
    base = g
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


def _element_order(mul, identity, g, group_order: int) -> int:
    # Start from |G| and strip prime factors while the power stays trivial.
    order = group_order
    for q in _factorize(group_order):
        while order % q == 0 and _pow(mul, identity, g, order // q) == identity:
            order //= q
    return order


def _basis(elements: list, mul, identity) -> tuple[list, list[int]]:
    n = len(elements)
    if n == 1:
        return [], []
    orders = {g: _element_order(mul, identity, g, n) for g in elements}
    g = max(elements, key=lambda e: (orders[e], e))
    t = orders[g]
    if t == n:
        return [g], [t]

    # Partition into cosets of <g> by walking multiply-by-g orbits; each
    # coset is keyed by its smallest element.
    power_of_g = {}
    acc = identity
    for e in range(t):
        power_of_g[acc] = e
        acc = mul(acc, g)
    key_of = {}
    for x in elements:
        if x in key_of:
            continue
        orbit = [x]
        y = mul(x, g)
        while y != x:
            orbit.append(y)
            y = mul(y, g)
        k = min(orbit)
        for z in orbit:
            key_of[z] = k

    quotient = sorted(set(key_of.values()))
    qmul = lambda a, b: key_of[mul(a, b)]
    qid = key_of[identity]
    qbasis, qorders = _basis(quotient, qmul, qid)

    # Lift each quotient generator y: y^u lands in <g>, say g^c; u divides c
    # because y's order in G divides t, so x = y * g^(-c/u) has exact order u
    # and still projects onto the quotient generator.
    basis = [g]
    orders_out = [t]
    for y, u in zip(qbasis, qorders):
        c = power_of_g[_pow(mul, identity, y, u)]
        if c % u != 0:
            raise InvariantViolationError("coset lift failed; group is not abelian?")
        x = mul(y, _pow(mul, identity, g, (t - (c // u)) % t))
        basis.append(x)
        orders_out.append(u)
    return basis, orders_out


def abelian_basis(elements, mul, identity) -> tuple[list, list[int], dict]:
    """Invariant-factor decomposition of a finite abelian group.

    Returns (basis, orders, log): generators with descending orders, each
    dividing the previous, and a table mapping every element to its unique
    coordinate vector.  Raises InvariantViolationError if the inputs do not
    describe an abelian group (detected by a failed enumeration).
    """
    elements = list(elements)
    basis, orders = _basis(elements, mul, identity)
    for a, b in zip(orders, orders[1:]):
        if a % b != 0:
            raise InvariantViolationError("invariant factors must divide in turn")
    log = {identity: ()}
    for g, t in zip(basis, orders):
        prev = log
        log = {}
        power = identity
        for c in range(t):
            for elt, coords in prev.items():
                combined = mul(elt, power)
                if combined in log:
                    raise InvariantViolationError(
                        "basis enumeration collided; group is not abelian?"
                    )
                log[combined] = coords + (c,)
            power = mul(power, g)
    if len(log) != len(elements):
        raise InvariantViolationError("basis does not generate the group")
    return basis, orders, log
