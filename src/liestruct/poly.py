"""Exact univariate polynomial arithmetic over Q.

Polynomials are lists of Fractions in ascending order of degree, so
``[a0, a1, a2]`` is ``a0 + a1 t + a2 t^2``. The zero polynomial is ``[]``.
Includes characteristic/minimal polynomials of rational matrices, complete
factorization of squarefree polynomials over Q (Zassenhaus), and the additive
Jordan-Chevalley decomposition computed by Newton iteration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, zip_longest
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from .linalg import Matrix, _echelon, frac

Poly = list


def poly(coeffs: Sequence) -> Poly:
    return normalize([frac(c) for c in coeffs])


def normalize(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Poly) -> int:
    return len(p) - 1


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return normalize(out)


def poly_divmod(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    d = normalize(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(normalize(p))
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    lead = d[-1]
    while len(r) >= len(d):
        c = r[-1] / lead
        k = len(r) - len(d)
        q[k] = c
        for i, dc in enumerate(d):
            r[k + i] -= c * dc
        r = normalize(r)
        if not r:
            break
    return normalize(q), r


def poly_mod(p: Poly, d: Poly) -> Poly:
    return poly_divmod(p, d)[1]


def poly_div_exact(p: Poly, d: Poly) -> Poly:
    q, r = poly_divmod(p, d)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def monic(p: Poly) -> Poly:
    p = normalize(p)
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = normalize(p), normalize(q)
    while b:
        a, b = b, poly_mod(a, b)
    return monic(a)


def derivative(p: Poly) -> Poly:
    return normalize([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    p = normalize(p)
    if degree(p) <= 0:
        return monic(p)
    g = poly_gcd(p, derivative(p))
    return monic(poly_div_exact(p, g))


def poly_eval_matrix(p: Poly, m: Matrix, unit: Optional[Matrix] = None) -> Matrix:
    """Evaluate p at a square matrix by Horner's rule.

    ``unit`` replaces the identity as m^0; pass the unit element when m lives
    in a unital subalgebra smaller than the full matrix algebra, or a column
    v to get p(m) v. Each step adds c * unit on the nonzero entries of the
    unit only (the diagonal, for the identity).
    """
    if unit is None:
        unit = Matrix.identity(m.nrows)
    spots = [(i, j, v) for i, row in enumerate(unit.rows) for j, v in enumerate(row) if v]
    acc = Matrix.zero(unit.nrows, unit.ncols)
    for c in reversed(p):
        acc = m @ acc
        if c:
            rows = [list(r) for r in acc.rows]
            for i, j, v in spots:
                rows[i][j] += c * v
            acc = Matrix._trusted(map(tuple, rows))
    return acc


# ---------------------------------------------------------------------------
# Characteristic and minimal polynomials
# ---------------------------------------------------------------------------

def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(tI - m) by Faddeev-LeVerrier."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    coeffs = [Fraction(1)]  # c_0 = 1 for t^n
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        am = m @ mk
        ck = -am.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = am + Matrix.identity(n).scale(ck)
    # coeffs are [1, c_1, ..., c_n] for t^n + c_1 t^{n-1} + ... + c_n
    return normalize(list(reversed(coeffs)))


def min_poly(m: Matrix, unit: Optional[Matrix] = None) -> Poly:
    """Monic minimal polynomial of m.

    With ``unit`` given, m^0 is taken to be that unit, which computes the
    minimal polynomial of m as an element of the unital algebra generated by
    m and unit, such as a corner algebra eCe with identity e. A column v as
    ``unit`` gives the least q with q(m) v = 0, m's minimal polynomial when v
    is 1 in a faithful regular representation.

    m^k unit go into one integer echelon, flattened and tagged with a 1 in
    column size + k (size: the unit's entry count). The first row that
    reduces to tag columns alone is the first dependent power; its tags over
    the tag of m^k are the result.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    unit = Matrix.identity(m.nrows) if unit is None else unit
    size = unit.nrows * unit.ncols
    pivots: dict[int, dict[int, int]] = {}

    def tagged_powers():
        current = unit
        for k in range(size + 1):
            yield list(current.flatten()) + [0] * k + [1]
            if next(reversed(pivots)) >= size:
                return  # the row of m^k is all tags
            current = m @ current

    _echelon(tagged_powers(), pivots)
    dependency = pivots[next(reversed(pivots))]
    top = max(dependency)
    return [Fraction(dependency.get(j, 0), dependency[top]) for j in range(size, top + 1)]


# ---------------------------------------------------------------------------
# Factoring over Q: Zassenhaus, Hensel lifting a factorization mod a prime
# ---------------------------------------------------------------------------

def _rational_square_root(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


# Polynomials mod m below are int lists in ascending order, entries in 0..m-1.

def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mod_mul(a: list, b: list, m: int) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % m for c in out])


def _mod_sub(a: list, b: list, m: int) -> list:
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _mod_divmod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by b mod m; b's leading coefficient is a unit mod m."""
    r, inv = _trim([c % m for c in a]), pow(b[-1], -1, m)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        k, c = len(r) - len(b), r[-1] * inv % m
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = (r[k + i] - c * y) % m
        _trim(r)
    return q, r


def _mod_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_mul(a, [pow(a[-1], -1, p)], p)


def _mod_pow(a: list, e: int, g: list, p: int) -> list:
    """a^e mod (g, p)."""
    out, a = [1], _mod_divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _mod_divmod(_mod_mul(out, a, p), g, p)[1]
        a = _mod_divmod(_mod_mul(a, a, p), g, p)[1]
        e >>= 1
    return out


def _distinct_degree(f: list, p: int) -> list[tuple[list, int]]:
    """(g, d): g the product of the degree-d irreducible factors of squarefree monic f mod p."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _mod_pow(h, p, f, p)  # x^(p^d) mod f
        g = _mod_gcd(f, _mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mod_divmod(f, g, p)[0]
            h = _mod_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list, d: int, p: int, rng: random.Random) -> list[list]:
    """The monic irreducible factors mod an odd prime p of f, all of degree d: Cantor-Zassenhaus."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        g = _mod_gcd(f, _mod_sub(_mod_pow(a, (p ** d - 1) // 2, f, p), [1], p), p) if a else f
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_mod_divmod(f, g, p)[0], d, p, rng))


def _hensel(f: list, g: list, p: int, modulus: int) -> tuple[list, list]:
    """Monic (g, h), f = g h mod ``modulus`` (a power of p), lifted linearly from g | f mod p
    for g irreducible mod p, so that h^-1 = h^(p^deg g - 2) in the field F_p[t]/(g)."""
    h = _mod_divmod(f, g, p)[0]
    t, q = _mod_pow(h, p ** (len(g) - 1) - 2, g, p), p
    while q < modulus:
        # f = (g + q s)(h + q u) mod q p for s h + u g = (f - g h) / q mod p
        e = [c // q for c in _mod_sub(f, _mod_mul(g, h, q * p), q * p)]
        s = _mod_divmod(_mod_mul(e, t, p), g, p)[1]
        u = _mod_divmod(_mod_sub(e, _mod_mul(s, h, p), p), g, p)[0]
        g = _mod_sub(g, [-q * c for c in s], q * p)
        h = _mod_sub(h, [-q * c for c in u], q * p)
        q *= p
    return g, h


def _crt_idempotent(p: Poly, q: Poly) -> Poly:
    """The e of degree < deg p with e = 1 mod q and e = 0 mod u = p / q, for a factor
    q of p prime to p / q: u (u^-1 mod q) mod p (extended Euclid)."""
    u = poly_div_exact(p, q)
    r0, r1, t0, t1 = q, poly_mod(u, q), [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, normalize(
            [a - b for a, b in zip_longest(t0, poly_mul(quo, t1), fillvalue=0)])
    return poly_mul(u, [c / r0[0] for c in t0])  # deg t0 < deg q, so deg e < deg p


def factor(p: Poly) -> list[Poly]:
    """The monic irreducible factors over Q of a squarefree p, by degree, t - a by ascending a.

    Zassenhaus on f = den p in Z[t], lc = den: factor f mod the first odd prime
    dividing neither lc nor the discriminant (distinct-degree, then
    Cantor-Zassenhaus with a generator seeded 0), Hensel-lift the factors one
    at a time past 2 lc 2^n |f|_2, which bounds lc times any factor of f
    (Mignotte), and keep the products of subsets, smallest first, whose
    primitive parts divide f exactly.
    """
    p, n = monic(p), degree(p)
    if n <= 1:
        return [p] if n == 1 else []
    den = lcm(*(c.denominator for c in p))
    f = [int(c * den) for c in p]  # primitive: den p has a coefficient prime to each q | den
    df, norm = [i * c for i, c in enumerate(f)][1:], isqrt(sum(c * c for c in f)) + 1
    rejected = 1  # a product of primes dividing Res(f, f'), which is at most (n |f|_2)^(2n)
    for prime in (q for q in count(3, 2) if all(q % r for r in range(3, isqrt(q) + 1, 2))):
        if den % prime and len(_mod_gcd(f, _trim([c % prime for c in df]), prime)) == 1:
            break
        rejected *= prime if den % prime else 1
        if rejected > (n * norm) ** (2 * n):
            raise ValueError("factor needs a squarefree polynomial")
    rng = random.Random(0)
    local = [g for part, d in _distinct_degree(_mod_mul(f, [pow(den, -1, prime)], prime), prime)
             for g in _equal_degree(part, d, prime, rng)]
    bound, modulus = 2 * den * 2 ** n * norm, prime
    while modulus <= bound:
        modulus *= prime
    lifted, rest = [], _mod_mul(f, [pow(den, -1, modulus)], modulus)
    for g in local[:-1]:
        g, rest = _hensel(rest, g, prime, modulus)
        lifted.append(g)
    lifted.append(rest)
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = reduce(lambda a, i: _mod_mul(a, lifted[i], modulus), subset, [f[-1]])
            g = [c - modulus if 2 * c > modulus else c for c in g]
            g = poly([c // gcd(*g) for c in g])
            quo, rem = poly_divmod(poly(f), g)
            if not rem:
                found.append(g)
                f = [int(c) for c in quo]
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(poly(f))
    return sorted(map(monic, found), key=lambda q: (len(q), [-c for c in q]))


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------

def jordan_chevalley(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split m = s + n with s semisimple, n nilpotent, s n = n s.

    Both parts are polynomials in m. Newton iteration on the squarefree part
    f of the minimal polynomial, which has the irreducible factors of the
    characteristic polynomial, so f(m) is nilpotent of index at most size:
    a <- a - f(a) f'(a)^{-1} doubles the order of vanishing of f(a) each
    step, so it stops within ceil(log2(size)) + 1 rounds. f'(a) is
    invertible because gcd(f, f') = 1 and f(a) stays nilpotent; its matrix
    inverse is the inverse in Q[m], so everything commutes.
    """
    if not m.is_square():
        raise ValueError("Jordan-Chevalley of a non-square matrix")
    n = m.nrows
    if n == 0:
        return m, m
    f = squarefree_part(min_poly(m))
    fp = derivative(f)
    a = m
    for _ in range(n.bit_length() + 1):
        fa = poly_eval_matrix(f, a)
        if fa.is_zero():
            break
        a = a - fa @ poly_eval_matrix(fp, a).inverse()
    else:
        raise RuntimeError("Newton iteration did not terminate (unreachable)")
    return a, m - a


def is_nilpotent_matrix(m: Matrix) -> bool:
    if not m.is_square():
        raise ValueError("nilpotency of a non-square matrix")
    n = m.nrows
    if n == 0:
        return True
    return m.power(n).is_zero()
