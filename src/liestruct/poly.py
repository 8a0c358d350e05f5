"""Exact univariate polynomial arithmetic over Q.

Polynomials are lists of Fractions in ascending order of degree, so
``[a0, a1, a2]`` is ``a0 + a1 t + a2 t^2``. The zero polynomial is ``[]``.
Includes characteristic/minimal polynomials of rational matrices, minimal
polynomials from integer Krylov vectors (``_krylov``), complete factorization
of squarefree polynomials over Q in ints (Newton lifting mod a prime and one
exact division over Z), and the additive Jordan-Chevalley decomposition as a
polynomial in the element: Newton's method in Q[t]/(m), m the minimal
polynomial (``_semisimple_polynomial``), with one extended gcd per step
(``_inverse_mod``, shared with the Chinese-remainder idempotents of nonlinear
factors; a linear one needs only an evaluation).
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


def _sub(p: Poly, q: Poly) -> Poly:
    return normalize([a - b for a, b in zip_longest(p, q, fillvalue=0)])


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
    """Monic gcd by Euclid on primitive integer polynomials: each pseudo-remainder
    is divided by its content, so no coefficient blows up as over Q."""
    a, b = _primitive_part(p), _primitive_part(q)
    while b:
        while len(a) >= len(b):  # a <- lc(b) a - lc(a) t^k b
            k, lead = len(a) - len(b), a[-1]
            a = _trim([x * b[-1] - (lead * b[i - k] if i >= k else 0) for i, x in enumerate(a)])
        a, b = b, _primitive_part(a)
    return monic([Fraction(c) for c in a])


def _primitive_part(p: Sequence) -> list:
    """The primitive integer multiple of a rational polynomial, leading coefficient > 0."""
    den = lcm(*(c.denominator for c in p))
    f = [c.numerator * (den // c.denominator) for c in normalize(p)]
    g = gcd(*f) if f and f[-1] > 0 else -gcd(*f)
    return [c // g for c in f]


def _divide_exact(f: list, g: list) -> Optional[list]:
    """f / g for int polynomials f and g != 0, or None unless the quotient is integral and
    leaves no remainder: g_0 must divide f_0, and long division from the top stops at the
    first quotient coefficient that lc(g) does not divide."""
    if f and (f[0] % g[0] if g[0] else f[0]):
        return None
    r, m = list(f), len(g) - 1
    q = [0] * max(len(r) - m, 0)
    for k in reversed(range(len(q))):
        q[k], rem = divmod(r[k + m], g[-1])
        if rem:
            return None
        r[k:k + m] = [x - q[k] * y for x, y in zip(r[k:k + m], g)]
    return None if any(r[:m]) else q


def derivative(p: Poly) -> Poly:
    return normalize([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p: f / gcd(f, f') over Z."""
    p = normalize(p)
    if degree(p) <= 0:
        return monic(p)
    g = _primitive_part(poly_gcd(p, derivative(p)))
    return monic([Fraction(c) for c in _divide_exact(_primitive_part(p), g)])


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
    is 1 in a faithful regular representation. The powers m^k unit, flattened,
    are the Krylov vectors of :func:`_krylov`.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    unit = Matrix.identity(m.nrows) if unit is None else unit
    shape = unit.nrows, unit.ncols
    return _krylov(lambda v: dict(enumerate((m @ Matrix.unflatten(v, *shape)).flatten())),
                   dict(enumerate(unit.flatten())), shape[0] * shape[1])[0]


def _krylov(times, one: dict, size: int, step: int = 1) -> tuple[Poly, list]:
    """(m, powers): the least monic m with m(x) one = 0, and powers[k] = step^k x^k one
    for k < deg m, where ``times`` maps a vector v to step x v, vectors as ``{col:
    value}`` with col < size. The vectors go into one integer echelon, each tagged with
    a 1 in column size + k; the first that reduces to tags alone is the first dependent
    power, and its tags, each times step^k, are the coefficients of m."""
    pivots, powers = {}, [one]

    def tagged():
        for k in range(size + 1):
            yield {**powers[k], size + k: 1}
            if next(reversed(pivots)) >= size:
                return  # the row of x^k is all tags
            powers.append(times(powers[k]))

    _echelon(tagged(), pivots)
    dep = pivots[next(reversed(pivots))]
    deg = max(dep) - size
    return ([Fraction(dep.get(size + k, 0) * step ** k, dep[size + deg] * step ** deg)
             for k in range(deg + 1)], powers[:deg])


# ---------------------------------------------------------------------------
# Factoring over Q: rational roots by Newton lifting, then Zassenhaus
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


def _inverse_mod(a: Poly, m: Poly) -> Poly:
    """The b of degree < deg m with a b = 1 mod m, for a prime to m (extended Euclid)."""
    r0, r1, t0, t1 = m, poly_mod(a, m), [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1, t0, t1 = r1, rem, t1, _sub(t0, poly_mul(quo, t1))
    return [c / r0[0] for c in t0]


def _crt_idempotent(p: Poly, q: Poly) -> Poly:
    """The e of degree < deg p with e = 1 mod q and e = 0 mod u = p / q, for a factor
    q of p prime to p / q: u (u^-1 mod q). For q = t - l, u comes by synthetic division
    and u^-1 mod q is 1 / u(l), with no extended Euclid."""
    if degree(q) != 1:
        u = poly_div_exact(p, q)
        return poly_mul(u, _inverse_mod(u, q))
    lam, u = -q[0] / q[1], [p[-1]]
    for c in reversed(p[1:-1]):
        u.append(c + lam * u[-1])
    if p[0] + lam * u[-1]:
        raise ValueError("inexact polynomial division")
    inv = 1 / reduce(lambda acc, c: acc * lam + c, u, Fraction(0))
    return [c * inv for c in reversed(u)]


def _lift_root(f: list, a: int, p: int, bound: int) -> tuple[int, int]:
    """(a, q): a simple root a mod p of the int polynomial f, Newton-lifted to a root mod
    q, the first p^(2^k) above ``bound``: a <- a - f(a) f'(a)^-1 mod q^2, as f'(a) is a
    unit mod p."""
    q = p
    while q <= bound:
        q *= q
        fa = dfa = 0
        for c in reversed(f):  # f(a) and f'(a) by one Horner pass
            fa, dfa = (fa * a + c) % q, (dfa * a + fa) % q
        a = (a - fa * pow(dfa, -1, q)) % q
    return a, q


def _lift(f: list, g: list, p: int, bound: int) -> tuple[list, int]:
    """(G, q): a monic irreducible factor g mod p of f, squarefree mod p, Newton-lifted to
    the monic G = g mod p dividing f mod q, the first p^(2^k), k > 0, above ``bound``: with
    e = (f mod g) / q and u = f'^-1 mod (g, q), g <- g + q e g' u mod g at q^2, as f' = g'
    (f / g) mod g; then u <- u (2 - u f'). u = f'^(p^deg g - 2) in F_p[t]/(g) at first."""
    df, q = [i * c for i, c in enumerate(f)][1:], p
    u = _mod_pow(df, p ** (len(g) - 1) - 2, g, p)
    while True:
        e = [c // q for c in _mod_divmod(f, g, q * q)[1]]
        s = _mod_mul(_mod_mul(e, [i * c for i, c in enumerate(g)][1:], q), u, q)
        s = _mod_divmod(s, g, q)[1]
        g, q = _mod_sub(g, [-q * c for c in s], q * q), q * q
        if q > bound:
            return g, q
        fd = _mod_divmod(df, g, q)[1]
        u = _mod_divmod(_mod_mul(u, _mod_sub([2], _mod_mul(u, fd, q), q), q), g, q)[1]


def _rational_roots(f: list, local: list, p: int) -> tuple[list, list]:
    """(roots, rest): the monic t - r for the rational roots r of the primitive int
    polynomial f, and rest = f over their product; ``local``, f's monic factors mod p, is
    left holding those of rest. The root a of each linear t - a in ``local`` is lifted by
    :func:`_lift_root` past 2 (lc + max |c_i|), which bounds lc r (Cauchy); the candidate r
    is the symmetric residue of lc a, over lc, kept when v t - u (r = u / v) divides rest
    exactly, and then its factor r mod p leaves ``local``."""
    roots = []
    for g in [g for g in local if len(g) == 2]:
        if g not in local:
            continue
        a, q = _lift_root(f, -g[0] % p, p, 2 * (f[-1] + max(map(abs, f))))
        b = f[-1] * a % q
        r = Fraction(b - q if 2 * b > q else b, f[-1])
        if (quo := _divide_exact(f, [-r.numerator, r.denominator])) is not None:
            f = quo
            local.remove([-r.numerator * pow(r.denominator, -1, p) % p, 1])
            roots.append([-r, Fraction(1)])
    return roots, f


def _zassenhaus(f: list, local: list, p: int) -> list[Poly]:
    """The irreducible factors of the primitive int polynomial f, given its monic factors
    mod p, ``local``: f itself, unlifted, for one; else Newton-lift each against f past 2
    lc 2^n |f|_2, which bounds lc times any factor of f (Mignotte), and keep the products
    of subsets, smallest first, whose primitive parts divide f exactly over Z."""
    if len(local) == 1:
        return [poly(f)]
    bound = 2 * f[-1] * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    lifts = [_lift(f, g, p, bound) for g in local]
    lifted, q = [g for g, _ in lifts], lifts[0][1]
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = reduce(lambda a, i: _mod_mul(a, lifted[i], q), subset, [f[-1]])
            g = _primitive_part([c - q if 2 * c > q else c for c in g])
            if (quo := _divide_exact(f, g)) is not None:
                found.append(g)
                f = quo
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return [poly(g) for g in found + [f]]


def factor(p: Poly) -> list[Poly]:
    """The monic irreducible factors over Q of a squarefree p, by degree, t - a by ascending a.

    f = den p in Z[t], lc = den, is factored mod the first odd prime dividing
    neither lc nor the discriminant (distinct-degree, then Cantor-Zassenhaus
    with a generator seeded 0). The rational roots come first, each linear
    factor mod p Newton-lifted and checked by exact division over Z
    (:func:`_rational_roots`); Zassenhaus (:func:`_zassenhaus`) runs only on
    what they leave: the other factors mod p, and any linear one whose lift
    did not divide.
    """
    p, n = monic(p), degree(p)
    if n <= 1:
        return [p] if n == 1 else []
    f = _primitive_part(p)  # den p, as it has a coefficient prime to each q | den
    den = f[-1]
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
    found, f = _rational_roots(f, local, prime)
    if local:
        found += _zassenhaus(f, local, prime)
    return sorted(map(monic, found), key=lambda q: (len(q), [-c for c in q]))


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------

def _semisimple_polynomial(m: Poly) -> Poly:
    """The P of degree < deg m with P(x) the semisimple part of any x with minimal
    polynomial m, by Newton's method in Q[t]/(m) (Chevalley; Couty, Esterle & Zarouf,
    2011): from a = t, a <- a - f(a) f'(a)^-1 mod m, f the squarefree part of m. As
    a = t mod f, f(a) is nilpotent mod m and f'(a) a unit; each step doubles the order
    of f(a), so it is 0 within ceil(log2(deg m)) + 1 rounds. Then f(P(x)) = 0, and x -
    P(x) is nilpotent, as f divides t - P."""
    f = squarefree_part(m)
    fp, a = derivative(f), [Fraction(0), Fraction(1)]
    if degree(f) == degree(m):  # m squarefree: f(t) = 0 mod m, so the first round returns t
        return poly_mod(a, m)

    def at(p):  # p(a) mod m, by Horner's rule
        return reduce(lambda acc, c: poly_mod(_sub(poly_mul(acc, a), [-c]), m), reversed(p), [])

    for _ in range(degree(m).bit_length() + 1):
        if not (fa := at(f)):
            return poly_mod(a, m)
        a = _sub(a, poly_mod(poly_mul(fa, _inverse_mod(at(fp), m)), m))
    raise RuntimeError("Newton iteration did not terminate (unreachable)")


def jordan_chevalley(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split m = s + n with s semisimple, n nilpotent, s n = n s.

    s = P(m) for P = :func:`_semisimple_polynomial` of m's minimal polynomial,
    found by Newton's method in Q[t]/(min_poly(m)) and evaluated once.
    """
    if not m.is_square():
        raise ValueError("Jordan-Chevalley of a non-square matrix")
    if m.nrows == 0:
        return m, m
    s = poly_eval_matrix(_semisimple_polynomial(min_poly(m)), m)
    return s, m - s
