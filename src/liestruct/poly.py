"""Exact univariate polynomial arithmetic over Q.

Polynomials are lists of Fractions in ascending order of degree, so
``[a0, a1, a2]`` is ``a0 + a1 t + a2 t^2``. The zero polynomial is ``[]``.
Includes characteristic/minimal polynomials of rational matrices, a small
factoring routine (rational roots plus quadratic splitting of rootless
quartics through the resolvent cubic), and the additive Jordan-Chevalley
decomposition computed by Newton iteration.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

from .linalg import Matrix, frac, solve

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


def is_zero(p: Poly) -> bool:
    return not normalize(p)


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return normalize(
        [
            (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
            for i in range(n)
        ]
    )


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, [-c for c in q])


def poly_scale(c: Fraction, p: Poly) -> Poly:
    c = frac(c)
    return normalize([c * a for a in p])


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


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    x = frac(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_matrix(p: Poly, m: Matrix, unit: Optional[Matrix] = None) -> Matrix:
    """Evaluate p at a square matrix by Horner's rule.

    ``unit`` replaces the identity as m^0; pass the unit element when m lives
    in a unital subalgebra smaller than the full matrix algebra. Each step
    adds c * unit on the nonzero entries of the unit only (the diagonal, for
    the identity).
    """
    if unit is None:
        unit = Matrix.identity(m.nrows)
    spots = [(i, j, v) for i, row in enumerate(unit.rows) for j, v in enumerate(row) if v]
    acc = Matrix.zero(m.nrows, m.ncols)
    for c in reversed(p):
        acc = acc @ m
        if c:
            rows = [list(r) for r in acc.rows]
            for i, j, v in spots:
                rows[i][j] += c * v
            acc = Matrix(rows)
    return acc


def poly_str(p: Poly, var: str = "t") -> str:
    p = normalize(p)
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else "%s*" % abs(c)
            term = "%s%s" % (mag, var if i == 1 else "%s^%d" % (var, i))
            if c < 0:
                term = "-" + term
        if parts and not term.startswith("-"):
            parts.append("+")
        parts.append(term)
    return " ".join(parts).replace("+ -", "- ")


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
    m and unit (used when recursing into corner subalgebras eCe).
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    if unit is None:
        unit = Matrix.identity(n)
    powers = [unit.flatten()]
    current = unit
    for k in range(1, n * n + 2):
        current = current @ m
        target = current.flatten()
        coeff_matrix = Matrix.from_columns(powers)
        x = solve(coeff_matrix, target)
        if x is not None:
            return normalize([-c for c in x] + [Fraction(1)])
        powers.append(target)
    raise RuntimeError("minimal polynomial not found (unreachable)")


# ---------------------------------------------------------------------------
# Small factoring: rational roots, then quadratic splitting up to quartics
# ---------------------------------------------------------------------------

def _rational_square_root(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots (without multiplicity), by the rational root test."""
    p = normalize(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    # strip t^k factor
    k = 0
    while p[k] == 0:
        k += 1
    roots = set([Fraction(0)] if k else [])
    p = p[k:]
    if degree(p) >= 1:
        # clear denominators to integer coefficients
        den = 1
        for c in p:
            den = den * c.denominator // gcd(den, c.denominator)
        ip = [int(c * den) for c in p]
        a0, an = abs(ip[0]), abs(ip[-1])
        for r in _divisors(a0):
            for s in _divisors(an):
                for cand in (Fraction(r, s), Fraction(-r, s)):
                    if poly_eval(p, cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _split_rootless_quartic(p: Poly) -> Optional[tuple[Poly, Poly]]:
    """Factor a monic rootless quartic into two monic rational quadratics.

    Works through the resolvent cubic: for t^4 + p3 t^3 + p2 t^2 + p1 t + p0
    = (t^2 + a t + b)(t^2 + c t + d), the quantity y = b + d satisfies
    y^3 - p2 y^2 + (p3 p1 - 4 p0) y - (p3^2 p0 - 4 p2 p0 + p1^2) = 0.
    """
    p0, p1, p2, p3 = p[0], p[1], p[2], p[3]
    resolvent = poly(
        [-(p3 * p3 * p0 - 4 * p2 * p0 + p1 * p1), p3 * p1 - 4 * p0, -p2, 1]
    )
    for y in _rational_roots(resolvent):
        # b, d are roots of z^2 - y z + p0
        sqrt_bd = _rational_square_root(y * y - 4 * p0)
        # a, c are roots of z^2 - p3 z + (p2 - y)
        sqrt_ac = _rational_square_root(p3 * p3 - 4 * (p2 - y))
        if sqrt_bd is None or sqrt_ac is None:
            continue
        b, d = (y + sqrt_bd) / 2, (y - sqrt_bd) / 2
        a, c = (p3 + sqrt_ac) / 2, (p3 - sqrt_ac) / 2
        for aa, cc in ((a, c), (c, a)):
            if aa * d + b * cc == p1:
                return poly([b, aa, 1]), poly([d, cc, 1])
    return None


def factor_small(p: Poly):
    """Partial factorization over Q.

    Returns (linear_factors, quadratic_factors, remainder) where
    linear_factors is a list of (root, multiplicity), quadratic_factors a
    list of (monic quadratic with no rational root, multiplicity), and
    remainder the monic unfactored part (1 when fully factored). Rootless
    parts of degree <= 4 are split into quadratics when possible; higher
    degrees are returned whole.
    """
    p = monic(p)
    if degree(p) <= 0:
        return [], [], p if p else []
    linear = []
    for r in _rational_roots(p):
        mult = 0
        while True:
            q, rem = poly_divmod(p, poly([-r, 1]))
            if rem:
                break
            p, mult = q, mult + 1
        linear.append((r, mult))
    quadratics = []

    def extract(q: Poly):
        mult = 0
        nonlocal p
        while True:
            quo, rem = poly_divmod(p, q)
            if rem:
                break
            p, mult = quo, mult + 1
        if mult:
            quadratics.append((q, mult))

    while degree(p) >= 2:
        if degree(p) == 2:
            extract(list(p))
            continue
        if degree(p) == 4:
            split = _split_rootless_quartic(p)
            if split is not None:
                extract(split[0])
                extract(split[1])
                continue
        break  # rootless cubic, stubborn quartic, or degree >= 5
    return linear, quadratics, p


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
