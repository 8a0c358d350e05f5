"""Characteristic/minimal polynomials, factoring, Jordan-Chevalley split."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct.linalg import Matrix, solve, vector
from liestruct.poly import (
    char_poly,
    derivative,
    factor,
    jordan_chevalley,
    min_poly,
    monic,
    normalize,
    poly,
    poly_eval_matrix,
    poly_gcd,
    poly_mod,
    poly_mul,
    squarefree_part,
)

from conftest import block_diag, is_nilpotent, jordan_chevalley_reference


def M(rows):
    return Matrix(tuple(vector(r) for r in rows))


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return poly(coeffs)


# ---------------------------------------------------------------------------
# char_poly / min_poly
# ---------------------------------------------------------------------------


def test_char_poly_nilpotent_block():
    assert char_poly(M([[0, 1], [0, 0]])) == P(0, 0, 1)  # t^2


def test_char_poly_swap():
    assert char_poly(M([[0, 1], [1, 0]])) == P(-1, 0, 1)  # t^2 - 1


def test_char_poly_rotation():
    assert char_poly(M([[0, -1], [1, 0]])) == P(1, 0, 1)  # t^2 + 1


def test_char_poly_companion_cubic():
    # companion matrix of t^3 - 2t - 5
    c = M([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(c) == P(-5, -2, 0, 1)


def test_min_poly_identity():
    assert min_poly(Matrix.identity(3)) == P(-1, 1)  # t - 1


def test_min_poly_diagonal_repeated():
    d = M([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert min_poly(d) == poly_mul(P(-1, 1), P(-2, 1))  # (t-1)(t-2)


def test_min_poly_jordan_block():
    assert min_poly(M([[0, 1], [0, 0]])) == P(0, 0, 1)


# ---------------------------------------------------------------------------
# squarefree_part
# ---------------------------------------------------------------------------


def test_squarefree_of_t_squared():
    assert squarefree_part(P(0, 0, 1)) == P(0, 1)


def test_squarefree_with_repeated_root():
    p = poly_mul(poly_mul(P(-1, 1), P(-1, 1)), P(2, 1))  # (t-1)^2 (t+2)
    assert squarefree_part(p) == poly_mul(P(-1, 1), P(2, 1))


def test_squarefree_irreducible_untouched():
    assert squarefree_part(P(1, 0, 1)) == P(1, 0, 1)


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def test_factor_two_rational_roots():
    assert factor(P(-1, 0, 1)) == [P(1, 1), P(-1, 1)]  # roots -1, 1 in order


def test_factor_irreducible_quadratic():
    assert factor(P(1, 0, 1)) == [P(1, 0, 1)]


def test_factor_rootless_cubic_is_irreducible():
    assert factor(P(-2, 0, 0, 1)) == [P(-2, 0, 0, 1)]  # t^3 - 2


def test_factor_multiplicities():
    # factor takes the squarefree part, so a repeated factor is refused
    p = poly_mul(poly_mul(P(-1, 1), P(-1, 1)), P(2, 1))
    with pytest.raises(ValueError, match="squarefree"):
        factor(p)
    assert factor(squarefree_part(p)) == [P(2, 1), P(-1, 1)]


def test_factor_product_of_two_imaginary_quadratics():
    # (t^2+1)(t^2+4) has no rational roots, and both quadratics come back
    assert factor(poly_mul(P(1, 0, 1), P(4, 0, 1))) == [P(4, 0, 1), P(1, 0, 1)]


def test_factor_product_of_two_real_quadratics():
    # (t^2-2)(t^2-3): rootless but splits into rational quadratics
    assert factor(poly_mul(P(-2, 0, 1), P(-3, 0, 1))) == [P(-2, 0, 1), P(-3, 0, 1)]


def test_factor_irreducible_quartic():
    # t^4 + t + 1 is irreducible over Q (no rational roots, no quadratic split)
    assert factor(P(1, 1, 0, 0, 1)) == [P(1, 1, 0, 0, 1)]


def test_factor_two_cubic_fields():
    # (t^3 - t - 1)(t^3 - t + 1): no rational root, one degree of splitting only
    p = poly_mul(P(-1, -1, 0, 1), P(1, -1, 0, 1))
    assert factor(p) == [P(1, -1, 0, 1), P(-1, -1, 0, 1)]


def test_factor_of_a_huge_non_square_constant_is_irreducible():
    # t^2 - (10^40 + 1): a rational root would be a divisor of 10^40 + 1
    p = P(-(10**40 + 1), 0, 1)
    assert factor(p) == [p]


def test_factor_monic_rational_and_trivial_inputs():
    assert factor(P(F(-1, 3), F(1, 3), F(2, 3))) == [P(1, 1), P(F(-1, 2), 1)]  # 2/3 (t+1)(t-1/2)
    assert factor(P(F(5, 7), 1)) == [P(F(5, 7), 1)]
    assert factor(P(3)) == []


def _irreducibles(rng, count, max_degree, bits):
    """Distinct monic polynomials of degree 1..max_degree that are irreducible by
    construction: linear ones, and Eisenstein ones at a prime q (every
    coefficient but the leading a multiple of q, the constant not of q^2),
    rescaled t -> t / s and shifted t -> t + a, both of which keep
    irreducibility; each has a coefficient of ``bits`` bits or more."""
    out = []
    while len(out) < count:
        deg, q = rng.randint(1, max_degree), rng.choice((2, 3, 5, 7))
        body = [q * rng.randint(-(2**bits), 2**bits) for _ in range(deg)]
        body[0] = q * rng.choice([c for c in range(1, 2 * q) if c % q]) * rng.choice((-1, 1))
        if deg == 1:
            body[0] = rng.randint(2**bits, 2**(bits + 1)) * rng.choice((-1, 1))
        s, a = rng.randint(1, 9), F(rng.randint(-5, 5), rng.randint(1, 3))
        p = P(1)
        for i, c in enumerate(body + [1]):  # sum c_i ((t + a) s)^i
            p = _poly_add(p, [x * c for x in _power(P(a * s, s), i)])
        p = [c / p[-1] for c in p]
        if p not in out:
            out.append(p)
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def _power(p, k):
    out = P(1)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def _seeded_products():
    """(product, its factors) of 1 to 4 distinct seeded irreducibles of degree <= 12."""
    rng, out = random.Random(19), []
    for _ in range(20):
        factors = _irreducibles(rng, rng.randint(1, 4), 12, 64)
        p = P(1)
        for q in factors:
            p = poly_mul(p, q)
        out.append((p, factors))
    return out


SEEDED_PRODUCTS = _seeded_products()


def test_seeded_products_reach_degree_twelve_and_huge_coefficients():
    assert max(len(q) - 1 for _, qs in SEEDED_PRODUCTS for q in qs) == 12
    assert all(max(abs(c.numerator) for c in p) >= 2**64 for p, _ in SEEDED_PRODUCTS)


@pytest.mark.parametrize("idx", range(len(SEEDED_PRODUCTS)))
def test_factor_returns_the_constructed_irreducibles(idx):
    p, factors = SEEDED_PRODUCTS[idx]
    got = factor(p)
    assert sorted(got) == sorted(factors)
    product = P(1)
    for q in got:
        product = poly_mul(product, q)
    assert product == p


# ---------------------------------------------------------------------------
# jordan_chevalley
# ---------------------------------------------------------------------------


def test_jc_unipotent():
    s, n = jordan_chevalley(M([[1, 1], [0, 1]]))
    assert s == Matrix.identity(2)
    assert n == M([[0, 1], [0, 0]])


def test_jc_already_semisimple_split_spectrum():
    m = M([[0, 1], [1, 0]])
    s, n = jordan_chevalley(m)
    assert s == m and n.is_zero()


def test_jc_already_semisimple_complex_spectrum():
    m = M([[0, -1], [1, 0]])
    s, n = jordan_chevalley(m)
    assert s == m and n.is_zero()


def test_jc_mixed_blocks():
    # diag(Jordan(2; eigenvalue 3), 5)
    m = M([[3, 1, 0], [0, 3, 0], [0, 0, 5]])
    s, n = jordan_chevalley(m)
    assert s == M([[3, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert n == M([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# property tests on random integer matrices
# ---------------------------------------------------------------------------

entries = st.integers(min_value=-4, max_value=4)


def square_matrices(max_dim):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.builds(
            M,
            st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
            ),
        )
    )


@settings(max_examples=40, deadline=None)
@given(square_matrices(5))
def test_property_cayley_hamilton(m):
    assert poly_eval_matrix(char_poly(m), m).is_zero()


@settings(max_examples=40, deadline=None)
@given(square_matrices(5))
def test_property_min_poly_divides_char_and_annihilates(m):
    mp = min_poly(m)
    assert poly_eval_matrix(mp, m).is_zero()
    assert poly_mod(char_poly(m), mp) == []


@settings(max_examples=25, deadline=None)
@given(square_matrices(5))
def test_property_jordan_chevalley(m):
    s, n = jordan_chevalley(m)
    assert s + n == m
    assert s @ n == n @ s
    assert is_nilpotent(n)
    mp = min_poly(s)
    assert mp == squarefree_part(mp)


@settings(max_examples=40, deadline=None)
@given(square_matrices(4))
def test_property_squarefree_has_no_repeated_factor(m):
    p = char_poly(m)
    sf = squarefree_part(p)
    from liestruct.poly import derivative

    g = poly_gcd(sf, derivative(sf))
    assert g == P(1)


# ---------------------------------------------------------------------------
# sympy oracles on seeded matrices, some with entries of 2^64 and more
# ---------------------------------------------------------------------------


def _unitriangular(rng, n, lower, big):
    lo, hi = (2**32, 2**34) if big else (-3, 3)
    return M([
        [1 if r == c else (rng.randint(lo, hi) if (r > c) == lower else 0) for c in range(n)]
        for r in range(n)
    ])


def _jordan_form(rng, n):
    """Block diagonal: Jordan blocks on repeated rational eigenvalues and on
    the rotation [[0, -1], [1, 0]], so min_poly != char_poly is common."""
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        size = min(rng.choice((1, 2, 2, 3)), n - i)
        if size == 2 and rng.random() < 0.4:
            rows[i][i + 1], rows[i + 1][i] = -1, 1  # eigenvalues +-i
        else:
            ev = F(rng.choice((-2, -1, 0, 1, 3)), rng.choice((1, 2)))
            for d in range(size):
                rows[i + d][i + d] = ev
                if d + 1 < size:
                    rows[i + d][i + d + 1] = 1
        i += size
    return M(rows)


def _seeded_matrices():
    rng = random.Random(2024)
    mats = [M([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]) for n in (2, 3, 4, 5)]
    for n, big in ((3, False), (4, False), (5, False), (3, True), (4, True), (5, True)):
        p = _unitriangular(rng, n, True, big) @ _unitriangular(rng, n, False, big)
        mats.append(p @ _jordan_form(rng, n) @ p.inverse())
    # a repeated rotation block with a nilpotent part: s = diag(R, R), n = [[0, I], [0, 0]]
    mats.append(M([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]))
    return mats


SEEDED = _seeded_matrices()


def test_seeded_matrices_include_huge_entries_and_derogatory_ones():
    huge = [m for m in SEEDED if max(abs(x) for r in m.rows for x in r) >= 2**64]
    assert len(huge) >= 3
    assert sum(len(min_poly(m)) <= m.nrows for m in SEEDED) >= 3  # min_poly != char_poly


def _to_sympy(sympy, m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in m.rows])


def _fractions(coeffs):
    return [F(int(c.p), int(c.q)) for c in coeffs]


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_char_poly_matches_sympy(sympy, idx):
    m = SEEDED[idx]
    expected = _fractions(_to_sympy(sympy, m).charpoly().all_coeffs())[::-1]
    assert char_poly(m) == expected


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_min_poly_matches_sympy_smallest_dependent_power(sympy, idx):
    m = SEEDED[idx]
    sm, n = _to_sympy(sympy, m), m.nrows
    powers = [(sm**k).reshape(n * n, 1) for k in range(n + 1)]
    for d in range(1, n + 1):
        null = sympy.Matrix.hstack(*powers[: d + 1]).nullspace()
        if null:
            assert len(null) == 1
            assert min_poly(m) == _fractions(list(null[0] / null[0][d]))
            return
    pytest.fail("no dependent power up to the size")


def _reference_min_poly(m, unit=None):
    """One ``solve`` per power: the first m^k in the span of the lower powers."""
    current = Matrix.identity(m.nrows) if unit is None else unit
    powers = [current.flatten()]
    for _ in range(m.nrows * m.nrows + 1):
        current = current @ m
        x = solve(Matrix.from_columns(powers), current.flatten())
        if x is not None:
            return normalize([-c for c in x] + [F(1)])
        powers.append(current.flatten())
    raise AssertionError("no dependent power")


def _corner_unit(rng, n):
    """q diag(1, ..., 1, 0) q^-1 for a seeded unimodular q."""
    q = _unitriangular(rng, n, True, False) @ _unitriangular(rng, n, False, False)
    return q @ M([[1 if r == c < n - 1 else 0 for c in range(n)] for r in range(n)]) @ q.inverse()


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_min_poly_matches_one_solve_per_power(idx):
    m = SEEDED[idx]
    expected = _reference_min_poly(m)
    assert min_poly(m) == expected
    assert min_poly(m, unit=Matrix.identity(m.nrows)) == expected


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_min_poly_with_a_corner_unit_matches_one_solve_per_power(idx):
    m = SEEDED[idx]
    e = _corner_unit(random.Random(500 + idx), m.nrows)
    assert e @ e == e and e != Matrix.identity(m.nrows)
    corner = e @ m @ e  # an element of the unital algebra e M e
    expected = _reference_min_poly(corner, e)
    assert min_poly(corner, unit=e) == expected
    assert poly_eval_matrix(expected, corner, unit=e).is_zero()


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_min_poly_of_a_column_is_its_least_annihilator(idx):
    # the least q with q(m) v = 0, by one solve per product m^k v
    m, rng = SEEDED[idx], random.Random(700 + idx)
    v = M([[rng.randint(-2, 2)] for _ in range(m.nrows - 1)] + [[1]])
    krylov = [v]
    while (x := solve(Matrix.from_columns([w.flatten() for w in krylov]),
                      (m @ krylov[-1]).flatten())) is None:
        krylov.append(m @ krylov[-1])
    expected = normalize([-c for c in x] + [F(1)])
    assert min_poly(m, unit=v) == expected
    assert poly_eval_matrix(expected, m, unit=v).is_zero()
    assert poly_mod(min_poly(m), expected) == []
    p = P(F(-3, 2), 0, 5, F(1, 7), -1)
    assert poly_eval_matrix(p, m, unit=v) == poly_eval_matrix(p, m) @ v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_poly_of_scalars_and_zero(n):
    assert min_poly(Matrix.zero(n, n)) == _reference_min_poly(Matrix.zero(n, n)) == P(0, 1)
    three = Matrix.identity(n).scale(3)
    assert min_poly(three) == _reference_min_poly(three) == P(-3, 1)


def _factor_oracle(sympy, p):
    """The monic irreducible factors of p from sympy's factor_list, in factor's order."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(p))
    _, factors = sympy.factor_list(expr, t)
    monics = [_fractions(sympy.Poly(f, t).monic().all_coeffs())[::-1] for f, _ in factors]
    return sorted(monics, key=lambda q: (len(q), [-c for c in q]))


def _seeded_polys():
    """Squarefree parts of seeded characteristic polynomials, and products of small
    irreducibles."""
    rng = random.Random(77)
    pool = [P(3, 1), P(1, 1), P(0, 1), P(F(-1, 2), 1), P(-5, 1), P(1, 0, 1), P(-2, 0, 1),
            P(1, 1, 1), P(1, -3, 1), P(-2, 0, 0, 1), P(1, 1, 0, 0, 1)]
    polys = [squarefree_part(char_poly(m)) for m in SEEDED]
    for _ in range(16):
        p = P(1)
        for f in rng.sample(pool, rng.randint(1, 3)):
            p = poly_mul(p, f)
        polys.append(p)
    return polys


SEEDED_POLYS = _seeded_polys()


@pytest.mark.parametrize("idx", range(len(SEEDED_POLYS)))
def test_factor_small_matches_sympy_factor_list(sympy, idx):
    # small polynomials: degree <= 8, numerators and denominators of <= 14 bits
    p = SEEDED_POLYS[idx]
    assert factor(p) == _factor_oracle(sympy, p)


@pytest.mark.parametrize("idx", range(len(SEEDED_PRODUCTS)))
def test_factor_of_large_products_matches_sympy_factor_list(sympy, idx):
    p = SEEDED_PRODUCTS[idx][0]
    assert factor(p) == _factor_oracle(sympy, p)


def _with_square(idx):
    """(p, p q^2) for the seeded product p and q one of its irreducible factors."""
    p, factors = SEEDED_PRODUCTS[idx]
    q = factors[idx % len(factors)]
    return p, poly_mul(p, poly_mul(q, q))


@pytest.mark.parametrize("idx", range(len(SEEDED_PRODUCTS)))
def test_squarefree_part_drops_a_squared_factor(idx):
    # degree up to 47, numerators up to 516 bits
    p, pq2 = _with_square(idx)
    assert squarefree_part(pq2) == monic(p)


@pytest.mark.parametrize("idx", range(0, len(SEEDED_PRODUCTS), 3))
def test_squarefree_part_matches_sympy_sqf_part(sympy, idx):
    pq2 = _with_square(idx)[1]
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(pq2))
    expected = _fractions(sympy.Poly(sympy.sqf_part(expr), t).monic().all_coeffs())[::-1]
    assert squarefree_part(pq2) == expected


# ---------------------------------------------------------------------------
# jordan_chevalley against the dense characteristic-polynomial Newton (conftest)
# ---------------------------------------------------------------------------


def _centroid_bases():
    from liestruct import centroid
    from liestruct.cli import parse_algebra

    specs = ("cur:sl:2,jet:1,3", "cur:sl:2,points:3", "gl:2", "cur:sl:2,jet:2,2")
    return [m for s in specs for m in centroid(parse_algebra(s)).basis_matrices()]


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_jordan_chevalley_matches_char_poly_reference_on_seeded(idx):
    m = SEEDED[idx]
    assert jordan_chevalley(m) == jordan_chevalley_reference(m)


def test_jordan_chevalley_matches_char_poly_reference_on_centroids():
    mats = _centroid_bases()
    assert any(not jordan_chevalley(m)[1].is_zero() for m in mats)  # some nilpotent parts
    for m in mats:
        assert jordan_chevalley(m) == jordan_chevalley_reference(m)


def _companion(*coeffs):
    """The companion matrix of t^n + c_{n-1} t^{n-1} + ... + c_0, from c_0..c_{n-1}."""
    n = len(coeffs)
    return M([[int(r == c + 1) for c in range(n - 1)] + [-coeffs[r]] for r in range(n)])


def _jordan_block(n, ev):
    return M([[ev if r == c else int(c == r + 1) for c in range(n)] for r in range(n)])


# Nilpotent parts on non-split primary blocks, so the Newton step does work:
# companion((t^2 + 1)^2) + J_2(3) + companion(t^3 - 2), J_3(-1) + companion((t^2 - 2)^2)
# (two steps for J_3), companion((t^3 - 2)^2) + companion(t^2 + t + 1)
NEWTON_BLOCKS = (
    (_companion(1, 0, 2, 0), _jordan_block(2, 3), _companion(-2, 0, 0)),
    (_jordan_block(3, -1), _companion(4, 0, -4, 0)),
    (_companion(4, 0, 0, -4, 0, 0), _companion(1, 1)),
)


def _newton_reference(m):
    """Newton's iteration a <- a - f(a) f'(a)^-1 mod m from a = t, f the squarefree part
    of m, run until f(a) = 0 mod m, with no shortcut for a squarefree m."""
    from liestruct.poly import _inverse_mod

    f = squarefree_part(m)
    a = P(0, 1)

    def at(p):
        acc = []
        for c in reversed(p):
            acc = poly_mod(normalize([x - y for x, y in itertools.zip_longest(
                poly_mul(acc, a), [-c], fillvalue=0)]), m)
        return acc

    while fa := at(f):
        a = normalize([x - y for x, y in itertools.zip_longest(
            a, poly_mod(poly_mul(fa, _inverse_mod(at(derivative(f)), m)), m), fillvalue=0)])
    return poly_mod(a, m)


SQUAREFREE = (P(5), P(-3, 1), P(1, 0, 1), P(-2, 0, 0, 1), poly_mul(P(1, 1), P(-2, 0, 1)),
              poly_mul(P(1, 0, 1), P(-1, -1, 0, 1)), P(F(1, 2), 3), poly_mul(P(0, 1), P(-7, 2)))
REPEATED = (P(0, 0, 1), poly_mul(P(1, 0, 1), P(1, 0, 1)), poly_mul(P(-2, 0, 1), P(3, 1)),
            poly_mul(poly_mul(P(-1, 1), P(-1, 1)), P(1, 1, 1)))


@pytest.mark.parametrize("m", SQUAREFREE + REPEATED)
def test_semisimple_polynomial_equals_the_full_newton_iteration(m):
    from liestruct.poly import _semisimple_polynomial, degree

    got = _semisimple_polynomial(m)
    assert got == _newton_reference(m)
    if m in SQUAREFREE:  # returned at once: t mod m
        assert degree(squarefree_part(m)) == degree(m) and got == poly_mod(P(0, 1), m)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("idx", range(len(NEWTON_BLOCKS)))
def test_jordan_chevalley_matches_reference_on_conjugated_primary_blocks(idx, seed):
    block = block_diag(*NEWTON_BLOCKS[idx])
    rng, n = random.Random(seed), block.nrows
    p = _unitriangular(rng, n, True, True) @ _unitriangular(rng, n, False, True)
    m = p @ block @ p.inverse()
    assert max(abs(x.numerator) for r in m.rows for x in r).bit_length() >= 60
    s, nil = jordan_chevalley(m)
    assert not nil.is_zero() and (s, nil) == jordan_chevalley_reference(m)


# ---------------------------------------------------------------------------
# poly_eval_matrix against plain Horner
# ---------------------------------------------------------------------------


def _horner_reference(p, m, unit):
    acc = Matrix.zero(m.nrows, m.ncols)
    for c in reversed(p):
        acc = acc @ m + unit.scale(c)
    return acc


def _corner(m, seed):
    """(e, e m e) for a rank-(n-1) idempotent e = q diag(1, .., 1, 0) q^-1, q unimodular."""
    rng = random.Random(seed)
    n = m.nrows
    q = _unitriangular(rng, n, True, False) @ _unitriangular(rng, n, False, False)
    e = q @ M([[int(r == c < n - 1) for c in range(n)] for r in range(n)]) @ q.inverse()
    return e, e @ m @ e


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_poly_eval_matrix_matches_horner_reference(idx):
    m = SEEDED[idx]
    p = P(F(-3, 2), 0, 5, F(1, 7), -1)
    ident = Matrix.identity(m.nrows)
    assert poly_eval_matrix(p, m) == _horner_reference(p, m, ident)
    assert poly_eval_matrix(min_poly(m), m).is_zero()
    e, corner = _corner(m, idx)
    assert e @ e == e and e != ident and any(e[r, c] for r in range(m.nrows) for c in range(r))
    assert poly_eval_matrix(p, corner, unit=e) == _horner_reference(p, corner, e)
    assert poly_eval_matrix([], m).is_zero()
