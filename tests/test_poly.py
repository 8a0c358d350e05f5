"""Characteristic/minimal polynomials, factoring, Jordan-Chevalley split."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct.linalg import Matrix, vector
from liestruct.poly import (
    char_poly,
    derivative,
    factor_small,
    is_nilpotent_matrix,
    jordan_chevalley,
    min_poly,
    poly,
    poly_eval_matrix,
    poly_gcd,
    poly_mod,
    poly_mul,
    squarefree_part,
)


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
# factor_small
# ---------------------------------------------------------------------------


def test_factor_two_rational_roots():
    roots, quads, rem = factor_small(P(-1, 0, 1))
    assert sorted(r for r, _ in roots) == [F(-1), F(1)]
    assert quads == [] and rem == P(1)


def test_factor_irreducible_quadratic():
    roots, quads, rem = factor_small(P(1, 0, 1))
    assert roots == []
    assert quads == [(P(1, 0, 1), 1)]
    assert rem == P(1)


def test_factor_rootless_cubic_left_as_remainder():
    roots, quads, rem = factor_small(P(-2, 0, 0, 1))  # t^3 - 2
    assert roots == [] and quads == []
    assert rem == P(-2, 0, 0, 1)


def test_factor_multiplicities():
    p = poly_mul(poly_mul(P(-1, 1), P(-1, 1)), P(2, 1))
    roots, quads, rem = factor_small(p)
    assert dict(roots) == {F(1): 2, F(-2): 1}
    assert rem == P(1)


def test_factor_product_of_two_imaginary_quadratics():
    # (t^2+1)(t^2+4) has no rational roots; quartic splitter must find both
    p = poly_mul(P(1, 0, 1), P(4, 0, 1))
    roots, quads, rem = factor_small(p)
    assert roots == []
    assert sorted(q for q, _ in quads) == sorted([P(1, 0, 1), P(4, 0, 1)])
    assert rem == P(1)


def test_factor_product_of_two_real_quadratics():
    # (t^2-2)(t^2-3): rootless but splits into rational quadratics
    p = poly_mul(P(-2, 0, 1), P(-3, 0, 1))
    roots, quads, rem = factor_small(p)
    assert roots == []
    assert sorted(q for q, _ in quads) == sorted([P(-2, 0, 1), P(-3, 0, 1)])
    assert rem == P(1)


def test_factor_irreducible_quartic_stays_remainder():
    # t^4 + t + 1 is irreducible over Q (no rational roots, no quadratic split)
    p = P(1, 1, 0, 0, 1)
    roots, quads, rem = factor_small(p)
    assert roots == [] and quads == []
    assert rem == p


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
    assert is_nilpotent_matrix(n)
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


def _factor_oracle(sympy, p):
    """factor_small's answer, from sympy's complete factorization of p."""
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(p))
    _, factors = sympy.factor_list(expr, t)
    linear, rest = [], []
    for f, e in factors:
        coeffs = _fractions(sympy.Poly(f, t).monic().all_coeffs())[::-1]
        if len(coeffs) == 2:
            linear.append((-coeffs[0], e))
        else:
            rest.append((coeffs, e))
    rest_deg = sum((len(c) - 1) * e for c, e in rest)
    if rest_deg == 2 or (rest_deg == 4 and all(len(c) == 3 for c, _ in rest)):
        return sorted(linear), sorted(rest), P(1)
    remainder = P(1)
    for c, e in rest:
        for _ in range(e):
            remainder = poly_mul(remainder, c)
    return sorted(linear), [], remainder


def _seeded_polys():
    rng = random.Random(77)
    pool = [P(3, 1), P(1, 1), P(0, 1), P(F(-1, 2), 1), P(-5, 1), P(1, 0, 1), P(-2, 0, 1),
            P(1, 1, 1), P(1, -3, 1), P(-2, 0, 0, 1), P(1, 1, 0, 0, 1)]
    polys = [char_poly(m) for m in SEEDED]
    for _ in range(16):
        p = P(1)
        for f in rng.sample(pool, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 2)):
                p = poly_mul(p, f)
        polys.append(p)
    return polys


SEEDED_POLYS = _seeded_polys()


@pytest.mark.parametrize("idx", range(len(SEEDED_POLYS)))
def test_factor_small_matches_sympy_factor_list(sympy, idx):
    p = SEEDED_POLYS[idx]
    linear, quads, rem = factor_small(p)
    assert (linear, sorted(quads), rem) == _factor_oracle(sympy, p)


# ---------------------------------------------------------------------------
# jordan_chevalley against a characteristic-polynomial Newton reference
# ---------------------------------------------------------------------------


def _jordan_chevalley_reference(m):
    """Newton iteration on the squarefree part of the characteristic polynomial."""
    f = squarefree_part(char_poly(m))
    fp = derivative(f)
    a = m
    for _ in range(m.nrows.bit_length() + 1):
        fa = poly_eval_matrix(f, a)
        if fa.is_zero():
            return a, m - a
        a = a - fa @ poly_eval_matrix(fp, a).inverse()
    raise AssertionError("reference Newton iteration did not converge")


def _centroid_bases():
    from liestruct import centroid
    from liestruct.cli import parse_algebra

    specs = ("cur:sl:2,jet:1,3", "cur:sl:2,points:3", "gl:2", "cur:sl:2,jet:2,2")
    return [m for s in specs for m in centroid(parse_algebra(s)).basis_matrices()]


@pytest.mark.parametrize("idx", range(len(SEEDED)))
def test_jordan_chevalley_matches_char_poly_reference_on_seeded(idx):
    m = SEEDED[idx]
    assert jordan_chevalley(m) == _jordan_chevalley_reference(m)


def test_jordan_chevalley_matches_char_poly_reference_on_centroids():
    mats = _centroid_bases()
    assert any(not jordan_chevalley(m)[1].is_zero() for m in mats)  # some nilpotent parts
    for m in mats:
        assert jordan_chevalley(m) == _jordan_chevalley_reference(m)


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
