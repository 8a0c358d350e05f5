"""Exact linear algebra: row reduction, kernels, solving, subspaces."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct.linalg import (
    Matrix,
    Subspace,
    _echelon,
    kernel_basis,
    kernel_of_rows,
    kron,
    row_reduce,
    solve,
    vector,
)


def M(rows):
    return Matrix(tuple(vector(r) for r in rows))


# ---------------------------------------------------------------------------
# row_reduce
# ---------------------------------------------------------------------------


def test_row_reduce_proportional_rows():
    rref, rank, pivots = row_reduce(M([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == (0,)
    assert rref.rows[0] == vector([1, 2])
    assert rref.rows[1] == vector([0, 0])


def test_row_reduce_identity_fixed_point():
    ident = Matrix.identity(3)
    rref, rank, pivots = row_reduce(ident)
    assert rref == ident
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_row_reduce_permutation_matrix():
    rref, rank, pivots = row_reduce(M([[0, 1], [1, 0]]))
    assert rref == Matrix.identity(2)
    assert rank == 2


def test_row_reduce_fractions_normalized():
    rref, rank, _ = row_reduce(M([[F(1, 2), F(1, 3)], [F(3), F(2)]]))
    # second row is 6x the first: rank 1, leading entry scaled to 1
    assert rank == 1
    assert rref.rows[0] == vector([1, F(2, 3)])


# ---------------------------------------------------------------------------
# kernel_basis / kernel_of_rows
# ---------------------------------------------------------------------------


def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(2)).is_zero()


def test_kernel_of_zero_matrix_is_full():
    assert kernel_basis(Matrix.zero(2, 3)) == Subspace.full(3)


def test_kernel_single_equation():
    ker = kernel_basis(M([[1, 1]]))
    assert ker == Subspace.span([vector([1, -1])], 2)
    assert ker.dim == 1
    assert ker.contains(vector([1, -1]))


def test_kernel_of_rows_streams_generator():
    rows = (vector(r) for r in [[1, 0, 1], [0, 1, 1]])
    ker = kernel_of_rows(rows, 3)
    assert ker.dim == 1
    assert ker.contains(vector([-1, -1, 1]))


# ---------------------------------------------------------------------------
# kernel_of_rows against sympy's nullspace
# ---------------------------------------------------------------------------


def _sympy_kernel(sympy, rows, ncols):
    """Canonical (RREF, monic pivots) basis of the kernel, computed by sympy."""
    mat = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
        or [[0] * ncols]
    )
    null = mat.nullspace()
    if not null:
        return ()
    rref, _ = sympy.Matrix.hstack(*null).T.rref()
    return tuple(
        tuple(F(int(x.p), int(x.q)) for x in rref.row(i)) for i in range(len(null))
    )


def _random_sparse_rows(rng, nrows, ncols, big=False):
    rows = []
    for _ in range(nrows):
        row = [F(0)] * ncols
        for j in range(ncols):
            if rng.random() < 0.25:
                if big:
                    num = rng.randint(2**64, 2**80) * rng.choice((-1, 1))
                    den = rng.randint(2**64, 2**80)
                else:
                    num, den = rng.randint(-5, 5), rng.randint(1, 4)
                row[j] = F(num, den)
        rows.append(row)
    return rows


def _assert_kernel_matches_sympy(sympy, rows, ncols):
    expected = _sympy_kernel(sympy, rows, ncols)
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    assert kernel_of_rows(rows, ncols).rows == expected
    assert kernel_of_rows(sparse, ncols).rows == expected


@pytest.mark.parametrize("seed", range(12))
def test_kernel_of_rows_matches_sympy_on_random_sparse_rows(sympy, seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 12)
    rows = _random_sparse_rows(rng, rng.randint(1, 14), ncols)
    _assert_kernel_matches_sympy(sympy, rows, ncols)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_of_rows_matches_sympy_on_large_entries(sympy, seed):
    rng = random.Random(100 + seed)
    ncols = rng.randint(3, 8)
    rows = _random_sparse_rows(rng, ncols - 1, ncols, big=True)
    # a dependent row forces cancellation of the large entries
    rows.append([2 * a - F(3, 7) * b for a, b in zip(rows[0], rows[-1])])
    _assert_kernel_matches_sympy(sympy, rows, ncols)


def _late_pivot_system(rng, ncols, rank):
    """rank - 1 dense rows with large entries, many integer combinations of
    them, then one dense row outside their span (checked by the rank)."""
    base = [[F(rng.randint(2**64, 2**80) * rng.choice((-1, 1)), rng.randint(1, 2**40))
             for _ in range(ncols)] for _ in range(rank - 1)]
    rows = list(base)
    for _ in range(3 * ncols):
        coeffs = [rng.randint(-9, 9) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), F(0)) for j in range(ncols)])
    rows.append([F(rng.randint(1, 2**70), rng.randint(1, 2**20)) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_kernel_of_rows_matches_sympy_after_many_dependent_rows(sympy, seed):
    # the last row brings the last pivot, held by every earlier pivot row
    rng = random.Random(300 + seed)
    ncols = rng.randint(4, 9)
    rank = rng.randint(2, ncols)
    rows = _late_pivot_system(rng, ncols, rank)
    _assert_kernel_matches_sympy(sympy, rows, ncols)
    assert kernel_of_rows(rows, ncols).dim == ncols - rank


def _assert_pivots_reduced(pivots):
    for c, row in pivots.items():
        assert row and min(row) == c
        assert not [k for k in row if k != c and k in pivots]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("form", ["dense", "sparse"])
def test_echelon_keeps_every_pivot_row_reduced(seed, form):
    rng = random.Random(400 + seed)
    ncols = rng.randint(4, 9)
    rank = rng.randint(2, ncols)
    dense = rows = _late_pivot_system(rng, ncols, rank)
    if form == "sparse":
        rows = [{j: x for j, x in enumerate(r) if x} for r in dense]
    pivots = {}

    def checked(rows):
        for row in rows:
            _assert_pivots_reduced(pivots)  # after the row before
            yield row

    _echelon(checked(rows[:-1]), pivots)
    assert len(pivots) == rank - 1
    before = [set(row) for row in pivots.values()]
    views = _echelon([rows[-1]], pivots)
    lead = next(reversed(pivots))
    # every earlier pivot row held the late pivot's column, and now none
    # holds it, or any other pivot's column
    assert all(lead in cols for cols in before)
    _assert_pivots_reduced(pivots)
    assert sorted(pivots) == sorted(views) and len(pivots) == rank
    assert {c: list(v) for c, v in views.items()} == {c: list(r.values()) for c, r in pivots.items()}
    # the rows are the RREF up to the scale of each row
    rref, _, cols = row_reduce(M(dense))
    assert cols == tuple(sorted(pivots))
    for r, c in zip(rref.rows, cols):
        row = pivots[c]
        assert tuple(F(row.get(j, 0), row[c]) for j in range(ncols)) == r


def test_echelon_rows_that_end_at_zero_leave_the_pivots_unchanged():
    rng = random.Random(5)
    rows = _late_pivot_system(rng, 6, 4)
    pivots = {}
    _echelon(rows[:3], pivots)
    before = {c: dict(r) for c, r in pivots.items()}
    _echelon(rows[3:-1], pivots)
    assert pivots == before


def test_kernel_of_rows_matches_sympy_on_degenerate_inputs(sympy):
    _assert_kernel_matches_sympy(sympy, [], 4)
    _assert_kernel_matches_sympy(sympy, [[F(0)] * 4] * 3, 4)
    full_rank = [[F(1), F(2), F(0)], [F(0), F(1, 3), F(-1)], [F(5), F(0), F(1, 2)]]
    _assert_kernel_matches_sympy(sympy, full_rank, 3)
    assert kernel_of_rows(full_rank, 3).is_zero()


# ---------------------------------------------------------------------------
# kernel_of_rows against the standard-order construction
# ---------------------------------------------------------------------------


def _dense(row, ncols):
    if not isinstance(row, dict):
        return list(row)
    out = [F(0)] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _standard_kernel_vectors(rows, ncols):
    """One vector per free column of the standard-order RREF: 1 at the free
    column j, minus the RREF entries of column j at the pivot columns."""
    dense = [_dense(r, ncols) for r in rows]
    rref, _, pivots = row_reduce(M(dense)) if dense else (None, 0, ())
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [F(0)] * ncols
            v[j] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -rref.rows[r][j]
            basis.append(tuple(v))
    return tuple(basis)


def _reference_kernel(rows, ncols):
    """The kernel by the standard-order construction, reduced once more."""
    return Subspace.span(_standard_kernel_vectors(rows, ncols), ncols)


def _random_rows(rng, nrows, ncols, density, big=False):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                if big:
                    x = F(rng.randint(2**64, 2**90) * rng.choice((-1, 1)), rng.randint(1, 2**70))
                else:
                    x = F(rng.randint(-7, 7), rng.randint(1, 5))
                if x:
                    row[j] = x
        rows.append(row)
    return rows


def _assert_kernel_matches_reference(rows, ncols):
    expected = _reference_kernel(rows, ncols)
    for form in ([_dense(r, ncols) for r in rows], rows, (r for r in rows)):
        ker = kernel_of_rows(form, ncols)
        assert ker.rows == expected.rows
        assert ker.pivots == expected.pivots
        assert ker.ambient_dim == ncols
    return expected


@pytest.mark.parametrize("seed", range(24))
def test_kernel_of_rows_matches_reference(seed):
    rng = random.Random(7000 + seed)
    ncols = rng.randint(1, 14)
    rows = _random_rows(rng, rng.randint(0, ncols + 2), ncols, rng.choice((0.15, 0.35, 0.7)),
                        big=seed % 4 == 3)
    _assert_kernel_matches_reference(rows, ncols)


def test_kernel_reference_cases_include_noncanonical_standard_bases():
    """The standard-order vectors need the second reduction on most seeds,
    so the comparison above is not vacuous."""
    noncanonical = 0
    for seed in range(24):
        rng = random.Random(7000 + seed)
        ncols = rng.randint(1, 14)
        rows = _random_rows(rng, rng.randint(0, ncols + 2), ncols,
                            rng.choice((0.15, 0.35, 0.7)), big=seed % 4 == 3)
        noncanonical += _standard_kernel_vectors(rows, ncols) != _reference_kernel(rows, ncols).rows
    assert noncanonical >= 6


def test_kernel_of_one_equation_is_canonical_without_a_second_reduction():
    # x0 + x1 + x2 = 0: the standard-order vectors (-1, 1, 0), (-1, 0, 1)
    # both lead at column 0; the canonical basis is (1, 0, -1), (0, 1, -1)
    rows = [[F(1), F(1), F(1)]]
    assert _standard_kernel_vectors(rows, 3) == ((-1, 1, 0), (-1, 0, 1))
    ker = _assert_kernel_matches_reference(rows, 3)
    assert ker.rows == ((1, 0, -1), (0, 1, -1)) and ker.pivots == (0, 1)


def test_kernel_of_rows_huge_entries_cancel():
    rng = random.Random(99)
    for ncols in (3, 6, 9):
        rows = _random_rows(rng, ncols - 2, ncols, 0.6, big=True)
        # dependent rows force the 2^64-sized entries to cancel
        rows.append({j: 3 * rows[0].get(j, 0) - F(5, 11) * rows[-1].get(j, 0)
                     for j in range(ncols) if 3 * rows[0].get(j, 0) != F(5, 11) * rows[-1].get(j, 0)})
        rows.append({})
        ker = _assert_kernel_matches_reference(rows, ncols)
        assert any(abs(x.numerator) >= 2**64 for r in ker.rows for x in r)


@pytest.mark.parametrize(
    "rows, ncols, dim",
    [
        ([], 5, 5),  # no rows: everything is free
        ([{}, {}, {}], 4, 4),  # zero rows
        ([[F(0)] * 3, [F(0)] * 3], 3, 3),
        ([[F(2), F(1)], [F(1), F(3)]], 2, 0),  # full rank
        ([{0: F(1)}, {1: F(-2)}, {2: F(3, 4)}], 3, 0),
        ([[F(5)]], 1, 0),  # single column
        ([[F(0)]], 1, 1),
        ([], 1, 1),
        ([[F(1), F(0), F(0), F(-1)], [F(0), F(0), F(1), F(1)]], 4, 2),
    ],
)
def test_kernel_of_rows_degenerate_systems(rows, ncols, dim):
    assert _assert_kernel_matches_reference(rows, ncols).dim == dim


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_identity():
    b = vector([3, -5])
    assert solve(Matrix.identity(2), b) == b


def test_solve_free_variables_set_to_zero():
    assert solve(M([[1, 1]]), vector([2])) == vector([2, 0])


def test_solve_inconsistent_returns_none():
    assert solve(M([[1], [1]]), vector([1, 2])) is None


def test_solve_rectangular_exact():
    m = M([[2, 1, 0], [0, 3, 1]])
    x = solve(m, vector([1, 1]))
    assert x is not None
    assert m.apply(x) == vector([1, 1])


# ---------------------------------------------------------------------------
# Subspace canonicity and lattice operations
# ---------------------------------------------------------------------------


def test_subspace_equality_is_representation_independent():
    a = Subspace.span([vector([1, 1, 0]), vector([0, 0, 1])], 3)
    b = Subspace.span([vector([2, 2, 2]), vector([1, 1, 1]), vector([0, 0, 5])], 3)
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_sum_and_intersection():
    e1 = Subspace.span([vector([1, 0, 0])], 3)
    plane = Subspace.span([vector([1, 0, 0]), vector([0, 1, 0])], 3)
    line = Subspace.span([vector([1, 1, 0])], 3)
    assert e1.sum(line) == plane
    assert plane.intersect(line) == line
    assert e1.intersect(line).is_zero()


def test_subspace_reduce_and_coordinates():
    s = Subspace.span([vector([1, 0, 1]), vector([0, 1, 1])], 3)
    inside = vector([2, 3, 5])
    assert s.contains(inside)
    assert s.reduce(inside) == vector([0, 0, 0])
    coords = s.coordinates(inside)
    assert coords == vector([2, 3])
    outside = vector([1, 0, 0])
    assert not s.contains(outside)
    assert s.coordinates(outside) is None


def test_subspace_direct_construction_rejected():
    with pytest.raises(TypeError):
        Subspace((vector([1, 0]),), 2)


# ---------------------------------------------------------------------------
# Matrix arithmetic
# ---------------------------------------------------------------------------


def test_matrix_inverse_and_power():
    m = M([[1, 1], [0, 1]])
    minv = m.inverse()
    assert minv == M([[1, -1], [0, 1]])
    assert m @ minv == Matrix.identity(2)
    assert m.power(3) == M([[1, 3], [0, 1]])
    assert m.power(0) == Matrix.identity(2)


def test_matrix_inverse_singular_raises():
    with pytest.raises(Exception):
        M([[1, 2], [2, 4]]).inverse()


def test_matrix_flatten_unflatten_roundtrip():
    m = M([[1, 2], [3, 4]])
    assert Matrix.unflatten(m.flatten(), 2, 2) == m


def test_kron_block_structure():
    a = M([[2, 0], [0, 3]])
    b = M([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.nrows == 4 and k.ncols == 4
    # (i,p) index = i*2 + p: the (0,0) block is 2*b
    assert k.rows[0] == vector([0, 2, 0, 0])
    assert k.rows[2] == vector([0, 0, 0, 3])
    # multiplicativity on a sample
    c = M([[1, 1], [0, 1]])
    d = M([[1, 0], [2, 1]])
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=5, square=False):
    def build_matrix(draw_rows, draw_cols):
        return st.builds(
            lambda rows: M(rows),
            st.lists(
                st.lists(small_entries, min_size=draw_cols, max_size=draw_cols),
                min_size=draw_rows,
                max_size=draw_rows,
            ),
        )

    if square:
        return st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda n: build_matrix(n, n)
        )
    return st.tuples(
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=1, max_value=max_dim),
    ).flatmap(lambda shape: build_matrix(*shape))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_property_rref_idempotent_and_rank_consistent(m):
    rref, rank, pivots = row_reduce(m)
    again, rank2, pivots2 = row_reduce(rref)
    assert again == rref and rank2 == rank and pivots2 == pivots
    assert len(pivots) == rank
    assert tuple(sorted(pivots)) == pivots


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_property_kernel_vectors_annihilated(m):
    ker = kernel_basis(m)
    assert ker.dim == m.ncols - row_reduce(m)[1]
    zero = vector([0] * m.nrows)
    for row in ker.rows:
        assert m.apply(row) == zero


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4), st.randoms(use_true_random=False))
def test_property_subspace_canonical_under_respanning(m, rng):
    rows = [r for r in m.rows]
    s = Subspace.span(rows, m.ncols)
    # random invertible-ish recombination: shuffle + add multiples of others
    recombined = list(rows)
    rng.shuffle(recombined)
    if len(recombined) >= 2:
        recombined[0] = vector(
            [a + 3 * b for a, b in zip(recombined[0], recombined[1])]
        )
    recombined.append(vector([0] * m.ncols))
    assert Subspace.span(recombined, m.ncols) == s
