"""Exact linear algebra: row reduction, kernels, solving, subspaces."""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import linalg
from liestruct.linalg import (
    Matrix,
    Subspace,
    _echelon,
    kernel_basis,
    kernel_of_rows,
    row_reduce,
    solve,
    vector,
)

from conftest import assert_membership_matches_elimination, eliminate_reference, kron


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


def test_a_stream_reads_the_echelon_it_feeds_and_may_end_early():
    rows = [{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 2, 2: 2}, {2: 1, 3: 1}]
    prefixes = []

    def stream():
        live = linalg._solves()[-1]
        for row in rows:
            yield dict(row)
            # a solve inside the stream has an echelon of its own
            assert kernel_of_rows([{0: 1}], 2).dim == 1 and linalg._solves()[-1] is live
            prefixes.append(linalg._kernel(live, 4))
            if len(live) == 2:
                return

    ker = kernel_of_rows(stream(), 4)
    assert [k.dim for k in prefixes] == [3, 2] and not linalg._solves()
    assert ker == prefixes[-1] == kernel_of_rows([dict(r) for r in rows[:2]], 4)


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
# kernel_of_rows, differentially: every row form against two oracles
# ---------------------------------------------------------------------------


def _gauss_jordan(rows, ncols):
    """(rref rows, pivot columns) of dense rational rows, by plain Gauss-Jordan."""
    rows, pivots = [[F(x) for x in r] for r in rows], []
    for c in range(ncols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        top = rows[r] = [x / rows[r][c] for x in rows[r]]
        rows[r], rows[len(pivots)] = rows[len(pivots)], top
        for i, row in enumerate(rows):
            if i != len(pivots) and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, top)]
        pivots.append(c)
    return [tuple(r) for r in rows[: len(pivots)]], pivots


def _gauss_jordan_kernel(rows, ncols):
    """The canonical kernel basis: one vector per free column, then reduced again."""
    rref, pivots = _gauss_jordan(rows, ncols)
    vectors = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[j] = F(1)
        for r, c in zip(rref, pivots):
            v[c] = -r[j]
        vectors.append(v)
    return tuple(_gauss_jordan(vectors, ncols)[0])


def _int_system(rng, ncols):
    """Primitive and non-primitive int rows of some rank, with 60-bit entries on
    about half the seeds, then integer combinations of them and an empty row, shuffled."""
    bits = 60 if rng.random() < 0.5 else 4
    base = []
    for _ in range(rng.randint(1, ncols)):
        row = {j: rng.randint(-2**bits, 2**bits) for j in range(ncols) if rng.random() < 0.5}
        base.append({j: x * rng.choice((1, 1, 6)) for j, x in row.items() if x})
    rows = list(base)
    for _ in range(rng.randint(0, 2 * ncols)):  # redundant rows
        acc = {}
        for row in rng.sample(base, rng.randint(1, len(base))):
            c = rng.randint(-9, 9)
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
        rows.append({j: x for j, x in acc.items() if x})
    rows.append({})
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_kernel_of_rows_matches_gauss_jordan_in_every_row_form(seed):
    rng = random.Random(9100 + seed)
    ncols = rng.randint(1, 11)
    ints = _int_system(rng, ncols)
    expected = _gauss_jordan_kernel([_dense(r, ncols) for r in ints], ncols)

    def shuffled(row):
        keys = list(row)
        rng.shuffle(keys)
        return {j: row[j] for j in keys}

    fractions = [{j: F(x, d) for j, x in r.items()} for r in ints for d in [rng.randint(1, 9)]]
    dense = [tuple(_dense(r, ncols)) for r in fractions]
    mixed = [[x.numerator if x.denominator == 1 else x for x in r] for r in dense]  # lists
    kept = [dict(r) for r in fractions], list(dense), [list(r) for r in mixed]
    for form in ([shuffled(r) for r in ints], fractions, dense, mixed):
        ker = kernel_of_rows(iter(form), ncols)
        assert ker.rows == expected
        assert ker == Subspace.span(expected, ncols) and ker.ambient_dim == ncols
        assert ker.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in expected)
    # only maps of ints may be reduced in place: the other rows are the caller's as they were
    assert (fractions, dense, mixed) == kept
    assert all(type(x) is F for r in fractions for x in r.values())


@pytest.mark.parametrize("seed", range(12))
def test_kernel_of_int_rows_matches_sympy(sympy, seed):
    rng = random.Random(9200 + seed)
    ncols = rng.randint(1, 9)
    ints = _int_system(rng, ncols)
    dense = [[F(x) for x in _dense(r, ncols)] for r in ints]
    assert kernel_of_rows(ints, ncols).rows == _sympy_kernel(sympy, dense, ncols)
    assert _gauss_jordan_kernel(dense, ncols) == _sympy_kernel(sympy, dense, ncols)


def test_kernel_of_rows_takes_one_int_map_streamed_many_times():
    # a primitive map becomes a pivot row as it is, so it meets itself again
    row = {0: 1, 2: 3}
    assert kernel_of_rows([row, {1: 2}, row, row], 3).rows == ((1, 0, F(-1, 3)),)
    row = {0: 2, 2: 6}
    assert kernel_of_rows([row, row], 3).rows == ((1, 0, F(-1, 3)), (0, 1, 0))


@pytest.mark.parametrize(
    "rows, ncols, message",
    [
        ([{0: 1, 5: 1}], 3, "column 5 outside 0..2"),
        ([{5: 1}, {0: 1}], 3, "column 5 outside 0..2"),
        ([{-1: 1}], 3, "column -1 outside 0..2"),
        ([{0: 1, -1: 1}, {1: 1}], 3, "column -1 outside 0..2"),
        ([{0: F(1, 2), 7: F(1, 3)}], 3, "column 7 outside 0..2"),
        ([{0: 1}, {0: 2, 3: 1}], 3, "column 3 outside 0..2"),
        ([(1, 2)], 3, "length 2 != 3 columns"),
        ([(1, 2, 3, 4)], 3, "length 4 != 3 columns"),
        ([(1, 0, 0, 0)], 3, "length 4 != 3 columns"),
        ([{0: 1}, (F(1), F(2))], 3, "length 2 != 3 columns"),
    ],
)
def test_kernel_of_rows_refuses_rows_outside_its_columns(rows, ncols, message):
    with pytest.raises(ValueError, match=message):
        kernel_of_rows(rows, ncols)


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


@pytest.mark.parametrize("coeffs", [[2], [1, 1, 7]], ids=["too few", "too many"])
def test_combine_refuses_a_wrong_number_of_coefficients(coeffs):
    s = Subspace.span([vector([1, 0, 1]), vector([0, 1, 1])], 3)
    with pytest.raises(ValueError, match="coefficient count %d != dimension 2" % len(coeffs)):
        s.combine(coeffs)


def test_subspace_direct_construction_rejected():
    with pytest.raises(TypeError):
        Subspace((vector([1, 0]),), 2)


def test_subspace_span_checks_public_input():
    with pytest.raises(ValueError, match="length"):
        Subspace.span([[1, 2]], 3)
    with pytest.raises(ValueError, match="outside 0..2"):
        Subspace.span([{3: 1}], 3)
    assert Subspace.span([{0: "1/2", 2: 3}], 3) == Subspace.span([["1/2", 0, 3]], 3)


def test_span_copies_a_vector_only_when_it_must():
    exact = [(F(1, 2), 0, 3), [0, F(-7), 2**70], {0: F(1, 2), 2: F(3)}]
    for v in exact:
        assert linalg._checked(v, 3) is v
    assert linalg._checked(("1/2", 0, 3), 3) == (F(1, 2), 0, 3)
    assert linalg._checked({0: "1/2", 2: True}, 3) == {0: F(1, 2), 2: F(1)}
    # a map of ints keeps its ints but is copied: the echelon reduces all-int maps in place
    ints = {0: 1, 2: 3}
    checked = linalg._checked(ints, 3)
    assert checked == ints and checked is not ints and type(checked[2]) is int
    caller = [{0: 1, 1: 3}, {0: 1, 2: 5}]
    s = Subspace.span(caller, 3)
    assert caller == [{0: 1, 1: 3}, {0: 1, 2: 5}]
    assert s == Subspace.span([[1, 3, 0], [1, 0, 5]], 3)
    # residues and coordinates stay Fractions for int input
    assert all(type(x) is F for x in s.reduce((1, 1, 1)) + s.coordinates({0: 2, 1: 6, 2: 0}))


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _fractions(entries):
    return tuple(F(int(x.p), int(x.q)) for x in entries)


def _sympy_rows(sympy, vecs):
    """The nonzero rows of sympy's RREF of ``vecs``, as Fraction tuples."""
    if not vecs:
        return ()
    rref, pivots = _sympy_matrix(sympy, vecs).rref()
    return tuple(_fractions(rref.row(i)) for i in range(len(pivots)))


def _random_vectors(rng, count, n):
    """Sparse random vectors, some with entries of 2^64 and more."""
    vecs = []
    for _ in range(count):
        big = rng.random() < 0.3
        v = [F(0)] * n
        for j in range(n):
            if rng.random() < 0.3:
                if big:
                    v[j] = F(rng.randint(2**64, 2**80) * rng.choice((-1, 1)), rng.randint(1, 2**66))
                else:
                    v[j] = F(rng.randint(-5, 5), rng.randint(1, 4))
        vecs.append(tuple(v))
    if count > 1:  # a dependent vector makes the large entries cancel
        vecs.append(tuple(3 * a - F(2, 5) * b for a, b in zip(vecs[0], vecs[-1])))
    return vecs


@pytest.mark.parametrize("seed", range(10))
def test_subspace_operations_match_sympy(sympy, seed):
    rng = random.Random(800 + seed)
    n = rng.randint(2, 9)
    avecs = _random_vectors(rng, rng.randint(0, n), n)
    bvecs = _random_vectors(rng, rng.randint(1, n), n)
    a, b = Subspace.span(avecs, n), Subspace.span(bvecs, n)
    # span: the canonical rows, also from sparse {col: value} input
    assert a.rows == _sympy_rows(sympy, avecs)
    assert a.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in a.rows)
    assert Subspace.span([{j: x for j, x in enumerate(v) if x} for v in avecs], n) == a
    assert a.sum(b).rows == _sympy_rows(sympy, avecs + bvecs)
    # intersection from sympy's nullspace of [A^T | -B^T]
    if a.dim and b.dim:
        amat, bmat = _sympy_matrix(sympy, a.rows), _sympy_matrix(sympy, b.rows)
        null = sympy.Matrix.hstack(amat.T, -bmat.T).nullspace()
        meet = [_fractions(amat.T * u[: a.dim, :]) for u in null]
        assert a.intersect(b).rows == _sympy_rows(sympy, meet)
    else:
        assert a.intersect(b).is_zero()
    assert a.intersect(b) == b.intersect(a)
    # reduce, contains and coordinates of vectors inside and outside a
    rref = _sympy_matrix(sympy, a.rows or [[F(0)] * n])
    for v in _random_vectors(rng, 3, n) + avecs[:2]:
        sv = _sympy_matrix(sympy, [v]).T
        inside = sympy.Matrix.hstack(rref.T, sv).rank() == a.dim
        assert a.contains(v) == inside
        assert a.contains({j: x for j, x in enumerate(v) if x}) == inside
        residue = a.reduce(v)
        assert all(residue[c] == 0 for c in a.pivots)
        assert a.sum(Subspace.span([residue], n)) == a.sum(Subspace.span([v], n))
        coords = a.coordinates(v)
        if not inside:
            assert coords is None and any(residue)
            continue
        assert a.combine(coords) == v and not any(residue)
        if a.dim:
            sol, params = rref.T.gauss_jordan_solve(sv)
            assert not params
            assert coords == _fractions(sol)


def _combination(rng, vecs, n, bits):
    """A seeded integer combination of ``vecs`` with coefficients of up to ``bits`` bits."""
    out = [F(0)] * n
    for v in vecs:
        c = rng.randint(-2**bits, 2**bits)
        for j, x in enumerate(v):
            out[j] += c * x
    return tuple(out)


@pytest.mark.parametrize("seed", range(16))
def test_membership_matches_dense_elimination(seed):
    rng = random.Random(8300 + seed)
    n = rng.randint(1, 12)
    avecs = _random_vectors(rng, rng.randint(1, n), n)
    a = Subspace.span(avecs, n)
    vecs = [_combination(rng, avecs, n, rng.choice((3, 64))) for _ in range(4)]
    vecs += _random_vectors(rng, 4, n) + [tuple(F(rng.randint(-2**64, 2**64)) for _ in range(n))]
    vecs.append(tuple(x + y for x, y in zip(vecs[0], vecs[-1])))  # inside plus outside
    inside = assert_membership_matches_elimination(a, vecs)
    assert inside >= 4 and (a.is_full() or inside < len(vecs))
    # contains_space on spans of inside vectors, then with an outside one added
    for extra in ([], vecs[4:]):
        b = Subspace.span(vecs[:4] + extra, n)
        assert a.contains_space(b) == all(not any(eliminate_reference(a, r)[0]) for r in b.rows)
    assert a.contains_space(Subspace.span(vecs[:4], n))


@pytest.mark.parametrize("seed", range(12))
def test_intersection_with_a_common_part(seed):
    """a and b share a seeded common part, so their meet is a proper nonzero subspace on
    most seeds, with RREF rows far from integral: it lies in both, by dense elimination,
    and has the dimension dim a + dim b - dim (a + b)."""
    rng = random.Random(8600 + seed)
    n = rng.randint(3, 10)
    common = _random_vectors(rng, rng.randint(1, n // 2), n)
    a = Subspace.span(common + _random_vectors(rng, rng.randint(1, n // 2), n), n)
    b = Subspace.span(_random_vectors(rng, rng.randint(1, n // 2), n) + common, n)
    meet = a.intersect(b)
    assert meet == b.intersect(a)
    assert meet.dim == a.dim + b.dim - a.sum(b).dim >= Subspace.span(common, n).dim
    for space in (a, b):
        assert all(not any(eliminate_reference(space, r)[0]) for r in meet.rows)


def _negative_pivot_system(rng, ncols):
    """Int rows positive at their smallest column and negative at their largest, so
    that most pivot rows of the max-lead echelon have a negative pivot entry."""
    rows = []
    for _ in range(rng.randint(1, ncols - 1)):
        cols = sorted(rng.sample(range(ncols), rng.randint(2, min(4, ncols))))
        row = {j: rng.choice((-1, 1)) * rng.randint(1, 2**rng.choice((3, 64))) for j in cols}
        row[cols[0]], row[cols[-1]] = abs(row[cols[0]]), -abs(row[cols[-1]]) * rng.randint(2, 6)
        rows.append(row)
    return rows


def _negative_pivot_seed(seed):
    """(rows, ncols, whether a pivot entry of the max-lead echelon is negative)."""
    rng = random.Random(8400 + seed)
    ncols = rng.randint(3, 10)
    rows = _negative_pivot_system(rng, ncols)
    pivots = {}
    _echelon([dict(r) for r in rows], pivots, max, ncols)
    return rows, ncols, any(row[c] < 0 for c, row in pivots.items())


def test_negative_pivot_systems_have_negative_pivot_entries():
    """The case under test below is hit on nearly every seed, so it is not vacuous."""
    assert sum(_negative_pivot_seed(seed)[2] for seed in range(24)) >= 20


@pytest.mark.parametrize("seed", range(24))
def test_kernel_rows_with_negative_pivot_entries_are_the_span_form(seed):
    rows, ncols, _ = _negative_pivot_seed(seed)
    ker = kernel_of_rows([dict(r) for r in rows], ncols)
    expected = _gauss_jordan_kernel([_dense(r, ncols) for r in rows], ncols)
    span = Subspace.span(expected, ncols)
    assert ker == span and hash(ker) == hash(span)
    assert ker.rows == expected and ker.sparse_rows() == span.sparse_rows()
    # each basis row of the kernel is one primitive int row, positive at its free column
    assert ker._rows == span._rows
    assert all(row[c] > 0 and gcd(*row.values()) == 1 for c, row in ker._rows.items())


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
    with pytest.raises(ValueError, match="negative power -1"):
        m.power(-1)


def test_matrix_inverse_singular_raises():
    with pytest.raises(Exception):
        M([[1, 2], [2, 4]]).inverse()


def test_matrix_flatten_unflatten_roundtrip():
    m = M([[1, 2], [3, 4]])
    assert Matrix.unflatten(m.flatten(), 2, 2) == m
    assert Matrix.unflatten({0: F(1), 1: F(2), 2: F(3), 3: F(4)}, 2, 2) == m
    assert Matrix.unflatten({3: F(4)}, 2, 2) == M([[0, 0], [0, 4]])


def test_matrix_arithmetic_does_not_coerce_its_results(monkeypatch):
    a = M([[1, F(2, 3)], [0, -5]])
    b = M([[F(7, 2), 1], [2, 2**70]])
    expected = {
        "@": M([[F(29, 6), F(2, 3) * 2**70 + 1], [-10, -5 * 2**70]]),
        "+": M([[F(9, 2), F(5, 3)], [2, 2**70 - 5]]),
        "-": M([[F(-5, 2), F(-1, 3)], [-2, -5 - 2**70]]),
        "scale": M([[F(3, 4), F(1, 2)], [0, F(-15, 4)]]),
    }

    def refuse(*_):
        raise AssertionError("a Matrix result was coerced again")

    monkeypatch.setattr(linalg, "vector", refuse)
    monkeypatch.setattr(linalg, "frac", refuse)
    got = {"@": a @ b, "+": a + b, "-": a - b, "scale": a.scale(F(3, 4))}
    assert got == expected
    assert all(type(x) is F for m in got.values() for r in m.rows for x in r)


def test_kron_block_structure():
    # the tests' own Kronecker product (conftest), under the tensor-product oracles
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
