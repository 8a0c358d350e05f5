"""Derivations, centroid, J-space, nilpotent/semisimple centroid split."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest

from liestruct import (EndoSpace, build, classical, current_algebra, direct_sum, endo,
                       example_algebra, from_dict, lie, parse_algebra, quadratic_extension,
                       to_dict, truncated_poly)
from liestruct.errors import JacobiError, LiestructError, PreconditionError
from liestruct.lie import _integral
from liestruct.linalg import Matrix, Subspace, kernel_of_rows, unit_vector, vector

from conftest import assert_membership_matches_elimination, eliminate_reference


def M(rows):
    return Matrix(tuple(vector(r) for r in rows))


# ---------------------------------------------------------------------------
# derivations / inner derivations
# ---------------------------------------------------------------------------


def test_derivations_abelian_is_all_of_end(abelian2):
    assert endo.derivations(abelian2).dim == 4


def test_derivations_sl2_all_inner(sl2):
    der = endo.derivations(sl2)
    inner = endo.inner_derivations(sl2)
    assert der.dim == 3 and inner.dim == 3
    assert der.space == inner.space


def test_derivations_two_dim(two_dim):
    der = endo.derivations(two_dim)
    inner = endo.inner_derivations(two_dim)
    assert inner.dim == 2  # centerfree: ad is injective
    assert der.dim == 2
    assert der.space.contains_space(inner.space)
    # the full derivation algebra is the upper row {[[a,b],[0,0]]}
    assert der.contains(M([[1, 0], [0, 0]]))
    assert der.contains(M([[0, 1], [0, 0]]))
    assert not der.contains(Matrix.identity(2))


def test_inner_derivations_abelian_zero(abelian2):
    assert endo.inner_derivations(abelian2).dim == 0


def test_inner_derivations_retain_only_sparse_rows():
    # n = 32: the dense basis held 32 vectors of 1 024 Fractions (277 KB)
    g = current_algebra(classical("sl", 3), truncated_poly(1, 4))
    data = to_dict(g)
    data["basis"] = ["fresh%d" % i for i in range(g.dim)]  # no memo entry to hit
    g = from_dict(data)
    gc.collect()
    tracemalloc.start()
    try:
        inner = endo.inner_derivations(g)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 100_000
    ads = [g.ad_basis(i).flatten() for i in range(g.dim)]
    assert inner.dim == 32 and inner.space == Subspace.span(ads, g.dim * g.dim)


def test_inner_derivations_heisenberg(heisenberg3):
    # dim g - dim z = 3 - 1
    assert endo.inner_derivations(heisenberg3).dim == 2
    assert endo.derivations(heisenberg3).dim == 6


def test_derivations_closed_under_commutator(two_dim, heisenberg3, sl2):
    for g in (two_dim, heisenberg3, sl2):
        der = endo.derivations(g)
        mats = der.basis_matrices()
        for a, b in itertools.combinations(mats, 2):
            assert der.contains(a.commutator(b))


# ---------------------------------------------------------------------------
# centroid
# ---------------------------------------------------------------------------


def test_centroid_abelian_is_all_of_end(abelian2):
    assert endo.centroid(abelian2).dim == 4


def test_centroid_sl2_scalars(sl2):
    cent = endo.centroid(sl2)
    assert cent.dim == 1
    assert cent.contains(Matrix.identity(3))


def test_centroid_two_dim_scalars_only(two_dim):
    # With [x1,x2]=x1 the commutation condition at the pair (x2,x2) forces
    # the off-diagonal coefficients to vanish: only scalars commute with
    # both ad matrices.  (Checked by hand; E: x2 -> x1 is a derivation
    # but NOT a centroid element, since [x2, E(x2)] = -x1 != 0.)
    cent = endo.centroid(two_dim)
    assert cent.dim == 1
    assert cent.contains(Matrix.identity(2))
    e_map = M([[0, 1], [0, 0]])
    assert not cent.contains(e_map)
    assert endo.derivations(two_dim).contains(e_map)


def test_centroid_heisenberg(heisenberg3):
    # scalars + maps x -> z, y -> z (computed by hand from the commutant
    # conditions; the two non-scalar elements square to zero)
    cent = endo.centroid(heisenberg3)
    assert cent.dim == 3
    n1 = M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    n2 = M([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert cent.contains(n1) and cent.contains(n2)
    assert (n1 @ n1).is_zero() and (n1 @ n2).is_zero()


def test_centroid_closed_under_product(sl2, two_dim, heisenberg3, abelian2):
    for g in (sl2, two_dim, heisenberg3, abelian2):
        cent = endo.centroid(g)
        mats = cent.basis_matrices()
        for a, b in itertools.product(mats, repeat=2):
            assert cent.contains(a @ b)


def test_centroid_commutes_with_every_ad(sl2, two_dim, heisenberg3):
    for g in (sl2, two_dim, heisenberg3):
        ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
        for f in endo.centroid(g).basis_matrices():
            for a in ads:
                assert f @ a == a @ f


# ---------------------------------------------------------------------------
# j_space
# ---------------------------------------------------------------------------


def test_j_space_examples(two_dim, abelian2, heisenberg3, oscillator6):
    assert endo.j_space(two_dim).dim == 0  # centerfree
    assert endo.j_space(abelian2).dim == 4  # all ad = 0
    # Hom(g/[g,g], z): (3-1)*1 = 2 for the Heisenberg algebra
    assert endo.j_space(heisenberg3).dim == 2
    assert endo.j_space(oscillator6).dim == 0  # perfect


def test_j_space_dimension_formula(two_dim, heisenberg3, oscillator6, sl2):
    for g in (two_dim, heisenberg3, oscillator6, sl2):
        expected = (g.dim - g.commutator_algebra().dim) * g.center().dim
        assert endo.j_space(g).dim == expected


def test_j_space_squares_to_zero_and_is_ideal(heisenberg3):
    # z(g) = [g,g] here, so J is a two-sided ideal of Cent with J^2 = 0
    g = heisenberg3
    assert g.commutator_algebra().contains_space(g.center())
    jsp = endo.j_space(g)
    cent = endo.centroid(g)
    for j in jsp.basis_matrices():
        assert (j @ j).is_zero()
        for f in cent.basis_matrices():
            assert jsp.contains(f @ j)
            assert jsp.contains(j @ f)


# ---------------------------------------------------------------------------
# independent oracles: the defining operator identities, assembled as dense
# Kronecker systems and solved by sympy
# ---------------------------------------------------------------------------


ORACLE_NAMES = ("sl:2", "heisenberg", "gl:3", "u:3", "sl:2+Q rebased")


@pytest.fixture(scope="module")
def oracle_algebras(sl2_plus_q_rebased):
    return {
        "sl:2": classical("sl", 2),
        "heisenberg": build(3, {(0, 1): {2: F(1)}}),
        "gl:3": classical("gl", 3),
        "u:3": classical("u", 3),
        "sl:2+Q rebased": sl2_plus_q_rebased,
    }


def _sympy_solution(sympy, blocks, n):
    """Canonical basis (row-major flattened n x n matrices) of the common
    kernel of the stacked blocks, each acting on row-major vec(X)."""
    null = sympy.Matrix.vstack(*blocks).nullspace()
    if not null:
        return ()
    rref, _ = sympy.Matrix.hstack(*null).T.rref()
    return tuple(
        tuple(F(int(x.p), int(x.q)) for x in rref.row(i)) for i in range(len(null))
    )


def _sympy_ads(sympy, g):
    # ad(e_i)[k][j] = coefficient of e_k in [e_i, e_j]
    n, t = g.dim, g.table
    return [
        sympy.Matrix(n, n, lambda k, j: sympy.Rational(t[i][j][k].numerator,
                                                       t[i][j][k].denominator))
        for i in range(n)
    ]


def _vec_left(sympy, a, n):
    """vec(A X) = (A kron I) vec(X) for row-major vec."""
    return sympy.kronecker_product(a, sympy.eye(n))


def _vec_right(sympy, a, n):
    """vec(X A) = (I kron A^T) vec(X) for row-major vec."""
    return sympy.kronecker_product(sympy.eye(n), a.T)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_derivations_match_sympy_oracle(sympy, oracle_algebras, name):
    # D ad_x - ad_x D = ad_{Dx} for every basis x, which is D[x,y] = [Dx,y] + [x,Dy]
    g = oracle_algebras[name]
    n = g.dim
    ads = _sympy_ads(sympy, g)
    blocks = []
    for i, a in enumerate(ads):
        # ad_{D e_i} = sum_k D[k][i] ad_k: column k*n + i of the block is vec(ad_k)
        ad_of_d = sympy.zeros(n * n, n * n)
        for k in range(n):
            ad_of_d[:, k * n + i] = ads[k].reshape(n * n, 1)
        blocks.append(_vec_right(sympy, a, n) - _vec_left(sympy, a, n) - ad_of_d)
    assert endo.derivations(g).space.rows == _sympy_solution(sympy, blocks, n)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_centroid_matches_sympy_oracle(sympy, oracle_algebras, name):
    # f ad_x = ad_x f for every basis x
    g = oracle_algebras[name]
    n = g.dim
    blocks = [_vec_right(sympy, a, n) - _vec_left(sympy, a, n) for a in _sympy_ads(sympy, g)]
    assert endo.centroid(g).space.rows == _sympy_solution(sympy, blocks, n)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_j_space_matches_sympy_oracle_and_lies_in_centroid(sympy, oracle_algebras, name):
    # ad_x phi = 0 = phi ad_x for every basis x
    g = oracle_algebras[name]
    n = g.dim
    blocks = []
    for a in _sympy_ads(sympy, g):
        blocks += [_vec_left(sympy, a, n), _vec_right(sympy, a, n)]
    jsp = endo.j_space(g)
    assert jsp.space.rows == _sympy_solution(sympy, blocks, n)
    assert endo.centroid(g).space.contains_space(jsp.space)


def test_oracle_algebras_have_the_expected_shape(oracle_algebras):
    dims = {name: (g.dim, g.center().dim, g.commutator_algebra().dim)
            for name, g in oracle_algebras.items()}
    assert dims == {
        "sl:2": (3, 0, 3),
        "heisenberg": (3, 1, 1),
        "gl:3": (9, 1, 8),
        "u:3": (9, 1, 8),
        "sl:2+Q rebased": (4, 1, 3),
    }


# ---------------------------------------------------------------------------
# split_centroid
# ---------------------------------------------------------------------------


def test_split_centroid_sl2(sl2):
    nspace, sspace = endo.split_centroid(sl2)
    assert nspace.dim == 0
    assert sspace.dim == 1
    assert sspace.contains(Matrix.identity(3))


def test_split_centroid_two_dim(two_dim):
    nspace, sspace = endo.split_centroid(two_dim)
    assert nspace.dim == 0
    assert sspace.dim == 1


def test_split_centroid_heisenberg(heisenberg3):
    nspace, sspace = endo.split_centroid(heisenberg3)
    assert nspace.dim == 2 and sspace.dim == 1
    for n in nspace.basis_matrices():
        assert (n @ n @ n).is_zero()


def test_split_centroid_current_algebra(sl2):
    from liestruct import current_algebra, truncated_poly

    g = current_algebra(sl2, truncated_poly(1, 2))
    nspace, sspace = endo.split_centroid(g)
    assert nspace.dim == 1 and sspace.dim == 1


def test_split_centroid_refuses_nonabelian(abelian2):
    # Cent(abelian) = End is not commutative
    with pytest.raises(PreconditionError) as exc:
        endo.split_centroid(abelian2)
    assert "commute" in str(exc.value) or "abelian" in str(exc.value)


# ---------------------------------------------------------------------------
# module_commutant
# ---------------------------------------------------------------------------


def test_commutant_of_zero_rep_is_everything():
    zero = Matrix.zero(2, 2)
    assert endo.module_commutant([zero, zero]).dim == 4


def test_commutant_of_adjoint_equals_centroid(sl2, two_dim, heisenberg3):
    for g in (sl2, two_dim, heisenberg3):
        rep = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
        assert endo.module_commutant(rep).space == endo.centroid(g).space


def test_commutant_size_mismatch():
    with pytest.raises(Exception):
        endo.module_commutant([Matrix.identity(2), Matrix.identity(3)])


# ---------------------------------------------------------------------------
# centroid module laws (exact containments)
# ---------------------------------------------------------------------------


def test_centroid_acts_on_derivations(sl2, two_dim, heisenberg3, oscillator6):
    for g in (sl2, two_dim, heisenberg3, oscillator6):
        cent = endo.centroid(g)
        der = endo.derivations(g)
        for f in cent.basis_matrices():
            for d in der.basis_matrices():
                assert der.contains(f @ d)
                assert cent.contains(f.commutator(d))


def test_centroid_bracket_kills_commutator(sl2, two_dim, heisenberg3, oscillator6):
    for g in (sl2, two_dim, heisenberg3, oscillator6):
        cent = endo.centroid(g)
        comm = g.commutator_algebra()
        center = g.center()
        for f, h in itertools.product(cent.basis_matrices(), repeat=2):
            lie_fh = f.commutator(h)
            for w in comm.rows:
                assert lie_fh.apply(w) == vector([0] * g.dim)
            # image of [f,h] lies in the center
            for col in range(g.dim):
                assert center.contains(lie_fh.column(col))


# ---------------------------------------------------------------------------
# the integer assembly against Fraction reference rows, on tables whose
# structure constants are not integers
# ---------------------------------------------------------------------------


def _rescaled(g, scales):
    """g in the basis s_i e_i: [s_i e_i, s_j e_j] = sum_k s_i s_j c_ij^k / s_k (s_k e_k)."""
    brackets = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            value = {k: scales[i] * scales[j] * c / scales[k] for k, c in g._nonzero[i][j]}
            if value:
                brackets[(i, j)] = value
    return build(g.dim, brackets)


RATIONAL_NAMES = ("sl:2", "heisenberg", "cur:sl:2,jet:1,2", "sl:2+Q rebased")
SCALES = (F(1, 2), F(1, 3), F(2, 3), F(3), F(5, 2), F(1, 7))


@pytest.fixture(scope="module")
def rational_algebras(sl2_plus_q_rebased):
    from liestruct import parse_algebra

    plain = {
        "sl:2": classical("sl", 2),
        "heisenberg": build(3, {(0, 1): {2: F(1)}}),
        "cur:sl:2,jet:1,2": parse_algebra("cur:sl:2,jet:1,2"),
        "sl:2+Q rebased": sl2_plus_q_rebased,
    }
    return {name: _rescaled(g, SCALES[: g.dim]) for name, g in plain.items()}


def _fraction_leibniz_rows(g):
    """D(c_ij) = [D e_i, e_j] + [e_i, D e_j] entry by entry, as dense Fraction rows."""
    n, t = g.dim, g.table
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = [F(0)] * (n * n)
                for l in range(n):
                    row[m * n + l] += t[i][j][l]
                for k in range(n):
                    row[k * n + i] -= t[k][j][m]
                    row[k * n + j] -= t[i][k][m]
                yield row


def _fraction_commutant_rows(mats, n):
    """(f A - A f)[r][c] = 0 entry by entry, as dense Fraction rows."""
    for a in mats:
        for r in range(n):
            for c in range(n):
                row = [F(0)] * (n * n)
                for k in range(n):
                    row[r * n + k] += a[k, c]
                    row[k * n + c] -= a[r, k]
                yield row


def test_rational_algebras_have_non_integer_constants(rational_algebras):
    for g in rational_algebras.values():
        assert any(c.denominator > 1 for row in g._nonzero for v in row for _, c in v)


@pytest.mark.parametrize("name", RATIONAL_NAMES)
def test_integer_rows_give_the_fraction_reference_kernels(rational_algebras, name):
    from liestruct.linalg import kernel_of_rows

    g = rational_algebras[name]
    n = g.dim
    ads = [g.ad_basis(i) for i in range(n)]
    der = kernel_of_rows(list(_fraction_leibniz_rows(g)), n * n)
    cent = kernel_of_rows(list(_fraction_commutant_rows(ads, n)), n * n)
    assert endo.derivations(g).space == der
    assert endo.centroid(g).space == cent
    assert endo.module_commutant(ads).space == cent
    rows = list(endo.leibniz_system(g)) + list(endo.commutant_system(g._nonzero, n))
    assert rows and all(type(v) is int and v for row in rows for v in row.values())


def test_commutant_of_a_rational_representation_matches_fraction_rows():
    from liestruct.linalg import kernel_of_rows

    # a block-diagonal pair with 1/2 and 1/3 entries: the commutant is 2 + 1 + 1 dimensional
    a = M([[F(1, 2), 0, 0, 0], [0, F(1, 2), 0, 0], [0, 0, F(1, 3), 0], [0, 0, 0, F(-2, 3)]])
    b = M([[0, F(1, 3), 0, 0], [F(-1, 2), 0, 0, 0], [0, 0, F(5, 7), 0], [0, 0, 0, 0]])
    expected = kernel_of_rows(list(_fraction_commutant_rows([a, b], 4)), 16)
    got = endo.module_commutant([a, b])
    assert got.space == expected and got.dim == 4
    for t in got.basis_matrices():
        assert t @ a == a @ t and t @ b == b @ t


# ---------------------------------------------------------------------------
# Der and Cent from fewer rows: the semisimple shortcut and generating sets,
# against the kernels of every row of the one Leibniz and commutant generator
# ---------------------------------------------------------------------------

FIXTURE_ALGEBRAS = ("sl2", "sl3", "so3", "gl2", "two_dim", "abelian2", "abelian1",
                    "heisenberg3", "oscillator6", "sl2_plus_q_rebased", "sl2_complex_model")


def _full_kernels(g):
    n = g.dim
    return (kernel_of_rows(endo.leibniz_system(g), n * n),
            kernel_of_rows(endo.commutant_system(g._nonzero, n), n * n))


def _fresh(fn, g):
    """fn(g) computed again, past the memo that may hold it for an equal algebra."""
    return fn.__wrapped__(g)


def _row_counter(monkeypatch, cols=None):
    """The number of rows of each kernel_of_rows call endo makes from now on;
    the number of columns of each goes to the list ``cols`` when given."""
    counts = []

    def counting(rows, ncols):
        rows = list(rows)
        counts.append(len(rows))
        if cols is not None:
            cols.append(ncols)
        return kernel_of_rows(rows, ncols)

    monkeypatch.setattr(endo, "kernel_of_rows", counting)
    return counts


REBASE_SPECS = ("sl:3", "so:4", "gl:2", "u:3", "sum:sl:2+ex:2dim", "cur:sl:2,jet:1,3",
                "cur:sl:2,points:2")


@pytest.mark.parametrize("name", FIXTURE_ALGEBRAS)
def test_der_and_cent_equal_the_full_row_kernels_on_fixtures(request, name):
    g = request.getfixturevalue(name)
    assert lie._jacobi_known(g)
    der, cent = _full_kernels(g)
    assert _fresh(endo.derivations, g).space == der == endo.derivations(g).space
    assert _fresh(endo.centroid, g).space == cent == endo.centroid(g).space


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", REBASE_SPECS)
def test_der_and_cent_equal_the_full_row_kernels_on_rebasings(rebase, spec, seed):
    g = rebase(parse_algebra(spec), seed)
    der, cent = _full_kernels(g)
    assert _fresh(endo.derivations, g).space == der
    assert _fresh(endo.centroid, g).space == cent
    assert endo.module_commutant([g.ad_basis(i) for i in range(g.dim)]).space == cent


def test_semisimple_derivations_stream_no_rows(monkeypatch):
    g = classical("sl", 4)
    counts = _row_counter(monkeypatch)
    der = _fresh(endo.derivations, g)
    assert sum(counts) == 0
    assert der.space == endo.inner_derivations(g).space and der.dim == 15


def test_centroid_streams_only_the_rows_of_a_generating_set(monkeypatch):
    g = parse_algebra("cur:sl:3,jet:1,4")
    n, gens = g.dim, endo._generators(g)
    counts = _row_counter(monkeypatch)
    cent = _fresh(endo.centroid, g)
    assert cent.dim == 4  # dim A, for the central simple sl:3
    assert sum(counts) <= len(gens) * n * n < n ** 3 // 4


def test_a_table_with_no_jacobi_verdict_streams_every_row(monkeypatch):
    with pytest.raises(JacobiError):
        example_algebra("five_dim")
    five = build(5, {(0, 1): {0: 1}, (0, 2): {1: 1}, (0, 3): {2: 1}, (1, 2): {3: 1},
                     (1, 3): {4: 1}}, validate=False)
    # the raw table of sl:2 under names no other algebra carries
    raw = lie.LieAlgebra(["r0", "r1", "r2"], classical("sl", 2).table)
    for g in (five, raw):
        assert not lie._jacobi_known(g) and endo._generators(g) is None
        n = g.dim
        der, cent = _full_kernels(g)
        cols = []
        counts = _row_counter(monkeypatch, cols)
        assert _fresh(endo.derivations, g).space == der
        assert _fresh(endo.centroid, g).space == cent
        # the centroid: one spun kernel over m n columns, not the n^2 of every row
        assert counts[:1] == [len(list(endo.leibniz_system(g)))]
        assert len(cols) == 2 and cols[1] < n * n
        monkeypatch.undo()


def _closure(nz, gens):
    """A new spinner of the span of the basis vectors ``gens`` closed under their ad."""
    spin = endo._Spinner(len(nz), [nz[s] for s in gens])
    for s in gens:
        spin.push({s: 1})
    return spin


def _generates(nz, gens) -> bool:
    """The oracle of the generating sets: the iterated brackets of ``gens`` span everything."""
    return len(_closure(nz, gens).basis) == len(nz)


def test_a_non_generating_set_is_refused_by_the_closure_check(monkeypatch):
    # a relabeled copy, so no memoized result of an equal algebra is served
    g = parse_algebra("cur:sl:2,jet:1,3").permuted((4, 0, 7, 2, 8, 1, 5, 3, 6))
    _, nz = _integral(g._nonzero)
    gens, _ = endo._greedy_generators(nz)
    assert _generates(nz, gens) and len(gens) < g.dim
    forced = gens[:-1]
    assert not _generates(nz, forced)
    monkeypatch.setattr(endo, "_greedy_generators", lambda nz: (forced, _closure(nz, forced)))
    assert _fresh(endo._generators, g) is None
    der, cent = _full_kernels(g)
    cols = []
    counts = _row_counter(monkeypatch, cols)
    assert endo.derivations(g).space == der
    assert endo.centroid(g).space == cent
    # the centroid: one spun kernel over m n columns, not the n^2 of every row
    assert counts[:1] == [len(list(endo.leibniz_system(g)))]
    assert len(cols) == 2 and cols[1] < g.dim ** 2


def test_constructions_pass_on_the_jacobi_verdict():
    known = lie._jacobi_known
    sl2, two = classical("sl", 2), example_algebra("two_dim")
    raw = lie.LieAlgebra(["q0", "q1"], two.table)
    assert known(sl2) and known(two) and not known(raw)
    assert known(build(2, {(0, 1): {0: 1}}, names=["v0", "v1"]))
    assert not known(build(2, {(0, 1): {0: 1}}, names=["w0", "w1"], validate=False))
    assert known(direct_sum([sl2, two])) and not known(direct_sum([sl2, raw]))
    assert known(sl2.permuted((2, 0, 1))) and not known(raw.permuted((1, 0)))
    assert known(two.quotient(two.commutator_algebra()))
    assert not known(raw.quotient(raw.commutator_algebra()))
    assert known(two.restrict_to(two.commutator_algebra(), ["c"]))
    assert not known(raw.restrict_to(raw.commutator_algebra(), ["d"]))
    assert known(current_algebra(sl2, truncated_poly(1, 2)))
    # with no verdict for k, k (x) A is checked, and passes here
    assert known(current_algebra(raw, truncated_poly(1, 2)))


def test_restricted_rows_are_those_of_the_pairs_meeting_the_generators(monkeypatch):
    # reversed, so generators sit at high indices and pairs (j, s) with j < s matter
    g = parse_algebra("cur:sl:2,jet:1,3").permuted(tuple(reversed(range(9))))
    n, gens = g.dim, endo._generators(g)
    assert gens and max(gens) == n - 1
    leibniz = sum(1 for (i, j), row in zip(itertools.product(range(n), range(n * n)),
                                           _fraction_leibniz_rows(g))
                  if i <= j // n and (i in gens or j // n in gens) and any(row))
    cols = []
    counts = _row_counter(monkeypatch, cols)
    der, cent = _fresh(endo.derivations, g), _fresh(endo.centroid, g)
    # the centroid: one spun kernel over m n columns, not the n^2 of every row
    assert counts[:1] == [leibniz]
    assert len(cols) == 2 and cols[1] < n * n
    assert (der.space, cent.space) == _full_kernels(g)


# ---------------------------------------------------------------------------
# Cartan's criterion first: Der = ad(g) + J(g) of a reductive g, and z(g), [g,g]
# and Cent's radical of a semisimple g read off the Killing rank, against the
# Leibniz kernel and a renamed copy with no Jacobi verdict
# ---------------------------------------------------------------------------

SEMISIMPLE_SPECS = ("sl:2", "sl:3", "so:5", "sp:4", "su:3", "sum:sl:2+sl:3", "cur:sl:2,points:3")
REDUCTIVE_SPECS = ("gl:2", "gl:3", "gl:4", "u:2", "u:3", "sum:gl:2+sl:2", "sum:u:2+gl:2")
# not reductive: z(g) + [g,g] is not g, or [g,g] is not semisimple
CONTROL_SPECS = ("sum:sl:2+ex:2dim", "cur:gl:2,jet:1,2", "ex:2dim", "cur:sl:2,jet:1,3",
                 "cur:u:3,jet:1,2")


def _algebra(spec, tag):
    """The algebra of a spec, or an abelian one of dim 3, under basis names of its own
    (:func:`_renamed`)."""
    return _renamed(build(3, {}) if spec == "abelian" else parse_algebra(spec), tag + spec)


def _unverified_copy(g):
    """g's table under new basis names and with no Jacobi verdict: no memo entry is shared."""
    data = to_dict(g)
    data["basis"] = ["u%d" % i for i in range(g.dim)]
    return from_dict(data, validate=False)


def _renamed(g, tag):
    """g under basis names of its own, with its Jacobi verdict: no other live algebra
    shares its memo entries."""
    return g.restrict_to(g.full_space(), ["%s.%d" % (tag, i) for i in range(g.dim)])


def _refuse(*_):
    raise AssertionError("a computation the structure theorems make unnecessary ran")


@pytest.mark.parametrize("spec", REDUCTIVE_SPECS + ("abelian",))
def test_reductive_derivations_are_ad_plus_j_with_no_leibniz_rows(monkeypatch, spec):
    g = _algebra(spec, "ad+J ")
    n = g.dim
    oracle = kernel_of_rows(endo.leibniz_system(g), n * n)
    assert lie._reductive(g) and g._killing_rank() < n
    monkeypatch.setattr(endo, "_leibniz_rows", _refuse)
    der = _fresh(endo.derivations, g)
    assert der.space == oracle
    assert der.dim == endo.inner_derivations(g).dim + endo.j_space(g).dim
    z = g.center().dim  # J(g) = Hom(g/[g,g], z(g)), and g/[g,g] is z(g) again
    assert der.dim == n - z + z * z


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", ("gl:3", "u:2", "sum:gl:2+sl:2", "sum:u:2+gl:2"))
def test_reductive_derivations_equal_the_leibniz_kernel_on_rebasings(rebase, spec, seed):
    g = rebase(parse_algebra(spec), seed)
    assert lie._jacobi_known(g) and lie._reductive(g)
    assert _fresh(endo.derivations, g).space == _full_kernels(g)[0]


@pytest.mark.parametrize("spec", CONTROL_SPECS)
def test_non_reductive_derivations_take_the_leibniz_rows(monkeypatch, spec):
    g = _algebra(spec, "control ")
    n = g.dim
    oracle = kernel_of_rows(endo.leibniz_system(g), n * n)
    assert lie._jacobi_known(g) and not lie._reductive(g)
    cols = []
    _row_counter(monkeypatch, cols)
    assert _fresh(endo.derivations, g).space == oracle
    assert cols == [n * n]


@pytest.mark.parametrize("spec", SEMISIMPLE_SPECS + REDUCTIVE_SPECS + CONTROL_SPECS + ("abelian",))
def test_structure_read_off_the_killing_rank_equals_a_copy_with_no_verdict(spec):
    g = _algebra(spec, "read off ")
    copy = _unverified_copy(g)
    assert lie._jacobi_known(g) and not lie._jacobi_known(copy)

    def answers(h):
        h._killing_rank()  # first, as the flags take it
        return (h.flags(), h.center(), h.commutator_algebra(), h.derived_series(),
                h.lower_central_series(), endo.derivations(h).space, endo.j_space(h).space,
                endo._centroid_table(h)._radical())

    assert answers(g) == answers(copy)


@pytest.mark.parametrize("spec", SEMISIMPLE_SPECS)
def test_semisimple_answers_are_memo_hits_once_the_killing_rank_is_known(monkeypatch, spec):
    g = _algebra(spec, "memo hits ")
    assert lie._jacobi_known(g) and lie._peek(g, lie.LieAlgebra.center) is None
    assert g._killing_rank() == g.dim
    monkeypatch.setattr(lie, "kernel_of_rows", _refuse)
    monkeypatch.setattr(lie.LieAlgebra, "bracket_span", _refuse)
    monkeypatch.setattr(lie, "_span", _refuse)
    assert g.center().is_zero() and g.commutator_algebra().is_full()
    assert g.derived_series() == g.lower_central_series() == [g.full_space()]
    assert endo.j_space(g).dim == 0 and endo._centroid_table(g)._radical().is_zero()
    flags = g.flags()
    assert flags["semisimple"] and flags["reductive"] and flags["perfect"]
    assert flags["centerfree"] and not flags["solvable"] and not flags["nilpotent"]
    assert endo.derivations(g).dim == g.dim


@pytest.mark.parametrize("spec", REDUCTIVE_SPECS + ("abelian",))
def test_reductive_flags_span_no_series(monkeypatch, spec):
    g = _algebra(spec, "no series ")
    monkeypatch.setattr(lie.LieAlgebra, "derived_series", _refuse)
    monkeypatch.setattr(lie.LieAlgebra, "lower_central_series", _refuse)
    flags = g.flags()
    abelian = spec == "abelian"
    assert flags["reductive"] and not flags["semisimple"] and flags["abelian"] == abelian
    assert flags["solvable"] == flags["nilpotent"] == abelian


def test_an_equal_algebra_keeps_its_verdict_when_the_first_dies(monkeypatch):
    # b shares a's memo entries; once a is freed, b still holds them, the Jacobi
    # verdict and the generating set included, and its Der takes the reductive path
    a, b = _algebra("gl:4", "survivor "), _algebra("gl:4", "survivor ")
    assert a is not b and a == b and lie._jacobi_known(b)
    a = weakref.ref(a)
    gc.collect()
    assert a() is None and lie._jacobi_known(b)
    assert endo._generators(b) == frozenset({0, 1, 2, 3, 4, 8, 12})
    monkeypatch.setattr(endo, "_leibniz_rows", _refuse)
    der = endo.derivations(b)
    assert der.dim == 16 and der.space == endo.inner_derivations(b).space.sum(
        endo.j_space(b).space)


def test_an_equal_algebra_first_used_after_the_first_died_recomputes():
    # b is built while a lives but asks the memo only once a is freed: it starts
    # with fresh entries, no verdict among them, and gets every answer right
    a = _algebra("gl:3", "late ")
    a.flags(), endo.derivations(a), endo.centroid(a)
    b = lie.LieAlgebra(a.names, a.table)
    a = weakref.ref(a)
    gc.collect()
    assert a() is None and not lie._jacobi_known(b) and lie._peek(b, lie.LieAlgebra.center) is None
    copy = _algebra("gl:3", "renamed ")

    def answers(h):
        return (h.flags(), h.center(), h.commutator_algebra(), endo.derivations(h).space,
                endo.centroid(h).space, endo.j_space(h).space)

    assert answers(b) == answers(copy)


def test_shared_entries_stay_findable_while_any_holder_lives():
    # b takes a's entries while a lives; once a is freed, a table built later finds them
    # through b: the Jacobi verdict and Cent are memo hits, not computed again
    a = _algebra("cur:sl:2,points:4", "handover ")
    b = lie.LieAlgebra(a.names, a.table)
    cent = endo.centroid(a)
    assert b.center() is a.center()
    a = weakref.ref(a)
    gc.collect()
    assert a() is None and lie._Key(b) in lie._memo
    c = lie.LieAlgebra(b.names, b.table)
    hits = endo.centroid.cache_info().hits
    assert lie._jacobi_known(c) and endo.centroid(c) is cent
    assert endo.centroid.cache_info().hits == hits + 1
    # and again once b is freed too, through c
    del b
    gc.collect()
    assert lie._jacobi_known(lie.LieAlgebra(c.names, c.table))


def test_cent_radical_is_recorded_only_from_a_known_killing_rank():
    # Cent's table built before the Killing rank is known: its radical is computed
    g = _algebra("cur:sl:2,points:3", "radical ")
    table = endo._centroid_table(g)
    assert lie._peek(g, lie.LieAlgebra._killing_rank) is None
    assert lie._peek(table, lie._StructureTable._radical) is None
    radical = table._radical()
    assert radical.is_zero()
    # built again once the rank is known, the table carries its radical from the start
    assert g._killing_rank() == g.dim
    table = _fresh(endo._centroid_table, g)
    assert lie._peek(table, lie._StructureTable._radical) == radical


@pytest.mark.parametrize("which", ["five_dim", "raw sl:2"])
def test_a_table_with_no_jacobi_verdict_never_takes_the_theorem_path(monkeypatch, which):
    # the relation table that violates the Jacobi identity on basis triple (0, 1, 2),
    # and the table of sl:2, semisimple by its Killing rank, under names no other carries
    with pytest.raises(JacobiError):
        example_algebra("five_dim")
    g = (build(5, {(0, 1): {0: 1}, (0, 2): {1: 1}, (0, 3): {2: 1}, (1, 2): {3: 1},
                   (1, 3): {4: 1}}, names=["f%d" % i for i in range(5)], validate=False)
         if which == "five_dim"
         else lie.LieAlgebra(["t0", "t1", "t2"], classical("sl", 2).table))
    n = g.dim
    oracle = kernel_of_rows(endo.leibniz_system(g), n * n)
    series = []
    monkeypatch.setattr(lie, "_record", _refuse)
    monkeypatch.setattr(endo, "_record", _refuse)
    derived = lie.LieAlgebra.derived_series
    monkeypatch.setattr(lie.LieAlgebra, "derived_series",
                        lambda h: series.append(h) or derived(h))
    assert not lie._jacobi_known(g)
    assert g._killing_rank() == (3 if which == "five_dim" else n)
    assert lie._peek(g, lie.LieAlgebra.center) is None
    g.flags()
    assert series == [g]
    assert _fresh(endo.derivations, g).space == oracle
    endo._centroid_table(g)._radical()  # computed: a record would hit _refuse


# ---------------------------------------------------------------------------
# the spun commutant against the kernel of every commutant row, and sympy
# ---------------------------------------------------------------------------


def _seeds(mats):
    """The number m of seed vectors the spinning of ``mats`` starts from."""
    n = mats[0].nrows
    ops = _integral([[[(k, x) for k, x in enumerate(m.column(j)) if x] for j in range(n)]
                     for m in mats])[1]
    spin = endo._Spinner(n, ops)
    return sum(spin.push({i: 1}) for i in range(n))


def _gl3_split():
    """gl:3 on a basis of sl:3 and the identity: its center is a basis vector of its own."""
    return direct_sum([classical("sl", 3), build(1, {}, names=["z"])])


def _commutant_cases():
    # A = [[0, 1], [1, 1]] twice; A is irreducible over Q, so the commutant is M_2(Q[A])
    diag_aa = M([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
    big = 2**64 + 3
    return {
        "zero operators": [Matrix.zero(3, 3), Matrix.zero(3, 3)],
        "identity": [Matrix.identity(3)],
        "diag(A, A)": [diag_aa],
        "abelian g": [build(3, {}).ad_basis(i) for i in range(3)],
        "gl:3 on sl:3 + center": [_gl3_split().ad_basis(i) for i in range(9)],
        "numerators past 2^64": [M([[F(big, 3), F(1, big), 0], [0, F(big, 3), 0],
                                    [0, 0, F(-big, 5)]]),
                                 M([[0, F(2 * big, 7), 0], [0, 0, 0], [0, 0, F(big, 2)]])],
        "a single operator": [M([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, F(1, 2), 0],
                                 [0, 0, 0, F(1, 2)]])],
        "n = 1": [M([[F(5, 7)]])],
    }


COMMUTANT_CASES = tuple(_commutant_cases())
SEVERAL_SEEDS = ("zero operators", "identity", "diag(A, A)", "abelian g", "gl:3 on sl:3 + center")


@pytest.mark.parametrize("name", COMMUTANT_CASES)
def test_spun_commutant_equals_the_full_row_kernel(name):
    mats = _commutant_cases()[name]
    n = mats[0].nrows
    cols = [[[(k, x) for k, x in enumerate(m.column(j)) if x] for j in range(n)] for m in mats]
    full = kernel_of_rows(endo.commutant_system(cols, n), n * n)
    got = endo.module_commutant(mats)
    assert got.space == full and got.kind == "commutant"
    if name in SEVERAL_SEEDS:
        assert _seeds(mats) > 1
    for t in got.basis_matrices():
        assert all(t @ m == m @ t for m in mats)


@pytest.mark.parametrize("name", COMMUTANT_CASES)
def test_spun_commutant_matches_sympy_oracle(sympy, name):
    mats = _commutant_cases()[name]
    n = mats[0].nrows
    sym = [sympy.Matrix(n, n, lambda r, c: sympy.Rational(m[r, c].numerator, m[r, c].denominator))
           for m in mats]
    blocks = [_vec_right(sympy, a, n) - _vec_left(sympy, a, n) for a in sym]
    assert endo.module_commutant(mats).space.rows == _sympy_solution(sympy, blocks, n)


def test_spun_centroids_with_several_seeds_equal_the_full_row_kernels():
    # an abelian g, and gl:3 on a basis of sl:3 and its center: the adjoint
    # module needs more than one seed
    for g, m in ((build(3, {}, names=["a0", "a1", "a2"]), 3), (_gl3_split(), 2)):
        ads = [g.ad_basis(i) for i in range(g.dim)]
        assert _seeds(ads) == m
        assert _fresh(endo.centroid, g).space == _full_kernels(g)[1]


SPLIT_SPECS = tuple("cur:sl:2,points:%d" % k for k in range(2, 7)) + ("sum:sl:2+sl:3",
                                                                      "sum:fld:i+fld:r2")
# rebased only up to n = 12: past it the dense n^2-unknown oracle takes seconds (13 s at n = 18)
SPLIT_FORMS = [(spec, form) for spec in SPLIT_SPECS for form in ("basis", "permuted", "rebased")
               if form != "rebased" or spec not in ("cur:sl:2,points:5", "cur:sl:2,points:6")]


@pytest.mark.parametrize("spec, form", SPLIT_FORMS)
def test_spun_commutants_of_split_algebras_equal_the_full_row_kernel(rebase, spec, form):
    # several simple ideals, so the adjoint module needs a seed for each on the basis
    if spec == "sum:fld:i+fld:r2":  # sl:2 over Q(i) and over Q(sqrt 2)
        g = direct_sum([current_algebra(classical("sl", 2), quadratic_extension(d))
                        for d in (-1, 2)])
    else:
        g = parse_algebra(spec)
    n = g.dim
    if form == "permuted":
        g = g.permuted(tuple(random.Random(n).sample(range(n), n)))
    elif form == "rebased":
        g = rebase(g, n)
    ads = [g.ad_basis(i) for i in range(n)]
    assert form == "rebased" or _seeds(ads) > 1
    full = kernel_of_rows(endo.commutant_system(g._nonzero, n), n * n)
    assert _fresh(endo.centroid, g).space == full
    assert endo.module_commutant(ads).space == full


def _solve_log(monkeypatch):
    """(tries, solved, fed): the prefix kernel of each certificate the commutant tries,
    the kernel each of its solves returns, and the rows each solve is fed."""
    real_kernel, real_solve, tries, solved, fed = endo._kernel, endo.kernel_of_rows, [], [], []

    def kernel(pivots, ncols):
        tries.append(real_kernel(pivots, ncols))
        return tries[-1]

    def solve(rows, ncols):
        fed.append(0)

        def counted():  # passed through, so the stream still reads the echelon it feeds
            for row in rows:
                fed[-1] += 1
                yield row

        solved.append(real_solve(counted(), ncols))
        return solved[-1]

    monkeypatch.setattr(endo, "_kernel", kernel)
    monkeypatch.setattr(endo, "kernel_of_rows", solve)
    return tries, solved, fed


def test_a_failed_certificate_streams_on_to_the_commutant(monkeypatch):
    # on sl:3 the first prefix that stalls with a pivot for its seed has a kernel larger
    # than the commutant's: its certificate fails, and a later prefix is certified
    g = classical("sl", 3)
    n = g.dim
    tries, solved, fed = _solve_log(monkeypatch)
    cent = _fresh(endo.centroid, g)
    assert len(solved) == 1 and len(tries) >= 2
    assert tries[0].dim > solved[0].dim == 1 and tries[-1] == solved[0]
    # the same stream with no echelon to read runs to its end, with no certificate
    monkeypatch.setattr(endo, "_solves", list)
    certified = len(tries)
    assert _fresh(endo.centroid, g).space == cent.space
    assert len(tries) == certified and fed[0] < fed[1]
    monkeypatch.undo()
    assert cent.space == kernel_of_rows(endo.commutant_system(g._nonzero, n), n * n)


def test_der_and_cent_are_right_while_threads_solve_at_once():
    # each thread's solves feed echelons of its own: with one stack shared by all
    # threads, a solve fed the echelon another thread had pushed last
    algebras = [parse_algebra(s) for s in ("cur:sl:2,jet:1,3", "cur:sl:2,jet:2,2",
                                           "cur:sl:2,points:2", "gl:2")]
    expected = [(_fresh(endo.derivations, g).space, _fresh(endo.centroid, g).space)
                for g in algebras]
    got, errors = [], []

    def work(k):
        for i in range(25):
            j = (i + k) % len(algebras)
            try:
                got.append((j, _fresh(endo.derivations, algebras[j]).space,
                            _fresh(endo.centroid, algebras[j]).space))
            except Exception as exc:  # a solve on another thread's echelon may raise
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(got) == 100
    assert all((der, cent) == expected[j] for j, der, cent in got)


@pytest.mark.parametrize("mutation", ["alpha off by one", "every coefficient zero"])
def test_a_wrong_relation_coefficient_is_refused_by_the_certificate(monkeypatch, mutation):
    # sl:3 relabeled, so no memoized centroid of an equal algebra is served
    g = classical("sl", 3).permuted((3, 1, 4, 0, 7, 2, 6, 5))
    n = g.dim
    real, hits = endo._residue, []

    def wrong(pivots, v):
        out = real(pivots, v)
        if 2 * n in out:  # the relation of a spun pair: alpha sits in column 2n
            hits.append(out[2 * n])
            out = {**out, 2 * n: out[2 * n] + 1} if mutation == "alpha off by one" else {2 * n: 0}
        return out

    monkeypatch.setattr(endo, "_residue", wrong)
    with pytest.raises(LiestructError, match="centroid"):
        _fresh(endo.centroid, g)
    assert hits
    monkeypatch.undo()
    assert _fresh(endo.centroid, g).space == _full_kernels(g)[1]


def test_spun_centroid_of_ten_simple_ideals_equals_the_full_row_kernel(monkeypatch):
    # sl:3 (x) Q^10 on the point basis: ten seeds, one per ideal, so m n = 800 of n^2 = 6400
    g = parse_algebra("cur:sl:3,points:10", max_dim=80)
    n = g.dim
    cols = []
    _row_counter(monkeypatch, cols)
    cent = _fresh(endo.centroid, g)
    assert cols == [10 * n] and cent.dim == 10
    monkeypatch.undo()
    assert cent.space == kernel_of_rows(endo.commutant_system(g._nonzero, n), n * n)


# ---------------------------------------------------------------------------
# one spinner for the generating set and the commutant
# ---------------------------------------------------------------------------


@pytest.fixture
def spinners(monkeypatch):
    """Every endo._Spinner made from now on, in the order they are made."""
    made = []

    class Recorded(endo._Spinner):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(endo, "_Spinner", Recorded)
    return made


def _generated(g, gens) -> Subspace:
    """The subalgebra generated by the basis vectors ``gens``: their span, grown by
    the brackets of all pairs of its basis vectors until it is stable."""
    n = g.dim
    span = Subspace.span([unit_vector(n, s) for s in gens], n)
    while True:
        rows = span.rows
        grown = span.sum(Subspace.span([g.bracket(u, v) for u in rows for v in rows], n))
        if grown == span:
            return span
        span = grown


def _greedy_reference(g) -> list:
    """The greedy pass over the basis by descending count of nonzero brackets,
    membership decided by :func:`_generated`."""
    n, gens = g.dim, []
    units = [unit_vector(n, i) for i in range(n)]
    count = [sum(1 for u in units if any(g.bracket(e, u))) for e in units]
    for i in sorted(range(n), key=lambda i: (-count[i], i)):
        if not _generated(g, gens).contains(units[i]):
            gens.append(i)
    return gens


def _spun_span(spin) -> Subspace:
    """The span of the spinner's basis, once its echelon is checked to hold no tag:
    each pivot row is keyed by its leading column and has no column past n."""
    assert all(min(row) == c and max(row) < spin.n for c, row in spin.pivots.items())
    return Subspace.span(spin.basis, spin.n)


def _check_closures(g, spinners):
    n, nz = g.dim, _integral(g._nonzero)[1]
    gens, spin = endo._greedy_generators(nz)
    assert gens == _greedy_reference(g) and spin is spinners[-1]
    assert _spun_span(spin) == _generated(g, gens) == Subspace.full(n)
    # every prefix and every set with one generator left out
    for sub in [gens[:k] for k in range(len(gens))] + [gens[:k] + gens[k + 1:]
                                                       for k in range(len(gens))]:
        expected = _generated(g, sub)
        assert _generates(nz, sub) == expected.is_full()
        assert _spun_span(spinners[-1]) == expected


@pytest.mark.parametrize("name", FIXTURE_ALGEBRAS)
def test_spun_closures_equal_the_bracket_closure_on_fixtures(request, spinners, name):
    _check_closures(request.getfixturevalue(name), spinners)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", REBASE_SPECS)
def test_spun_closures_equal_the_bracket_closure_on_rebasings(rebase, spinners, spec, seed):
    _check_closures(rebase(parse_algebra(spec), seed), spinners)


def _check_generators(g, spinners):
    # the certificate is read off the greedy spinner: no second spin of the same closure
    gens = _fresh(endo._generators, g)
    assert len(spinners) == 1
    nz = _integral(g._nonzero)[1]
    if gens is None:
        assert len(endo._greedy_generators(nz)[0]) == g.dim
    else:
        assert len(gens) < g.dim and _generates(nz, sorted(gens))
        assert _generated(g, sorted(gens)) == Subspace.full(g.dim)


@pytest.mark.parametrize("name", FIXTURE_ALGEBRAS)
def test_generators_spin_once_and_generate_on_fixtures(request, spinners, name):
    _check_generators(request.getfixturevalue(name), spinners)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec", REBASE_SPECS)
def test_generators_spin_once_and_generate_on_rebasings(rebase, spinners, spec, seed):
    _check_generators(rebase(parse_algebra(spec), seed), spinners)


def test_the_commutant_spins_untagged_and_builds_one_tagged_echelon(monkeypatch, spinners):
    real, echelons = endo._echelon, []

    def counting(rows, pivots):
        out = real(rows, pivots)
        echelons.append(dict(pivots))
        return out

    monkeypatch.setattr(endo, "_echelon", counting)
    gl3 = _gl3_split()
    calls = [(lambda mats=mats: endo.module_commutant(mats), mats[0].nrows)
             for mats in _commutant_cases().values()]
    calls += [(lambda g=g: _fresh(endo.centroid, g), g.dim)
              for g in (gl3, classical("sl", 3).permuted((3, 1, 4, 0, 7, 2, 6, 5)),
                        parse_algebra("cur:sl:2,jet:1,3"))]
    for call, n in calls:
        echelons.clear()
        call()
        # one echelon per call, of [B | I]: a pivot in every column of B, tags past n
        assert len(echelons) == 1 and sorted(echelons[0]) == list(range(n))
        assert max(max(row) for row in echelons[0].values()) < 2 * n
        assert _spun_span(spinners[-1]) == Subspace.full(n)


@pytest.mark.parametrize("where", ["spinning", "map back"])
def test_a_wrong_parent_operator_is_refused_by_the_certificates(monkeypatch, spinners, where):
    # sl:3 relabeled, so no memoized centroid of an equal algebra is served
    g = classical("sl", 3).permuted((5, 1, 4, 0, 7, 2, 6, 3))
    endo._generators(g)  # its spinner is not the one mutated
    spun = []

    def mutate(spin):
        k = next(k for k, p in enumerate(spin.parents) if p is not None)
        j, a = spin.parents[k]
        spin.parents[k] = (j, (a + 1) % len(spin.ops))
        spun.append(spin.parents[k])

    if where == "spinning":
        # recorded with the wrong operator as the vector is made: F_k is wrong,
        # and the identity fails the relations
        real_close = endo._Spinner._close

        def close(self):
            real_close(self)
            if not spun and len(self.basis) == self.n:
                mutate(self)

        monkeypatch.setattr(endo._Spinner, "_close", close)
        message = "the identity fails the spun relations"
    else:
        # read wrongly only where f(b_k) is rebuilt from w, from the first relation
        # block on, so every certificate of a prefix and the final check see it
        real_relations = endo._spin_relations

        def relations(spin, *args):
            for block in real_relations(spin, *args):
                if not spun:
                    mutate(spin)
                yield block

        monkeypatch.setattr(endo, "_spin_relations", relations)
        message = "a spun element fails f A = A f"
    with pytest.raises(LiestructError, match="centroid: " + message):
        _fresh(endo.centroid, g)
    assert spun
    monkeypatch.undo()
    assert _fresh(endo.centroid, g).space == _full_kernels(g)[1]


@pytest.mark.parametrize("seed", range(3))
def test_endo_membership_matches_dense_elimination(rebase, oscillator6, seed):
    """Der, ad g and Cent of a seeded dense rebasing (n^2 = 36 ambient columns, entries past
    2^64 on the last seed) against dense Fraction elimination, on maps inside and outside."""
    g = rebase(oscillator6, 60 + seed, big=seed == 2)
    n, rng = g.dim, random.Random(8500 + seed)
    der, inner, cent = endo.derivations(g), endo.inner_derivations(g), endo.centroid(g)
    ads = [g.ad_basis(i).flatten() for i in range(n)]
    one = Matrix.identity(n).flatten()
    dense = [tuple(F(rng.randint(-2**64, 2**64)) if rng.random() < 0.4 else F(0)
                   for _ in range(n * n)) for _ in range(2)]
    mixed = tuple(sum(rng.randint(-9, 9) * m[j] for m in ads) for j in range(n * n))
    vecs = ads + [one, mixed] + dense + [tuple(x + y for x, y in zip(mixed, dense[0]))]
    for space in (der, inner, cent):
        assert 0 < assert_membership_matches_elimination(space.space, vecs) < len(vecs)
    for big, small in ((der, inner), (der, cent), (cent, inner), (inner, der)):
        expected = all(not any(eliminate_reference(big.space, r)[0]) for r in small.space.rows)
        assert big.space.contains_space(small.space) == expected


@pytest.mark.parametrize("seed", range(4))
def test_centroid_seeds_in_bracket_count_order(seed):
    """On a permuted current algebra the index order takes 2 to 4 seeds, m n unknowns,
    and the bracket-count order one; Cent is the kernel of the n^2-unknown oracle rows."""
    g0 = parse_algebra("cur:sl:2,jet:2,3")
    perm = list(range(g0.dim))
    random.Random(seed).shuffle(perm)
    g = g0.permuted(perm)
    n, nz, gens = g.dim, g._int_constants()[1], endo._generators(g)
    ops = [nz[s] for s in sorted(gens)]
    seeds = []
    for order in (range(n), endo._by_brackets(nz)):
        spin = endo._Spinner(n, ops)
        for i in order:
            spin.push({i: 1})
        seeds.append(spin.parents.count(None))
    assert seeds[1] == 1 < seeds[0]
    cent = endo.centroid(g)
    assert cent.dim == 6
    assert cent.space == kernel_of_rows(endo.commutant_system(g._nonzero, n), n * n)


# ---------------------------------------------------------------------------
# EndoSpace value semantics
# ---------------------------------------------------------------------------


def test_endo_spaces_of_equal_algebras_compare_and_hash_equal():
    a, b = parse_algebra("cur:sl:2,jet:1,3"), parse_algebra("cur:sl:2,jet:1,3")
    for fn in (endo.derivations, endo.centroid):
        x, y = _fresh(fn, a), _fresh(fn, b)
        assert x is not y and x.space is not y.space
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    der, cent = endo.derivations(a), endo.centroid(a)
    assert repr(der) == "EndoSpace(derivations, dim 11 on Q^9)" and der != cent


def test_endo_spaces_of_another_kind_or_size_compare_unequal():
    cent = endo.centroid(classical("sl", 2))
    assert EndoSpace("scalars", 3, cent.space) != cent != cent.space
    zero1, zero2 = EndoSpace("zero", 1, Subspace.zero(1)), EndoSpace("zero", 2, Subspace.zero(4))
    assert zero1 != zero2 and zero1 == EndoSpace("zero", 1, Subspace.zero(1))


def test_endo_space_to_dict_holds_the_canonical_rows_as_strings():
    assert endo.centroid(classical("sl", 2)).to_dict() == {
        "kind": "centroid", "dim": 1, "basis": [["1", "0", "0", "0", "1", "0", "0", "0", "1"]]}
    half = EndoSpace("half", 2, Subspace.span([vector([2, 1, 0, 4])], 4))
    assert half.to_dict() == {"kind": "half", "dim": 1, "basis": [["1", "1/2", "0", "2"]]}


def test_an_endo_space_refuses_a_space_of_another_ambient_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        EndoSpace("x", 3, Subspace.zero(8))
