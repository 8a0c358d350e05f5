"""Derivations, centroid, J-space, nilpotent/semisimple centroid split."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

from liestruct import build, classical, endo
from liestruct.errors import PreconditionError
from liestruct.linalg import Matrix, vector


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
    n = g.dim
    return [
        sympy.Matrix(n, n, lambda k, j: sympy.Rational(g.table[i][j][k].numerator,
                                                       g.table[i][j][k].denominator))
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
    rows = list(endo.leibniz_system(g.table, n)) + list(endo.commutant_system(ads, n))
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
