"""Section-algebra models: jets with partial derivatives, derivations at a
point, structure checks for current algebras, the generalized Leibniz rule,
and reparametrization automorphisms."""

import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from liestruct import sections
from liestruct import (
    LiestructError,
    Matrix,
    PreconditionError,
    TruncationError,
    build,
    centroid,
    centroid_of_sections_check,
    classical,
    commutative_derivations,
    current_der_decomposition,
    current_algebra,
    derivations,
    direct_sum,
    example_algebra,
    indecomposability_of_sections_check,
    jet_algebra,
    jet_reparametrization_automorphism,
    leibniz_expand,
    multinomial_sum,
    point_functions,
    quadratic_extension,
    s_part_of_sections_check,
    section_center_check,
    section_commutator_check,
    split_centroid,
    symbol_check,
    tensor_vector,
    truncated_poly,
    x_derivations,
)
from liestruct.decompose import _coefficient_idempotents, primitive_idempotents
from liestruct.endo import EndoSpace, _generators
from liestruct.linalg import Subspace, unit_vector, vector, zero_vector

from conftest import jordan_chevalley_reference, kron


# ---------------------------------------------------------------------------
# jet algebras
# ---------------------------------------------------------------------------

def test_jet_algebra_single_variable():
    jet = jet_algebra(1, 3)  # basis 1, t, t^2
    assert jet.m_vars == 1 and jet.order == 3
    d = jet.partials[0]
    one, t, t2 = (unit_vector(3, i) for i in range(3))
    assert d.apply(one) == zero_vector(3)
    assert d.apply(t) == one
    assert d.apply(t2) == vector([0, 2, 0])  # d(t^2) = 2t
    assert jet.eval(vector([5, 7, 9])) == 5
    assert jet.degree(vector([0, 0, 3])) == 2
    assert jet.degree(zero_vector(3)) == -1


def test_jet_functionals_of_the_wrong_length_are_refused():
    jet = jet_algebra(1, 3)
    with pytest.raises(ValueError, match="functional length 3 != vector length 5"):
        jet.eval([1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="functional length 1 != vector length 3"):
        sections.JetAlgebra(jet.A, 1, 3, (F(1),), jet.partials)


def test_jet_degree_of_a_vector_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match="vector length 5 != dimension 3"):
        jet_algebra(1, 3).degree([0, 0, 0, 1, 1])


def test_jet_algebra_two_variables():
    jet = jet_algebra(2, 3)  # basis 1, x1, x2, x1^2, x1x2, x2^2
    assert len(jet.partials) == 2
    a = jet.A
    names = a.names
    assert names == ("1", "x1", "x2", "x1^2", "x1*x2", "x2^2")
    d1, d2 = jet.partials
    x1x2 = unit_vector(6, names.index("x1*x2"))
    assert d1.apply(x1x2) == unit_vector(6, names.index("x2"))
    assert d2.apply(x1x2) == unit_vector(6, names.index("x1"))
    # mixed partials commute
    assert d1 @ d2 == d2 @ d1


def test_jet_partials_satisfy_leibniz_below_boundary():
    jet = jet_algebra(1, 4)
    a, d = jet.A, jet.partials[0]
    t = unit_vector(4, 1)
    t2 = unit_vector(4, 2)
    lhs = d.apply(a.product(t, t2))  # d(t^3) = 3t^2
    assert lhs == vector([0, 0, 3, 0])


# ---------------------------------------------------------------------------
# center and commutator of current algebras
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a",
    [point_functions(2), truncated_poly(1, 2), truncated_poly(1, 3)],
    ids=["points2", "jet12", "jet13"],
)
def test_section_center_and_commutator(sl2, two_dim, heisenberg3, a):
    for k, z_dim, comm_dim in [
        (sl2, 0, 3),
        (two_dim, 0, 1),
        (heisenberg3, 1, 1),
    ]:
        rep = section_center_check(k, a)
        assert rep["ok"]
        assert rep["lhs_dim"] == rep["rhs_dim"] == z_dim * a.dim
        rep = section_commutator_check(k, a)
        assert rep["ok"]
        assert rep["lhs_dim"] == comm_dim * a.dim


# ---------------------------------------------------------------------------
# derivations at a point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, expected", [(0, 3), (1, 4), (2, 5), (3, 6)])
def test_x_derivations_dims_sl2(sl2, m, expected):
    basis, dim = x_derivations(sl2, m)
    assert dim == expected == len(basis)


@pytest.mark.parametrize("m, expected", [(0, 2), (1, 3), (2, 4), (3, 5)])
def test_x_derivations_dims_two_dim(two_dim, m, expected):
    _, dim = x_derivations(two_dim, m)
    assert dim == expected


def test_x_derivations_blocks_land_in_der_and_cent(sl2, two_dim):
    for k in (sl2, two_dim):
        der = derivations(k)
        cent = centroid(k)
        basis, dim = x_derivations(k, 2)
        assert dim == der.dim + 2 * cent.dim
        d_type = [xd for xd in basis if all(s.is_zero() for s in xd.S)]
        s_type = [xd for xd in basis if not all(s.is_zero() for s in xd.S)]
        assert len(d_type) == der.dim and len(s_type) == 2 * cent.dim
        for xd in d_type:
            assert der.contains(xd.D)
        for xd in s_type:
            assert xd.D.is_zero()
            for s in xd.S:
                if not s.is_zero():
                    assert cent.contains(s)


def test_x_derivations_satisfy_defining_identity(sl2):
    # delta(x (x) a) = eval(a) D(x) + sum_u (coefficient of x_u in a) S^u(x);
    # check delta[X, Y] = [delta X, ev Y] + [ev X, delta Y] on all tensor
    # basis pairs of sl2 (x) (order-2 jets in 2 variables)
    m = 2
    a = truncated_poly(m, 2)
    basis, _ = x_derivations(sl2, m)
    n = sl2.dim

    def delta(xd, x, coeff):
        out = [xd.D.apply(x), *(s.apply(x) for s in xd.S)]
        acc = [F(0)] * n
        for w, piece in zip(coeff, out):
            if w:
                acc = [u + w * v for u, v in zip(acc, piece)]
        return tuple(acc)

    def ev(x, coeff):
        return tuple(coeff[0] * xi for xi in x)

    for xd in basis:
        for i in range(n):
            for p in range(a.dim):
                for j in range(n):
                    for q in range(a.dim):
                        x, y = unit_vector(n, i), unit_vector(n, j)
                        br = sl2.bracket(x, y)
                        coeff = a.product(unit_vector(a.dim, p), unit_vector(a.dim, q))
                        lhs = delta(xd, br, coeff)
                        rhs = tuple(
                            u + v
                            for u, v in zip(
                                sl2.bracket(delta(xd, x, unit_vector(a.dim, p)), ev(y, unit_vector(a.dim, q))),
                                sl2.bracket(ev(x, unit_vector(a.dim, p)), delta(xd, y, unit_vector(a.dim, q))),
                            )
                        )
                        assert lhs == rhs


def _reference_point_derivation_rows(g, k, ev, right_term=True):
    """delta[X, Y] = [delta X, ev Y] + [ev X, delta Y] on basis pairs X < Y
    of g = k (x) A, entry by entry, for delta: g -> k; ``right_term=False``
    leaves out [ev X, delta Y]."""
    table, big, target = g.table, g.dim, k.table
    n = len(target)
    for x in range(big):
        for y in range(x + 1, big):
            for r in range(n):
                row = {r * big + c: table[x][y][c] for c in range(big)}
                for s in range(n):
                    if ev[y] is not None:
                        row[s * big + x] = row.get(s * big + x, 0) - target[s][ev[y]][r]
                    if ev[x] is not None and right_term:
                        row[s * big + y] = row.get(s * big + y, 0) - target[ev[x]][s][r]
                yield {col: v for col, v in row.items() if v}


@pytest.mark.parametrize("m", [1, 2])
def test_x_derivations_rejects_a_system_missing_an_evaluation_term(sl2, two_dim, monkeypatch, m):
    solve = x_derivations.__wrapped__  # past the memo, so each call assembles anew
    for k in (sl2, two_dim):
        basis, dim = x_derivations(k, m)
        monkeypatch.setattr(sections, "leibniz_system", _reference_point_derivation_rows)
        assert solve(k, m) == (basis, dim)
        faulty = functools.partial(_reference_point_derivation_rows, right_term=False)
        monkeypatch.setattr(sections, "leibniz_system", faulty)
        with pytest.raises(LiestructError, match="differ from Der"):
            solve(k, m)
        monkeypatch.undo()


def test_x_derivations_requires_perfect_or_centerfree(heisenberg3, abelian1):
    with pytest.raises(PreconditionError, match="neither perfect nor centerfree"):
        x_derivations(heisenberg3, 1)
    with pytest.raises(PreconditionError):
        x_derivations(abelian1, 2)


def test_x_derivations_rejects_negative_directions(sl2):
    with pytest.raises(ValueError):
        x_derivations(sl2, -1)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_symbol_exactness(sl2, two_dim, m):
    for k in (sl2, two_dim):
        rep = symbol_check(k, m)
        assert rep["ok"]
        assert rep["kernel_dim"] == derivations(k).dim
        assert rep["image_dim"] == m * centroid(k).dim
        assert rep["total_dim"] == rep["kernel_dim"] + rep["image_dim"]


# ---------------------------------------------------------------------------
# derivations, centroid, decomposition, and S-part of current algebras
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a, full",
    [
        (truncated_poly(1, 2), 7),   # 3N + (N-1), N = 2
        (truncated_poly(1, 3), 11),  # N = 3
        (point_functions(2), 6),
    ],
    ids=["jet12", "jet13", "points2"],
)
def test_current_der_decomposition_sl2(sl2, a, full):
    rep = current_der_decomposition(sl2, a)
    assert rep["ok"] and rep["direct"]
    assert rep["full_dim"] == full
    assert rep["full_dim"] == rep["tensor_part_dim"] + rep["connection_part_dim"]


def test_current_der_decomposition_two_dim(two_dim):
    rep = current_der_decomposition(two_dim, truncated_poly(1, 2))
    assert rep["ok"]
    assert rep["tensor_part_dim"] == 4  # dim Der (x) dim A = 2 * 2
    assert rep["connection_part_dim"] == 1  # dim Cent * dim Der(A) = 1 * 1


def test_current_der_decomposition_requires_hypothesis(heisenberg3):
    with pytest.raises(PreconditionError):
        current_der_decomposition(heisenberg3, truncated_poly(1, 2))


@pytest.mark.parametrize(
    "a, expected",
    [(truncated_poly(1, 3), 3), (point_functions(2), 2), (quadratic_extension(-1), 2)],
    ids=["jet13", "points2", "gauss"],
)
def test_centroid_of_sections(sl2, a, expected):
    rep = centroid_of_sections_check(sl2, a)
    assert rep["ok"]
    assert rep["full_dim"] == rep["expected_dim"] == expected


def test_centroid_of_sections_two_dim(two_dim):
    rep = centroid_of_sections_check(two_dim, point_functions(2))
    assert rep["ok"] and rep["full_dim"] == 2  # dim Cent(two_dim) = 1


def test_indecomposability_of_sections(sl2, two_dim):
    rep = indecomposability_of_sections_check(sl2, truncated_poly(1, 2))
    assert rep["ok"] and rep["ideals"] == rep["expected"] == 1
    rep = indecomposability_of_sections_check(sl2, point_functions(3))
    assert rep["ok"] and rep["ideals"] == 3
    rep = indecomposability_of_sections_check(two_dim, point_functions(2))
    assert rep["ok"] and rep["ideals"] == 2
    rep = indecomposability_of_sections_check(sl2, quadratic_extension(-1))
    assert rep["ok"] and rep["ideals"] == 1 and rep["status"] == "nonsplit_real"


def test_indecomposability_preconditions(sl2, heisenberg3):
    with pytest.raises(PreconditionError, match="nonzero"):
        indecomposability_of_sections_check(heisenberg3, point_functions(2))
    with pytest.raises(PreconditionError, match="decomposable"):
        indecomposability_of_sections_check(direct_sum([sl2, sl2]), point_functions(2))


def test_s_part_of_sections(sl2, two_dim):
    rep = s_part_of_sections_check(sl2, point_functions(3))
    assert rep["ok"] and rep["s_dim"] == 3 and rep["n_dim"] == 0
    rep = s_part_of_sections_check(sl2, truncated_poly(1, 2))
    assert rep["ok"] and rep["s_dim"] == 1 and rep["n_dim"] == 1
    rep = s_part_of_sections_check(two_dim, truncated_poly(1, 3))
    assert rep["ok"] and rep["s_dim"] == 1 and rep["n_dim"] == 2
    rep = s_part_of_sections_check(sl2, quadratic_extension(-1))
    assert rep["ok"] and rep["s_dim"] == 2 and rep["n_dim"] == 0


def test_s_part_preconditions(heisenberg3):
    with pytest.raises(PreconditionError):
        s_part_of_sections_check(heisenberg3, point_functions(2))


# ---------------------------------------------------------------------------
# sparse tensor rows against dense Kronecker products
# ---------------------------------------------------------------------------

def _sparse(m):
    return {j: x for j, x in enumerate(m.flatten()) if x}


def _random_sparse_matrix(rng, n):
    """Mostly zero entries, one of them surely not; the nonzero ones are
    rationals with numerators past 2^64."""
    def entry(nonzero):
        if not nonzero and rng.random() < 0.6:
            return F(0)
        return F(rng.choice([-1, 1]) * rng.randint(2**64, 2**70), rng.randint(1, 9))
    spot = rng.randrange(n * n)
    return Matrix([[entry(i * n + j == spot) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("seed", range(12))
def test_tensor_rows_equal_dense_kronecker_products(seed):
    rng = random.Random(seed)
    nk, na = rng.randint(1, 4), rng.randint(1, 4)
    if seed < 3:
        nk, na = [(1, 1), (1, 3), (3, 1)][seed]
    xs = [_random_sparse_matrix(rng, nk) for _ in range(rng.randint(1, 3))]
    ys = [_random_sparse_matrix(rng, na) for _ in range(rng.randint(1, 3))]
    xs.append(Matrix.zero(nk, nk))  # a zero row on each side
    ys.insert(0, Matrix.zero(na, na))
    got = sections._tensor_rows([_sparse(x) for x in xs], nk, [_sparse(y) for y in ys], na)
    assert got == [_sparse(kron(x, y)) for x in xs for y in ys]
    assert any(abs(v.numerator) >= 2**64 for row in got for v in row.values())


# The section checks as first written, with every expected element a dense
# Kronecker product of dense basis matrices: the oracle of the sparse rows. The
# grid below meets every precondition, so the oracles leave them out.

def _dense_der_decomposition(k, a):
    g = current_algebra(k, a)
    full = derivations(g)
    n = g.dim
    der_k = derivations(k).basis_matrices()
    cent_k = centroid(k).basis_matrices()
    der_a = commutative_derivations(a).basis_matrices()
    tensor_part = Subspace.span(
        [kron(d, a.mult_matrix(unit_vector(a.dim, p))).flatten()
         for d in der_k for p in range(a.dim)],
        n * n,
    )
    connection_part = Subspace.span([kron(s, d).flatten() for s in cent_k for d in der_a], n * n)
    together = tensor_part.sum(connection_part)
    direct = together.dim == tensor_part.dim + connection_part.dim
    return {
        "check": "derdecomp",
        "full_dim": full.dim,
        "tensor_part_dim": tensor_part.dim,
        "connection_part_dim": connection_part.dim,
        "direct": direct,
        "ok": direct and together == full.space,
    }


def _dense_centroid_check(k, a):
    g = current_algebra(k, a)
    full = centroid(g)
    n = g.dim
    expected = Subspace.span(
        [kron(c, a.mult_matrix(unit_vector(a.dim, p))).flatten()
         for c in centroid(k).basis_matrices() for p in range(a.dim)],
        n * n,
    )
    return {
        "check": "centroid",
        "full_dim": full.dim,
        "expected_dim": centroid(k).dim * a.dim,
        "ok": full.dim == centroid(k).dim * a.dim and expected == full.space,
    }


def _dense_s_part_check(k, a):
    g = current_algebra(k, a)
    n_g, s_g = split_centroid(g)
    s_parts = []
    for p in range(a.dim):
        s, _ = jordan_chevalley_reference(a.mult_matrix(unit_vector(a.dim, p)))
        s_parts.append(kron(Matrix.identity(k.dim), s).flatten())
    expected = Subspace.span(s_parts, g.dim * g.dim)
    return {
        "check": "spart",
        "s_dim": s_g.dim,
        "n_dim": n_g.dim,
        "expected_s_dim": expected.dim,
        "ok": s_g.space == expected,
    }


def _dense_indecomposability_check(k, a):
    # with Cent(k) = Q 1 + nilpotents, Cent(k (x) A) = Cent(k) (x) A has A's primitive
    # idempotents: those of the span of A's dense multiplication matrices
    mults = [a.mult_matrix(unit_vector(a.dim, p)).flatten() for p in range(a.dim)]
    idems, status = primitive_idempotents(
        EndoSpace("centroid", a.dim, Subspace.span(mults, a.dim ** 2)))
    return {"check": "indecomposability", "ideals": len(idems), "expected": len(idems),
            "status": status, "ok": True}


# [e, f] = h, [h, e] = 2e, [h, f] = -2f on sl2 (e, f, h), acting on Q^2 (p, q)
_SL2_ON_Q2 = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2},
              (0, 4): {3: 1}, (1, 3): {4: 1}, (2, 3): {3: 1}, (2, 4): {4: -1}}
_FIBERS = {
    "sl2": lambda: classical("sl", 2),
    "sl3": lambda: classical("sl", 3),
    "su3": lambda: classical("su", 3),
    "2dim": lambda: example_algebra("two_dim"),
    # perfect or centerfree, not semisimple: sl2 x| Q^2 (perfect, centerfree) and
    # the Jacobi algebra sl2 x| h3 ([p, q] = z; perfect, 1-dim center)
    "sl2xQ2": lambda: build(5, _SL2_ON_Q2),
    "jacobi": lambda: build(6, {**_SL2_ON_Q2, (3, 4): {5: 1}}),
    # sl2 over Q(i) as a Q-algebra: Cent = Q(i), so S(k) is no line
    "sl2(i)": lambda: current_algebra(classical("sl", 2), quadratic_extension(-1)),
}
_COEFFICIENTS = {
    "jet13": lambda: truncated_poly(1, 3),
    "jet22": lambda: truncated_poly(2, 2),
    "points3": lambda: point_functions(3),
    "gauss": lambda: quadratic_extension(-1),
}


@pytest.mark.parametrize("a_name", sorted(_COEFFICIENTS))
@pytest.mark.parametrize("k_name", sorted(_FIBERS))
def test_section_checks_equal_their_dense_formulation(k_name, a_name):
    k, a = _FIBERS[k_name](), _COEFFICIENTS[a_name]()
    checks = [
        (current_der_decomposition, _dense_der_decomposition),
        (centroid_of_sections_check, _dense_centroid_check),
        (indecomposability_of_sections_check, _dense_indecomposability_check),
        (s_part_of_sections_check, _dense_s_part_check),
    ]
    if k_name == "sl2(i)":
        # the ideal count and the S part need S(k) = Q 1, and S(sl2 (x) Q(i)) = Q(i):
        # Cent(k (x) Q(i)) = Q(i) (x) Q(i) = Q(i) x Q(i) has two idempotents, Q(i) one
        for check, _ in checks[2:]:
            with pytest.raises(PreconditionError, match="S\\(k\\) must be spanned by the identity"):
                check(k, a)
        del checks[2:]
    for check, oracle in checks:
        got = check(k, a)
        assert got == oracle(k, a) and got["ok"]


@pytest.mark.parametrize("a_name", sorted(_COEFFICIENTS))
def test_multiplications_are_the_regular_representation(a_name):
    a = _COEFFICIENTS[a_name]()
    dense = [a.mult_matrix(unit_vector(a.dim, p)) for p in range(a.dim)]
    den = a._int_constants()[0]
    assert a._flat_left() == [_sparse(m.scale(den)) for m in dense]
    # A's idempotents, searched on its own table, are those of its regular
    # representation, searched as a matrix algebra on the table of that span
    regular = EndoSpace("centroid", a.dim, Subspace.span([m.flatten() for m in dense], a.dim ** 2))
    idems, _ = primitive_idempotents(regular)
    assert {a.mult_matrix(e) for e in _coefficient_idempotents(a)} == set(idems)


# ---------------------------------------------------------------------------
# multi-index combinatorics and the Leibniz rule
# ---------------------------------------------------------------------------

def test_multinomial_sum_is_delta_at_zero():
    import itertools

    for m in (1, 2, 3):
        for alpha in itertools.product(range(6), repeat=m):
            if sum(alpha) > 5:
                continue
            want = F(1) if sum(alpha) == 0 else F(0)
            assert multinomial_sum(alpha) == want


def test_multinomial_sum_rejects_negative():
    with pytest.raises(ValueError):
        multinomial_sum((1, -1))


def test_leibniz_scalar_case():
    jet = jet_algebra(1, 3)
    t = unit_vector(3, 1)
    one = unit_vector(3, 0)
    out = leibniz_expand((1,), [[t]], [one], jet)
    assert out == [one]  # d(t * 1) = 1


def test_leibniz_matrix_case():
    jet = jet_algebra(1, 4)
    n = jet.A.dim
    one, t, t2 = unit_vector(n, 0), unit_vector(n, 1), unit_vector(n, 2)
    t_mat = [[t, one], [zero_vector(n), t2]]
    f_vec = [tuple(x + y for x, y in zip(one, t)), t]
    out = leibniz_expand((2,), t_mat, f_vec, jet)
    # (T f)_0 = t(1 + t) + t = 2t + t^2, second derivative = 2
    # (T f)_1 = t^3, second derivative = 6t
    assert out[0] == vector([2, 0, 0, 0])
    assert out[1] == vector([0, 6, 0, 0])


def test_leibniz_two_variables():
    jet = jet_algebra(2, 3)
    n = jet.A.dim
    x1 = unit_vector(n, jet.A.names.index("x1"))
    x2 = unit_vector(n, jet.A.names.index("x2"))
    out = leibniz_expand((1, 1), [[x1]], [x2], jet)
    assert out == [unit_vector(n, 0)]  # d1 d2 (x1 x2) = 1


def test_leibniz_truncation_boundary():
    jet = jet_algebra(1, 3)
    t = unit_vector(3, 1)
    t2 = unit_vector(3, 2)
    with pytest.raises(TruncationError):
        leibniz_expand((1,), [[t]], [t2], jet)


def test_leibniz_shape_validation():
    jet = jet_algebra(1, 3)
    one = unit_vector(3, 0)
    with pytest.raises(ValueError):
        leibniz_expand((1, 1), [[one]], [one], jet)  # wrong index length
    with pytest.raises(ValueError):
        leibniz_expand((1,), [[one, one]], [one], jet)  # ragged matrix


def test_leibniz_randomized():
    rng = random.Random(20260815)
    jet = jet_algebra(1, 5)
    n = jet.A.dim

    def random_entry(max_deg):
        return tuple(
            F(rng.randint(-3, 3)) if d <= max_deg else F(0) for d in range(n)
        )

    for _ in range(12):
        r = rng.randint(1, 3)
        deg_t = rng.randint(0, 2)
        deg_f = rng.randint(0, 4 - deg_t - 1)
        t_mat = [[random_entry(deg_t) for _ in range(r)] for _ in range(r)]
        f_vec = [random_entry(deg_f) for _ in range(r)]
        alpha = (rng.randint(0, 3),)
        # leibniz_expand raises internally if the identity fails
        leibniz_expand(alpha, t_mat, f_vec, jet)


# ---------------------------------------------------------------------------
# jet reparametrization automorphisms
# ---------------------------------------------------------------------------

def test_jetauto_substitution_on_first_jet(sl2):
    jet = jet_algebra(1, 3)
    t = unit_vector(3, 1)
    t2 = unit_vector(3, 2)
    mu, rep = jet_reparametrization_automorphism(sl2, jet, t2)
    assert rep["ok"] and rep["automorphism"]
    assert rep["bracket_preserving"] and rep["invertible"]
    assert rep["mu_minus_identity_nilpotent"]
    # mu(x (x) t) = x (x) (t + t^2)
    a = jet.A
    for i in range(3):
        x = unit_vector(3, i)
        arg = tensor_vector(sl2, a, x, t)
        want = tensor_vector(sl2, a, x, tuple(u + v for u, v in zip(t, t2)))
        assert mu.apply(arg) == want


def test_jetauto_zero_direction_is_identity(sl2):
    jet = jet_algebra(1, 3)
    mu, rep = jet_reparametrization_automorphism(sl2, jet, zero_vector(3))
    assert rep["ok"] and mu == Matrix.identity(9)


def test_jetauto_triangularity(sl2):
    # mu - 1 strictly raises monomial degree, hence is nilpotent
    jet = jet_algebra(1, 4)
    n = jet.A.dim
    t2 = unit_vector(n, 2)
    mu, rep = jet_reparametrization_automorphism(sl2, jet, t2)
    assert rep["ok"] and rep["mu_minus_identity_nilpotent"]
    diff = mu - Matrix.identity(sl2.dim * n)
    for i in range(sl2.dim):
        for p in range(n):
            image = diff.column(i * n + p)
            deg = jet.monomial_degree(p)
            for j in range(sl2.dim):
                for q in range(n):
                    if image[j * n + q]:
                        assert j == i and jet.monomial_degree(q) > deg


def test_jetauto_rejects_unit_direction(sl2):
    jet = jet_algebra(1, 3)
    with pytest.raises(PreconditionError, match="maximal ideal"):
        jet_reparametrization_automorphism(sl2, jet, unit_vector(3, 0))


def test_jetauto_rejects_multivariable(sl2):
    jet = jet_algebra(2, 2)
    with pytest.raises(PreconditionError, match="single-variable"):
        jet_reparametrization_automorphism(sl2, jet, unit_vector(3, 1))


# The bracket check of jetauto runs on the pairs (s, j) with s in a generating set;
# the oracle is the dense check on all pairs i < j of the full n x n matrix I (x) mu.

_JET_FIBERS = {
    "sl2": lambda: classical("sl", 2),
    "sl3": lambda: classical("sl", 3),
    "2dim": lambda: example_algebra("two_dim"),
    "h3": lambda: build(3, {(0, 1): {2: 1}}),
    "abelian1": lambda: build(1, {}),  # no generating set smaller than the basis
}


def _all_pairs_bracket_check(g, full):
    return all(full.apply(g.bracket(g.basis_vector(i), g.basis_vector(j)))
               == g.bracket(full.column(i), full.column(j))
               for i, j in itertools.combinations(range(g.dim), 2))


def _generator_pair_check(g, full):
    """The library's check on the int columns of den full."""
    den = math.lcm(*(x.denominator for row in full.rows for x in row))
    cols = [tuple((r, int(x * den)) for r, x in enumerate(col) if x) for col in zip(*full.rows)]
    return sections._preserves_brackets(g, den, cols)


def _mu_of(full, na):
    return Matrix([[full[q, p] for p in range(na)] for q in range(na)])


def _unit_matrix(n, q, p):
    return Matrix([[int((r, c) == (q, p)) for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("k_name", sorted(_JET_FIBERS))
def test_jetauto_generator_pairs_agree_with_all_pairs(k_name, order):
    k, jet = _JET_FIBERS[k_name](), jet_algebra(1, order)
    g = current_algebra(k, jet.A)
    # both kinds of pair set are met: a proper generating set, and the whole basis
    assert (_generators(g) is None) == (k_name == "abelian1" or (k_name, order) == ("2dim", 2))
    for d in range(order):  # the directions 0, t, ..., t^(order - 1)
        direction = unit_vector(order, d) if d else zero_vector(order)
        full, rep = jet_reparametrization_automorphism(k, jet, direction)
        assert rep["bracket_preserving"] and _all_pairs_bracket_check(g, full)
        assert full == kron(Matrix.identity(k.dim), _mu_of(full, order))


@pytest.mark.parametrize("k_name", ["sl2", "2dim", "h3", "abelian1"])
def test_jetauto_refuses_a_mu_with_one_entry_changed(k_name):
    # mu' = mu + E_qp for each (q, p), along t -> t + t^2 on Q[t]/(t^4): the pairs
    # through the generators decide as all pairs do. Unless k is abelian, mu' is
    # no automorphism of A for p != 1 (mu'(1) != mu'(1)^2, or mu'(t^p) != mu'(t)
    # mu'(t^(p-1))), so I (x) mu' is refused; for p = 1 it may be one (t -> t + n'(t))
    k, jet = _JET_FIBERS[k_name](), jet_algebra(1, 4)
    g = current_algebra(k, jet.A)
    full, _ = jet_reparametrization_automorphism(k, jet, unit_vector(4, 2))
    mu = _mu_of(full, 4)
    every, refused = set(itertools.product(range(4), repeat=2)), set()
    for q, p in every:
        changed = kron(Matrix.identity(k.dim), mu + _unit_matrix(4, q, p))
        got = _generator_pair_check(g, changed)
        assert got == _all_pairs_bracket_check(g, changed)
        if not got:
            refused.add((q, p))
    if k_name == "abelian1":
        assert not refused
    else:
        assert refused >= {(q, p) for q, p in every if p != 1} and refused != every


@pytest.mark.parametrize("k_name", ["sl2", "2dim", "h3"])
def test_the_generator_pairs_decide_every_one_entry_change_of_phi(k_name):
    # phi' = I (x) mu + E_rc, no longer of the form I (x) mu': each change breaks pairs
    # through column c alone, and the pairs through the generators see them all
    k, jet = _JET_FIBERS[k_name](), jet_algebra(1, 3)
    g = current_algebra(k, jet.A)
    full, _ = jet_reparametrization_automorphism(k, jet, unit_vector(3, 2))
    outcomes = []
    for r, c in itertools.product(range(g.dim), repeat=2):
        changed = full + _unit_matrix(g.dim, r, c)
        outcomes.append(_generator_pair_check(g, changed))
        assert outcomes[-1] == _all_pairs_bracket_check(g, changed)
    assert not all(outcomes)
