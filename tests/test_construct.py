"""Builders: classical families, worked examples, coefficient algebras,
current algebras, and Casimir-style centroid elements."""

import itertools
import random
import re
from fractions import Fraction as F
from math import comb

import pytest

from liestruct import (
    CommutativeAlgebra,
    JacobiError,
    LieAlgebra,
    LiestructError,
    Matrix,
    build,
    casimir_adjoint,
    casimir_coefficient_action,
    centroid,
    classical,
    commutative_derivations,
    construct,
    current_algebra,
    direct_sum,
    example_algebra,
    from_dict,
    point_functions,
    quadratic_extension,
    tensor_vector,
    to_dict,
    truncated_poly,
)
from liestruct.linalg import solve, unit_vector, vector, zero_vector

from conftest import kron


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind, n, dim",
    [
        ("sl", 2, 3),
        ("sl", 3, 8),
        ("gl", 2, 4),
        ("gl", 3, 9),
        ("so", 3, 3),
        ("so", 4, 6),
        ("sp", 4, 10),
        ("u", 2, 4),
        ("su", 2, 3),
        ("su", 3, 8),
    ],
)
def test_classical_dimensions(kind, n, dim):
    assert classical(kind, n).dim == dim


def test_sl2_structure(sl2):
    # basis order (E12, E21, H1) = (e, f, h)
    assert sl2.names == ("E12", "E21", "H1")
    e, f, h = (unit_vector(3, i) for i in range(3))
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(h, e) == vector([2, 0, 0])
    assert sl2.bracket(h, f) == vector([0, -2, 0])


def test_so3_structure(so3):
    # basis (A12, A13, A23); [A12, A13] = -A23 from the matrix commutator
    a12, a13, a23 = (unit_vector(3, i) for i in range(3))
    assert so3.bracket(a12, a13) == vector([0, 0, -1])
    assert so3.bracket(a12, a23) == vector([0, 1, 0])
    assert so3.bracket(a13, a23) == vector([-1, 0, 0])


@pytest.mark.parametrize("kind, n", [("sl", 2), ("sl", 3), ("so", 3), ("sp", 4), ("su", 2)])
def test_classical_semisimple(kind, n):
    assert classical(kind, n).flags()["semisimple"]


def test_gl_has_center():
    g = classical("gl", 2)
    fl = g.flags()
    assert not fl["semisimple"] and fl["reductive"]
    assert g.center().dim == 1
    assert classical("gl", 1).flags()["abelian"]


def test_so2_is_abelian():
    assert classical("so", 2).flags()["abelian"]


def test_u2_center():
    g = classical("u", 2)
    assert g.center().dim == 1 and g.flags()["reductive"]


def _families_up_to(max_dim):
    """(kind, n) of every classical algebra of dimension at most max_dim."""
    dims = {"sl": lambda n: n * n - 1, "gl": lambda n: n * n, "so": lambda n: n * (n - 1) // 2,
            "sp": lambda n: n * (n + 1) // 2, "u": lambda n: n * n, "su": lambda n: n * n - 1}
    first = {"sl": 2, "gl": 1, "so": 2, "sp": 2, "u": 1, "su": 2}
    return [(kind, n) for kind, dim in dims.items()
            for n in range(first[kind], max_dim + 1, 2 if kind == "sp" else 1) if dim(n) <= max_dim]


@pytest.mark.parametrize("kind, n", _families_up_to(64) + [("sl", 11), ("gl", 11), ("sp", 22)])
def test_classical_names_are_distinct_and_round_trip(kind, n):
    # from sl:11, gl:11 and sp:22 on, two indices run together would repeat
    # names ("E111" for E_1,11 and E_11,1), which from_dict refuses
    g = classical(kind, n)
    assert len(set(g.names)) == g.dim
    assert from_dict(to_dict(g)) == g


def test_classical_rejects_bad_input():
    with pytest.raises(ValueError):
        classical("sl", 1)
    with pytest.raises(ValueError):
        classical("sp", 3)
    with pytest.raises(ValueError):
        classical("e8", 8)
    with pytest.raises(ValueError):
        classical("gl", 0)
    with pytest.raises(ValueError, match="su needs size >= 2"):
        classical("su", 1)


def _solve_per_pair(basis, m):
    """Structure constants by one `solve` per ordered pair of basis matrices,
    each made a dense `Matrix` here, against the stacked flattened basis: the
    reference for the one-echelon builder, which never forms a dense matrix."""
    names = [name for name, _ in basis]
    mats = [Matrix([[a.get((r, c), 0) for c in range(m)] for r in range(m)]) for _, a in basis]
    cols = Matrix.from_columns([a.flatten() for a in mats])
    table = [[solve(cols, a.commutator(b).flatten()) for b in mats] for a in mats]
    return LieAlgebra(names, table)


@pytest.mark.parametrize(
    "kind, n",
    [("sl", n) for n in range(2, 7)]
    + [("gl", n) for n in range(1, 5)]
    + [("so", n) for n in range(2, 8)]
    + [("sp", n) for n in (2, 4, 6)]
    + [("u", n) for n in range(1, 5)]
    + [("su", n) for n in range(2, 5)],
)
def test_classical_matches_per_pair_solve(monkeypatch, kind, n):
    g = classical(kind, n)
    monkeypatch.setattr(construct, "_from_matrix_basis", _solve_per_pair)
    ref = classical(kind, n)
    assert g.names == ref.names
    assert g.table == ref.table


def test_current_algebra_retains_only_its_nonzero_constants():
    import gc
    import tracemalloc

    k, a = classical("sl", 4), truncated_poly(1, 4)
    build_current = current_algebra.__wrapped__  # past the memo
    build_current(k, a)  # once first, so first-call allocations are not counted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_current(k, a)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a dense 60^3 table of Fractions alone would take more than 2 MB
    assert g.dim == 60 and retained < 0.6e6


def test_matrix_basis_must_be_independent():
    for basis in (
        [("a", {(0, 1): 1}), ("b", {(0, 1): 2})],
        [("a", {(0, 0): 1, (1, 1): -1}), ("b", {(0, 1): 1}), ("c", {(1, 1): 3, (0, 0): -3})],
        [("a", {(0, 1): 1}), ("zero", {})],
    ):
        with pytest.raises(ValueError, match="matrix basis is linearly dependent"):
            construct._from_matrix_basis(basis, 2)


def test_matrix_basis_must_be_closed_under_commutators():
    for basis in (
        # [E12, E21] = E11 - E22 is not in span{E12, E21}
        [("E12", {(0, 1): 1}), ("E21", {(1, 0): 1})],
        # [E11, E12 + E13] = E12 + E13 stays, but [E22, E12 + E13] = -E12 escapes
        [("E11", {(0, 0): 1}), ("E22", {(1, 1): 1}), ("X", {(0, 1): 1, (0, 2): 1})],
    ):
        with pytest.raises(ValueError, match="commutator escapes the span of the basis"):
            construct._from_matrix_basis(basis, 3)


# ---------------------------------------------------------------------------
# worked examples and direct sums
# ---------------------------------------------------------------------------

def test_example_two_dim(two_dim):
    g = example_algebra("two_dim")
    assert g == two_dim
    assert g.bracket(unit_vector(2, 0), unit_vector(2, 1)) == vector([1, 0])
    fl = g.flags()
    assert fl["solvable"] and fl["centerfree"]
    assert not fl["nilpotent"] and not fl["perfect"]


def test_example_five_dim_table_is_not_a_lie_algebra():
    # the requested relation table violates the Jacobi identity on the first
    # basis triple, so the constructor refuses it
    with pytest.raises(JacobiError) as exc:
        example_algebra("five_dim")
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.defect == vector([0, 1, -1, 0, 0])


def test_example_unknown_name():
    with pytest.raises(ValueError):
        example_algebra("three_dim")


def test_direct_sum_single_is_identity(sl2):
    assert direct_sum([sl2]) is sl2


def test_direct_sum_empty_rejected():
    with pytest.raises(ValueError):
        direct_sum([])


def test_direct_sum_blocks(two_dim, heisenberg3):
    g = direct_sum([two_dim, heisenberg3])
    assert g.dim == 5
    assert g.names == ("x1.1", "x2.1", "x.2", "y.2", "z.2")
    # internal brackets survive with offset indices
    assert g.bracket(unit_vector(5, 0), unit_vector(5, 1)) == vector([1, 0, 0, 0, 0])
    assert g.bracket(unit_vector(5, 2), unit_vector(5, 3)) == vector([0, 0, 0, 0, 1])
    # cross brackets vanish
    for i in range(2):
        for j in range(2, 5):
            assert g.bracket(unit_vector(5, i), unit_vector(5, j)) == zero_vector(5)
    assert g.center().dim == 1


def test_direct_sum_flags(sl2):
    g = direct_sum([sl2, sl2])
    fl = g.flags()
    assert fl["semisimple"] and not fl["simple"]


# ---------------------------------------------------------------------------
# coefficient algebras
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, order", [(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_truncated_poly_dimension(m, order):
    a = truncated_poly(m, order)
    assert a.dim == comb(m + order - 1, m)
    assert a.names[0] == "1"
    assert a.unit == unit_vector(a.dim, 0)


def test_truncated_poly_products():
    a = truncated_poly(1, 3)  # basis 1, t, t^2
    assert a.names == ("1", "t", "t^2")
    t = unit_vector(3, 1)
    t2 = unit_vector(3, 2)
    assert a.product(t, t) == t2
    assert a.product(t, t2) == zero_vector(3)  # degree 3 truncated away
    assert a.product(t2, t2) == zero_vector(3)
    assert a.monomials == ((0,), (1,), (2,))


def test_truncated_poly_two_vars():
    a = truncated_poly(2, 2)  # basis 1, x1, x2
    assert a.names == ("1", "x1", "x2")
    x1, x2 = unit_vector(3, 1), unit_vector(3, 2)
    assert a.product(x1, x2) == zero_vector(3)
    assert a.monomials == ((0, 0), (1, 0), (0, 1))


def test_truncated_poly_rejects_bad_shape():
    with pytest.raises(ValueError):
        truncated_poly(0, 2)
    with pytest.raises(ValueError):
        truncated_poly(1, 0)


def test_point_functions_idempotents():
    a = point_functions(3)
    assert a.dim == 3
    for i in range(3):
        ei = unit_vector(3, i)
        assert a.product(ei, ei) == ei
        for j in range(3):
            if j != i:
                assert a.product(ei, unit_vector(3, j)) == zero_vector(3)
    assert a.unit == vector([1, 1, 1])


def test_quadratic_extension_relation():
    a = quadratic_extension(-1)
    r = unit_vector(2, 1)
    assert a.product(r, r) == vector([-1, 0])
    b = quadratic_extension(F(2))
    assert b.product(r, r) == vector([2, 0])


def test_commutative_algebra_validation():
    # non-associative: with u*u = v, u*v = u, v*v = 0 we get
    # (u*u)*v = v*v = 0 but u*(u*v) = u*u = v
    with pytest.raises(ValueError, match="associative"):
        CommutativeAlgebra(
            ["1", "u", "v"],
            [1, 0, 0],
            [
                [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])],
                [vector([0, 1, 0]), vector([0, 0, 1]), vector([0, 1, 0])],
                [vector([0, 0, 1]), vector([0, 1, 0]), vector([0, 0, 0])],
            ],
        )
    # asymmetric table: s*1 != 1*s
    with pytest.raises(ValueError, match="commutative"):
        CommutativeAlgebra(
            ["1", "s"],
            [1, 0],
            [
                [vector([1, 0]), vector([0, 1])],
                [vector([1, 0]), vector([0, 0])],
            ],
        )


# ---------------------------------------------------------------------------
# the structure-constant core against dense references
# ---------------------------------------------------------------------------


def _dense_product(table, u, v):
    """u v = sum of u_a v_b table[a][b] over the a, b with u_a v_b != 0, entry by entry."""
    n = len(table)
    pairs = [(a, b) for a in range(n) for b in range(n) if u[a] and v[b]]
    return tuple(sum((u[a] * v[b] * table[a][b][m] for a, b in pairs), F(0)) for m in range(n))


def _first_non_associative_triple(table):
    """First (i, j, k), in product order, with (e_i e_j) e_k != e_i (e_j e_k)."""
    n = len(table)
    for i, j, k in itertools.product(range(n), repeat=3):
        e_i, e_k = unit_vector(n, i), unit_vector(n, k)
        if _dense_product(table, table[i][j], e_k) != _dense_product(table, e_i, table[j][k]):
            return i, j, k
    return None


NON_ASSOCIATIVE = (
    ["1", "u", "v"],
    [1, 0, 0],
    [
        [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])],
        [vector([0, 1, 0]), vector([0, 0, 1]), vector([0, 1, 0])],
        [vector([0, 0, 1]), vector([0, 1, 0]), vector([0, 0, 0])],
    ],
)


def _perturbed_truncated_poly(seed):
    """truncated_poly(2, 3) with one symmetric pair of products off the unit
    changed; the result stays commutative and unital."""
    rng = random.Random(seed)
    a = truncated_poly(2, 3)
    table = [[list(v) for v in row] for row in a.table]
    i, j = sorted((rng.randrange(1, a.dim), rng.randrange(1, a.dim)))
    m, delta = rng.randrange(a.dim), F(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2)))
    table[i][j][m] += delta
    if i != j:
        table[j][i][m] += delta
    return a.names, a.unit, table


def _rational_cubic_table(delta):
    """Q(cbrt 2) on the basis 1, r/2, r^2/3 (constants 1/2, 2/3, 3/4, 4/3, ...),
    with delta added to the coefficient of the unit in (r/2)(r^2/3)."""
    r, r2 = F(1, 2), F(1, 3)
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, r * r / r2], [r * r2 * 2, 0, 0]],
        [[0, 0, 1], [r * r2 * 2, 0, 0], [0, r2 * r2 * 2 / r, 0]],
    ]
    table[1][2][0] += delta
    table[2][1][0] += delta
    return ["1", "s", "s^2"], [1, 0, 0], [[vector(v) for v in row] for row in table]


ASSOCIATIVITY_CASES = [NON_ASSOCIATIVE] + [_perturbed_truncated_poly(seed) for seed in range(16)] + [
    _rational_cubic_table(delta) for delta in (F(0), F(1, 3), F(-1, 2))
]


@pytest.mark.parametrize("case", range(len(ASSOCIATIVITY_CASES)))
def test_associativity_check_reports_the_dense_first_failing_triple(case):
    names, unit, table = ASSOCIATIVITY_CASES[case]
    triple = _first_non_associative_triple(table)
    if triple is None:
        assert CommutativeAlgebra(names, unit, table).dim == len(table)
    else:
        message = "product is not associative on basis triple (%d, %d, %d)" % triple
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            CommutativeAlgebra(names, unit, table)


def test_rational_cubic_cases_fail_exactly_when_perturbed():
    cases = [_rational_cubic_table(delta) for delta in (F(0), F(1, 3), F(-1, 2))]
    for _, _, table in cases:
        assert any(x.denominator > 1 for row in table for v in row for x in v)
    assert [_first_non_associative_triple(t) is None for _, _, t in cases] == [True, False, False]


def test_associativity_cases_mostly_fail():
    failing = [c for c in ASSOCIATIVITY_CASES if _first_non_associative_triple(c[2])]
    assert len(failing) >= 12


def _cubic_field():
    """Q(cbrt 2) on the basis 1, r, r^2 with r^3 = 2."""
    return CommutativeAlgebra(["1", "r", "r^2"], [1, 0, 0], [
        [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])],
        [vector([0, 1, 0]), vector([0, 0, 1]), vector([2, 0, 0])],
        [vector([0, 0, 1]), vector([2, 0, 0]), vector([0, 2, 0])],
    ])


def _seeded_vectors(rng, n, count=6):
    return [
        vector([F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                for _ in range(n)])
        for _ in range(count)
    ] + [zero_vector(n), unit_vector(n, n - 1)]


@pytest.mark.parametrize("a", [_cubic_field(), quadratic_extension(-3), truncated_poly(2, 3)])
def test_product_and_mult_matrix_match_dense_reference(a):
    rng = random.Random(a.dim)
    vecs = _seeded_vectors(rng, a.dim)
    for u in vecs:
        cols = [_dense_product(a.table, u, unit_vector(a.dim, j)) for j in range(a.dim)]
        assert a.mult_matrix(u) == Matrix.from_columns(cols)
        for v in vecs:
            assert a.product(u, v) == _dense_product(a.table, u, v)


def test_equal_commutative_algebras_hash_equal():
    a, b = truncated_poly(2, 3), truncated_poly(2, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    by_hand = CommutativeAlgebra(["p1", "p2"], [1, 1], [
        [unit_vector(2, 0), zero_vector(2)], [zero_vector(2), unit_vector(2, 1)]
    ])
    assert by_hand == point_functions(2) and hash(by_hand) == hash(point_functions(2))
    assert _cubic_field() == _cubic_field() and hash(_cubic_field()) == hash(_cubic_field())
    dense = CommutativeAlgebra(a.names, a.unit, a.table, a.monomials)
    assert dense == a and hash(dense) == hash(a) and dense._nonzero == a._nonzero
    renamed = CommutativeAlgebra(["1", "s"], quadratic_extension(2).unit,
                                 quadratic_extension(2).table)
    assert renamed != quadratic_extension(2)
    assert quadratic_extension(2) != quadratic_extension(3)


@pytest.mark.parametrize(
    "a, dim",
    [
        (truncated_poly(1, 1), 0),
        (truncated_poly(1, 2), 1),
        (truncated_poly(1, 3), 2),
        (truncated_poly(1, 4), 3),
        (truncated_poly(2, 2), 4),
        (point_functions(3), 0),
        (quadratic_extension(2), 0),
        (quadratic_extension(-1), 0),
    ],
)
def test_commutative_derivations_dimension(a, dim):
    assert commutative_derivations(a).dim == dim


def test_commutative_derivations_leibniz():
    a = truncated_poly(2, 3)
    ders = commutative_derivations(a)
    n = a.dim
    for d in ders.basis_matrices():
        for i in range(n):
            for j in range(n):
                u, v = unit_vector(n, i), unit_vector(n, j)
                lhs = d.apply(a.product(u, v))
                rhs = tuple(
                    x + y
                    for x, y in zip(
                        a.product(d.apply(u), v), a.product(u, d.apply(v))
                    )
                )
                assert lhs == rhs


# ---------------------------------------------------------------------------
# current algebras
# ---------------------------------------------------------------------------

def test_current_algebra_dim_and_names(sl2):
    a = truncated_poly(1, 2)
    g = current_algebra(sl2, a)
    assert g.dim == 6
    assert g.names[0] == "E12(x)1" and g.names[1] == "E12(x)t"


def test_current_algebra_brackets(sl2):
    a = truncated_poly(1, 3)
    g = current_algebra(sl2, a)
    e_t = tensor_vector(sl2, a, unit_vector(3, 0), unit_vector(3, 1))
    f_t = tensor_vector(sl2, a, unit_vector(3, 1), unit_vector(3, 1))
    h_t2 = tensor_vector(sl2, a, unit_vector(3, 2), unit_vector(3, 2))
    assert g.bracket(e_t, f_t) == h_t2  # [e (x) t, f (x) t] = h (x) t^2


def test_current_algebra_truncation(sl2):
    a = truncated_poly(1, 2)
    g = current_algebra(sl2, a)
    e_t = tensor_vector(sl2, a, unit_vector(3, 0), unit_vector(2, 1))
    f_t = tensor_vector(sl2, a, unit_vector(3, 1), unit_vector(2, 1))
    assert g.bracket(e_t, f_t) == zero_vector(6)  # t^2 = 0 here


@pytest.mark.parametrize("call, lengths", [
    (lambda sl2, a: sl2.bracket([1, 0], [0, 1, 0]), (2, 3)),
    (lambda sl2, a: sl2.ad([1, 0, 0, 5]), (4, 3)),
    (lambda sl2, a: a.product([1, 0], [0, 1, 0]), (2, 3)),
    (lambda sl2, a: a.mult_matrix([0, 1, 0, 0]), (4, 3)),
    (lambda sl2, a: tensor_vector(sl2, truncated_poly(1, 2), [1, 0, 0], [0, 0, 1]), (3, 2)),
    # too short was padded with zeros, too long failed deep in the ad columns
    (lambda sl2, a: casimir_coefficient_action(sl2, truncated_poly(1, 2), [1]), (1, 2)),
    (lambda sl2, a: casimir_coefficient_action(sl2, truncated_poly(1, 2), [0, 1, 5]), (3, 2)),
], ids=["bracket", "ad", "product", "mult_matrix", "tensor_vector", "casimir short",
        "casimir long"])
def test_a_vector_of_the_wrong_length_is_refused(sl2, call, lengths):
    with pytest.raises(ValueError, match="vector length %d != dimension %d" % lengths):
        call(sl2, truncated_poly(1, 3))


def test_current_algebra_one_point_recovers_factor(sl2):
    g = current_algebra(sl2, point_functions(1))
    assert g.table == sl2.table


def test_current_algebra_perfect(sl2):
    for a in (truncated_poly(1, 2), point_functions(2)):
        assert current_algebra(sl2, a).flags()["perfect"]


def test_tensor_vector_layout(sl2):
    a = truncated_poly(1, 2)
    v = tensor_vector(sl2, a, vector([1, 0, 2]), vector([3, 5]))
    # index i * dim A + p
    assert v == vector([3, 5, 0, 0, 6, 10])


# ---------------------------------------------------------------------------
# centroid of a current algebra is the coefficient algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a", [truncated_poly(1, 2), point_functions(3)], ids=["jet", "points"]
)
def test_centroid_of_currents_matches_coefficients(sl2, a):
    g = current_algebra(sl2, a)
    cent = centroid(g)
    assert cent.dim == a.dim
    mults = [
        kron(Matrix.identity(3), a.mult_matrix(unit_vector(a.dim, p)))
        for p in range(a.dim)
    ]
    for mp in mults:
        assert cent.contains(mp)
    # multiplication operators compose exactly like the coefficient products
    for p in range(a.dim):
        for q in range(a.dim):
            prod = a.product(unit_vector(a.dim, p), unit_vector(a.dim, q))
            assert mults[p] @ mults[q] == kron(
                Matrix.identity(3), a.mult_matrix(prod)
            )


# ---------------------------------------------------------------------------
# Casimir elements
# ---------------------------------------------------------------------------

def test_casimir_identity_on_simple(sl2, so3):
    assert casimir_adjoint(sl2) == Matrix.identity(3)
    assert casimir_adjoint(so3) == Matrix.identity(3)


def test_casimir_identity_on_semisimple_sum():
    assert casimir_adjoint(classical("so", 4)) == Matrix.identity(6)


def test_casimir_rejects_degenerate_killing(two_dim, heisenberg3):
    with pytest.raises(LiestructError):
        casimir_adjoint(two_dim)
    with pytest.raises(LiestructError):
        casimir_adjoint(heisenberg3)


def test_casimir_coefficient_action_is_multiplication(sl2):
    a = truncated_poly(1, 2)
    g = current_algebra(sl2, a)
    cent = centroid(g)
    for p in range(a.dim):
        coeff = unit_vector(a.dim, p)
        f = casimir_coefficient_action(sl2, a, coeff)
        assert cent.contains(f)
        # f_a(x (x) b) = x (x) ab on every tensor basis vector
        for i in range(3):
            for q in range(a.dim):
                arg = tensor_vector(sl2, a, unit_vector(3, i), unit_vector(a.dim, q))
                want = tensor_vector(
                    sl2, a, unit_vector(3, i), a.product(coeff, unit_vector(a.dim, q))
                )
                assert f.apply(arg) == want


def test_casimir_coefficient_action_unit_is_identity(sl2):
    a = truncated_poly(1, 2)
    assert casimir_coefficient_action(sl2, a, a.unit) == Matrix.identity(6)


def test_casimir_coefficient_action_composes(sl2):
    a = truncated_poly(1, 3)
    t = unit_vector(3, 1)
    ft = casimir_coefficient_action(sl2, a, t)
    ft2 = casimir_coefficient_action(sl2, a, a.product(t, t))
    assert ft @ ft == ft2
    assert (ft @ ft @ ft).is_zero()  # t^3 = 0


# ---------------------------------------------------------------------------
# Killing form and both Casimirs against Fraction oracles on dense bases
# ---------------------------------------------------------------------------

REBASED = {
    "sl:3": lambda rebase: rebase(classical("sl", 3), 1),
    "so:5": lambda rebase: rebase(classical("so", 5), 2),
    "sum:sl:2+sl:3": lambda rebase: rebase(
        direct_sum([classical("sl", 2), classical("sl", 3)]), 3),
    "sl:2 (x) Q(i)": lambda rebase: rebase(
        current_algebra(classical("sl", 2), quadratic_extension(-1)), 4),
    "sl:2 (x) Q(sqrt2)": lambda rebase: rebase(
        current_algebra(classical("sl", 2), quadratic_extension(2)), 5),
    "sl:3, entries >= 2^64": lambda rebase: rebase(classical("sl", 3), 6, big=True),
    "so:5 (x) 2/3": lambda rebase: rebase(classical("so", 5), 7, scale=F(2, 3)),
}


@pytest.fixture(scope="module")
def rebased(rebase):
    return {name: make(rebase) for name, make in REBASED.items()}


def _traced_form(g):
    """tr(ad e_i ad e_j) from dense ad matrices."""
    ads = [g.ad_basis(i) for i in range(g.dim)]
    return Matrix([[(a @ b).trace() for b in ads] for a in ads])


def _inverse(m):
    """m^-1 through sympy where it is installed, Matrix.inverse otherwise."""
    try:
        import sympy
    except ImportError:
        return m.inverse()
    inv = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                        for r in m.rows]).inv()
    return Matrix([[F(int(inv[i, j].p), int(inv[i, j].q)) for j in range(m.ncols)]
                   for i in range(m.nrows)])


def _naive_casimir(k, left, right):
    """sum_i left(e_i) right(x^i), x^i column i of the inverse traced Killing form."""
    inv = _inverse(_traced_form(k))
    terms = [left(unit_vector(k.dim, i)) @ right(inv.column(i)) for i in range(k.dim)]
    return sum(terms[1:], terms[0])


def test_rebased_bases_are_dense_and_large(rebased):
    def constants(g):
        return [c for row in g._nonzero for v in row for _, c in v]

    for g in rebased.values():
        assert sum(1 for row in g._nonzero for v in row if v) > g.dim * (g.dim - 1) // 2
    assert max(abs(c.numerator) for c in constants(rebased["sl:3, entries >= 2^64"])) >= 2**64
    assert {c.denominator for c in constants(rebased["so:5 (x) 2/3"])} == {1, 3}


@pytest.mark.parametrize("name", REBASED)
def test_killing_form_matches_traced_ad_products(rebased, name):
    g = rebased[name]
    assert g.killing_form() == _traced_form(g)


@pytest.mark.parametrize("name", REBASED)
def test_casimir_adjoint_matches_killing_dual_sum(rebased, name):
    g = rebased[name]
    assert casimir_adjoint(g) == _naive_casimir(g, g.ad, g.ad)


@pytest.mark.parametrize("lie", ["sl:2", "sl:3"])
@pytest.mark.parametrize("coeff_spec", ["jet:1,3", "points:3"])
def test_casimir_coefficient_action_matches_killing_dual_sum(lie, coeff_spec):
    from liestruct.cli import parse_algebra, parse_coefficient_algebra

    k, a = parse_algebra(lie), parse_coefficient_algebra(coeff_spec)
    g = current_algebra(k, a)
    coeffs = [unit_vector(a.dim, p) for p in range(a.dim)] + [
        a.unit, vector([F(1, 2), -3, F(2, 5)]), ["2/7", 0, "-1"]]
    for coeff in coeffs:
        expected = _naive_casimir(k, lambda x: g.ad(tensor_vector(k, a, x, coeff)),
                                  lambda x: g.ad(tensor_vector(k, a, x, a.unit)))
        assert casimir_coefficient_action(k, a, coeff) == expected


@pytest.mark.parametrize("name", ["heisenberg", "two_dim", "gl:3"])
def test_casimirs_refuse_a_degenerate_killing_form(name, heisenberg3, two_dim):
    k = {"heisenberg": heisenberg3, "two_dim": two_dim, "gl:3": classical("gl", 3)}[name]
    message = "^Killing form is degenerate; no dual basis exists$"
    for call in (lambda: casimir_adjoint(k),
                 lambda: casimir_coefficient_action(k, point_functions(2), [1, 1])):
        with pytest.raises(LiestructError, match=message) as info:
            call()
        assert type(info.value) is LiestructError


def test_a_degenerate_killing_form_is_refused_from_the_rank_before_the_echelon(monkeypatch):
    message = "^Killing form is degenerate; no dual basis exists$"
    data = to_dict(classical("gl", 3))
    # under names of their own, so that no memo entry of an equal algebra is shared
    k = from_dict({**data, "basis": ["k%d" % i for i in range(9)]})  # with the Jacobi verdict
    raw = from_dict({**data, "basis": ["d%d" % i for i in range(9)]}, validate=False)
    echelon = construct._echelon
    calls = []
    monkeypatch.setattr(construct, "_echelon", lambda *a: calls.append(1) or echelon(*a))
    for g, echelons in ((k, 0), (raw, 1)):
        calls.clear()
        with pytest.raises(LiestructError, match=message) as info:
            casimir_adjoint(g)
        assert type(info.value) is LiestructError and len(calls) == echelons


def test_killing_form_and_casimirs_build_no_ad_matrix_and_no_matrix_sum(monkeypatch, rebase):
    # freshly rebased, so no memo entry of an equal algebra holds a Killing form
    g, k = rebase(classical("so", 5), 101), rebase(classical("sl", 2), 102)
    a, coeff = truncated_poly(1, 2), vector([F(3, 2), -1])
    current = current_algebra(k, a)
    expected = (_traced_form(g), _naive_casimir(g, g.ad, g.ad), _naive_casimir(
        k, lambda x: current.ad(tensor_vector(k, a, x, coeff)),
        lambda x: current.ad(tensor_vector(k, a, x, a.unit))))

    def refuse(*_):
        raise AssertionError("a dense ad matrix or Matrix product or sum was built")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "__add__", refuse)
    monkeypatch.setattr(LieAlgebra, "ad", refuse)
    got = (LieAlgebra.killing_form.__wrapped__(g), casimir_adjoint(g),
           casimir_coefficient_action(k, a, coeff))
    assert got == expected
