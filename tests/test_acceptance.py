"""Acceptance gate: twelve structural criteria, each a single test whose
pytest -v line is its pass/fail line (a summary table is printed at the end
of the run; see conftest).

Every assertion compares two independently computed exact quantities —
subspaces in canonical form, Fraction matrices, or dimension counts — so
there are no tolerances anywhere. Parts that require the five-dimensional
worked example are expected failures: that relation table violates the
Jacobi identity on basis triple (0, 1, 2), so the constructor rejects it;
each such part has a valid companion exercising the same machinery on an
algebra with the same structural profile (perfect, one-dimensional center).
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from liestruct import (
    JacobiError,
    Matrix,
    Subspace,
    casimir_adjoint,
    casimir_coefficient_action,
    centroid,
    centroid_of_sections_check,
    commutative_derivations,
    complex_structure,
    current_algebra,
    current_der_decomposition,
    derivations,
    direct_sum,
    example_algebra,
    indecompose,
    indecomposability_of_sections_check,
    inner_derivations,
    jet_algebra,
    jet_reparametrization_automorphism,
    leibniz_expand,
    multinomial_sum,
    point_functions,
    s_part_of_sections_check,
    section_center_check,
    section_commutator_check,
    split_centroid,
    symbol_check,
    tensor_vector,
    truncated_poly,
    x_derivations,
)
from liestruct.linalg import unit_vector, vector, zero_vector
from liestruct.sections import _apply_partial_power

from conftest import kron

FIVE_DIM_BLOCKED = pytest.mark.xfail(
    strict=True,
    raises=JacobiError,
    reason="the requested five-dimensional relation table violates the "
    "Jacobi identity on basis triple (0, 1, 2), so the constructor "
    "rejects it",
)


# ---------------------------------------------------------------------------
# criterion 1: structure flags of the worked examples
# ---------------------------------------------------------------------------

@pytest.mark.criterion(1)
def test_c01_two_dim_structure_flags(two_dim):
    fl = two_dim.flags()
    assert fl["centerfree"] and not fl["perfect"] and not fl["reductive"]
    assert fl["solvable"] and not fl["nilpotent"] and not fl["abelian"]
    assert two_dim.center().dim == 0
    assert two_dim.commutator_algebra().dim == 1


@pytest.mark.criterion(1)
@FIVE_DIM_BLOCKED
def test_c01_five_dim_structure_flags():
    g = example_algebra("five_dim")
    fl = g.flags()
    assert fl["perfect"] and not fl["reductive"]
    assert g.center().dim == 1


@pytest.mark.criterion(1)
def test_c01_flags_on_a_valid_perfect_center_table(oscillator6):
    # same structural profile the five-dimensional table was meant to show
    fl = oscillator6.flags()
    assert fl["perfect"] and not fl["reductive"] and not fl["centerfree"]
    assert oscillator6.center().dim == 1
    assert oscillator6.commutator_algebra().is_full()


# ---------------------------------------------------------------------------
# criterion 2: semisimple algebras
# ---------------------------------------------------------------------------

@pytest.mark.criterion(2)
def test_c02_semisimple_der_inner_and_scalar_centroid(sl2, sl3, so3):
    for g in (sl2, sl3, so3):
        der = derivations(g)
        inner = inner_derivations(g)
        assert der.space == inner.space  # every derivation is inner
        cent = centroid(g)
        assert cent.dim == 1 and cent.contains(Matrix.identity(g.dim))
        nil, semi = split_centroid(g)
        assert nil.dim == 0 and semi.dim == 1


# ---------------------------------------------------------------------------
# criterion 3: centroid laws across the example family
# ---------------------------------------------------------------------------

@pytest.mark.criterion(3)
def test_c03_centroid_laws(sl2, sl3, so3, gl2, two_dim, abelian2, heisenberg3,
                           oscillator6, sl2_complex_model):
    algebras = [
        sl2, sl3, so3, gl2, two_dim, abelian2, heisenberg3, oscillator6,
        sl2_complex_model,
        current_algebra(sl2, truncated_poly(1, 2)),
        direct_sum([sl2, sl2]),
    ]
    for g in algebras:
        cent = centroid(g)
        der = derivations(g)
        mats = cent.basis_matrices()
        assert cent.contains(Matrix.identity(g.dim))
        ads = [g.ad_basis(i) for i in range(g.dim)]
        for f in mats:
            # defining property: commutes with every inner derivation
            for a in ads:
                assert f @ a == a @ f
            # module laws against the full derivation algebra
            for d in der.basis_matrices():
                assert der.contains(f @ d)
                assert cent.contains(f.commutator(d))
        comm = g.commutator_algebra()
        z = g.center()
        fl = g.flags()
        for f, h in itertools.product(mats, repeat=2):
            assert cent.contains(f @ h)  # closed under composition
            lie_fh = f.commutator(h)
            # [f, h] annihilates the commutator subalgebra ...
            for row in comm.rows:
                assert lie_fh.apply(row) == zero_vector(g.dim)
            # ... and its image is central
            for col in range(g.dim):
                assert z.contains(lie_fh.column(col))
            if fl["perfect"] or fl["centerfree"]:
                assert lie_fh.is_zero()  # centroid commutative in these cases


# ---------------------------------------------------------------------------
# criterion 4: centroid of a current algebra realizes the coefficients
# ---------------------------------------------------------------------------

@pytest.mark.criterion(4)
def test_c04_centroid_of_currents_is_the_coefficient_algebra(sl2):
    for a in (
        truncated_poly(1, 2),
        truncated_poly(1, 3),
        point_functions(3),
        truncated_poly(2, 2),
    ):
        g = current_algebra(sl2, a)
        cent = centroid(g)
        assert cent.dim == a.dim
        mults = [
            kron(Matrix.identity(3), a.mult_matrix(unit_vector(a.dim, p)))
            for p in range(a.dim)
        ]
        span = Subspace.span([m.flatten() for m in mults], g.dim * g.dim)
        assert span == cent.space  # same subspace, not just same dimension
        # multiplication operators realize the structure constants exactly
        for p in range(a.dim):
            for q in range(a.dim):
                prod = a.product(unit_vector(a.dim, p), unit_vector(a.dim, q))
                assert mults[p] @ mults[q] == kron(
                    Matrix.identity(3), a.mult_matrix(prod)
                )


# ---------------------------------------------------------------------------
# criterion 5: Casimir operators
# ---------------------------------------------------------------------------

@pytest.mark.criterion(5)
def test_c05_casimir_is_identity_on_simple_algebras(sl2, so3):
    assert casimir_adjoint(sl2) == Matrix.identity(3)
    assert casimir_adjoint(so3) == Matrix.identity(3)


@pytest.mark.criterion(5)
def test_c05_casimir_coefficient_action(sl2):
    a = truncated_poly(1, 2)
    g = current_algebra(sl2, a)
    cent = centroid(g)
    assert casimir_coefficient_action(sl2, a, a.unit) == Matrix.identity(g.dim)
    for p in range(a.dim):
        coeff = unit_vector(a.dim, p)
        f = casimir_coefficient_action(sl2, a, coeff)
        assert cent.contains(f)
        for i in range(3):
            for q in range(a.dim):
                arg = tensor_vector(sl2, a, unit_vector(3, i), unit_vector(a.dim, q))
                want = tensor_vector(
                    sl2, a, unit_vector(3, i),
                    a.product(coeff, unit_vector(a.dim, q)),
                )
                assert f.apply(arg) == want  # f_a(x (x) b) = x (x) ab


# ---------------------------------------------------------------------------
# criterion 6: decomposition into indecomposable ideals
# ---------------------------------------------------------------------------

@pytest.mark.criterion(6)
@FIVE_DIM_BLOCKED
def test_c06_decomposition_of_the_prescribed_sum(sl2):
    g = direct_sum([sl2, sl2, example_algebra("five_dim")])
    report = indecompose(g)
    assert sorted(s.dim for s in report.ideals) == [3, 3, 5]


@pytest.mark.criterion(6)
def test_c06_decomposition_and_idempotent_identities(sl2, oscillator6):
    g = direct_sum([sl2, sl2, oscillator6])
    report = indecompose(g)
    assert sorted(s.dim for s in report.ideals) == [3, 3, 6]
    n = g.dim
    total = Matrix.zero(n, n)
    projections = list(report.idempotents)
    for i, p in enumerate(projections):
        assert p @ p == p
        total = total + p
        for q in projections[i + 1:]:
            assert (p @ q).is_zero() and (q @ p).is_zero()
    assert total == Matrix.identity(n)
    # distinct pieces bracket to zero, so the sum really is direct
    for s, t in itertools.combinations(report.ideals, 2):
        for v in s.rows:
            for w in t.rows:
                assert g.bracket(v, w) == zero_vector(n)
    assert report.is_unique()  # all summands perfect: no off-diagonal blocks
    assert report.status == "split"
    assert report.j_dims == (0, 0, 0)


@pytest.mark.criterion(6)
def test_c06_permutation_stability(sl2, oscillator6):
    g = direct_sum([sl2, sl2, oscillator6])
    base = indecompose(g)
    perm = (7, 2, 10, 0, 5, 9, 1, 11, 4, 8, 3, 6)
    h = g.permuted(perm)
    other = indecompose(h)

    def pull_back(space):
        rows = [
            vector(row[perm.index(t)] for t in range(12)) for row in space.rows
        ]
        return Subspace.span(rows, 12)

    assert {pull_back(s) for s in other.ideals} == set(base.ideals)
    assert sorted(other.j_dims) == sorted(base.j_dims)
    assert other.status == base.status


# ---------------------------------------------------------------------------
# criterion 7: complex structures
# ---------------------------------------------------------------------------

@pytest.mark.criterion(7)
def test_c07_complex_structure(sl2, sl2_complex_model):
    found = complex_structure(sl2_complex_model)
    assert found is not None
    J = found.J
    assert J @ J == Matrix.identity(6).scale(-1)
    assert centroid(sl2_complex_model).contains(J)
    # over Q alone there is no such operator on sl2 itself
    assert complex_structure(sl2) is None


# ---------------------------------------------------------------------------
# criterion 8: section theorems over the base/fiber grid
# ---------------------------------------------------------------------------

def _run_section_grid(fibers):
    coefficient_algebras = [
        point_functions(2),
        point_functions(3),
        truncated_poly(1, 2),
        truncated_poly(1, 3),
    ]
    for k in fibers:
        for a in coefficient_algebras:
            rep = section_center_check(k, a)
            assert rep["ok"] and rep["lhs_dim"] == k.center().dim * a.dim
            rep = section_commutator_check(k, a)
            assert rep["ok"]
            assert rep["lhs_dim"] == k.commutator_algebra().dim * a.dim
            rep = centroid_of_sections_check(k, a)
            assert rep["ok"] and rep["full_dim"] == centroid(k).dim * a.dim
            rep = indecomposability_of_sections_check(k, a)
            expected_ideals = a.dim if a.names[0].startswith("p") else 1
            assert rep["ok"] and rep["ideals"] == expected_ideals
            rep = s_part_of_sections_check(k, a)
            s_dim = a.dim if a.names[0].startswith("p") else 1
            assert rep["ok"]
            assert rep["s_dim"] == s_dim and rep["n_dim"] == a.dim - s_dim


@pytest.mark.criterion(8)
def test_c08_section_checks_on_valid_fibers(sl2, two_dim):
    _run_section_grid([sl2, two_dim])


@pytest.mark.criterion(8)
@FIVE_DIM_BLOCKED
def test_c08_section_checks_on_the_requested_five_dim_fiber():
    _run_section_grid([example_algebra("five_dim")])


@pytest.mark.criterion(8)
def test_c08_section_checks_on_a_perfect_center_fiber(oscillator6):
    for a in (point_functions(2), truncated_poly(1, 2)):
        for check in (
            section_center_check,
            section_commutator_check,
            centroid_of_sections_check,
            indecomposability_of_sections_check,
            s_part_of_sections_check,
        ):
            assert check(oscillator6, a)["ok"]


# ---------------------------------------------------------------------------
# criterion 9: derivations at a point
# ---------------------------------------------------------------------------

@pytest.mark.criterion(9)
def test_c09_x_derivation_dimension_formula(sl2, two_dim):
    for k in (sl2, two_dim):
        d_dim = derivations(k).dim
        c_dim = centroid(k).dim
        for m in range(4):
            basis, dim = x_derivations(k, m)
            assert dim == len(basis) == d_dim + m * c_dim
            rep = symbol_check(k, m)
            assert rep["ok"]
            assert rep["kernel_dim"] == d_dim and rep["image_dim"] == m * c_dim


@pytest.mark.criterion(9)
@FIVE_DIM_BLOCKED
def test_c09_x_derivations_on_the_requested_five_dim_fiber():
    k = example_algebra("five_dim")
    _, dim = x_derivations(k, 1)
    assert dim == derivations(k).dim + centroid(k).dim


@pytest.mark.criterion(9)
def test_c09_x_derivations_on_a_perfect_center_fiber(oscillator6):
    d_dim = derivations(oscillator6).dim
    c_dim = centroid(oscillator6).dim
    assert (d_dim, c_dim) == (6, 1)
    for m in range(4):
        _, dim = x_derivations(oscillator6, m)
        assert dim == d_dim + m * c_dim
        assert symbol_check(oscillator6, m)["ok"]


# ---------------------------------------------------------------------------
# criterion 10: derivations of jet current algebras
# ---------------------------------------------------------------------------

@pytest.mark.criterion(10)
def test_c10_derivations_of_jet_currents(sl2):
    for order in (1, 2, 3):
        a = truncated_poly(1, order)
        assert commutative_derivations(a).dim == order - 1  # independent count
        g = current_algebra(sl2, a)
        full = derivations(g)
        assert full.dim == 3 * order + (order - 1)
        rep = current_der_decomposition(sl2, a)
        assert rep["ok"] and rep["direct"]
        assert rep["tensor_part_dim"] == 3 * order
        assert rep["connection_part_dim"] == order - 1
        assert rep["full_dim"] == full.dim


# ---------------------------------------------------------------------------
# criterion 11: multinomial identity and Leibniz expansion
# ---------------------------------------------------------------------------

@pytest.mark.criterion(11)
def test_c11_multinomial_identity_exhaustive():
    cases = 0
    for m in (1, 2, 3):
        for alpha in itertools.product(range(6), repeat=m):
            if sum(alpha) > 5:
                continue
            cases += 1
            expected = F(1) if sum(alpha) == 0 else F(0)
            assert multinomial_sum(alpha) == expected
    assert cases == 83


@pytest.mark.criterion(11)
def test_c11_leibniz_expansion_fifty_cases():
    rng = random.Random(1105)
    jets = [jet_algebra(1, 4), jet_algebra(1, 5), jet_algebra(2, 3)]

    def random_entry(jet, max_deg):
        return tuple(
            F(rng.randint(-3, 3)) if jet.monomial_degree(p) <= max_deg else F(0)
            for p in range(jet.A.dim)
        )

    for case in range(50):
        jet = jets[case % 3]
        r = rng.randint(1, 3)
        deg_t = rng.randint(0, jet.order - 2)
        deg_f = rng.randint(0, jet.order - 1 - deg_t - 1)
        t_mat = [[random_entry(jet, deg_t) for _ in range(r)] for _ in range(r)]
        f_vec = [random_entry(jet, deg_f) for _ in range(r)]
        alpha = tuple(rng.randint(0, 2) for _ in range(jet.m_vars))
        out = leibniz_expand(alpha, t_mat, f_vec, jet)
        # recompute the direct side independently of the expansion
        a = jet.A
        direct = []
        for i in range(r):
            acc = zero_vector(a.dim)
            for j in range(r):
                acc = tuple(
                    x + y for x, y in zip(acc, a.product(t_mat[i][j], f_vec[j]))
                )
            direct.append(_apply_partial_power(jet, alpha, acc))
        assert out == direct


# ---------------------------------------------------------------------------
# criterion 12: jet reparametrization automorphisms
# ---------------------------------------------------------------------------

@pytest.mark.criterion(12)
def test_c12_jet_reparametrization_automorphisms(sl2):
    for order in (3, 4):
        jet = jet_algebra(1, order)
        n = jet.A.dim
        t = unit_vector(n, 1)
        t2 = unit_vector(n, 2)
        mu, rep = jet_reparametrization_automorphism(sl2, jet, t2)
        assert rep["ok"] and rep["automorphism"]
        assert rep["bracket_preserving"] and rep["invertible"]
        assert rep["mu_minus_identity_nilpotent"]
        # substitution acts as t -> t + t^2 on first-order coefficients
        for i in range(3):
            x = unit_vector(3, i)
            arg = tensor_vector(sl2, jet.A, x, t)
            want = tensor_vector(
                sl2, jet.A, x, tuple(u + v for u, v in zip(t, t2))
            )
            assert mu.apply(arg) == want
        # triangularity: mu - 1 strictly raises coefficient degree
        diff = mu - Matrix.identity(3 * n)
        for i in range(3):
            for p in range(n):
                image = diff.column(i * n + p)
                for j in range(3):
                    for q in range(n):
                        if image[j * n + q]:
                            assert j == i
                            assert jet.monomial_degree(q) > jet.monomial_degree(p)
        assert diff.power(order).is_zero()
