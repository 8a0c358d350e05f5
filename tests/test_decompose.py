"""Indecomposable-ideal decomposition, idempotents, complex structures."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from liestruct import (
    build,
    classical,
    current_algebra,
    direct_sum,
    endo,
    example_algebra,
    point_functions,
    quadratic_extension,
    truncated_poly,
)
from liestruct.decompose import (
    STATUSES,
    IdempotentSet,
    centroid_radical,
    complex_structure,
    indecompose,
    primitive_idempotents,
)
from liestruct.errors import LiestructError, PreconditionError, SeparatingElementError
from liestruct.linalg import Matrix, Subspace, kernel_basis, unit_vector, vector
from liestruct.poly import (
    _crt_idempotent,
    degree,
    factor,
    min_poly,
    poly_eval_matrix,
    poly_mod,
    poly_mul,
    squarefree_part,
)

from conftest import block_diag, is_nilpotent, jordan_chevalley_reference, kron


# ---------------------------------------------------------------------------
# the dense oracle: the idempotent search on matrices
# ---------------------------------------------------------------------------
#
# The library searches a structure table with integer Krylov vectors on its
# unit. The oracle is the search as it ran on matrices: a basis of a matrix
# algebra modulo its radical, the same stream of candidates as dense matrix
# sums, minimal polynomials against a unit (or a column it acts on
# faithfully) by poly.min_poly, and idempotents by Horner evaluation.


def _oracle_candidates(basis, bound):
    """The basis, then sum (k + 1) b_k, then the sums sum_k j^k b_k for j = 1..bound."""
    yield from basis
    zero = Matrix.zero(basis[0].nrows, basis[0].ncols)
    yield sum((b.scale(k + 1) for k, b in enumerate(basis)), zero)
    for j in range(1, bound + 1):
        yield sum((b.scale(j ** k) for k, b in enumerate(basis)), zero)


def _split_local(unit, basis):
    """(the primitive idempotents times ``unit``, status) of the matrix algebra with
    identity ``unit`` (or a column it acts on faithfully), from ``basis``, a basis
    modulo its radical."""
    r = len(basis)
    if r == 1:
        return [unit], "split"
    for f in _oracle_candidates(basis, r * (r - 1) // 2 * (r - 1) + 1):
        m = min_poly(f, unit=unit)
        if degree(m) >= r and degree(p := squarefree_part(m)) == r:
            break
    else:
        raise SeparatingElementError("no primitive element found: no candidate generates "
                                     "the residue algebra of dimension %d" % r)
    idems, worst = [], 0
    for q in factor(p):
        primary = q
        while not poly_mod(m, poly_mul(primary, q)):
            primary = poly_mul(primary, q)
        idems.append(poly_eval_matrix(_crt_idempotent(m, primary), f, unit=unit))
        real = degree(q) == 2 and q[1] * q[1] - 4 * q[0] < 0
        worst = max(worst, 0 if degree(q) == 1 else 1 if real else 2)
    return idems, STATUSES[worst]


# ---------------------------------------------------------------------------
# centroid_radical
# ---------------------------------------------------------------------------


def test_radical_of_scalar_centroid_is_zero(sl2, two_dim):
    for g in (sl2, two_dim):
        cent = endo.centroid(g)
        assert centroid_radical(cent).is_zero()


def test_radical_of_jet_current_algebra(sl2):
    g = current_algebra(sl2, truncated_poly(1, 3))
    cent = endo.centroid(g)
    rad = centroid_radical(cent)
    assert rad.dim == 2  # multiplications by t and t^2
    # every radical element is nilpotent
    for coords in rad.rows:
        mat = Matrix.zero(g.dim, g.dim)
        mats = cent.basis_matrices()
        for c, b in zip(coords, mats):
            mat = mat + b.scale(c)
        assert is_nilpotent(mat)


def test_radical_of_heisenberg_centroid(heisenberg3):
    assert centroid_radical(endo.centroid(heisenberg3)).dim == 2


# ---------------------------------------------------------------------------
# primitive_idempotents
# ---------------------------------------------------------------------------


def test_idempotents_scalar_centroid(sl2):
    idems, status = primitive_idempotents(endo.centroid(sl2))
    assert status == "split"
    assert len(idems.projections) == 1
    assert idems.projections[0] == Matrix.identity(3)


def test_idempotents_two_blocks(sl2):
    g = direct_sum([sl2, sl2])
    idems, status = primitive_idempotents(endo.centroid(g))
    assert status == "split"
    ps = idems.projections
    assert len(ps) == 2
    for p in ps:
        assert p @ p == p
    assert (ps[0] @ ps[1]).is_zero()
    assert ps[0] + ps[1] == Matrix.identity(6)


def test_idempotents_complex_model_does_not_split(sl2_complex_model):
    idems, status = primitive_idempotents(endo.centroid(sl2_complex_model))
    assert status == "nonsplit_real"
    assert len(idems.projections) == 1
    assert idems.projections[0] == Matrix.identity(6)


def test_idempotents_real_quadratic_extension_unknown(sl2):
    g = current_algebra(sl2, quadratic_extension(F(2)))
    idems, status = primitive_idempotents(endo.centroid(g))
    assert status == "nonsplit_unknown"
    assert len(idems.projections) == 1


# ---------------------------------------------------------------------------
# indecompose
# ---------------------------------------------------------------------------


def test_indecompose_simple_algebra(sl2):
    report = indecompose(sl2)
    assert len(report.ideals) == 1
    assert report.ideals[0].is_full()
    assert report.status == "split"
    assert report.j_dims == (0,)
    assert report.is_unique()


def test_indecompose_two_copies(sl2):
    g = direct_sum([sl2, sl2])
    report = indecompose(g)
    assert sorted(i.dim for i in report.ideals) == [3, 3]
    assert report.blocks == ((1, 0), (0, 1))
    assert report.is_unique()
    # ideals bracket to zero against each other
    for a, b in itertools.combinations(report.ideals, 2):
        assert g.bracket_span(a, b).is_zero()


def test_indecompose_point_functions(sl2):
    g = current_algebra(sl2, point_functions(3))
    report = indecompose(g)
    assert len(report.ideals) == 3
    assert all(i.dim == 3 for i in report.ideals)
    # each ideal is a copy of sl2
    for ideal in report.ideals:
        piece = g.restrict_to(ideal)
        assert piece.flags()["semisimple"]
        assert piece.flags()["simple"]


def test_indecompose_mixed_sum(sl2, heisenberg3):
    g = direct_sum([sl2, sl2, heisenberg3])
    report = indecompose(g)
    assert sorted(i.dim for i in report.ideals) == [3, 3, 3]
    ps = report.idempotents.projections
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            assert p @ q == (p if i == j else Matrix.zero(9, 9))
    total = Matrix.zero(9, 9)
    for p in ps:
        total = total + p
    assert total == Matrix.identity(9)


def test_indecompose_non_unique_blocks(two_dim, heisenberg3):
    # Hom(two_dim/[,], z(h3)) = Q, so one off-diagonal block is nonzero and
    # the decomposition exists but is not unique
    g = direct_sum([two_dim, heisenberg3])
    report = indecompose(g)
    assert sorted(i.dim for i in report.ideals) == [2, 3]
    flat = sorted(x for row in report.blocks for x in row)
    assert sum(flat) == endo.centroid(g).dim
    assert not report.is_unique()


def test_indecompose_refuses_central_complement(sl2, abelian1):
    g = direct_sum([sl2, abelian1])  # center not inside the commutator
    with pytest.raises(LiestructError):
        indecompose(g)


def test_indecompose_permutation_stability(sl2, heisenberg3):
    g = direct_sum([sl2, sl2, heisenberg3])
    base = indecompose(g)
    perm = (4, 7, 0, 2, 8, 5, 1, 3, 6)
    h = g.permuted(perm)
    other = indecompose(h)
    # map the permuted ideals back through the relabeling and compare as sets
    def pull_back(space):
        rows = [
            vector(row[perm.index(t)] for t in range(9)) for row in space.rows
        ]
        return Subspace.span(rows, 9)

    base_set = {s for s in base.ideals}
    other_set = {pull_back(s) for s in other.ideals}
    assert base_set == other_set


@pytest.mark.parametrize("parts", ["h3+h3", "two_dim+h3", "two_dim+h3+sl3", "h3+sl2"])
def test_indecompose_invariants_match_restricted_ideals(parts, two_dim, heisenberg3, sl2, sl3):
    # reference: each ideal rebuilt as an algebra of its own
    pieces = {"h3": heisenberg3, "two_dim": two_dim, "sl2": sl2, "sl3": sl3}
    g = direct_sum([pieces[p] for p in parts.split("+")])
    report = indecompose(g)
    restricted = [g.restrict_to(s) for s in report.ideals]
    assert report.j_dims == tuple(endo.j_space(gi).dim for gi in restricted)
    assert any(report.j_dims)
    for i, gi in enumerate(restricted):
        for j, gj in enumerate(restricted):
            hom = (gj.dim - gj.commutator_algebra().dim) * gi.center().dim
            expected = endo.centroid(gi).dim if i == j else hom
            assert report.blocks[i][j] == expected


# ---------------------------------------------------------------------------
# complex_structure
# ---------------------------------------------------------------------------


def test_complex_structure_absent_rationally(sl2):
    assert complex_structure(sl2) is None


def test_complex_structure_on_complexified_model(sl2_complex_model):
    cs = complex_structure(sl2_complex_model)
    assert cs is not None
    j = cs.J
    assert j @ j == Matrix.identity(6).scale(F(-1))
    assert endo.centroid(sl2_complex_model).contains(j)


def test_complex_structure_rejects_decomposable(abelian2):
    with pytest.raises(PreconditionError):
        complex_structure(abelian2)


def test_complex_structure_real_quadratic_splits_over_r(sl2):
    g = current_algebra(sl2, quadratic_extension(F(2)))
    with pytest.raises(LiestructError) as exc:
        complex_structure(g)
    assert "split" in str(exc.value).lower() or "real" in str(exc.value).lower()


def test_complex_structure_irrational_imaginary_part(sl2):
    # centroid is Q[r]/(r^2+3): a complex structure exists over R but J = r/b
    # needs b = sqrt(3), which is not rational
    g = current_algebra(sl2, quadratic_extension(F(-3)))
    with pytest.raises(LiestructError) as exc:
        complex_structure(g)
    assert "rational" in str(exc.value).lower() or "square" in str(exc.value).lower()


def test_complex_structure_of_decomposable_current(sl2):
    g = current_algebra(sl2, point_functions(2))
    with pytest.raises(LiestructError):
        complex_structure(g)


# ---------------------------------------------------------------------------
# centroid arithmetic in the regular representation, against End(g)
# ---------------------------------------------------------------------------
#
# The library runs every polynomial in a centroid element on Cent's
# multiplication table: the idempotent search, the semisimple parts of
# split_centroid (Newton in Q[t]/(m)) and the minimal polynomial of
# complex_structure, all from integer Krylov vectors on the unit, and the
# Peirce blocks from products in the table. The references below do the same
# work on the dim g x dim g centroid basis matrices: the search by the dense
# oracle, Jordan-Chevalley by the dense Newton on the characteristic
# polynomial (conftest), with one matrix inverse per step.


def _outcome(fn):
    try:
        return fn()
    except LiestructError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _split_reference(g):
    cent = endo.centroid(g)
    mats = cent.basis_matrices()
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] @ mats[j] != mats[j] @ mats[i]:
                return (
                    "PreconditionError: centroid is not commutative: basis "
                    "elements %d and %d do not commute" % (i, j)
                )
    nn = g.dim * g.dim
    parts = [jordan_chevalley_reference(m) for m in mats]
    semi = Subspace.span([s.flatten() for s, _ in parts], nn)
    nil = Subspace.span([n.flatten() for _, n in parts], nn)
    return nil.rows, semi.rows


def _gram(mats):
    """The trace form tr(a b) on ``mats``, as a dense Gram of matrix products."""
    return Matrix([[(a @ b).trace() for b in mats] for a in mats])


def _gram_radical(mats):
    """A basis of the kernel of the Gram of ``mats``, as matrices: the radical of the
    algebra they span when it is faithfully represented (characteristic 0)."""
    n = mats[0].nrows
    kernel = [sum((m.scale(c) for c, m in zip(v, mats) if c), Matrix.zero(n, n))
              for v in kernel_basis(_gram(mats)).rows]
    return [Matrix.unflatten(r, n, n) for r in _span_of(kernel).sparse_rows()] if kernel else []


def _off_radical(mats):
    """The elements of ``mats`` off the pivots of its Gram's kernel: a basis modulo the
    radical of the algebra they span (when they span one)."""
    pivots = set(kernel_basis(_gram(mats)).pivots)
    return [m for i, m in enumerate(mats) if i not in pivots]


def _decompose_reference(g):
    """(idempotents, status, blocks) from the dim g x dim g search and Peirce loop."""
    cent = endo.centroid(g)
    basis = cent.basis_matrices()
    n = g.dim
    idems, status = _split_local(Matrix.identity(n), _off_radical(basis))
    blocks = tuple(
        tuple(Subspace.span([(p @ b @ q).flatten() for b in basis], n * n).dim for q in idems)
        for p in idems
    )
    return tuple(idems), status, blocks


def _complex_reference(g):
    """J from the minimal polynomial of a dim g x dim g element of S, or None."""
    from liestruct.poly import _rational_square_root, min_poly, squarefree_part

    n = g.dim
    ident = Matrix.identity(n)
    semi = _split_reference(g)[1]
    if len(semi) == 1:
        return None
    line = Subspace.span([ident.flatten()], n * n)
    f = next(Matrix.unflatten(r, n, n) for r in semi if not line.contains(r))
    p = squarefree_part(min_poly(f))
    a = -p[1] / 2
    b = _rational_square_root(p[0] - a * a)
    if p[1] * p[1] - 4 * p[0] >= 0 or b is None:
        return "no rational J"
    return (f - ident.scale(a)).scale(1 / b)


REGULAR_CASES = ("sl:3", "cur:sl:2,jet:2,3", "cur:sl:2,points:4", "sum:sl:2+sl:2+sl:2",
                 "sl2_plus_q_rebased", "sl2 x Q(i)", "sl2 x Q(sqrt 2)", "two_dim + h3", "h3 + h3",
                 "two_dim + h3 + sl3", "sl2 + sl2 x jet:1,2 rebased",
                 "sl2 x Q(i) x jet:1,2 rebased")


@pytest.fixture(scope="module")
def regular_cases(sl2_plus_q_rebased, rebase):
    from liestruct.cli import parse_algebra

    two_dim = example_algebra("two_dim")
    h3 = build(3, {(0, 1): {2: F(1)}}, names=["x", "y", "z"])
    sl2 = classical("sl", 2)
    cases = {s: parse_algebra(s) for s in (
        "sl:3", "cur:sl:2,jet:2,3", "cur:sl:2,points:4", "sum:sl:2+sl:2+sl:2")}
    cases["sl2_plus_q_rebased"] = sl2_plus_q_rebased
    cases["sl2 x Q(i)"] = current_algebra(sl2, quadratic_extension(-1))
    cases["sl2 x Q(sqrt 2)"] = current_algebra(sl2, quadratic_extension(2))
    cases["two_dim + h3"] = direct_sum([two_dim, h3])
    cases["h3 + h3"] = direct_sum([h3, h3])
    cases["two_dim + h3 + sl3"] = direct_sum([two_dim, h3, classical("sl", 3)])
    # dense bases, where no centroid basis element off the radical is semisimple:
    # Cent = Q x Q[t]/(t^2) and Q(i)[t]/(t^2), minimal polynomials of degree 3 and 4
    jet12 = truncated_poly(1, 2)
    cases["sl2 + sl2 x jet:1,2 rebased"] = rebase(direct_sum([sl2, current_algebra(sl2, jet12)]), 1)
    cases["sl2 x Q(i) x jet:1,2 rebased"] = rebase(
        current_algebra(current_algebra(sl2, quadratic_extension(-1)), jet12), 1)
    return cases


def _is_commutative(cent):
    mats = cent.basis_matrices()
    return all(a @ b == b @ a for a in mats for b in mats)


def _newton_steps(monkeypatch, g) -> list:
    """The degree of m at each Newton step split_centroid takes on g, one extended
    gcd mod m each."""
    from liestruct import poly

    steps, inverse = [], poly._inverse_mod
    monkeypatch.setattr(poly, "_inverse_mod", lambda a, m: steps.append(degree(m)) or inverse(a, m))
    _outcome(lambda: endo.split_centroid.__wrapped__(g))
    monkeypatch.undo()
    return steps


def test_regular_cases_cover_every_shape_of_centroid(monkeypatch, regular_cases):
    shapes = {}
    for name, g in regular_cases.items():
        cent = endo.centroid(g)
        key = ((cent.dim > g.dim) - (cent.dim < g.dim), _is_commutative(cent),
               tuple(_newton_steps(monkeypatch, g)))
        shapes.setdefault(key, set()).add(name)
    # (sign of dim Cent - dim g, commutative, split_centroid's Newton steps): the
    # regular representation is smaller, as large as or larger than End(g), on
    # commutative and noncommutative centroids, where the idempotents are not
    # unique; the rebasings take a Newton step per basis element off the radical
    assert shapes == {
        (-1, True, ()): set(REGULAR_CASES[:7]),
        (-1, False, ()): {"two_dim + h3 + sl3"},  # dim Cent 6, dim g 13
        (0, False, ()): {"two_dim + h3"},  # 5 and 5
        (1, False, ()): {"h3 + h3"},  # 10 and 6
        (-1, True, (3, 3)): {"sl2 + sl2 x jet:1,2 rebased"},
        (-1, True, (4, 4)): {"sl2 x Q(i) x jet:1,2 rebased"},
    }


@pytest.mark.parametrize("name", REGULAR_CASES)
def test_split_centroid_matches_end_reference(regular_cases, name):
    g = regular_cases[name]
    got = _outcome(lambda: tuple(s.space.rows for s in endo.split_centroid(g)))
    assert got == _split_reference(g)


# the int form of Cent's endomorphisms (endo._int_endos) against dense Fraction
# matrices, on the regular cases and on seeded dense rebasings of four of them,
# where the centroid basis rows carry denominators
_REBASED_INT_FORM = ("cur:sl:2,jet:1,3", "cur:sl:2,points:4", "sl2 x Q(i)", "two_dim + h3")
INT_FORM_REBASED = tuple("%s, dense" % name for name in _REBASED_INT_FORM)
INT_FORM_CASES = REGULAR_CASES + INT_FORM_REBASED


@pytest.fixture(scope="module")
def int_form_cases(regular_cases, rebase):
    from liestruct.cli import parse_algebra

    cases = dict(regular_cases, **{"cur:sl:2,jet:1,3": parse_algebra("cur:sl:2,jet:1,3")})
    for name in _REBASED_INT_FORM:
        cases["%s, dense" % name] = rebase(cases[name], 2, scale=F(1, 3))
    return cases


def test_the_int_form_grid_has_denominators(int_form_cases):
    # den of the int columns of Cent's whole basis: past 2^40 on a dense rebasing
    dens = {name: endo._int_endos(cent, [{k: 1} for k in range(cent.dim)])[0]
            for name, cent in ((name, endo.centroid(g)) for name, g in int_form_cases.items())}
    assert all(dens["%s, dense" % name] > 1 for name in _REBASED_INT_FORM)
    assert max(dens.values()) > 2**40 and dens["sl:3"] == 1


@pytest.mark.parametrize("name", INT_FORM_CASES)
def test_centroid_table_is_the_fraction_product_of_the_basis_matrices(int_form_cases, name):
    # b_i b_j as a dense product of Fraction matrices, in Cent's coordinates by
    # elimination against its basis, not read off at the pivots
    cent = endo.centroid(int_form_cases[name])
    mats = cent.basis_matrices()
    assert endo._algebra_table(cent).table == tuple(
        tuple(cent.coordinates(a @ b) for b in mats) for a in mats)


@pytest.mark.parametrize("name", INT_FORM_REBASED)  # the regular cases are tested above
def test_split_centroid_is_the_dense_jordan_chevalley_split(int_form_cases, name):
    g = int_form_cases[name]
    got = _outcome(lambda: tuple(s.space.rows for s in endo.split_centroid(g)))
    assert got == _split_reference(g)


@pytest.mark.parametrize("name", REGULAR_CASES)
def test_idempotents_and_blocks_match_end_reference(regular_cases, name):
    g = regular_cases[name]
    if name == "sl2_plus_q_rebased":  # center outside [g, g]: indecompose refuses
        idems, status = primitive_idempotents(endo.centroid(g))
        assert (idems.projections, status) == _decompose_reference(g)[:2]
        return
    report = indecompose(g)
    assert (report.idempotents.projections, report.status, report.blocks) == \
        _decompose_reference(g)
    if _is_commutative(endo.centroid(g)):
        assert primitive_idempotents(endo.centroid(g)) == (report.idempotents, report.status)


@pytest.mark.parametrize("name", ["sl:3", "cur:sl:2,jet:2,3", "sl2 x Q(i)", "sl2 x Q(sqrt 2)",
                                  "sl2 x Q(i) x jet:1,2 rebased"])
def test_complex_structure_matches_end_reference(regular_cases, name):
    g = regular_cases[name]
    expected = _complex_reference(g)
    got = _outcome(lambda: complex_structure(g))
    if expected is None:
        assert got is None
    elif isinstance(expected, Matrix):
        assert got.J == expected
    else:
        assert "splits over the reals" in got


def test_centroid_radical_matches_end_trace_form(regular_cases):
    for name in ("cur:sl:2,jet:2,3", "cur:sl:2,points:4", "sl2 x Q(sqrt 2)", "sl:3"):
        cent = endo.centroid(regular_cases[name])
        assert centroid_radical(cent) == kernel_basis(_gram(cent.basis_matrices()))


# ---------------------------------------------------------------------------
# one trace form: the Killing form, the centroid radical and the search's
# ---------------------------------------------------------------------------


def _regular_of(table):
    return [table._left_matrix(unit_vector(table.dim, i)) for i in range(table.dim)]


def _trace_matrix(table):
    """The table's trace form as a Matrix: its int rows over den^2."""
    den2, rows = table._trace_form()
    return Matrix([[F(row.get(j, 0), den2) for j in range(table.dim)] for row in rows])


def _rebased_commutative(a, seed):
    """a on the seeded dense basis f_i = sum_k p_ki e_k, p = lower upper / 3."""
    from liestruct.construct import CommutativeAlgebra

    n, rng = a.dim, random.Random(seed)
    lower = Matrix([[1 if r == c else rng.randint(-2, 2) if r > c else 0 for c in range(n)]
                    for r in range(n)])
    upper = Matrix([[1 if r == c else rng.randint(-2, 2) if r < c else 0 for c in range(n)]
                    for r in range(n)])
    p = (lower @ upper).scale(F(1, 3))
    pinv, cols = p.inverse(), [p.column(i) for i in range(n)]
    return CommutativeAlgebra(["f%d" % i for i in range(n)], pinv.apply(a.unit),
                              [[pinv.apply(a.product(x, y)) for y in cols] for x in cols])


@pytest.mark.parametrize("seed", range(3))
def test_trace_form_is_the_gram_of_the_regular_representation(rebase, seed):
    h3 = build(3, {(0, 1): {2: F(1)}}, names=["x", "y", "z"])
    for g in (classical("sl", 2), example_algebra("two_dim"), h3, classical("sl", 3)):
        g = rebase(g, seed, scale=F(1, 3))
        assert _trace_matrix(g) == _gram(_regular_of(g)) == g.killing_form()
    for a in (truncated_poly(2, 2), point_functions(3), quadratic_extension(F(2, 3))):
        a = _rebased_commutative(a, seed)
        assert any(c.denominator > 1 for row in a._nonzero for v in row for _, c in v)
        assert _trace_matrix(a) == _gram(_regular_of(a))
        assert a._radical() == kernel_basis(_gram(_regular_of(a)))


@pytest.mark.parametrize("name", REGULAR_CASES)
def test_trace_form_of_a_centroid_table_is_its_gram(regular_cases, name):
    table = endo._centroid_table(regular_cases[name])
    assert _trace_matrix(table) == _gram(_regular_of(table))
    assert table._radical() == kernel_basis(_gram(_regular_of(table)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["h3 + h3", "two_dim + h3 + sl3", "jets + sl2"])
def test_a_corner_radical_is_the_kernel_of_the_corners_own_gram(regular_cases, name, seed):
    # rad(eAe) = e rad(A) e for an idempotent e: the sum of a seeded set of
    # primitive idempotents, conjugated by a seeded unit 1 + r, r in the radical
    if name == "jets + sl2":
        sl2 = classical("sl", 2)
        g = direct_sum([current_algebra(sl2, truncated_poly(1, 3)),
                        current_algebra(sl2, truncated_poly(2, 2)), sl2])
    else:
        g = regular_cases[name]
    table = endo._centroid_table(g)
    d, basis = table.dim, _regular_of(table)
    rad = [table._left_matrix(r) for r in endo._centroid_table(g)._radical().rows]
    idems, _ = _split_local(Matrix.identity(d), _off_radical(basis))
    assert len(idems) == 3 - (name == "h3 + h3") and rad
    rng = random.Random(seed)
    e = sum(rng.sample(idems, rng.randint(1, len(idems))), Matrix.zero(d, d))
    u = sum((r.scale(rng.randint(-2, 2)) for r in rad), Matrix.identity(d))
    e = u @ e @ u.inverse()
    assert e @ e == e

    def span(mats):
        return Subspace.span([m.flatten() for m in mats], d * d)

    def corner(mats):  # a basis of e A e from a spanning set of A
        return [Matrix.unflatten(r, d, d) for r in span([e @ m @ e for m in mats]).sparse_rows()]

    assert span(corner(rad)) == span(_gram_radical(corner(basis)))


@pytest.mark.parametrize("spec, calls", [("cur:sl:2,points:3", 0), ("cur:sl:2,jet:1,3", 1)])
def test_split_centroid_takes_one_jordan_chevalley_per_residue_dimension(monkeypatch, spec,
                                                                          calls):
    # d - dim N of them, the semisimple polynomials of a complement of the
    # radical, each on one Krylov run, and none when N = 0: Q^3 and Q[t]/(t^3)
    from liestruct.cli import parse_algebra

    g = parse_algebra(spec)
    newtons, runs = [], []
    semisimple, polynomials_in = endo._semisimple_polynomial, endo._polynomials_in
    monkeypatch.setattr(endo, "_semisimple_polynomial",
                        lambda m: newtons.append(m) or semisimple(m))
    monkeypatch.setattr(endo, "_polynomials_in",
                        lambda *args: runs.append(1) or polynomials_in(*args))
    got = endo.split_centroid.__wrapped__(g)
    assert len(newtons) == len(runs) == calls
    assert tuple(s.space.rows for s in got) == _split_reference(g)


def test_split_centroid_refuses_noncommutative_centroid_with_first_pair():
    from liestruct.cli import parse_algebra

    g = parse_algebra("cur:u:3,jet:1,2")
    expected = _split_reference(g)
    assert isinstance(expected, str)
    assert _outcome(lambda: endo.split_centroid(g)) == expected


def test_centroid_table_dies_with_its_algebra():
    import gc
    import weakref

    g = direct_sum([classical("sl", 2), build(1, {}, names=["c"])])
    table = endo._centroid_table(g)
    assert endo._centroid_table(g) is table
    ref = weakref.ref(table)
    del g, table
    gc.collect()
    assert ref() is None


def test_a_centroid_keeps_its_table_so_a_second_search_is_a_memo_hit():
    from liestruct import decompose

    g = current_algebra(classical("sl", 2), point_functions(5))
    cent = endo.centroid(g)
    first, radical = primitive_idempotents(cent), centroid_radical(cent)
    info = decompose._split.cache_info()
    assert primitive_idempotents(cent) == first and centroid_radical(cent) is radical
    assert decompose._split.cache_info() == (info.hits + 1, info.misses)
    assert endo._algebra_table(cent) is endo._centroid_table(g)


# ---------------------------------------------------------------------------
# the idempotent search stops at the first primitive element
# ---------------------------------------------------------------------------


def _cube_root_field():
    """Q(cbrt 2) on the basis 1, r, r^2 with r^3 = 2."""
    from liestruct.construct import CommutativeAlgebra

    return CommutativeAlgebra(["1", "r", "r^2"], [1, 0, 0], [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [2, 0, 0]],
        [[0, 0, 1], [2, 0, 0], [0, 2, 0]],
    ])


# (field, rebasing seed, status). Seeds 1, 2, 3 and 5 of the Q(cbrt 2) rebasing
# give cubic minimal polynomials with large coefficients, which a rational-root
# search by trial division over their divisors did not finish.
FIELD_REBASINGS = {
    "Q(i)": (lambda: quadratic_extension(-1), 1, "nonsplit_real"),
    "Q(sqrt 2)": (lambda: quadratic_extension(2), 1, "nonsplit_unknown"),
    "Q(cbrt 2)": (_cube_root_field, 4, "nonsplit_unknown"),
    **{"Q(cbrt 2), seed %d" % s: (_cube_root_field, s, "nonsplit_unknown") for s in (1, 2, 3, 5)},
}


@pytest.mark.parametrize("name", FIELD_REBASINGS)
def test_a_residue_field_stops_the_idempotent_search(rebase, monkeypatch, name):
    from liestruct import decompose

    field, seed, status = FIELD_REBASINGS[name]
    g = rebase(current_algebra(classical("sl", 2), field()), seed)
    calls = []
    polynomials_in = decompose._polynomials_in
    monkeypatch.setattr(decompose, "_polynomials_in",
                        lambda *args: calls.append(1) or polynomials_in(*args))
    report = indecompose.__wrapped__(g)
    assert report.ideals == (Subspace.full(g.dim),) and report.status == status
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# the idempotent search on chosen representations
# ---------------------------------------------------------------------------
#
# Each input is a commutative algebra given by matrices spanning it, whose
# primitive idempotents are known from the construction; the results are
# checked by certificates that do not use the search: p^2 = p, p q = 0, a sum
# of 1, every p in the algebra, and the count. The last input is no algebra:
# it reaches the guard that stops the search on such input.


def _gauss(a, b):
    """Multiplication by a + b i on Q(i), in the basis 1, i."""
    return Matrix([[a, -b], [b, a]])


def _assert_primitive_family(idems, unit, algebra: Subspace, count):
    assert len(idems) == count
    total = Matrix.zero(unit.nrows, unit.ncols)
    for i, p in enumerate(idems):
        assert p @ p == p and not p.is_zero()
        assert algebra.contains(p.flatten())
        for q in idems[i + 1:]:
            assert (p @ q).is_zero() and (q @ p).is_zero()
        total = total + p
    assert total == unit


def _span_of(mats):
    n = mats[0].nrows
    return Subspace.span([m.flatten() for m in mats], n * n)


def _search(unit, basis):
    """The oracle on ``basis``, its radical from the Gram. The library's search on the
    table of the algebra that ``basis`` spans finds the same family and status."""
    found, status = _split_local(unit, _off_radical(basis))
    idems, got = primitive_idempotents(endo.EndoSpace("commutant", unit.nrows, _span_of(basis)))
    assert (set(idems), got) == (set(found), status)
    return found, status


# Q[x]/(x^2) x Q on Q^2 + Q, and Q(i) x Q on Q(i) + Q
_E = block_diag(Matrix.identity(2), Matrix.zero(1, 1))
_X = block_diag(Matrix([[0, 1], [0, 0]]), Matrix.zero(1, 1))
_I = block_diag(_gauss(0, 1), Matrix.zero(1, 1))


def test_projectors_of_a_non_semisimple_candidate_are_newton_lifted():
    # f = (1 + x, 0) has minimal polynomial m = t (t - 1)^2: the projectors
    # f and 1 - f of its squarefree part are idempotent only modulo x, those
    # of the primary parts t and (t - 1)^2 of m on the nose
    unit = Matrix.identity(3)
    basis = [unit, _E + _X, _X]
    idems, status = _search(unit, basis)
    _assert_primitive_family(idems, unit, _span_of(basis), 2)
    assert status == "split" and set(idems) == {_E, unit - _E}


def _conjugated(rep, seed):
    """P rep P^-1 for a seeded integer P of determinant 1."""
    n, rng = rep[0].nrows, random.Random(seed)
    lower = Matrix([[1 if r == c else rng.randint(-2, 2) if r > c else 0 for c in range(n)]
                    for r in range(n)])
    upper = Matrix([[1 if r == c else rng.randint(-2, 2) if r < c else 0 for c in range(n)]
                    for r in range(n)])
    p = lower @ upper
    pinv = p.inverse()
    return [p @ m @ pinv for m in rep]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rep, status", [([_X, _E], "split"), ([_I, _E], "nonsplit_real")],
                         ids=["jet-x-point", "gauss-x-point"])
def test_idempotents_of_a_chosen_commutative_commutant(rep, status, seed):
    # the commutant of {x, e} is Q[x]/(x^2) x Q, that of {i, e} is Q(i) x Q:
    # two primitive idempotents each, in any basis
    cent = endo.module_commutant(_conjugated(rep, seed))
    assert cent.dim == 3
    idems, got = primitive_idempotents(cent)
    _assert_primitive_family(list(idems), Matrix.identity(3), cent.space, 2)
    assert got == status


def _gauss_pair(*pairs):
    """Multiplications of Q(i) x Q(i) on Q(i) + Q(i), one per ((a, b), (c, d))."""
    return [block_diag(_gauss(*z), _gauss(*w)) for z, w in pairs]


def test_weighted_candidates_split_a_product_of_gaussian_fields():
    # basis 1, (i, i), (i, 2i), (1 + i, -1 - 3i): (i, 2i) is a primitive
    # element, of minimal polynomial (t^2 + 1)(t^2 + 4), one idempotent per factor
    basis = _gauss_pair(((1, 0), (1, 0)), ((0, 1), (0, 1)), ((0, 1), (0, 2)), ((1, 1), (-1, -3)))
    unit = Matrix.identity(4)
    idems, status = _search(unit, basis)
    _assert_primitive_family(idems, unit, _span_of(basis), 2)
    assert set(idems) == {block_diag(Matrix.identity(2), Matrix.zero(2, 2)),
                          block_diag(Matrix.zero(2, 2), Matrix.identity(2))}
    assert status == "nonsplit_real"


def test_a_quartic_field_runs_the_search_out():
    # Q(sqrt 2, i) is a field of degree 4: its minimal polynomial of degree 4
    # is irreducible, so the unit comes back, primitive as it should be
    s, i = kron(Matrix([[0, 2], [1, 0]]), Matrix.identity(2)), kron(Matrix.identity(2), _gauss(0, 1))
    unit = Matrix.identity(4)
    basis = [unit, s, i, s @ i]
    idems, status = _search(unit, basis)
    _assert_primitive_family(idems, unit, _span_of(basis), 1)
    assert status == "nonsplit_unknown"


def _two_cubic_fields():
    """Q[x]/((x^3 - x - 1)(x^3 - x + 1)) = K1 x K2, the powers of x on its power basis."""
    x = Matrix([[1 if r == c + 1 else 0 for c in range(5)] + [[1, 0, -1, 0, 2, 0][r]]
                for r in range(6)])  # companion matrix of x^6 - 2 x^4 + x^2 - 1
    return [x.power(k) for k in range(6)]


@pytest.mark.parametrize("basis", [
    _gauss_pair(((1, 0), (1, 0)), ((0, 1), (0, 1)), ((0, 1), (0, 2)), ((1, 2), (-1, -1))),
    _two_cubic_fields(),
], ids=["gauss-x-gauss", "cubic-x-cubic"])
def test_a_product_of_fields_splits(basis):
    # no weighted sum of this Q(i) x Q(i) basis has a rational coordinate, and
    # K1 x K2 has no element of rational eigenvalue but the scalars: a split
    # by rational roots alone keeps both whole
    unit = Matrix.identity(basis[0].nrows)
    idems, _ = _search(unit, basis)
    _assert_primitive_family(idems, unit, _span_of(basis), 2)


def test_a_basis_of_no_algebra_has_no_separating_element():
    # 1, E12, E21 span no algebra (E12 E21 = E11 lies outside): the trace form
    # is nondegenerate, yet no 2 x 2 candidate has a minimal polynomial of
    # degree 3, so the search stops after its C(3, 2) 2 + 1 weighted sums
    e12, e21 = Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
    with pytest.raises(SeparatingElementError, match="dimension 3"):
        _split_local(Matrix.identity(2), _off_radical([Matrix.identity(2), e12, e21]))


def test_a_table_of_no_algebra_has_no_separating_element():
    # 1, x, y with x^2 = y^2 = 1 and xy = yx = 0 is commutative but not associative
    # ((xx)y = y, x(xy) = 0). Its trace form is diag(3, 2, 2), nondegenerate, yet
    # (c + ax + by)^2 = a^2 + b^2 + c^2 + 2c(ax + by) lies in the span of 1 and the
    # candidate: no minimal polynomial has degree 3
    from liestruct import decompose
    from liestruct.lie import _StructureTable

    table = _StructureTable(["1", "x", "y"], {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 1): {0: 1}, (2, 2): {0: 1}}, [1, 0, 0])
    assert table._radical().is_zero()
    with pytest.raises(SeparatingElementError, match="dimension 3"):
        decompose._split(table)
    with pytest.raises(SeparatingElementError, match="dimension 3"):
        _split_local(Matrix([[1], [0], [0]]), _regular_of(table))


def test_a_bare_tables_unit_feeds_the_search():
    # Q x Q on the idempotents e, f, its 1 = e + f given with the table: the search
    # starts from the table's own unit
    from liestruct import decompose
    from liestruct.lie import _StructureTable

    table = _StructureTable(["e", "f"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, ["1", 1])
    assert table.unit == vector([1, 1])
    idems, status = decompose._split(table)
    assert sorted(idems) == [vector([0, 1]), vector([1, 0])] and status == "split"
    local = _StructureTable(["1", "t"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                            [1, 0])
    assert decompose._split(local) == ((vector([1, 0]),), "split")


@pytest.mark.parametrize("name", ["h3 + h3", "two_dim + h3", "two_dim + h3 + sl3"])
def test_centroid_commutators_lie_in_the_radical(regular_cases, name):
    # with z(g) in [g, g], fh - hf kills [g, g] and maps into z(g): the residue
    # algebra is commutative, so one primitive element generates it
    g = regular_cases[name]
    cent, rad = endo.centroid(g), endo._centroid_table(g)._radical()
    mats = cent.basis_matrices()
    commutators = [a @ b - b @ a for a in mats for b in mats]
    assert any(not c.is_zero() for c in commutators)
    assert all(rad.contains(cent.coordinates(c)) for c in commutators)


@pytest.mark.parametrize("spec", ["cur:sl:2,points:3", "sum:sl:2+sl:2+sl:2"])
def test_an_idempotent_set_missing_a_factor_is_refused(monkeypatch, spec):
    # the certificates do not trust the factorization: drop one irreducible
    # factor, and the idempotents no longer sum to the identity
    from liestruct import decompose
    from liestruct.cli import parse_algebra

    factor = decompose.factor
    monkeypatch.setattr(decompose, "factor", lambda p: factor(p)[1:])
    # the split is memoized per table as indecompose is per algebra: search again
    monkeypatch.setattr(decompose, "_split", decompose._split.__wrapped__)
    with pytest.raises(LiestructError, match="do not sum to the identity"):
        indecompose.__wrapped__(parse_algebra(spec))


# ---------------------------------------------------------------------------
# the table search against the dense oracle
# ---------------------------------------------------------------------------


def _power_basis_algebra(relation):
    """Q[x]/(x^n - sum_k relation[k] x^k) on the power basis 1, x, ..., x^(n-1)."""
    from liestruct.construct import CommutativeAlgebra

    n = len(relation)
    pw = [[int(i == k) for i in range(n)] for k in range(n)]
    for _ in range(n - 1):  # x^(n+t) = x x^(n+t-1), with x^n replaced by the relation
        top = pw[-1][-1]
        pw.append([top * c + (pw[-1][i - 1] if i else 0) for i, c in enumerate(relation)])
    return CommutativeAlgebra(["x%d" % i for i in range(n)], pw[0],
                              [[pw[i + j] for j in range(n)] for i in range(n)])


def _biquadratic_field():
    """Q(sqrt 2, sqrt 3) on the basis 1, a, b, ab (a^2 = 2, b^2 = 3)."""
    from liestruct.construct import CommutativeAlgebra

    def mul(i, j):  # bit 0 of an index is a, bit 1 is b
        return {i ^ j: (2 if i & j & 1 else 1) * (3 if i & j & 2 else 1)}

    return CommutativeAlgebra(["1", "a", "b", "ab"], [1, 0, 0, 0],
                              {(i, j): mul(i, j) for i in range(4) for j in range(4)})


def _sl2_over(field):
    return current_algebra(classical("sl", 2), field)


# sl:2 over K1 x K2, two cubic fields, x^6 = 1 - x^2 + 2 x^4 on the power basis
TWO_CUBIC = (1, 0, -1, 0, 2, 0)


_ORACLE_SPECS = ("su:3", "gl:3", "u:3", "so:5", "sp:4", "cur:sl:2,jet:1,3", "cur:sl:2,jet:2,2",
                 "sum:sl:2+sl:3", "ex:2dim") + tuple("cur:sl:2,points:%d" % k for k in range(1, 13))
_ORACLE_FIXTURES = ("abelian2", "heisenberg3", "oscillator6", "gl2")
_ORACLE_REBASED = ("sum:sl:2+sl:2+sl:2", "cur:sl:2,points:3", "sl2 x Q(i)", "two_dim + h3",
                   "fld:r2r3")
ORACLE_CASES = (REGULAR_CASES + _ORACLE_SPECS + _ORACLE_FIXTURES + ("two cubic", "fld:r2r3")
                + tuple("%s, seed %d" % (name, seed) for name in _ORACLE_REBASED for seed in range(2)))


@pytest.fixture(scope="module")
def oracle_cases(request, regular_cases, rebase):
    from liestruct.cli import parse_algebra

    cases = dict(regular_cases)
    cases.update({spec: parse_algebra(spec) for spec in _ORACLE_SPECS})
    cases.update({name: request.getfixturevalue(name) for name in _ORACLE_FIXTURES})
    cases["two cubic"] = _sl2_over(_power_basis_algebra(TWO_CUBIC))
    cases["fld:r2r3"] = _sl2_over(_biquadratic_field())
    for name in _ORACLE_REBASED:
        for seed in range(2):
            cases["%s, seed %d" % (name, seed)] = rebase(cases[name], seed)
    return cases


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_table_search_matches_the_dense_oracle(oracle_cases, name):
    # the same idempotents in the same order and the same status, or the same
    # refusal, as the oracle on the dim g x dim g centroid basis matrices
    from liestruct import decompose

    g = oracle_cases[name]
    cent = endo.centroid(g)

    def table_search():
        idems, status, _, _ = decompose._primitive_idempotents_any(cent, endo._centroid_table(g))
        return idems.projections, status

    def oracle():
        idems, status = _split_local(Matrix.identity(g.dim), _off_radical(cent.basis_matrices()))
        return tuple(idems), status

    assert _outcome(table_search) == _outcome(oracle)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rep", [[_X, _E], [_I, _E]], ids=["jet-x-point", "gauss-x-point"])
def test_table_search_matches_the_dense_oracle_on_chosen_commutants(rep, seed):
    cent = endo.module_commutant(_conjugated(rep, seed))
    idems, status = _split_local(Matrix.identity(3), _off_radical(cent.basis_matrices()))
    assert primitive_idempotents(cent) == (IdempotentSet(tuple(idems)), status)


def test_a_centroid_table_with_one_wrong_constant_is_refused(monkeypatch):
    # Cent(sl2 (x) Q^3) = Q^3: one constant of its table raised by 1, for each of the
    # 27. The search trusts the table, the checks in End(g) do not: each wrong table
    # is refused, or still gives the true primitive idempotents (in some order)
    from liestruct import decompose
    from liestruct.cli import parse_algebra
    from liestruct.lie import _StructureTable

    g = parse_algebra("cur:sl:2,points:3")
    table, true = endo._centroid_table(g), indecompose(g)
    refused = {}
    for i, j, k in itertools.product(range(3), repeat=3):
        products = {(a, b): dict(v) for a, row in enumerate(table._nonzero)
                    for b, v in enumerate(row)}
        products[i, j][k] = products[i, j].get(k, 0) + 1
        wrong = _StructureTable(table.names, products, table.unit)
        monkeypatch.setattr(decompose, "_centroid_table", lambda g: wrong)
        try:
            report = indecompose.__wrapped__(g)
        except LiestructError as exc:
            refused[i, j, k] = str(exc)
            continue
        assert set(report.idempotents) == set(true.idempotents)
        assert set(report.ideals) == set(true.ideals) and report.blocks == true.blocks
    assert refused[0, 0, 1] == "projection 0 is not idempotent"
    assert set(refused.values()) == {"projection 0 is not idempotent",
                                     "projection 1 is not idempotent",
                                     "Peirce block dimensions do not sum to dim Cent"}


def test_a_coefficient_table_with_one_wrong_constant_is_refused(monkeypatch):
    # Q^3 with one constant raised by 1, for each of the 27, past the constructor's
    # checks: the search on A's own table is refused by the checks in that table
    from liestruct import decompose
    from liestruct.construct import CommutativeAlgebra

    a = point_functions(3)
    monkeypatch.setattr(CommutativeAlgebra, "_validate", lambda self: None)
    for i, j, k in itertools.product(range(3), repeat=3):
        products = {(x, y): dict(v) for x, row in enumerate(a._nonzero)
                    for y, v in enumerate(row)}
        products[i, j][k] = products[i, j].get(k, 0) + 1
        with pytest.raises(LiestructError, match="coefficient idempotent"):
            decompose._coefficient_idempotents.__wrapped__(
                CommutativeAlgebra(a.names, a.unit, products))


def test_coefficient_idempotents_are_memoized_by_value():
    from liestruct import decompose

    a = point_functions(4)  # an equal A built while a lives is served a's entry
    first = decompose._coefficient_idempotents(a)
    assert decompose._coefficient_idempotents(point_functions(4)) is first
    assert sorted(first) == sorted(unit_vector(4, i) for i in range(4))


# ---------------------------------------------------------------------------
# simple: Cent(g) is a field
# ---------------------------------------------------------------------------

SEMISIMPLE_SPECS = ("sl:2", "sl:3", "sl:4", "so:3", "so:4", "so:5", "so:6", "sp:2", "sp:4",
                    "sp:6", "su:2", "su:3", "sum:sl:2+sl:3", "sum:sl:2+sl:2+sl:2",
                    "cur:sl:2,points:1", "cur:sl:2,points:3", "cur:sl:3,points:2")


def _fields():
    return {
        "fld:i": _sl2_over(quadratic_extension(-1)),
        "fld:r2": _sl2_over(quadratic_extension(2)),
        "fld:c2": _sl2_over(_power_basis_algebra((2, 0, 0))),
        "two cubic": _sl2_over(_power_basis_algebra(TWO_CUBIC)),
        "fld:r2r3": _sl2_over(_biquadratic_field()),
    }


def _simple_agrees(g):
    assert g.flags()["semisimple"]
    return g.flags()["simple"] == (len(indecompose(g).ideals) == 1)


@pytest.mark.parametrize("spec", SEMISIMPLE_SPECS)
def test_simple_flag_agrees_with_the_ideal_count(spec):
    from liestruct.cli import parse_algebra

    assert _simple_agrees(parse_algebra(spec))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("parts", ["fld:i", "fld:i+fld:r2", "two cubic", "fld:r2r3",
                                   "fld:c2+sl:2", "sl:2+sl:2"])
def test_simple_flag_agrees_on_rebased_sums_of_simple_algebras(rebase, parts, seed):
    # centroids Q(i), Q(i) x Q(sqrt 2), K1 x K2, Q(sqrt 2, sqrt 3), Q(cbrt 2) x Q, Q x Q
    fields = _fields()
    g = direct_sum([fields[p] if p in fields else classical("sl", 2) for p in parts.split("+")])
    g = rebase(g, seed)
    assert _simple_agrees(g)
    assert g.flags()["simple"] == (parts in ("fld:i", "fld:r2r3"))
