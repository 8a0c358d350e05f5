"""Indecomposable-ideal decomposition, idempotents, complex structures."""

from __future__ import annotations

import itertools
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
    centroid_radical,
    complex_structure,
    indecompose,
    primitive_idempotents,
)
from liestruct.errors import LiestructError, PreconditionError
from liestruct.linalg import Matrix, Subspace, unit_vector, vector


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
    from liestruct.poly import is_nilpotent_matrix

    for coords in rad.rows:
        mat = Matrix.zero(g.dim, g.dim)
        mats = cent.basis_matrices()
        for c, b in zip(coords, mats):
            mat = mat + b.scale(c)
        assert is_nilpotent_matrix(mat)


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
# The library runs Jordan-Chevalley, the idempotent search, the Peirce blocks
# and the minimal polynomial of complex_structure on the d x d matrices L_b of
# Cent(g)'s regular representation. The references below do the same work on
# the dim g x dim g centroid basis matrices, as the search did before it had a
# multiplication table of the centroid.


def _outcome(fn):
    try:
        return fn()
    except LiestructError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _split_reference(g):
    from liestruct.poly import jordan_chevalley

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
    parts = [jordan_chevalley(m) for m in mats]
    semi = Subspace.span([s.flatten() for s, _ in parts], nn)
    nil = Subspace.span([n.flatten() for _, n in parts], nn)
    return nil.rows, semi.rows


def _decompose_reference(g):
    """(idempotents, status, blocks) from the dim g x dim g search and Peirce loop."""
    from liestruct.decompose import _split_local

    cent = endo.centroid(g)
    basis = cent.basis_matrices()
    n = g.dim
    idems, status = _split_local(Matrix.identity(n), basis, cent.dim * cent.dim + 1)
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
                 "two_dim + h3 + sl3")


@pytest.fixture(scope="module")
def regular_cases(sl2_plus_q_rebased):
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
    return cases


def _is_commutative(cent):
    mats = cent.basis_matrices()
    return all(a @ b == b @ a for a in mats for b in mats)


def test_regular_cases_cover_every_shape_of_centroid(regular_cases):
    shapes = {}
    for name, g in regular_cases.items():
        cent = endo.centroid(g)
        key = ((cent.dim > g.dim) - (cent.dim < g.dim), _is_commutative(cent))
        shapes.setdefault(key, set()).add(name)
    # (sign of dim Cent - dim g, commutative): the regular representation is
    # smaller, as large as or larger than End(g), on commutative and
    # noncommutative centroids, where the idempotents are not unique
    assert shapes == {
        (-1, True): set(REGULAR_CASES[:7]),
        (-1, False): {"two_dim + h3 + sl3"},  # dim Cent 6, dim g 13
        (0, False): {"two_dim + h3"},  # 5 and 5
        (1, False): {"h3 + h3"},  # 10 and 6
    }


@pytest.mark.parametrize("name", REGULAR_CASES)
def test_split_centroid_matches_end_reference(regular_cases, name):
    g = regular_cases[name]
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


@pytest.mark.parametrize("name", ["sl:3", "cur:sl:2,jet:2,3", "sl2 x Q(i)", "sl2 x Q(sqrt 2)"])
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
    from liestruct.linalg import kernel_basis

    for name in ("cur:sl:2,jet:2,3", "cur:sl:2,points:4", "sl2 x Q(sqrt 2)", "sl:3"):
        cent = endo.centroid(regular_cases[name])
        mats = cent.basis_matrices()
        gram = Matrix([[(a @ b).trace() for b in mats] for a in mats])
        assert centroid_radical(cent) == kernel_basis(gram)


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
