"""Lie algebras from structure constants: validation, invariants, quotients."""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liestruct import (
    LieAlgebra,
    build,
    centroid,
    classical,
    current_algebra,
    lie,
    truncated_poly,
)
from liestruct.cli import parse_algebra
from liestruct.errors import JacobiError, NotAnIdealError
from liestruct.linalg import Matrix, Subspace, row_reduce, unit_vector, vector


# ---------------------------------------------------------------------------
# build and validation
# ---------------------------------------------------------------------------


def test_build_two_dim(two_dim):
    assert two_dim.dim == 2
    x1, x2 = two_dim.basis_vector(0), two_dim.basis_vector(1)
    assert two_dim.bracket(x1, x2) == x1
    assert two_dim.bracket(x2, x1) == vector([-1, 0])
    assert two_dim.bracket(x1, x1) == vector([0, 0])


def test_build_hyperbolic_table_is_valid():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=0: all three cyclic Jacobi terms vanish
    g = build(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(1)}})
    flags = g.flags()
    assert flags["solvable"] and flags["centerfree"]
    assert not flags["nilpotent"]


def test_build_rejects_jacobi_violation():
    # [e1,e2]=e1, [e1,e3]=e2 has Jacobi defect e2 on the only triple
    with pytest.raises(JacobiError) as exc:
        build(3, {(0, 1): {0: F(1)}, (0, 2): {1: F(1)}})
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.defect == vector([0, 1, 0])


def test_build_rejects_bad_keys():
    with pytest.raises(Exception):
        build(2, {(1, 0): {0: F(1)}})  # keys must satisfy i < j
    with pytest.raises(Exception):
        build(2, {(0, 2): {0: F(1)}})  # out of range


@pytest.mark.parametrize("k", [-1, -3, 3, 10])
def test_build_rejects_coefficient_index_out_of_range(k):
    # -1 used to land on the last basis vector, building [e0, e1] = e2
    with pytest.raises(ValueError, match=r"bracket \(0, 1\) has coefficient index %d outside 0\.\.2" % k):
        build(3, {(0, 1): {k: F(1)}})


def test_build_accepts_every_coefficient_index_in_range():
    g = build(3, {(0, 1): {0: F(0), 2: F(1)}})
    assert g.bracket(g.basis_vector(0), g.basis_vector(1)) == vector([0, 0, 1])


def test_algebra_is_hashable_and_equal_by_table(two_dim):
    again = build(2, {(0, 1): {0: F(1)}}, names=["x1", "x2"])
    assert again == two_dim
    assert hash(again) == hash(two_dim)


# ---------------------------------------------------------------------------
# ad matrices
# ---------------------------------------------------------------------------


def test_ad_of_zero_is_zero(two_dim):
    assert two_dim.ad(vector([0, 0])).is_zero()


def test_ad_two_dim_x1(two_dim):
    assert two_dim.ad(two_dim.basis_vector(0)) == Matrix((vector([0, 1]), vector([0, 0])))
    assert two_dim.ad(two_dim.basis_vector(1)) == Matrix((vector([-1, 0]), vector([0, 0])))


def test_ad_abelian_is_zero(abelian2):
    for i in range(2):
        assert abelian2.ad(abelian2.basis_vector(i)).is_zero()


# ---------------------------------------------------------------------------
# the structure-constant core against dense references
# ---------------------------------------------------------------------------


def _dense_table(dim, brackets):
    """Antisymmetric dense table of a sparse bracket dict {(i, j): {k: c}}, i < j."""
    table = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in brackets.items():
        for k, c in value.items():
            table[i][j][k], table[j][i][k] = F(c), -F(c)
    return table


def _dense_bracket(table, x, y):
    """Sum of x_a y_b table[a][b] over the a, b with x_a y_b != 0, entry by entry."""
    n = len(table)
    pairs = [(a, b) for a in range(n) for b in range(n) if x[a] and y[b]]
    return tuple(sum((x[a] * y[b] * table[a][b][m] for a, b in pairs), F(0)) for m in range(n))


def _first_jacobi_defect(table):
    """(triple, defect) of the first i < j < k with a nonzero Jacobi sum, or None."""
    n = len(table)
    e = [unit_vector(n, i) for i in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        terms = [_dense_bracket(table, table[a][b], e[c]) for a, b, c in cyclic]
        defect = tuple(sum(col, F(0)) for col in zip(*terms))
        if any(defect):
            return (i, j, k), defect
    return None


FIVE_DIM = {(0, 1): {0: 1}, (0, 2): {1: 1}, (0, 3): {2: 1}, (1, 2): {3: 1}, (1, 3): {4: 1}}


def _perturbed_sl3(seed):
    """The brackets of sl:3 with one coefficient of one pair changed."""
    rng = random.Random(seed)
    data = lie.to_dict(classical("sl", 3))
    brackets = {(b["left"], b["right"]): {int(k): F(v) for k, v in b["value"].items()}
                for b in data["brackets"]}
    i, j = sorted(rng.sample(range(8), 2))
    value = brackets.setdefault((i, j), {})
    k = rng.randrange(8)
    value[k] = value.get(k, F(0)) + rng.choice((-2, -1, 1, 2))
    return 8, brackets


def _rescaled_brackets(g, scales):
    """The brackets of g in the basis s_i e_i: [s_i e_i, s_j e_j] = sum_k s_i s_j c_ij^k / s_k (s_k e_k)."""
    return {(i, j): {k: scales[i] * scales[j] * c / scales[k] for k, c in g._nonzero[i][j]}
            for i in range(g.dim) for j in range(i + 1, g.dim) if g._nonzero[i][j]}


def _rational_jacobi_case(seed):
    """sl:3 in the basis s_i e_i, s_i in {1/2, 1/3, 2/3, 3/2}, with one
    coefficient of one pair moved by 1/2 or 1/3."""
    rng = random.Random(seed)
    scales = [rng.choice((F(1, 2), F(1, 3), F(2, 3), F(3, 2))) for _ in range(8)]
    brackets = _rescaled_brackets(classical("sl", 3), scales)
    i, j = sorted(rng.sample(range(8), 2))
    value = brackets.setdefault((i, j), {})
    k = rng.randrange(8)
    value[k] = value.get(k, F(0)) + rng.choice((F(1, 2), F(-1, 3)))
    return 8, brackets


JACOBI_CASES = [(5, FIVE_DIM), (3, {(0, 1): {0: 1}, (0, 2): {1: 1}})] + [
    _perturbed_sl3(seed) for seed in range(10)
] + [_rational_jacobi_case(seed) for seed in range(6)]


@pytest.mark.parametrize("case", range(len(JACOBI_CASES)))
def test_jacobi_check_reports_the_dense_first_failing_triple_and_defect(case):
    dim, brackets = JACOBI_CASES[case]
    expected = _first_jacobi_defect(_dense_table(dim, brackets))
    if expected is None:
        assert build(dim, brackets).dim == dim
        return
    with pytest.raises(JacobiError) as exc:
        build(dim, brackets)
    assert (exc.value.triple, exc.value.defect) == expected
    assert all(type(x) is F for x in exc.value.defect)


def test_rational_jacobi_defects_are_not_integers():
    defects = [_first_jacobi_defect(_dense_table(*_rational_jacobi_case(seed)))[1]
               for seed in range(6)]
    assert sum(any(x.denominator > 1 for x in d) for d in defects) >= 4


def test_jacobi_passes_on_a_rational_basis():
    h = build(8, _rescaled_brackets(classical("sl", 3), [F(1, 2), F(1, 3)] * 4))
    assert any(c.denominator > 1 for row in h._nonzero for v in row for _, c in v)
    assert h.flags()["simple"]


def test_jacobi_cases_mostly_fail():
    failing = [c for c in JACOBI_CASES if _first_jacobi_defect(_dense_table(*c))]
    assert len(failing) >= 9


def test_bracket_and_ad_match_dense_reference():
    for g in (parse_algebra("cur:sl:2,jet:1,3"), classical("sl", 3)):
        table, n = g.table, g.dim
        rng = random.Random(n)
        vecs = [
            vector([F(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.5 else 0
                    for _ in range(n)])
            for _ in range(5)
        ] + [unit_vector(n, 0)]
        for x in vecs:
            cols = [_dense_bracket(table, x, unit_vector(n, j)) for j in range(n)]
            assert g.ad(x) == Matrix.from_columns(cols)
            for y in vecs:
                assert g.bracket(x, y) == _dense_bracket(table, x, y)


# ---------------------------------------------------------------------------
# center / commutator / series
# ---------------------------------------------------------------------------


def test_center_examples(two_dim, abelian2, heisenberg3, oscillator6):
    assert two_dim.center().is_zero()
    assert abelian2.center().is_full()
    assert heisenberg3.center() == Subspace.span([unit_vector(3, 2)], 3)
    assert oscillator6.center() == Subspace.span([unit_vector(6, 5)], 6)


def test_commutator_examples(two_dim, abelian2, sl2):
    assert abelian2.commutator_algebra().is_zero()
    assert two_dim.commutator_algebra() == Subspace.span([unit_vector(2, 0)], 2)
    assert sl2.commutator_algebra().is_full()


def test_bracket_span_of_center_is_zero(two_dim, heisenberg3, sl2):
    for g in (two_dim, heisenberg3, sl2):
        assert g.bracket_span(g.full_space(), g.center()).is_zero()


def test_series_abelian(abelian2):
    derived = abelian2.derived_series()
    lower = abelian2.lower_central_series()
    assert derived[0].is_full() and derived[-1].is_zero() and len(derived) == 2
    assert lower[0].is_full() and lower[-1].is_zero() and len(lower) == 2


def test_series_two_dim(two_dim):
    span_x1 = Subspace.span([unit_vector(2, 0)], 2)
    derived = two_dim.derived_series()
    assert derived == [Subspace.full(2), span_x1, Subspace.zero(2)]
    lower = two_dim.lower_central_series()
    # stabilizes at span{x1}, never reaches zero: solvable but not nilpotent
    assert lower[0].is_full()
    assert lower[-1] == span_x1
    assert not two_dim.flags()["nilpotent"]
    assert two_dim.flags()["solvable"]


def _filiform(n):
    """The standard filiform algebra: [e0, e_i] = e_{i+1} for 1 <= i < n - 1."""
    return build(n, {(0, i): {i + 1: F(1)} for i in range(1, n - 1)})


def _series_by_bracket_span(g, step):
    """Apply ``step`` from g until the term repeats: the series without the memo."""
    series = [g.full_space()]
    while True:
        nxt = step(series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


@pytest.mark.parametrize("spec", ["ex:2dim", "cur:sl:2,jet:2,3", "filiform"])
def test_series_match_bracket_span_loop(spec):
    g = _filiform(6) if spec == "filiform" else parse_algebra(spec)
    full = g.full_space()
    derived = _series_by_bracket_span(g, lambda s: g.bracket_span(s, s))
    lower = _series_by_bracket_span(g, lambda s: g.bracket_span(full, s))
    assert g.derived_series() == derived
    assert g.lower_central_series() == lower


def test_filiform_series_lengths():
    g = _filiform(6)
    assert [s.dim for s in g.derived_series()] == [6, 4, 0]
    assert [s.dim for s in g.lower_central_series()] == [6, 4, 3, 2, 1, 0]


def test_derived_contained_in_lower_central(two_dim, heisenberg3, oscillator6):
    for g in (two_dim, heisenberg3, oscillator6):
        derived = g.derived_series()
        lower = g.lower_central_series()
        for i, term in enumerate(derived):
            ref = lower[min(i, len(lower) - 1)]
            assert ref.contains_space(term)


# ---------------------------------------------------------------------------
# killing form
# ---------------------------------------------------------------------------


def test_killing_abelian_zero(abelian2):
    assert abelian2.killing_form().is_zero()


def test_killing_sl2(sl2):
    # basis (e, f, h)
    k = sl2.killing_form()
    assert k.rows[2][2] == F(8)
    assert k.rows[0][1] == F(4) and k.rows[1][0] == F(4)
    assert k.rows[0][0] == 0 and k.rows[1][1] == 0
    assert k.rows[0][2] == 0 and k.rows[1][2] == 0


def test_killing_two_dim(two_dim):
    k = two_dim.killing_form()
    assert k == Matrix((vector([0, 0]), vector([0, 1])))


def test_killing_invariance_on_basis_triples(sl2, two_dim, heisenberg3):
    for g in (sl2, two_dim, heisenberg3):
        k = g.killing_form()

        def kappa(u, v):
            return sum(
                u[i] * k.rows[i][j] * v[j]
                for i in range(g.dim)
                for j in range(g.dim)
            )

        for i, j, l in itertools.product(range(g.dim), repeat=3):
            x, y, z = (g.basis_vector(t) for t in (i, j, l))
            assert kappa(g.bracket(x, y), z) == kappa(x, g.bracket(y, z))


@pytest.mark.parametrize(
    "name", ["sl:3", "gl:3", "u:3", "heisenberg", "sl:2+Q rebased", "cur:sl:2,jet:1,3"]
)
def test_killing_form_matches_trace_of_ad_products(name, heisenberg3, sl2_plus_q_rebased):
    special = {"heisenberg": heisenberg3, "sl:2+Q rebased": sl2_plus_q_rebased}
    g = special.get(name) or parse_algebra(name)
    ads = [g.ad_basis(i) for i in range(g.dim)]
    reference = Matrix([[(a @ b).trace() for b in ads] for a in ads])
    assert g.killing_form() == reference


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


def test_flags_sl2(sl2):
    flags = sl2.flags()
    assert flags["semisimple"] and flags["simple"] and flags["perfect"]
    assert flags["centerfree"] and flags["reductive"]
    assert not flags["solvable"] and not flags["nilpotent"] and not flags["abelian"]


def test_flags_gl2(gl2):
    flags = gl2.flags()
    assert flags["reductive"] and not flags["semisimple"] and not flags["simple"]
    assert gl2.center().dim == 1


def test_flags_two_dim(two_dim):
    flags = two_dim.flags()
    assert flags["centerfree"] and not flags["perfect"] and not flags["reductive"]
    assert flags["solvable"]


def test_flags_semisimple_family(sl3, so3):
    for g in (sl3, so3):
        flags = g.flags()
        assert flags["semisimple"] and flags["perfect"] and flags["centerfree"]
        assert flags["reductive"]


def test_semisimple_implies_perfect_and_centerfree(sl2, sl3, so3):
    from liestruct import classical

    for g in (sl2, sl3, so3, classical("sp", 4), classical("su", 2)):
        flags = g.flags()
        if flags["semisimple"]:
            assert flags["perfect"] and flags["centerfree"]


def _reductive_by_restriction(g):
    """Reductive, with the Killing form of [g,g] taken as an algebra of its own."""
    flags = g.flags()
    if flags["semisimple"] or flags["abelian"]:
        return True
    z, comm = g.center(), g.commutator_algebra()
    if z.dim + comm.dim != g.dim or not z.sum(comm).is_full():
        return False
    h = g.restrict_to(comm)
    return row_reduce(h.killing_form())[1] == h.dim


@pytest.mark.parametrize(
    "spec, reductive",
    [
        ("gl:2", True),
        ("gl:3", True),
        ("u:3", True),
        ("cur:gl:2,points:2", True),
        ("sum:gl:2+sl:2", True),
        ("cur:gl:2,jet:1,2", False),
        ("cur:u:3,jet:1,2", False),
    ],
)
def test_reductive_matches_restricted_killing_form(spec, reductive):
    g = parse_algebra(spec)
    flags = g.flags()
    # every case reaches the z(g) + [g,g] test with a proper nonzero center
    assert not flags["semisimple"] and not flags["abelian"]
    assert g.center().dim + g.commutator_algebra().dim == g.dim
    assert flags["reductive"] == _reductive_by_restriction(g) == reductive


def test_flags_returns_a_copy_the_memo_keeps(two_dim):
    flags = two_dim.flags()
    flags["abelian"] = "mutated"
    del flags["solvable"]
    assert two_dim.flags()["abelian"] is False
    assert two_dim.flags()["solvable"] is True
    assert two_dim.flags() is not two_dim.flags()


# ---------------------------------------------------------------------------
# the per-algebra memo
# ---------------------------------------------------------------------------


def _memo_probe():
    # basis names no other test uses, so no equal algebra lives elsewhere
    return build(3, {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)}}, names=["m0", "m1", "m2"])


def test_memo_serves_an_equal_separately_built_algebra():
    g = _memo_probe()
    cent = centroid(g)
    hits = centroid.cache_info().hits
    twin = _memo_probe()
    assert twin is not g and twin == g
    assert centroid(twin) is cent
    assert centroid.cache_info().hits == hits + 1
    assert twin.center() is g.center()


def test_memo_entries_die_with_their_algebra():
    g = _memo_probe()
    centroid(g)
    g.flags()
    assert g in lie._memo
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert _memo_probe() not in lie._memo


def test_current_algebra_is_memoized_on_equal_arguments():
    k = classical("sl", 2)
    g = current_algebra(k, truncated_poly(1, 2))
    assert current_algebra(k, truncated_poly(1, 2)) is g
    assert current_algebra(classical("sl", 2), truncated_poly(1, 2)) is g


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_by_zero_is_same(two_dim):
    q = two_dim.quotient(Subspace.zero(2))
    assert q == two_dim


def test_quotient_two_dim_by_commutator(two_dim):
    q = two_dim.quotient(two_dim.commutator_algebra())
    assert q.dim == 1
    assert q.flags()["abelian"]


def test_quotient_heisenberg_by_center(heisenberg3):
    q = heisenberg3.quotient(heisenberg3.center())
    assert q.dim == 2
    assert q.flags()["abelian"]


def test_quotient_rejects_non_ideal(two_dim):
    non_ideal = Subspace.span([unit_vector(2, 1)], 2)  # span{x2}: [x1,x2]=x1 escapes
    with pytest.raises(NotAnIdealError):
        two_dim.quotient(non_ideal)


# ---------------------------------------------------------------------------
# permutation and serialization
# ---------------------------------------------------------------------------


def test_permuted_preserves_structure(sl2):
    perm = (2, 0, 1)  # new basis vector a is old basis vector perm[a]
    g = sl2.permuted(perm)
    assert g.dim == 3
    assert g.flags()["semisimple"]
    for a in range(3):
        for b in range(3):
            moved = g.bracket(g.basis_vector(a), g.basis_vector(b))
            orig = sl2.bracket(
                sl2.basis_vector(perm[a]), sl2.basis_vector(perm[b])
            )
            assert moved == vector(orig[perm[t]] for t in range(3))


def test_json_roundtrip(sl2, two_dim, heisenberg3):
    from liestruct.lie import from_dict, to_dict

    for g in (sl2, two_dim, heisenberg3):
        data = to_dict(g)
        back = from_dict(data)
        assert back == g
        assert back.names == g.names
        assert to_dict(back) == data


# ---------------------------------------------------------------------------
# property: ad is a homomorphism
# ---------------------------------------------------------------------------

coords = st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(coords, coords)
def test_property_ad_homomorphism_sl2(x, y):
    from liestruct import classical

    g = classical("sl", 2)
    vx, vy = vector(x), vector(y)
    assert g.ad(g.bracket(vx, vy)) == g.ad(vx).commutator(g.ad(vy))


@settings(max_examples=40, deadline=None)
@given(coords, coords, coords)
def test_property_jacobi_on_random_vectors(x, y, z):
    from liestruct import classical

    g = classical("so", 3)
    vx, vy, vz = vector(x), vector(y), vector(z)
    total = vector(
        a + b + c
        for a, b, c in zip(
            g.bracket(g.bracket(vx, vy), vz),
            g.bracket(g.bracket(vy, vz), vx),
            g.bracket(g.bracket(vz, vx), vy),
        )
    )
    assert total == vector([0, 0, 0])
