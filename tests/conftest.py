"""Shared fixtures and the acceptance-summary terminal report.

Every algebra fixture here is exact (Fraction arithmetic); expected values in
the tests were computed independently by hand or by a second method noted at
the assertion site.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from liestruct import build, classical, example_algebra
from liestruct.linalg import Matrix
from liestruct.poly import char_poly, derivative, poly_eval_matrix, squarefree_part

# ---------------------------------------------------------------------------
# dense helpers and oracles, imported by the test modules
# ---------------------------------------------------------------------------


def kron(a, b):
    """Kronecker product; row/column index (i, p) maps to i * b.nrows + p."""
    return Matrix([[x * y for x in arow for y in brow] for arow in a.rows for brow in b.rows])


def block_diag(*blocks):
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows.extend([0] * at + list(r) + [0] * (n - at - b.nrows) for r in b.rows)
        at += b.nrows
    return Matrix(rows)


def is_nilpotent(m):
    return m.nrows == 0 or m.power(m.nrows).is_zero()


def jordan_chevalley_reference(m):
    """(s, n) by Newton's method on dense matrices, a <- a - f(a) f'(a)^-1 with one
    matrix inverse per step, f the squarefree part of the characteristic polynomial:
    independent of the library's minimal polynomial and of its Newton in Q[t]/(m)."""
    f = squarefree_part(char_poly(m))
    fp = derivative(f)
    a = m
    for _ in range(m.nrows.bit_length() + 1):
        fa = poly_eval_matrix(f, a)
        if fa.is_zero():
            return a, m - a
        a = a - fa @ poly_eval_matrix(fp, a).inverse()
    raise AssertionError("reference Newton iteration did not converge")

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sympy():
    """sympy, the differential oracle of the exact-kernel tests; skip if absent."""
    return pytest.importorskip("sympy")


@pytest.fixture(scope="session")
def sl2():
    return classical("sl", 2)


@pytest.fixture(scope="session")
def sl3():
    return classical("sl", 3)


@pytest.fixture(scope="session")
def so3():
    return classical("so", 3)


@pytest.fixture(scope="session")
def gl2():
    return classical("gl", 2)


@pytest.fixture(scope="session")
def two_dim():
    return example_algebra("two_dim")


@pytest.fixture(scope="session")
def abelian2():
    return build(2, {}, names=["a1", "a2"])


@pytest.fixture(scope="session")
def abelian1():
    return build(1, {}, names=["a"])


@pytest.fixture(scope="session")
def heisenberg3():
    """[x,y] = z, z central: nilpotent, center = commutator = span{z}."""
    return build(3, {(0, 1): {2: F(1)}}, names=["x", "y", "z"])


@pytest.fixture(scope="session")
def oscillator6():
    """sl2 acting on a Heisenberg algebra: perfect with 1-dim center.

    Basis (e, f, h, p, q, z): the sl2 triple, the natural 2-dim module
    (p, q), and a central z with [p,q] = z.  Perfect, not reductive,
    center = span{z} contained in the commutator.
    """
    return build(
        6,
        {
            (0, 1): {2: F(1)},
            (0, 2): {0: F(-2)},
            (1, 2): {1: F(2)},
            (0, 4): {3: F(1)},
            (1, 3): {4: F(1)},
            (2, 3): {3: F(1)},
            (2, 4): {4: F(-1)},
            (3, 4): {5: F(1)},
        },
        names=["e", "f", "h", "p", "q", "z"],
    )


@pytest.fixture(scope="session")
def sl2_plus_q_rebased():
    """sl2 + Q in the basis f_i = sum_k p[k][i] e_k for an integer unimodular p."""
    from liestruct import direct_sum

    lower = Matrix([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [0, 1, -2, 1]])
    upper = Matrix([[1, 1, 0, 2], [0, 1, -1, 0], [0, 0, 1, 3], [0, 0, 0, 1]])
    p = lower @ upper
    g = direct_sum([classical("sl", 2), build(1, {})])
    n = g.dim
    pinv = p.inverse()
    cols = [p.column(i) for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = pinv.apply(g.bracket(cols[i], cols[j]))
            value = {k: c for k, c in enumerate(coords) if c}
            if value:
                brackets[(i, j)] = value
    return build(n, brackets)


@pytest.fixture(scope="session")
def rebase():
    """A function giving g in a seeded dense integer basis of determinant 1."""

    def rebased(g, seed, big=False, scale=1):
        """g in the basis f_i = sum_k p[k][i] e_k, p = scale * lower @ upper for
        a seeded dense integer matrix of determinant 1; with ``big``, one entry
        of lower is 2^64 + 1, so the constants run far past 64 bits, and a
        ``scale`` other than 1 multiplies every constant by it."""
        n, rng = g.dim, random.Random(seed)
        lower = [[1 if r == c else rng.randint(-2, 2) if r > c else 0 for c in range(n)]
                 for r in range(n)]
        upper = [[1 if r == c else rng.randint(-2, 2) if r < c else 0 for c in range(n)]
                 for r in range(n)]
        if big:
            lower[n - 1][0] = 2**64 + 1
        p = (Matrix(lower) @ Matrix(upper)).scale(scale)
        pinv = p.inverse()
        cols = [p.column(i) for i in range(n)]
        brackets = {}
        for i, j in itertools.combinations(range(n), 2):
            coords = pinv.apply(g.bracket(cols[i], cols[j]))
            brackets[(i, j)] = {k: c for k, c in enumerate(coords) if c}
        return build(n, brackets)

    return rebased


@pytest.fixture(scope="session")
def sl2_complex_model():
    """sl2 over Q[i] written as a 6-dimensional rational algebra.

    Basis x1..x3 = e, f, h and y1..y3 = i*e, i*f, i*h; brackets follow from
    bilinearity and i^2 = -1.
    """
    from liestruct import current_algebra, quadratic_extension

    return current_algebra(classical("sl", 2), quadratic_extension(F(-1)))


# ---------------------------------------------------------------------------
# acceptance summary table
# ---------------------------------------------------------------------------

CRITERIA_LABELS = {
    1: "structure flags of the small example algebras",
    2: "semisimple algebras: Der = Inner, scalar centroid, no nilpotents",
    3: "centroid laws (module action, bracket containments)",
    4: "centroid of a current algebra realizes the coefficient algebra",
    5: "Casimir operator is the identity; coefficient action x(x)b -> x(x)ab",
    6: "decomposition into indecomposable ideals + permutation stability",
    7: "complex structure on the complexified model, none rationally",
    8: "section theorems: center, commutator, centroid, indecomposability",
    9: "x-derivation dimension count and symbol exactness",
    10: "derivations of jet current algebras split as tensor + connection",
    11: "multinomial identity and generalized Leibniz expansion",
    12: "jet reparametrization yields exact triangular automorphisms",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(n): marks a test as part of acceptance criterion n",
    )


_OUTCOMES: dict[int, list[tuple[str, str, bool]]] = {}


def pytest_runtest_logreport(report):
    if not report.nodeid.rpartition("::")[0].endswith("test_acceptance.py"):
        return
    if report.when != "call" and not (report.when == "setup" and report.skipped):
        return
    match = re.search(r"test_c(\d+)", report.nodeid)
    if not match:
        return
    _OUTCOMES.setdefault(int(match.group(1)), []).append(
        (
            report.nodeid.rpartition("::")[2],
            report.outcome,
            hasattr(report, "wasxfail"),
        )
    )


def pytest_terminal_summary(terminalreporter):
    if not _OUTCOMES:
        return
    tr = terminalreporter
    tr.write_sep("=", "ACCEPTANCE")
    for num in sorted(CRITERIA_LABELS):
        parts = _OUTCOMES.get(num)
        if not parts:
            continue
        ok = all(
            outcome == "passed" or (outcome == "skipped" and was_xfail)
            for (_, outcome, was_xfail) in parts
        )
        blocked = sum(1 for (_, outcome, wx) in parts if wx and outcome == "skipped")
        note = ""
        if blocked:
            note = "  [%d part(s) blocked by an invalid input table: expected failure]" % blocked
        tr.write_line(
            "criterion %2d  %-62s %s%s"
            % (num, CRITERIA_LABELS[num], "PASS" if ok else "FAIL", note)
        )
