"""Builders: classical matrix algebras, worked examples, direct sums,
commutative coefficient algebras, current algebras k (x) A, and the
Casimir realization of centroid elements.

The commutative algebras here serve as coefficient rings for current
algebras: functions on finitely many points (split semisimple) and
truncated polynomial rings (local), which model base manifolds at desk
scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import LiestructError
from .lie import (
    LieAlgebra,
    _StructureTable,
    _check_jacobi,
    _compose,
    _inherit_jacobi,
    _integral,
    _jacobi_known,
    _memoized,
    build,
)
from .linalg import (
    Matrix,
    Vector,
    _echelon,
    _reduce,
    frac,
    kernel_of_rows,
    unit_vector,
    vector,
)

__all__ = [
    "CommutativeAlgebra",
    "classical",
    "example_algebra",
    "direct_sum",
    "truncated_poly",
    "point_functions",
    "quadratic_extension",
    "current_algebra",
    "casimir_adjoint",
    "casimir_coefficient_action",
    "commutative_derivations",
]


# ---------------------------------------------------------------------------
# Commutative coefficient algebras
# ---------------------------------------------------------------------------

class CommutativeAlgebra(_StructureTable):
    """A finite-dimensional commutative associative unital algebra over Q.

    ``table`` is dense, ``table[i][j]`` the coordinate vector of e_i e_j, or
    sparse, ``{(i, j): {k: c}}``; the structure-constant core that
    ``LieAlgebra`` uses too keeps only the nonzero constants. Construction
    validates commutativity, the unit law and associativity on all basis
    triples, from the nonzero structure constants. ``monomials`` optionally
    records exponent tuples when the basis consists of monomials (used by
    the jet machinery). Equal algebras hash equal; the hash is computed once.
    """

    __slots__ = ("unit", "monomials")

    def __init__(self, names, unit, table, monomials=None):
        super().__init__(names, table)
        self.unit = vector(unit)
        self.monomials = None if monomials is None else tuple(
            tuple(int(x) for x in mono) for mono in monomials
        )
        self._validate()

    def _validate(self):
        n = self.dim
        if len(self.unit) != n:
            raise ValueError("unit length does not match dimension")
        pair = self._noncommuting_pair()
        if pair:
            raise ValueError("product is not commutative on basis pair (%d, %d)" % pair)
        for i in range(n):
            if self._product(self.unit, unit_vector(n, i)) != unit_vector(n, i):
                raise ValueError("unit law fails on basis vector %d" % i)
        # (e_i e_j) e_k = e_i (e_j e_k) = (e_j e_k) e_i, by commutativity;
        # over integer constants, since only a zero defect matters
        _, nz = self._int_constants()
        for i, j, k in itertools.product(range(n), repeat=3):
            defect = _compose(nz, i, j, k, {})
            if any(_compose(nz, j, k, i, defect, negate=True).values()):
                raise ValueError(
                    "product is not associative on basis triple (%d, %d, %d)"
                    % (i, j, k)
                )

    def product(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        return self._product(u, v)

    def mult_matrix(self, a: Sequence[Fraction]) -> Matrix:
        """Multiplication operator L_a; column j holds a * e_j."""
        return self._left_matrix(a)

    def __eq__(self, other):
        return self._same_table(other) and self.unit == other.unit

    def __hash__(self):
        return self._table_hash(self.unit)

    def __repr__(self):
        return "CommutativeAlgebra(dim %d: %s)" % (self.dim, ", ".join(self.names))


def _monomials_below(m: int, order: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree < order in graded lexicographic order
    (so x1 precedes x2, and x1^2 precedes x1*x2 precedes x2^2)."""
    out = []
    for total in range(order):
        out.extend(
            sorted(
                (
                    alpha
                    for alpha in itertools.product(range(total + 1), repeat=m)
                    if sum(alpha) == total
                ),
                reverse=True,
            )
        )
    return out


def _monomial_name(alpha: tuple[int, ...], single_var: bool) -> str:
    if not any(alpha):
        return "1"
    parts = []
    for i, a in enumerate(alpha):
        if not a:
            continue
        base = "t" if single_var else "x%d" % (i + 1)
        parts.append(base if a == 1 else "%s^%d" % (base, a))
    return "*".join(parts)


def truncated_poly(m: int, order: int) -> CommutativeAlgebra:
    """Q[x_1..x_m] modulo all monomials of total degree >= order.

    Local ring with maximal ideal the positive-degree part; the basis is the
    C(m + order - 1, m) monomials of degree < order.
    """
    if m < 1 or order < 1:
        raise ValueError("need at least one variable and order >= 1")
    monos = _monomials_below(m, order)
    index = {alpha: i for i, alpha in enumerate(monos)}
    products = {}
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            total = tuple(x + y for x, y in zip(a, b))
            if sum(total) < order:
                products[(i, j)] = {index[total]: 1}
    names = [_monomial_name(a, m == 1) for a in monos]
    return CommutativeAlgebra(names, unit_vector(len(monos), 0), products, monomials=monos)


def point_functions(k: int) -> CommutativeAlgebra:
    """Functions on k points: Q^k with the pointwise product."""
    if k < 1:
        raise ValueError("need at least one point")
    names = ["p%d" % (i + 1) for i in range(k)]
    return CommutativeAlgebra(names, [1] * k, {(i, i): {i: 1} for i in range(k)})


def quadratic_extension(c) -> CommutativeAlgebra:
    """Q[r]/(r^2 - c); a field when c is not a rational square."""
    products = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: frac(c)}}
    return CommutativeAlgebra(["1", "r"], [1, 0], products)


def commutative_derivations(a: CommutativeAlgebra):
    """Der(A) as an EndoSpace: D(uv) = D(u)v + uD(v)."""
    from .endo import EndoSpace, leibniz_system

    n = a.dim
    return EndoSpace("derivations", n, kernel_of_rows(leibniz_system(a), n * n))


# ---------------------------------------------------------------------------
# Classical matrix Lie algebras
# ---------------------------------------------------------------------------

def _from_matrix_basis(basis: list[tuple[str, dict]], m: int) -> LieAlgebra:
    """Structure constants from the commutators of named m x m basis matrices,
    sparse integer maps ``{(row, col): entry}``.

    Basis matrix i, flattened to columns r m + c and tagged with a 1 in column
    m^2 + i, goes through one echelon: the basis is independent when no pivot
    lies in the tags. A commutator v, with a 1 in the marker column m^2 + d and
    reduced by the pivot rows whose columns it holds, leaves alpha (v | 0 | 1)
    minus tagged basis rows: zero before the tags when v is in the span, with
    -alpha times v's coordinates in the tags. A table of matrix commutators
    satisfies the Jacobi identity, so it is recorded as such, not checked.
    """
    names, mats = zip(*basis)
    d, mm = len(mats), m * m
    pivots = {}
    _echelon(({**{r * m + c: x for (r, c), x in a.items()}, mm + i: 1}
              for i, a in enumerate(mats)), pivots)
    if any(c >= mm for c in pivots):
        raise ValueError("matrix basis is linearly dependent")

    def coords(a: dict, b: dict) -> dict:
        row = {mm + d: 1}  # ab - ba, marked
        for left, right, sign in ((a, b, 1), (b, a, -1)):
            for (r, k), x in left.items():
                for (l, c), y in right.items():
                    if k == l:
                        row[r * m + c] = row.get(r * m + c, 0) + sign * x * y
        row = {col: x for col, x in row.items() if x}
        for c in [c for c in row if c in pivots]:
            row = _reduce(row, pivots[c], c)
        if min(row) < mm:
            raise ValueError("commutator escapes the span of the basis")
        alpha = row.pop(mm + d)
        return {col - mm: Fraction(-x, alpha) for col, x in row.items()}

    products = {}
    for i, j in itertools.combinations(range(d), 2):
        products[i, j] = coords(mats[i], mats[j])
        products[j, i] = {k: -x for k, x in products[i, j].items()}
    return _inherit_jacobi(LieAlgebra(names, products))


def _units(*entries) -> dict:
    """The sparse integer matrix sum of x E_rc over the triples (r, c, x)."""
    out = {}
    for r, c, x in entries:
        out[r, c] = out.get((r, c), 0) + x
    return {rc: x for rc, x in out.items() if x}


def classical(kind: str, n: int) -> LieAlgebra:
    """Standard matrix Lie algebras: sl, gl, so, sp, u, su.

    sp takes the ambient (even) size, so classical("sp", 4) is sp_4 of
    dimension 10. u and su are the real skew-hermitian models, built over Q
    by splitting matrices over Q(i) into real and imaginary parts.
    """
    if n < 1:
        raise ValueError("size must be positive")
    # the two indices of a name run together while both are single digits; from
    # index 10 on they are separated, as "E111" would be both E_1,11 and E_11,1
    pair = "%d_%d" if (n // 2 if kind == "sp" else n) >= 10 else "%d%d"
    if kind == "gl":
        basis = [("E" + pair % (i + 1, j + 1), _units((i, j, 1)))
                 for i in range(n) for j in range(n)]
    elif kind == "sl":
        if n < 2:
            raise ValueError("sl needs size >= 2")
        basis = [("E" + pair % (i + 1, j + 1), _units((i, j, 1)))
                 for i in range(n) for j in range(n) if i != j]
        basis += [("H%d" % (i + 1), _units((i, i, 1), (i + 1, i + 1, -1))) for i in range(n - 1)]
    elif kind == "so":
        if n < 2:
            raise ValueError("so needs size >= 2")
        basis = [("A%d%d" % (i + 1, j + 1), _units((i, j, 1), (j, i, -1)))
                 for i, j in itertools.combinations(range(n), 2)]
    elif kind == "sp":
        if n < 2 or n % 2:
            raise ValueError("sp needs a positive even ambient size")
        h = n // 2
        # J = [[0, I], [-I, 0]]; basis of {X : X^T J + J X = 0}:
        # blocks [[A, B], [C, -A^T]] with B, C symmetric
        basis = [("A" + pair % (i + 1, j + 1), _units((i, j, 1), (h + j, h + i, -1)))
                 for i in range(h) for j in range(h)]
        for i, j in itertools.combinations_with_replacement(range(h), 2):
            basis += [("B" + pair % (i + 1, j + 1), _units((i, h + j, 1), (j, h + i, 1))),
                      ("C" + pair % (i + 1, j + 1), _units((h + i, j, 1), (h + j, i, 1)))]
    elif kind in ("u", "su"):
        if kind == "su" and n < 2:
            raise ValueError("su needs size >= 2")
        return _from_matrix_basis(_unitary(kind, n), 2 * n)
    else:
        raise ValueError("unknown classical family %r" % kind)
    return _from_matrix_basis(basis, n)


def _unitary(kind: str, n: int) -> list[tuple[str, dict]]:
    """The named basis of the real models of u(n) and su(n), whose structure
    constants are rational.

    A skew-hermitian matrix X + iY (X real skew, Y real symmetric) is coded
    as the real 2n x 2n matrix [[X, -Y], [Y, X]]: an exact rational faithful
    representation of the real Lie algebra. Each basis matrix has an X or a
    Y part, given as triples (r, c, x) and placed in its blocks directly.
    """
    def x_part(*entries) -> dict:
        return _units(*((r + s, c + s, x) for r, c, x in entries for s in (0, n)))

    def y_part(*entries) -> dict:
        return _units(*(t for r, c, y in entries for t in ((n + r, c, y), (r, n + c, -y))))

    pairs = list(itertools.combinations(range(n), 2))
    # X real skew-symmetric, then Y real symmetric: off the diagonal, then on it
    basis = [("K%d%d" % (i + 1, j + 1), x_part((i, j, 1), (j, i, -1))) for i, j in pairs]
    basis += [("S%d%d" % (i + 1, j + 1), y_part((i, j, 1), (j, i, 1))) for i, j in pairs]
    if kind == "u":
        return basis + [("D%d" % (i + 1), y_part((i, i, 1))) for i in range(n)]
    return basis + [("D%d" % (i + 1), y_part((i, i, 1), (i + 1, i + 1, -1))) for i in range(n - 1)]


# ---------------------------------------------------------------------------
# Worked examples and sums
# ---------------------------------------------------------------------------

def example_algebra(which: str) -> LieAlgebra:
    """The two worked example tables.

    "two_dim": [x1, x2] = x1 — solvable, centerfree, not perfect.
    "five_dim": the five-dimensional table [y1,y2] = y1, [y1,y3] = y2,
    [y1,y4] = y3, [y2,y3] = y4, [y2,y4] = y5, all other pairs zero. Note
    that this table does not satisfy the Jacobi identity (the triple
    (y1, y2, y3) already fails), so building it raises JacobiError.
    """
    if which == "two_dim":
        return build(2, {(0, 1): {0: 1}}, names=["x1", "x2"])
    if which == "five_dim":
        return build(
            5,
            {
                (0, 1): {0: 1},
                (0, 2): {1: 1},
                (0, 3): {2: 1},
                (1, 2): {3: 1},
                (1, 3): {4: 1},
            },
            names=["y1", "y2", "y3", "y4", "y5"],
        )
    raise ValueError("unknown example %r" % which)


def direct_sum(parts: Sequence[LieAlgebra]) -> LieAlgebra:
    """Direct sum: block-diagonal structure constants, zero cross brackets."""
    parts = list(parts)
    if not parts:
        raise ValueError("direct sum of an empty list")
    if len(parts) == 1:
        return parts[0]
    names, products, off = [], {}, 0
    for t, p in enumerate(parts):
        names.extend("%s.%d" % (nm, t + 1) for nm in p.names)
        for i, row in enumerate(p._nonzero):
            for j, entries in enumerate(row):
                products[(off + i, off + j)] = {off + k: v for k, v in entries}
        off += p.dim
    return _inherit_jacobi(LieAlgebra(names, products), *parts)


# ---------------------------------------------------------------------------
# Current algebras k (x) A
# ---------------------------------------------------------------------------

@_memoized
def current_algebra(k: LieAlgebra, a: CommutativeAlgebra) -> LieAlgebra:
    """k (x) A with [x (x) a, y (x) b] = [x, y] (x) ab.

    Tensor basis ordering is Lie-index major: basis vector (i, p) sits at
    position i * dim A + p. The result satisfies the Jacobi identity when k
    does, since A's constructor checked that A is commutative and
    associative; so it inherits k's Jacobi verdict, and is checked only when
    k has none. Memoized per k; A compares by value, so an equal coefficient
    algebra built again gets the same result.
    """
    na = a.dim
    names = [
        "%s(x)%s" % (k.names[i], a.names[p]) for i in range(k.dim) for p in range(na)
    ]
    products = {}
    for i, k_row in enumerate(k._nonzero):
        for j, cij in enumerate(k_row):
            if not cij:
                continue
            for p, a_row in enumerate(a._nonzero):
                for q, prod in enumerate(a_row):
                    # (l, r) -> l * na + r is one-to-one, so no coordinate is hit twice
                    products[(i * na + p, j * na + q)] = {
                        l * na + r: cl * pr for l, cl in cij for r, pr in prod
                    }
    g = LieAlgebra(names, products)
    if _jacobi_known(k):
        return _inherit_jacobi(g, k)
    _check_jacobi(g)
    return g


def tensor_vector(k: LieAlgebra, a: CommutativeAlgebra, x, coeff) -> Vector:
    """Coordinates of x (x) coeff in the tensor basis of k (x) A."""
    x, coeff = vector(x), vector(coeff)
    na = a.dim
    k._check_length(x)
    a._check_length(coeff)
    out = [Fraction(0)] * (k.dim * na)
    for i, xi in enumerate(x):
        if xi:
            for p, cp in enumerate(coeff):
                if cp:
                    out[i * na + p] = xi * cp
    return tuple(out)


# ---------------------------------------------------------------------------
# Casimir-style centroid elements
# ---------------------------------------------------------------------------

def _ad_columns(nz, x) -> dict:
    """ad(x) over the int constants ``nz``, {col: {row: entry}}, for x as (index, int) pairs."""
    cols = {}
    for p, xp in x:
        for t, entries in enumerate(nz[p]):
            if entries:
                col = cols.setdefault(t, {})
                for r, c in entries:
                    col[r] = col.get(r, 0) + xp * c
    return cols


def _casimir(k: LieAlgebra, g: LieAlgebra, left, right) -> Matrix:
    """sum_i ad(left[i]) ad(x^i) on g, x^i = sum_j w_ji right[j] for w the
    inverse of k's Killing form; ``left`` and ``right`` hold a vector of g,
    as (index, value) pairs, per basis vector of k. The sums run in ints: w
    is q d^-1 times ints read off one integer echelon of [q kappa | I], q kappa
    the trace form's int rows (pivot row c is p_c (e_c | row c of (q
    kappa)^-1), d the lcm of the p_c), and g's constants and the vectors are
    scaled to one denominator den by :func:`_integral`, so each entry is q
    times one Fraction over den^4 d."""
    n, (q, kappa) = k.dim, k._trace_form()
    pivots = {}
    _echelon(({**row, n + i: 1} for i, row in enumerate(kappa)), pivots)
    if any(c >= n for c in pivots):
        raise LiestructError("Killing form is degenerate; no dual basis exists")
    d = lcm(*(r[c] for c, r in pivots.items()))
    w = {(c, j - n): v * (d // r[c]) for c, r in pivots.items() for j, v in r.items() if j != c}
    den, nz, (ls,), (rs,) = _integral(g._nonzero, (left,), (right,))
    acc = [[0] * g.dim for _ in range(g.dim)]
    for i, u in enumerate(ls):
        a = _ad_columns(nz, u)
        dual = [(p, w[j, i] * x) for j, v in enumerate(rs) if (j, i) in w for p, x in v]
        for s, col in _ad_columns(nz, dual).items():
            for t, b in col.items():
                for r, x in a.get(t, {}).items():
                    acc[r][s] += x * b
    return Matrix._trusted(tuple(Fraction(x * q, den ** 4 * d) for x in row) for row in acc)


def casimir_adjoint(k: LieAlgebra) -> Matrix:
    """Sum of ad(x_i) ad(x^i) over a Killing-dual pair of bases.

    For a semisimple algebra this acts as the identity on the adjoint
    module; in general it is a centroid element.
    """
    basis = [((i, 1),) for i in range(k.dim)]
    return _casimir(k, k, basis, basis)


def casimir_coefficient_action(k: LieAlgebra, a: CommutativeAlgebra, coeff) -> Matrix:
    """The centroid element f_a = sum ad(x_i (x) a) ad(x^i (x) 1) of k (x) A.

    For split-central semisimple k it acts as multiplication by ``coeff`` on
    the coefficient leg: f_a(x (x) b) = x (x) ab. One leg carries the unit of
    A — putting ``coeff`` on both legs would scale quadratically in ``coeff``
    and fail the multiplication law.
    """
    coeff = vector(coeff)
    a._check_length(coeff)
    g, na = current_algebra(k, a), a.dim
    # x_i (x) c for each basis vector x_i of k, c = coeff and c = 1
    left, right = ([[(i * na + p, x) for p, x in enumerate(c) if x] for i in range(k.dim)]
                   for c in (coeff, a.unit))
    return _casimir(k, g, left, right)
