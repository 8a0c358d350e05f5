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
from typing import Sequence

from .errors import LiestructError
from .lie import LieAlgebra, _StructureTable, _check_jacobi, _compose, _integral, _memoized, build
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    kernel_of_rows,
    unit_vector,
    vector,
    zero_vector,
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

    ``table[i][j]`` is the coordinate vector of e_i e_j. The table, its
    nonzero entries, the product and the multiplication matrices come from
    the structure-constant core that ``LieAlgebra`` uses too. Construction
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
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError(
                        "product is not commutative on basis pair (%d, %d)" % (i, j)
                    )
        for i in range(n):
            if self._product(self.unit, unit_vector(n, i)) != unit_vector(n, i):
                raise ValueError("unit law fails on basis vector %d" % i)
        # (e_i e_j) e_k = e_i (e_j e_k) = (e_j e_k) e_i, by commutativity;
        # over integer constants, since only a zero defect matters
        _, nz = _integral(self._nonzero)
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
    n = len(monos)
    table = [[list(zero_vector(n)) for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            total = tuple(x + y for x, y in zip(a, b))
            if sum(total) < order:
                table[i][j][index[total]] = Fraction(1)
    names = [_monomial_name(a, m == 1) for a in monos]
    unit = unit_vector(n, 0)
    return CommutativeAlgebra(names, unit, table, monomials=monos)


def point_functions(k: int) -> CommutativeAlgebra:
    """Functions on k points: Q^k with the pointwise product."""
    if k < 1:
        raise ValueError("need at least one point")
    table = [
        [
            unit_vector(k, i) if i == j else zero_vector(k)
            for j in range(k)
        ]
        for i in range(k)
    ]
    names = ["p%d" % (i + 1) for i in range(k)]
    return CommutativeAlgebra(names, [1] * k, table)


def quadratic_extension(c) -> CommutativeAlgebra:
    """Q[r]/(r^2 - c); a field when c is not a rational square."""
    c = frac(c)
    table = [
        [vector([1, 0]), vector([0, 1])],
        [vector([0, 1]), vector([c, 0])],
    ]
    return CommutativeAlgebra(["1", "r"], [1, 0], table)


def commutative_derivations(a: CommutativeAlgebra):
    """Der(A) as an EndoSpace: D(uv) = D(u)v + uD(v)."""
    from .endo import EndoSpace, leibniz_system

    n = a.dim
    return EndoSpace("derivations", n, kernel_of_rows(leibniz_system(a.table, n), n * n))


# ---------------------------------------------------------------------------
# Classical matrix Lie algebras
# ---------------------------------------------------------------------------

def _from_matrix_basis(mats: list[Matrix], names: list[str]) -> LieAlgebra:
    """Structure constants from commutators of a basis of matrices.

    The flattened basis is reduced once. With P the basis restricted to the
    pivot columns of that echelon (row i: basis matrix i), the vector with
    coordinates x has pivot entries P^T x; so the coordinates of each
    commutator are (P^-1)^T times its pivot entries.
    """
    flat = [m.flatten() for m in mats]
    span = Subspace.span(flat, len(flat[0]))
    if span.dim != len(mats):
        raise ValueError("matrix basis is linearly dependent")
    to_coords = Matrix([[v[p] for p in span.pivots] for v in flat]).inverse().transpose()

    def coords(a: Matrix, b: Matrix) -> Vector:
        comm = a.commutator(b).flatten()
        if not span.contains(comm):
            raise ValueError("commutator escapes the span of the basis")
        return to_coords.apply([comm[p] for p in span.pivots])

    return LieAlgebra(names, [[coords(a, b) for b in mats] for a in mats])


def _eij(n: int, i: int, j: int) -> Matrix:
    rows = [[Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n)] for r in range(n)]
    return Matrix(rows)


def classical(kind: str, n: int) -> LieAlgebra:
    """Standard matrix Lie algebras: sl, gl, so, sp, u, su.

    sp takes the ambient (even) size, so classical("sp", 4) is sp_4 of
    dimension 10. u and su are the real skew-hermitian models, built over Q
    by splitting matrices over Q(i) into real and imaginary parts.
    """
    if n < 1:
        raise ValueError("size must be positive")
    if kind == "gl":
        mats = [_eij(n, i, j) for i in range(n) for j in range(n)]
        names = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
        return _from_matrix_basis(mats, names)
    if kind == "sl":
        if n < 2:
            raise ValueError("sl needs size >= 2")
        mats = [_eij(n, i, j) for i in range(n) for j in range(n) if i != j]
        names = ["E%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n) if i != j]
        for i in range(n - 1):
            mats.append(_eij(n, i, i) - _eij(n, i + 1, i + 1))
            names.append("H%d" % (i + 1))
        return _from_matrix_basis(mats, names)
    if kind == "so":
        if n < 2:
            raise ValueError("so needs size >= 2")
        mats, names = [], []
        for i in range(n):
            for j in range(i + 1, n):
                mats.append(_eij(n, i, j) - _eij(n, j, i))
                names.append("A%d%d" % (i + 1, j + 1))
        return _from_matrix_basis(mats, names)
    if kind == "sp":
        if n < 2 or n % 2:
            raise ValueError("sp needs a positive even ambient size")
        h = n // 2
        # J = [[0, I], [-I, 0]]; basis of {X : X^T J + J X = 0}:
        # blocks [[A, B], [C, -A^T]] with B, C symmetric
        mats, names = [], []
        for i in range(h):
            for j in range(h):
                a = _eij(n, i, j) - _eij(n, h + j, h + i)
                mats.append(a)
                names.append("A%d%d" % (i + 1, j + 1))
        for i in range(h):
            for j in range(i, h):
                b = _eij(n, i, h + j) + _eij(n, j, h + i)
                mats.append(b)
                names.append("B%d%d" % (i + 1, j + 1))
                c = _eij(n, h + i, j) + _eij(n, h + j, i)
                mats.append(c)
                names.append("C%d%d" % (i + 1, j + 1))
        return _from_matrix_basis(mats, names)
    if kind in ("u", "su"):
        return _unitary(kind, n)
    raise ValueError("unknown classical family %r" % kind)


def _unitary(kind: str, n: int) -> LieAlgebra:
    """Real models of u(n) and su(n) with rational structure constants.

    A skew-hermitian matrix X + iY (X real skew, Y real symmetric) is coded
    as the real 2n x 2n matrix [[X, -Y], [Y, X]]: an exact rational faithful
    representation of the real Lie algebra.
    """
    def embed(x: Matrix, y: Matrix) -> Matrix:
        rows = []
        for i in range(n):
            rows.append(list(x.rows[i]) + [-v for v in y.rows[i]])
        for i in range(n):
            rows.append(list(y.rows[i]) + list(x.rows[i]))
        return Matrix(rows)

    zero = Matrix.zero(n, n)
    mats, names = [], []
    # X part: real skew-symmetric (dim n(n-1)/2)
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(embed(_eij(n, i, j) - _eij(n, j, i), zero))
            names.append("K%d%d" % (i + 1, j + 1))
    # iY part: Y real symmetric off-diagonal (dim n(n-1)/2)
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(embed(zero, _eij(n, i, j) + _eij(n, j, i)))
            names.append("S%d%d" % (i + 1, j + 1))
    # iY diagonal part
    if kind == "u":
        for i in range(n):
            mats.append(embed(zero, _eij(n, i, i)))
            names.append("D%d" % (i + 1))
    else:
        for i in range(n - 1):
            mats.append(embed(zero, _eij(n, i, i) - _eij(n, i + 1, i + 1)))
            names.append("D%d" % (i + 1))
    return _from_matrix_basis(mats, names)


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
    total = sum(p.dim for p in parts)
    offsets = []
    acc = 0
    for p in parts:
        offsets.append(acc)
        acc += p.dim
    names = []
    for t, p in enumerate(parts):
        names.extend("%s.%d" % (nm, t + 1) for nm in p.names)
    table = [[list(zero_vector(total)) for _ in range(total)] for _ in range(total)]
    for t, p in enumerate(parts):
        off = offsets[t]
        for i, row in enumerate(p._nonzero):
            for j, entries in enumerate(row):
                for k, v in entries:
                    table[off + i][off + j][off + k] = v
    return LieAlgebra(names, table)


# ---------------------------------------------------------------------------
# Current algebras k (x) A
# ---------------------------------------------------------------------------

@_memoized
def current_algebra(k: LieAlgebra, a: CommutativeAlgebra) -> LieAlgebra:
    """k (x) A with [x (x) a, y (x) b] = [x, y] (x) ab.

    Tensor basis ordering is Lie-index major: basis vector (i, p) sits at
    position i * dim A + p. The Jacobi identity is re-validated on the
    result rather than trusted. Memoized per k; A compares by value, so an
    equal coefficient algebra built again gets the same result.
    """
    nk, na = k.dim, a.dim
    n = nk * na
    names = [
        "%s(x)%s" % (k.names[i], a.names[p]) for i in range(nk) for p in range(na)
    ]
    table = [[list(zero_vector(n)) for _ in range(n)] for _ in range(n)]
    for i, k_row in enumerate(k._nonzero):
        for j, cij in enumerate(k_row):
            if not cij:
                continue
            for p, a_row in enumerate(a._nonzero):
                for q, prod in enumerate(a_row):
                    row = table[i * na + p][j * na + q]
                    for l, cl in cij:
                        for r, pr in prod:
                            row[l * na + r] += cl * pr
    g = LieAlgebra(names, table)
    _check_jacobi(g)
    return g


def tensor_vector(k: LieAlgebra, a: CommutativeAlgebra, x, coeff) -> Vector:
    """Coordinates of x (x) coeff in the tensor basis of k (x) A."""
    x, coeff = vector(x), vector(coeff)
    na = a.dim
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

def _killing_dual_basis(k: LieAlgebra) -> list[Vector]:
    kappa = k.killing_form()
    try:
        inv = kappa.inverse()
    except ValueError:
        raise LiestructError(
            "Killing form is degenerate; no dual basis exists"
        ) from None
    # dual vector x^j has coordinates given by column j of kappa^{-1}
    return [inv.column(j) for j in range(k.dim)]


def casimir_adjoint(k: LieAlgebra) -> Matrix:
    """Sum of ad(x_i) ad(x^i) over a Killing-dual pair of bases.

    For a semisimple algebra this acts as the identity on the adjoint
    module; in general it is a centroid element.
    """
    duals = _killing_dual_basis(k)
    n = k.dim
    acc = Matrix.zero(n, n)
    for i in range(n):
        acc = acc + k.ad_basis(i) @ k.ad(duals[i])
    return acc


def casimir_coefficient_action(k: LieAlgebra, a: CommutativeAlgebra, coeff) -> Matrix:
    """The centroid element f_a = sum ad(x_i (x) a) ad(x^i (x) 1) of k (x) A.

    For split-central semisimple k it acts as multiplication by ``coeff`` on
    the coefficient leg: f_a(x (x) b) = x (x) ab. One leg carries the unit of
    A — putting ``coeff`` on both legs would scale quadratically in ``coeff``
    and fail the multiplication law.
    """
    g = current_algebra(k, a)
    duals = _killing_dual_basis(k)
    n = g.dim
    acc = Matrix.zero(n, n)
    for i in range(k.dim):
        left = g.ad(tensor_vector(k, a, unit_vector(k.dim, i), coeff))
        right = g.ad(tensor_vector(k, a, duals[i], a.unit))
        acc = acc + left @ right
    return acc
