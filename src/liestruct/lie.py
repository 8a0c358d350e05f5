"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is a validated, immutable table c[i][j] of bracket coordinate
vectors. Construction goes through :func:`build`, which checks antisymmetry
by construction and the Jacobi identity on every basis triple, so downstream
code can assume it is working with an actual Lie algebra. The table, its
nonzero entries, the product and the left multiplication live in one
private structure-constant core, which ``construct.CommutativeAlgebra``
shares.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from collections import Counter, namedtuple
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .errors import JacobiError, NotAnIdealError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    kernel_of_rows,
    row_reduce,
    unit_vector,
    vector,
    zero_vector,
)

__all__ = ["LieAlgebra", "build", "from_dict", "to_dict"]

CacheInfo = namedtuple("CacheInfo", "hits misses")

# algebra -> {(function, remaining args): result}; an entry dies with its algebra
_memo = weakref.WeakKeyDictionary()


def _memoized(fn):
    """Memoize ``fn(g, *args)`` per Lie algebra ``g``, for as long as g lives.

    The memo is keyed by g's value, so an equal algebra built separately
    while g is alive gets the stored result; the remaining arguments must be
    hashable. Results are shared between callers and must not be mutated.
    ``cache_info()`` reports the hits and misses of ``fn``.
    """
    counts = [0, 0]

    @functools.wraps(fn)
    def memoized(g, *args):
        entries = _memo.get(g)
        if entries is None:
            entries = _memo[g] = {}
        key = (fn, args)
        if key in entries:
            counts[0] += 1
        else:
            counts[1] += 1
            entries[key] = fn(g, *args)
        return entries[key]

    memoized.cache_info = lambda: CacheInfo(*counts)
    return memoized


def _sparse(table):
    """[i][j] -> ((k, c), ...) with c = table[i][j][k] != 0, for a dense table."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row) for row in table)


def _integral(*tables):
    """(den, *tables) with every constant of the sparse ``tables`` times den.

    ``tables`` are nested like :func:`_sparse`'s output, [i][j] -> ((k, c),
    ...) with c rational; den is the least common denominator of all of
    them, so the scaled constants are ints. Rows and defects built from them
    are den (or den^2, for products of two constants) times the rational ones.
    """
    den = lcm(*(c.denominator for t in tables for row in t for v in row for _, c in v))
    return (den,) + tuple(
        tuple(tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in v) for v in row)
              for row in t)
        for t in tables
    )


class _StructureTable:
    """An algebra on a fixed ordered basis, given by its structure constants.

    The one home of the table for Lie algebras and for commutative
    coefficient algebras: ``table[i][j]`` is the dense coordinate vector of
    the product e_i e_j, and ``_nonzero[i][j]`` lists its nonzero entries
    (k, c), computed once at construction. The product, the left
    multiplication matrix and the hash read the nonzero lists; the triple
    checks read them scaled to integers by :func:`_integral`.
    """

    __slots__ = ("dim", "names", "table", "_nonzero", "_hash", "__weakref__")

    def __init__(self, names: Sequence[str], table):
        self.names = tuple(names)
        self.dim = n = len(self.names)
        self.table = tuple(tuple(vector(v) for v in row) for row in table)
        if len(self.table) != n or any(
            len(r) != n or any(len(v) != n for v in r) for r in self.table
        ):
            raise ValueError("structure table shape does not match dimension")
        self._nonzero = _sparse(self.table)
        self._hash = None

    def _same_table(self, other) -> bool:
        return self is other or (
            type(other) is type(self) and self.names == other.names and self.table == other.table
        )

    def _table_hash(self, *extra) -> int:
        if self._hash is None:
            # equal tables have equal nonzero lists; the lower triangle follows
            # from the upper one by (anti)symmetry
            nz = self._nonzero
            self._hash = hash((self.names, extra, tuple(
                nz[i][j] for i in range(self.dim) for j in range(i, self.dim)
            )))
        return self._hash

    def _product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """x y for coordinate vectors x, y."""
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                row = self._nonzero[i]
                for j, yj in ys:
                    c = xi * yj
                    for k, v in row[j]:
                        out[k] += c * v
        return tuple(out)

    def _left_matrix(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of y -> x y; column j holds the coordinates of x e_j."""
        n = self.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if xi:
                for j, entries in enumerate(self._nonzero[i]):
                    for k, v in entries:
                        rows[k][j] += xi * v
        return Matrix(rows)


class LieAlgebra(_StructureTable):
    """Immutable Lie algebra with a fixed ordered basis.

    ``table[i][j]`` is the coordinate vector of [e_i, e_j]; the table, its
    nonzero entries and the bracket are shared with the commutative
    coefficient algebras through one structure-constant core. Instances are
    hashable and compare by structure table and basis names. The hash is
    computed once, on first use. Expensive invariants (here and in ``endo``,
    ``construct`` and ``decompose``) are memoized per algebra in one
    weak-keyed memo: the results are freed with the algebra they were
    computed for, and an equal algebra built while that one lives is served
    the same results.
    """

    __slots__ = ()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self._same_table(other)

    def __hash__(self):
        return self._table_hash()

    def __repr__(self):
        return "LieAlgebra(dim %d, basis %s)" % (self.dim, ", ".join(self.names))

    # -- bracket and adjoint -----------------------------------------------

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """[x, y] for coordinate vectors x, y."""
        return self._product(x, y)

    def ad(self, x: Sequence[Fraction]) -> Matrix:
        """Matrix of y -> [x, y]; column j holds the coordinates of [x, e_j]."""
        return self._left_matrix(x)

    def ad_basis(self, i: int) -> Matrix:
        return self.ad(unit_vector(self.dim, i))

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    # -- invariant subspaces -------------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    @_memoized
    def center(self) -> Subspace:
        """z(g) = {x : [x, y] = 0 for all y}, the kernel of x -> ad(x)."""
        n = self.dim

        def rows():
            # constraint for each (j, k): sum_i x_i c[i][j][k] = 0
            for j in range(n):
                by_k = {}
                for i in range(n):
                    for k, c in self._nonzero[i][j]:
                        by_k.setdefault(k, {})[i] = c
                for k in sorted(by_k):
                    yield by_k[k]

        return kernel_of_rows(rows(), n)

    def bracket_span(self, s: Subspace, t: Subspace) -> Subspace:
        """Subspace spanned by all [u, v], u in s, v in t."""
        vecs = [self.bracket(u, v) for u in s.rows for v in t.rows]
        return Subspace.span(vecs, self.dim)

    @_memoized
    def commutator_algebra(self) -> Subspace:
        """[g, g], the derived subalgebra: the span of the brackets [e_i, e_j]."""
        brackets = [v for i, row in enumerate(self.table) for v in row[i + 1 :]]
        return Subspace.span(brackets, self.dim)

    def derived_series(self) -> list[Subspace]:
        """g ⊇ [g,g] ⊇ [[g,g],[g,g]] ⊇ ..., stopping when it stabilizes."""
        series = [self.full_space()]
        nxt = self.commutator_algebra()
        while nxt != series[-1]:
            series.append(nxt)
            nxt = self.bracket_span(nxt, nxt)
        return series

    def lower_central_series(self) -> list[Subspace]:
        """g ⊇ [g,g] ⊇ [g,[g,g]] ⊇ ..., stopping when it stabilizes."""
        full = self.full_space()
        series = [full]
        nxt = self.commutator_algebra()
        while nxt != series[-1]:
            series.append(nxt)
            nxt = self.bracket_span(full, nxt)
        return series

    @_memoized
    def killing_form(self) -> Matrix:
        """kappa(i, j) = tr(ad e_i ad e_j) = sum of c_il^k c_jk^l over k, l."""
        n, nonzero = self.dim, self._nonzero
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                tj = self.table[j]
                terms = (c * tj[k][l] for l in range(n) for k, c in nonzero[i][l] if tj[k][l])
                rows[i][j] = rows[j][i] = sum(terms, Fraction(0))
        return Matrix(rows)

    # -- structural flags ----------------------------------------------------

    def flags(self) -> dict:
        """Boolean structure flags from exact rank computations, as a fresh dict."""
        return dict(self._flags())

    @_memoized
    def _flags(self) -> dict:
        """The flags from g's own invariants. If g = z(g) + [g,g], then for x, y
        in [g,g] ad_x ad_y kills z(g) and maps into [g,g]; so g is reductive iff
        g's Killing form restricted to [g,g], B kappa B^T, is nondegenerate."""
        comm = self.commutator_algebra()
        center = self.center()
        abelian = comm.is_zero()
        solvable = self.derived_series()[-1].is_zero()
        nilpotent = self.lower_central_series()[-1].is_zero()
        perfect = comm.is_full()
        centerfree = center.is_zero()
        _, killing_rank, _ = row_reduce(self.killing_form())
        semisimple = killing_rank == self.dim
        reductive = False
        if semisimple or abelian:
            reductive = True
        elif center.dim + comm.dim == self.dim and center.sum(comm).is_full():
            basis = comm.basis_matrix()
            _, r, _ = row_reduce(basis @ self.killing_form() @ basis.transpose())
            reductive = r == comm.dim
        simple = False
        if semisimple and not abelian:
            from .decompose import indecompose

            simple = len(indecompose(self).ideals) == 1
        return {
            "abelian": abelian,
            "nilpotent": nilpotent,
            "solvable": solvable,
            "perfect": perfect,
            "centerfree": centerfree,
            "semisimple": semisimple,
            "reductive": reductive,
            "simple": simple,
        }

    # -- derived algebras ------------------------------------------------------

    def restrict_to(self, s: Subspace, names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """The subalgebra on the canonical basis of s.

        Raises ValueError when s is not closed under the bracket.
        """
        k = s.dim
        table = [[None] * k for _ in range(k)]
        for a in range(k):
            for b in range(k):
                w = self.bracket(s.rows[a], s.rows[b])
                coords = s.coordinates(w)
                if coords is None:
                    raise ValueError(
                        "subspace is not closed under the bracket "
                        "(product of basis vectors %d and %d escapes)" % (a, b)
                    )
                table[a][b] = coords
        if names is None:
            names = ["s%d" % a for a in range(k)]
        return LieAlgebra(names, table)

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """g / ideal on the images of the basis vectors outside the pivots.

        Raises NotAnIdealError naming a basis vector and an ideal generator
        whose bracket escapes the ideal.
        """
        for i in range(self.dim):
            for v in ideal.rows:
                if not ideal.contains(self.bracket(unit_vector(self.dim, i), v)):
                    raise NotAnIdealError(i, v)
        if ideal.is_zero():
            return self
        pivot_set = set(ideal.pivots)
        complement = [j for j in range(self.dim) if j not in pivot_set]
        k = len(complement)
        # residues after reduction vanish on pivot columns, so the surviving
        # coordinates are exactly the complement coordinates
        table = [[None] * k for _ in range(k)]
        for a, ia in enumerate(complement):
            for b, ib in enumerate(complement):
                w = ideal.reduce(self.table[ia][ib])
                table[a][b] = [w[j] for j in complement]
        names = [self.names[j] + "~" for j in complement]
        return LieAlgebra(names, table)

    def permuted(self, perm: Sequence[int]) -> "LieAlgebra":
        """Relabel the basis: new basis vector a is old basis vector perm[a]."""
        if sorted(perm) != list(range(self.dim)):
            raise ValueError("not a permutation of 0..%d" % (self.dim - 1))
        inv = [0] * self.dim
        for a, p in enumerate(perm):
            inv[p] = a
        table = [
            [
                [self.table[perm[a]][perm[b]][k] for k in perm]
                for b in range(self.dim)
            ]
            for a in range(self.dim)
        ]
        names = [self.names[p] for p in perm]
        return LieAlgebra(names, table)


def build(
    dim: int,
    brackets: Mapping[tuple[int, int], Mapping[int, object]],
    names: Optional[Sequence[str]] = None,
    validate: bool = True,
) -> LieAlgebra:
    """Construct and validate a Lie algebra from sparse structure constants.

    ``brackets[(i, j)]`` with i < j maps a basis index k to the coefficient
    of e_k in [e_i, e_j]; omitted pairs bracket to zero. The table is
    completed antisymmetrically, and the Jacobi identity is checked on all
    C(dim, 3) basis triples; the first failure raises JacobiError carrying
    the triple and the defect vector.
    """
    if names is None:
        names = ["e%d" % i for i in range(dim)]
    if len(names) != dim:
        raise ValueError("expected %d basis names, got %d" % (dim, len(names)))
    table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(
                "bracket key (%r, %r) must satisfy 0 <= left < right < dim" % (i, j)
            )
        for k, coeff in value.items():
            k = int(k)
            if not 0 <= k < dim:
                raise ValueError(
                    "bracket (%d, %d) has coefficient index %d outside 0..%d"
                    % (i, j, k, dim - 1)
                )
            c = frac(coeff)
            table[i][j][k] = c
            table[j][i][k] = -c
    algebra = LieAlgebra(names, table)
    if validate:
        _check_jacobi(algebra)
    return algebra


def _compose(nz, a: int, b: int, c: int, acc: dict, negate: bool = False) -> dict:
    """Add (or subtract) the coordinates of (e_a e_b) e_c into acc, {m: value}.

    Coordinate m is the sum of c_ab^l c_lc^m over the nonzero constants
    ``nz`` (a table of nonzero lists, as in ``_StructureTable._nonzero``).
    """
    for l, x in nz[a][b]:
        if negate:
            x = -x
        for m, y in nz[l][c]:
            acc[m] = acc.get(m, 0) + x * y
    return acc


def _check_jacobi(g: LieAlgebra):
    """Raise JacobiError on the first basis triple i < j < k with a nonzero
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]; the three cyclic
    terms are summed into one dict over the constants scaled to integers,
    and the defect carried is divided back by den^2.
    """
    n = g.dim
    den, nz = _integral(g._nonzero)
    for i, j, k in itertools.combinations(range(n), 3):
        defect = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            _compose(nz, a, b, c, defect)
        if any(defect.values()):
            raise JacobiError(
                (i, j, k), tuple(Fraction(defect.get(m, 0), den * den) for m in range(n))
            )


# ---------------------------------------------------------------------------
# JSON-facing serialization
# ---------------------------------------------------------------------------

def to_dict(g: LieAlgebra) -> dict:
    """Plain-dict form: sparse brackets for i < j, coefficients as strings."""
    brackets = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            value = {str(k): str(c) for k, c in g._nonzero[i][j]}
            if value:
                brackets.append({"left": i, "right": j, "value": value})
    return {"dim": g.dim, "basis": list(g.names), "brackets": brackets}


def from_dict(data: Mapping, validate: bool = True) -> LieAlgebra:
    """Inverse of :func:`to_dict`; validates Jacobi unless told otherwise.

    ``"basis"``, when given, must be a list of ``dim`` distinct strings;
    ValueError otherwise.
    """
    dim = int(data["dim"])
    names = data.get("basis")
    if names is None:
        names = ["e%d" % i for i in range(dim)]
    elif not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError('"basis" must be a list of %d strings' % dim)
    else:
        repeated = [x for x, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError('"basis" names %r more than once' % repeated[0])
    brackets = {}
    for entry in data.get("brackets", []):
        i, j = int(entry["left"]), int(entry["right"])
        brackets[(i, j)] = {int(k): frac(v) for k, v in entry["value"].items()}
    return build(dim, brackets, names=names, validate=validate)
