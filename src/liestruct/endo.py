"""Spaces of endomorphisms attached to a Lie algebra.

Derivations, inner derivations, the centroid, the two-sided annihilator
space J(g), and commutants of matrix families. Derivations, the centroid and
commutants are exact kernels of sparse linear systems over the dim^2 matrix
entries (row-major flattening, columns are images of basis vectors), all
assembled by one Leibniz and one commutant row generator; J(g) is built in
closed form. The generators scale the rational constants they read to
integers over one common denominator, once per call, so every row they
yield is a ``{col: int}`` map that the integer echelon takes as it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .lie import LieAlgebra, _integral, _memoized, _sparse, _StructureTable
from .linalg import Matrix, Subspace, Vector, kernel_of_rows, unit_vector
from .poly import jordan_chevalley

__all__ = [
    "EndoSpace",
    "derivations",
    "inner_derivations",
    "centroid",
    "j_space",
    "module_commutant",
    "split_centroid",
    "leibniz_system",
    "commutant_system",
]


class EndoSpace:
    """A linear space of n x n matrices, stored as a subspace of Q^(n^2)."""

    __slots__ = ("kind", "n", "space")

    def __init__(self, kind: str, n: int, space: Subspace):
        if space.ambient_dim != n * n:
            raise ValueError("flattened dimension mismatch")
        self.kind = kind
        self.n = n
        self.space = space

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> list[Matrix]:
        return [Matrix.unflatten(r, self.n, self.n) for r in self.space.rows]

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coordinates(self, m: Matrix):
        return self.space.coordinates(m.flatten())

    def __eq__(self, other):
        return (
            isinstance(other, EndoSpace)
            and self.kind == other.kind
            and self.n == other.n
            and self.space == other.space
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.space))

    def __repr__(self):
        return "EndoSpace(%s, dim %d on Q^%d)" % (self.kind, self.dim, self.n)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "basis": [[str(x) for x in row] for row in self.space.rows],
        }


def _subtract(row: dict, entries):
    """row -= entries (pairs (col, value)) in place; cancelled entries are dropped."""
    for col, v in entries:
        w = row.get(col, 0) - v
        if w:
            row[col] = w
        else:
            del row[col]


def leibniz_system(table, n: int, target=None, ev=None):
    """Rows {col: int} of D(e_i e_j) = D(e_i) ev(e_j) + ev(e_i) D(e_j) for i <= j.

    ``table[i][j]`` is the coordinate vector of the product e_i e_j of an
    n-dimensional algebra. D maps it into the algebra with product table
    ``target``, and ev sends e_i to the target's basis element ev[i], or to
    0 where ev[i] is None. By default target is the algebra itself and ev
    the identity, which gives the derivations; the i = j rows of a Lie
    table cancel to nothing. The unknown D is flattened row-major (column j
    holds D e_j). Serves Lie tables and commutative ones. Yields one row per
    pair and target coordinate, as a map of nonzero ints: the constants of
    both tables are scaled over one common denominator first.
    """
    if target is None:
        _, source = _integral(_sparse(table))
        target, ev = source, range(n)
    else:
        _, source, target = _integral(_sparse(table), _sparse(target))
    nt = len(target)
    # left[j][m]: (k, c_kj^m) != 0; right[i][m]: (k, c_ik^m) != 0 in the target
    left = [[[] for _ in range(nt)] for _ in range(nt)]
    right = [[[] for _ in range(nt)] for _ in range(nt)]
    for i in range(nt):
        for j in range(nt):
            for m, v in target[i][j]:
                left[j][m].append((i, v))
                right[i][m].append((j, v))
    for i in range(n):
        for j in range(i, n):
            cij = source[i][j]
            for m in range(nt):
                row = {m * n + l: v for l, v in cij}
                if ev[j] is not None:
                    _subtract(row, ((k * n + i, v) for k, v in left[ev[j]][m]))
                if ev[i] is not None:
                    _subtract(row, ((k * n + j, v) for k, v in right[ev[i]][m]))
                if row:
                    yield row


def commutant_system(mats: Sequence[Matrix], n: int):
    """Rows {col: int} of (A f - f A) = 0 for each n x n matrix A in ``mats``.

    The unknown f is flattened row-major. Yields one row per matrix and
    entry, as a map of nonzero ints: the entries of all the matrices are
    scaled over one common denominator first.
    """
    # the nonzero entries of each row and of each column of each matrix
    _, *sparse = _integral(*(_sparse([m.rows, tuple(zip(*m.rows))]) for m in mats))
    for rows, cols in sparse:
        for r in range(n):
            for cc in range(n):
                row = {k * n + cc: v for k, v in rows[r]}
                _subtract(row, ((r * n + k, v) for k, v in cols[cc]))
                if row:
                    yield row


@_memoized
def derivations(g: LieAlgebra) -> EndoSpace:
    """Der(g) = {D : D[x,y] = [Dx,y] + [x,Dy]}."""
    n = g.dim
    return EndoSpace("derivations", n, kernel_of_rows(leibniz_system(g.table, n), n * n))


@_memoized
def inner_derivations(g: LieAlgebra) -> EndoSpace:
    """Span of the adjoint maps; dim = dim g - dim z(g)."""
    n = g.dim
    span = Subspace.span([g.ad_basis(i).flatten() for i in range(n)], n * n)
    return EndoSpace("inner", n, span)


@_memoized
def centroid(g: LieAlgebra) -> EndoSpace:
    """Cent(g) = {f : f ad_x = ad_x f for all x}; contains the identity."""
    n = g.dim
    ads = [g.ad_basis(i) for i in range(n)]
    return EndoSpace("centroid", n, kernel_of_rows(commutant_system(ads, n), n * n))


@_memoized
def j_space(g: LieAlgebra) -> EndoSpace:
    """J(g) = {phi : ad_x phi = 0 = phi ad_x for all x} = Hom(g/[g,g], z(g)).

    ad_x phi = 0 for all x puts the image of phi in the center, and
    phi ad_x = 0 for all x makes phi vanish on [g,g]. So J(g) is spanned by
    the outer products z w^T, with z in a basis of z(g) and w in a basis of
    the annihilator of [g,g]; it is zero when the center is.
    """
    n = g.dim
    center = g.center().rows
    if not center:
        return EndoSpace("j_space", n, Subspace.zero(n * n))
    ann = kernel_of_rows(g.commutator_algebra().rows, n).rows
    outer = [[a * b for a in z for b in w] for z in center for w in ann]
    return EndoSpace("j_space", n, Subspace.span(outer, n * n))


def module_commutant(rep: Sequence[Matrix]) -> EndoSpace:
    """Commutant {T : T rho = rho T for every rho in rep}."""
    rep = list(rep)
    if not rep:
        raise ValueError("empty representation; ambient size unknown")
    n = rep[0].nrows
    for m in rep:
        if not m.is_square() or m.nrows != n:
            raise ValueError("representation matrices must be square of one size")
    return EndoSpace("commutant", n, kernel_of_rows(commutant_system(rep, n), n * n))


def _algebra_table(space: EndoSpace) -> _StructureTable:
    """Multiplication table of a matrix algebra: ``[i][j]`` holds the coordinates of
    b_i b_j, its entries at the pivots of the echelon basis (the only ones computed)."""
    spots = [divmod(p, space.n) for p in space.space.pivots]
    mats = space.basis_matrices()
    cols = [tuple(zip(*b.rows)) for b in mats]
    return _StructureTable(["b%d" % i for i in range(len(mats))], [
        [[sum((x * y for x, y in zip(a.rows[r], bc[c]) if x), Fraction(0)) for r, c in spots]
         for bc in cols] for a in mats])


@_memoized
def _centroid_table(g: LieAlgebra) -> _StructureTable:
    return _algebra_table(centroid(g))


def _regular(table: _StructureTable) -> list[Matrix]:
    """L_b for the basis: the regular representation, faithful on a unital algebra."""
    return [table._left_matrix(unit_vector(table.dim, i)) for i in range(table.dim)]


def _from_regular(space: EndoSpace, m: Matrix) -> Vector:
    """The flattened x = sum c_k b_k in ``space`` with L_x = m: c = L_x 1, 1 at the pivots."""
    c = m.apply([Fraction(p % (space.n + 1) == 0) for p in space.space.pivots])
    out = [Fraction(0)] * (space.n * space.n)
    for ck, row in zip(c, space.space.rows):
        for j, v in enumerate(row):
            if ck and v:
                out[j] += ck * v
    return tuple(out)


def check_abelian(space: EndoSpace, table: _StructureTable):
    """Raise PreconditionError naming the first noncommuting pair in ``space``'s table."""
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            if table.table[i][j] != table.table[j][i]:
                raise PreconditionError(
                    "%s is not commutative: basis elements %d and %d do not commute"
                    % (space.kind, i, j)
                )


@_memoized
def split_centroid(g: LieAlgebra) -> tuple[EndoSpace, EndoSpace]:
    """Split an abelian centroid into nilpotent and semisimple parts.

    Applies the Jordan-Chevalley decomposition to each centroid basis
    element b, as the matrix L_b of Cent(g)'s regular representation (the
    parts come back to End(g)); N = span of the nilpotent parts, S = span of
    the semisimple parts. For an abelian centroid these are subalgebras with
    N + S = Cent as a direct sum, which is checked in End(g).
    """
    cent = centroid(g)
    table = _centroid_table(g)
    check_abelian(cent, table)
    n = g.dim
    nil_parts = []
    semi_parts = []
    for m in _regular(table):
        s, nil = jordan_chevalley(m)
        semi_parts.append(_from_regular(cent, s))
        nil_parts.append(_from_regular(cent, nil))
    nspace = EndoSpace("nilpotent_part", n, Subspace.span(nil_parts, n * n))
    sspace = EndoSpace("semisimple_part", n, Subspace.span(semi_parts, n * n))
    total = nspace.space.sum(sspace.space)
    if total != cent.space or total.dim != nspace.dim + sspace.dim:
        raise PreconditionError(
            "nilpotent/semisimple parts do not split the centroid "
            "(is the centroid really abelian?)"
        )
    return nspace, sspace
