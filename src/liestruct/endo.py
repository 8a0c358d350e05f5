"""Spaces of endomorphisms attached to a Lie algebra.

Derivations, inner derivations, the centroid, the two-sided annihilator
space J(g), and commutants of matrix families. Derivations, the centroid and
commutants are exact kernels of sparse linear systems over the dim^2 matrix
entries (row-major flattening, columns are images of basis vectors), all
assembled by one Leibniz and one commutant row generator; J(g) is built in
closed form. The generators scale the rational constants they read to
integers over one common denominator, once per call, so every row they
yield is a ``{col: int}`` map that the integer echelon takes as it is.

Where Der and Cent come from. When g is known to satisfy the Jacobi identity
(see ``lie._jacobi_known``), two exact facts cut the rows:

- If the Killing form is nondegenerate, g is semisimple (Cartan's
  criterion) and every derivation is inner, so Der(g) is read off the span
  of the ad e_i with no Leibniz rows at all.
- Otherwise {x : D[x,y] = [Dx,y] + [x,Dy] for all y} and {x : f ad_x =
  ad_x f} are subalgebras, so the rows of a set S of basis vectors that
  generates g give the same kernels: Leibniz rows for the pairs that meet S,
  commutant rows for the ad e_s, s in S. S comes from one greedy pass, and
  is used only once the span of its iterated brackets is checked to be all
  of g; Cent always takes this path.

A table with no Jacobi verdict, or no generating set smaller than its basis,
takes every row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import PreconditionError
from .lie import LieAlgebra, _integral, _jacobi_known, _memoized, _StructureTable
from .linalg import Matrix, Subspace, Vector, _primitive, _reduce, kernel_of_rows, unit_vector
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
        return [Matrix.unflatten(r, self.n, self.n) for r in self.space.sparse_rows()]

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


def leibniz_system(source: _StructureTable, target: _StructureTable = None, ev=None):
    """Rows {col: int} of D(e_i e_j) = D(e_i) ev(e_j) + ev(e_i) D(e_j) for i <= j.

    e_i e_j is the product of the n-dimensional algebra ``source``. D maps
    it into the algebra ``target``, and ev sends e_i to the target's basis
    element ev[i], or to 0 where ev[i] is None. By default target is the
    algebra itself and ev the identity, which gives the derivations; the
    i = j rows of a Lie table cancel to nothing. The unknown D is flattened
    row-major (column j holds D e_j). Serves Lie tables and commutative
    ones. Yields one row per pair and target coordinate, as a map of
    nonzero ints: the nonzero constants of both tables are scaled over one
    common denominator first.
    """
    return _leibniz_rows(source, target, ev, None)


def _leibniz_rows(source: _StructureTable, target: Optional[_StructureTable], ev, keep):
    """The rows of :func:`leibniz_system`, only for the pairs (i, j) with i or
    j in the set ``keep`` of basis indices when it is not None."""
    n = source.dim
    if target is None:
        _, source = _integral(source._nonzero)
        target, ev = source, range(n)
    else:
        _, source, target = _integral(source._nonzero, target._nonzero)
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
            if keep is not None and i not in keep and j not in keep:
                continue
            cij = source[i][j]
            for m in range(nt):
                row = {m * n + l: v for l, v in cij}
                if ev[j] is not None:
                    _subtract(row, ((k * n + i, v) for k, v in left[ev[j]][m]))
                if ev[i] is not None:
                    _subtract(row, ((k * n + j, v) for k, v in right[ev[i]][m]))
                if row:
                    yield row


def commutant_system(ops, n: int):
    """Rows {col: int} of (A f - f A) = 0 for each n x n operator A in ``ops``.

    ``A[j]`` lists the nonzero entries (k, A_kj) of column j, sorted by k, so
    the left multiplications of a structure table are its ``_nonzero`` rows.
    The unknown f is flattened row-major. Yields one row per operator and
    entry, as a map of nonzero ints: the entries of all the operators are
    scaled over one common denominator first.
    """
    _, ops = _integral(ops)
    for cols in ops:
        rows = [[] for _ in range(n)]
        for k, col in enumerate(cols):
            for r, v in col:
                rows[r].append((k, v))
        for r in range(n):
            for cc in range(n):
                row = {k * n + cc: v for k, v in rows[r]}
                _subtract(row, ((r * n + k, v) for k, v in cols[cc]))
                if row:
                    yield row


class _Closure:
    """The subalgebra generated by a growing set of basis vectors, over the
    integer structure constants ``nz``: the span of the generators closed
    under ad of each generator, which is the span of the brackets
    [s_1, [s_2, ... [s_k-1, s_k]]] with every s_i a generator.

    The span is an echelon of primitive integer rows keyed by their leading
    column; ``found`` keeps the new part of each vector that grew it, a basis
    of the span whose ad images are all pushed, so the span stays closed
    under ad of every generator added so far.
    """

    def __init__(self, nz):
        self.nz = nz
        self.gens = []
        self.pivots = {}
        self.found = []

    def _residue(self, v: dict) -> dict:
        while v:
            c = min(v)
            if c not in self.pivots:
                break
            v = _reduce(v, self.pivots[c], c)
        return v

    def _ad(self, s: int, v: dict) -> dict:
        out = {}
        row = self.nz[s]
        for j, x in v.items():
            for k, c in row[j]:
                out[k] = out.get(k, 0) + x * c
        return {k: x for k, x in out.items() if x}

    def contains(self, i: int) -> bool:
        return not self._residue({i: 1})

    def add(self, s: int):
        self.gens.append(s)
        # the old span is closed under the old generators; ad e_s of it is not known to be
        work = [{s: 1}] + [self._ad(s, b) for b in self.found]
        while work:
            v = self._residue(work.pop())
            if v:
                v = _primitive(v)
                self.pivots[min(v)] = v
                self.found.append(v)
                work.extend(self._ad(t, v) for t in self.gens)


def _greedy_generators(nz) -> list[int]:
    """Basis indices that generate the algebra of the structure constants ``nz``,
    in one pass over the basis, taken by descending count of nonzero brackets
    (ties by index): an index joins when it is not in what the earlier ones generate."""
    n = len(nz)
    closure = _Closure(nz)
    for i in sorted(range(n), key=lambda i: (-sum(1 for v in nz[i] if v), i)):
        if len(closure.found) == n:
            break
        if not closure.contains(i):
            closure.add(i)
    return closure.gens


def _generates(nz, gens) -> bool:
    """The certificate: the iterated brackets of the basis vectors ``gens`` span everything."""
    closure = _Closure(nz)
    for s in gens:
        closure.add(s)
    return len(closure.found) == len(nz)


@_memoized
def _generators(g: LieAlgebra) -> Optional[frozenset]:
    """A set S of basis indices that generates g, checked by :func:`_generates`,
    when g is known to satisfy the Jacobi identity and S is smaller than the
    basis; None otherwise, and then every basis index contributes rows."""
    if not _jacobi_known(g):
        return None
    _, nz = _integral(g._nonzero)
    gens = _greedy_generators(nz)
    if len(gens) == g.dim or not _generates(nz, gens):
        return None
    return frozenset(gens)


@_memoized
def derivations(g: LieAlgebra) -> EndoSpace:
    """Der(g) = {D : D[x,y] = [Dx,y] + [x,Dy]}.

    Read off the inner derivations when g satisfies the Jacobi identity and
    its Killing form is nondegenerate; otherwise the kernel of the Leibniz
    rows, for the pairs that meet the generating set of :func:`_generators`.
    """
    n = g.dim
    if _jacobi_known(g) and g._killing_rank() == n:
        return EndoSpace("derivations", n, inner_derivations(g).space)
    rows = _leibniz_rows(g, None, None, _generators(g))
    return EndoSpace("derivations", n, kernel_of_rows(rows, n * n))


@_memoized
def inner_derivations(g: LieAlgebra) -> EndoSpace:
    """Span of the adjoint maps; dim = dim g - dim z(g)."""
    n = g.dim
    # entry (k, j) of ad e_i is the coefficient of e_k in [e_i, e_j]
    ads = [{k * n + j: c for j, v in enumerate(row) for k, c in v} for row in g._nonzero]
    return EndoSpace("inner", n, Subspace.span(ads, n * n))


@_memoized
def centroid(g: LieAlgebra) -> EndoSpace:
    """Cent(g) = {f : f ad_x = ad_x f for all x}; contains the identity.

    x ranges over the generating set of :func:`_generators`, or over the
    basis when there is none.
    """
    n = g.dim
    gens = _generators(g)
    # column j of ad e_i is [e_i, e_j]: the ad e_i are g's nonzero lists as they stand
    ads = g._nonzero if gens is None else [g._nonzero[s] for s in sorted(gens)]
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
    center = g.center().sparse_rows()
    if not center:
        return EndoSpace("j_space", n, Subspace.zero(n * n))
    ann = kernel_of_rows(g.commutator_algebra().sparse_rows(), n).sparse_rows()
    outer = [{i * n + j: a * b for i, a in z.items() for j, b in w.items()}
             for z in center for w in ann]
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
    ops = [[[(k, x) for k, x in enumerate(col) if x] for col in zip(*m.rows)] for m in rep]
    return EndoSpace("commutant", n, kernel_of_rows(commutant_system(ops, n), n * n))


def _algebra_table(space: EndoSpace) -> _StructureTable:
    """Multiplication table of a matrix algebra: ``[i][j]`` holds the coordinates of
    b_i b_j, its entries at the pivots of the echelon basis (the only ones computed)."""
    n = space.n
    spots = [divmod(p, n) for p in space.space.pivots]
    basis = space.space.sparse_rows()
    by_row = [{} for _ in basis]  # by_row[i][r]: the nonzero (t, entry (r, t)) of b_i
    for rows, b in zip(by_row, basis):
        for p, x in b.items():
            rows.setdefault(p // n, []).append((p % n, x))
    return _StructureTable(["b%d" % i for i in range(len(basis))], {
        (i, j): {k: sum((x * b[t * n + c] for t, x in rows.get(r, ()) if t * n + c in b),
                        Fraction(0))
                 for k, (r, c) in enumerate(spots)}
        for i, rows in enumerate(by_row) for j, b in enumerate(basis)})


@_memoized
def _centroid_table(g: LieAlgebra) -> _StructureTable:
    return _algebra_table(centroid(g))


def _regular(table: _StructureTable) -> list[Matrix]:
    """L_b for the basis: the regular representation, faithful on a unital algebra."""
    return [table._left_matrix(unit_vector(table.dim, i)) for i in range(table.dim)]


def _from_regular(space: EndoSpace, m: Matrix) -> Vector:
    """The flattened x = sum c_k b_k in ``space`` with L_x = m: c = L_x 1, 1 at the pivots."""
    return space.space.combine(m.apply([Fraction(p % (space.n + 1) == 0)
                                        for p in space.space.pivots]))


def check_abelian(space: EndoSpace, table: _StructureTable):
    """Raise PreconditionError naming the first noncommuting pair in ``space``'s table."""
    pair = table._noncommuting_pair()
    if pair:
        raise PreconditionError("%s is not commutative: basis elements %d and %d do not "
                                "commute" % (space.kind, *pair))


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
