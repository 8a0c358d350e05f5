"""Decomposition into indecomposable ideals via centroid idempotents.

When the center of an algebra sits inside its commutator, a complete family
of primitive orthogonal idempotents of the centroid cuts the algebra into
indecomposable ideals, and the Peirce blocks p_i Cent p_j measure how far
that decomposition is from unique.

The idempotents come from one primitive element. With N the radical of
A = Cent, the residue algebra A/N is commutative (below) and semisimple, a
product of fields of dimension r = dim A - dim N, and the basis elements of
A off the pivots of N's echelon basis, b_1..b_r, map to a basis of it. A
candidate f whose squarefree minimal polynomial p has degree r generates
A/N = Q[t]/(p). For each irreducible factor q of p (one complete
factorization over Q), with m the minimal polynomial of f, m_q its
q-primary part (q itself when m is squarefree, as on a semisimple Cent) and
u = m / m_q, e_q = u (u^-1 mod m_q) mod m is 1 mod m_q and 0 mod u
(Chinese remainders): the e_q(f) are orthogonal idempotents
summing to 1, each primitive as its image is the unit of the field
Q[t]/(q). The status is "split" if all q are linear, "nonsplit_real" if the
others are imaginary quadratic (final over R too), else "nonsplit_unknown".

The candidates are b_1..b_r, then sum_k k b_k, then the sums sum_k j^(k-1)
b_k for j = 1, 2, .... Two distinct embeddings of A/N into C differ on the
j-th sum by a nonzero polynomial in j of degree < r, so at most C(r, 2)(r - 1)
sums fail to separate all r embeddings: one of the first C(r, 2)(r - 1) + 1
is primitive.

A/N is commutative wherever the search runs: `primitive_idempotents`
requires a commutative centroid, and under `indecompose`'s hypothesis
z(g) inside [g, g], a commutator fh - hf of centroid elements kills [g, g]
((fh)[x, y] = [fx, hy] = (hf)[x, y]) and maps g into z(g). The centroid
elements that do both form an ideal whose products vanish (z(g) lies in
[g, g]), so it lies in N, and so do the commutators.

The search runs on a unital structure table, which carries its 1: Cent's
table, read off once per algebra, or a coefficient algebra's own.
The kernel of the table's trace form tr(L_a L_b) is the radical N (in
characteristic zero, a nil ideal holding every nilpotent ideal). As x 1 = x,
f's minimal polynomial is the first dependency among its Krylov vectors
f^k 1 (Parker's spinning), products in the table over its constants scaled
to ints, and each e(f) = e(f) 1 is a combination of those vectors: no d x d
matrix and no Horner step (d = dim Cent). This one path,
``lie._polynomials_in``, also gives ``endo.split_centroid`` its semisimple
parts and :func:`complex_structure` its minimal polynomial. The idempotents
and J come back to End(g) once, as int columns read off Cent's int basis rows
(``endo._int_endos``): their checks, the ideals and the images run on those,
and the public matrices are built from them last.

All arithmetic is exact, so every claimed identity (p^2 = p, orthogonality,
completeness) holds on the nose, not up to tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import LiestructError, PreconditionError, SeparatingElementError
from .endo import (EndoSpace, _algebra_table, _apply, _centroid_table, _compose, _flat,
                   _int_endos, _public, _subtract, centroid, check_abelian, split_centroid)
from .lie import LieAlgebra, _memoized, _polynomials_in, _times
from .linalg import Matrix, Subspace, _int_row, _span
from .poly import (_crt_idempotent, _rational_square_root, degree, factor, poly_mod, poly_mul,
                   squarefree_part)

__all__ = [
    "IdempotentSet",
    "DecompositionReport",
    "ComplexStructure",
    "centroid_radical",
    "primitive_idempotents",
    "indecompose",
    "complex_structure",
]

STATUSES = ("split", "nonsplit_real", "nonsplit_unknown")  # a worse one wins


@dataclass(frozen=True)
class IdempotentSet:
    """Complete family of orthogonal idempotent projections."""

    projections: tuple

    def __len__(self):
        return len(self.projections)

    def __iter__(self):
        return iter(self.projections)


@dataclass(frozen=True)
class DecompositionReport:
    ideals: tuple
    idempotents: IdempotentSet
    blocks: tuple  # blocks[i][j] = dim p_i Cent p_j
    j_dims: tuple  # per-ideal dim J(g_i)
    status: str

    def is_unique(self) -> bool:
        """True when every off-diagonal block vanishes."""
        n = len(self.ideals)
        return all(
            self.blocks[i][j] == 0 for i in range(n) for j in range(n) if i != j
        )

    def to_dict(self) -> dict:
        return {
            "ideals": [
                [[str(x) for x in row] for row in ideal.rows] for ideal in self.ideals
            ],
            "idempotents": [
                [str(x) for x in p.flatten()] for p in self.idempotents
            ],
            "blocks": [list(row) for row in self.blocks],
            "j_dims": list(self.j_dims),
            "status": self.status,
        }


@dataclass(frozen=True)
class ComplexStructure:
    J: Matrix


# ---------------------------------------------------------------------------
# Radical of an abelian matrix algebra
# ---------------------------------------------------------------------------

def centroid_radical(cent: EndoSpace) -> Subspace:
    """Coordinates (in cent's basis) of the nilpotent part of the centroid.

    The kernel of the trace form (f, g) -> tr(fg) of a faithful (here the
    regular, read off cent's table) representation of a commutative algebra
    with 1 is exactly its nilpotent elements in characteristic zero.
    """
    table = _algebra_table(cent)
    check_abelian(cent, table)
    return table._radical()


# ---------------------------------------------------------------------------
# Primitive idempotents from one primitive element
# ---------------------------------------------------------------------------

@_memoized
def _split(table):
    """Primitive idempotents of a unital associative table with a commutative residue
    algebra, from its 1 (``table.unit``) and its memoized radical (module docs).

    Returns (each idempotent's coordinates, which sum to the unit, status), memoized per table.
    """
    rad = table._radical()
    off = [b for b in range(table.dim) if b not in rad.pivots]
    r = len(off)
    if r == 1:  # residue field Q: a local algebra, the unit is primitive
        return (table.unit,), "split"
    # the candidates (module docs), as maps of coordinates on the basis modulo the radical
    bound = r * (r - 1) // 2 * (r - 1) + 1
    for f in itertools.chain(({b: 1} for b in off), [dict(zip(off, range(1, r + 1)))],
                             ({b: j ** k for k, b in enumerate(off)} for j in range(1, bound + 1))):
        m, at = _polynomials_in(table, f)
        if degree(m) >= r and degree(p := squarefree_part(m)) == r:
            break
    else:
        raise SeparatingElementError("no primitive element found: no candidate generates "
                                     "the residue algebra of dimension %d" % r)
    idems, worst = [], 0
    for q in factor(p):
        primary = q  # the q-primary part of m (q when deg m = r), so that e(f) is idempotent
        while degree(m) > r and not poly_mod(m, poly_mul(primary, q)):
            primary = poly_mul(primary, q)
        idems.append(at(_crt_idempotent(m, primary)))
        real = degree(q) == 2 and q[1] * q[1] - 4 * q[0] < 0
        worst = max(worst, 0 if degree(q) == 1 else 1 if real else 2)
    return tuple(idems), STATUSES[worst]


def primitive_idempotents(cent: EndoSpace) -> tuple[IdempotentSet, str]:
    """Complete family of primitive orthogonal idempotents of the centroid.

    Returns (idempotents, status): "split" when every residue field is Q,
    "nonsplit_real" when the others are imaginary quadratic (the decomposition
    is final over R too), else "nonsplit_unknown" (it may be coarser than the
    real one). The search runs on cent's multiplication table (module docs).
    """
    table = _algebra_table(cent)
    check_abelian(cent, table)
    return _primitive_idempotents_any(cent, table)[:2]


def _primitive_idempotents_any(cent: EndoSpace, table):
    """Search without the commutativity gate, given cent's table (module docs).

    Returns (idempotents, status, coordinates, columns): each idempotent's
    coordinates in cent's basis, and den times it as the int columns of its checks.
    """
    if not cent.dim:
        raise PreconditionError("centroid is zero-dimensional")
    n = cent.n
    if not cent.space.contains({c * (n + 1): 1 for c in range(n)}):
        raise PreconditionError("centroid does not contain the identity")
    coords, status = _split(table)
    # exactness checks on the int columns of the den p: p^2 = p, p q = 0, den (1 - sum p) = 0
    den, cols = _int_endos(cent, (dict(enumerate(c)) for c in coords))
    rest = {c * (n + 1): den for c in range(n)}
    for i, a in enumerate(cols):
        flat = _flat(a)
        if _compose(a, a) != {k: den * x for k, x in flat.items()}:
            raise LiestructError("projection %d is not idempotent" % i)
        if any(_compose(a, b) for b in cols[i + 1:]):
            raise LiestructError("projections are not orthogonal")
        _subtract(rest, flat.items())
    if rest:
        raise LiestructError("projections do not sum to the identity")
    return IdempotentSet(tuple(_public(den, a) for a in cols)), status, coords, cols


@_memoized
def _coefficient_idempotents(a) -> tuple:
    """The primitive idempotents of a commutative coefficient algebra A, as
    coordinates, from the search on A's own table and unit, checked there: e^2 = e,
    e e' = 0 and sum e = 1. Memoized per A, which compares by value."""
    idems, _ = _split(a)
    for i, e in enumerate(idems):
        if any(a._product(e, f) != (f if f is e else (0,) * a.dim) for f in idems[i:]):
            raise LiestructError("coefficient idempotent %d is not idempotent, or not "
                                 "orthogonal to a later one" % i)
    if tuple(map(sum, zip(*idems))) != a.unit:
        raise LiestructError("coefficient idempotents do not sum to the unit")
    return tuple(idems)


def _centroid_split(g: LieAlgebra):
    """The memoized :func:`_split` of Cent(g)'s table, as `indecompose` reuses it; Cent of
    a semisimple g is a product of fields, one per simple ideal."""
    return _split(_centroid_table(g))


# ---------------------------------------------------------------------------
# Full decomposition report
# ---------------------------------------------------------------------------

@_memoized
def indecompose(g: LieAlgebra) -> DecompositionReport:
    """Decompose g into indecomposable nonzero ideals.

    Requires z(g) inside [g, g] (in particular holds when g is perfect or
    centerfree); without it the pieces of a finest decomposition are not
    even determined up to isomorphism and the call is refused. Under the
    hypothesis the centroid may still be noncommutative, but its commutators
    lie in its radical (see the module docstring), and the off-diagonal
    Peirce blocks it reports measure the remaining non-uniqueness: the
    decomposition is unique exactly when they all vanish (`is_unique`).
    Each block p_i Cent p_j (i != j) is checked against the dimension of
    Hom(g_j/[g_j,g_j], z(g_i)), and j_dims[i] = dim J(g_i) is the same closed
    form for j = i; z(g_i) and [g_i,g_i] are the images of z(g) and [g,g]
    under p_i, so no ideal is rebuilt as an algebra of its own.
    """
    z = g.center()
    comm = g.commutator_algebra()
    for v in z.rows:
        if not comm.contains(v):
            raise PreconditionError(
                "center is not contained in the commutator: central vector "
                "(%s) lies outside [g, g]" % ", ".join(str(x) for x in v)
            )
    cent = centroid(g)
    table = _centroid_table(g)
    idems, status, coords, cols = _primitive_idempotents_any(cent, table)
    n, d = g.dim, cent.dim
    ideals = [Subspace.span([dict(col) for col in a], n) for a in cols]
    if sum(s.dim for s in ideals) != n:
        raise LiestructError("ideal dimensions do not sum to dim g")
    # p_i Cent p_j = p_i (Cent p_j): a basis of each Cent p_j from its d products b_k p_j,
    # then each p_i on it, in ints over Cent's table
    _, nz = table._int_constants()
    ps = [_int_row(c) for c in coords]
    right = [_span((_times(nz, {k: 1}, p) for k in range(d)), d)._rows.values() for p in ps]
    blocks = [[_span((_times(nz, p, w) for w in rows), d).dim for rows in right] for p in ps]
    if sum(sum(row) for row in blocks) != d:
        raise LiestructError("Peirce block dimensions do not sum to dim Cent")
    # g is the direct sum of the g_i = im(p_i): p_i z(g) = z(g_i), p_i [g,g] = [g_i,g_i]
    z_int, comm_int = ([v.items() for v in s._rows.values()] for s in (z, comm))
    zdims = [Subspace.span([_apply(a, v) for v in z_int], n).dim for a in cols]
    abel = [s.dim - Subspace.span([_apply(a, v) for v in comm_int], n).dim
            for a, s in zip(cols, ideals)]
    j_dims = [a * zi for a, zi in zip(abel, zdims)]  # dim Hom(g_i/[g_i,g_i], z(g_i))
    for i, zi in enumerate(zdims):
        for j, aj in enumerate(abel):
            if i != j and blocks[i][j] != aj * zi:
                raise LiestructError(
                    "block (%d, %d) has dim %d but Hom(g_j/[g_j,g_j], z(g_i)) "
                    "has dim %d" % (i, j, blocks[i][j], aj * zi)
                )
    return DecompositionReport(
        ideals=tuple(ideals),
        idempotents=idems,
        blocks=tuple(tuple(row) for row in blocks),
        j_dims=tuple(j_dims),
        status=status,
    )


# ---------------------------------------------------------------------------
# Complex structures on indecomposable algebras
# ---------------------------------------------------------------------------

def complex_structure(g: LieAlgebra) -> Optional[ComplexStructure]:
    """A centroid element J with J^2 = -1, when one exists over Q.

    Only meaningful for indecomposable algebras: the semisimple part S of the
    centroid is then at most 2-dimensional, and a 2-dimensional S is spanned
    by the identity and an element whose minimal polynomial is an
    irreducible quadratic; a negative discriminant produces J.
    """
    report = indecompose(g)
    if len(report.ideals) > 1:
        raise PreconditionError("algebra is decomposable (%d ideals); complex structures are "
                                "classified only for indecomposable algebras" % len(report.ideals))
    _, sspace = split_centroid(g)
    cent, n = centroid(g), g.dim
    if sspace.dim == 1:
        return None
    if sspace.dim > 2:
        raise LiestructError("inconsistency: semisimple part of the centroid has dimension %d "
                             "> 2 on an indecomposable algebra" % sspace.dim)
    # S in Cent's coordinates
    table = _centroid_table(g)
    one = table.unit
    f = next((x for x in map(cent.space.coordinates, sspace.space.sparse_rows())
              if Subspace.span([one, x], cent.dim).dim == 2), None)
    if f is None:
        raise LiestructError("semisimple part of dim 2 collapsed to scalars")
    p = squarefree_part(_polynomials_in(table, dict(enumerate(f)))[0])
    if degree(p) != 2:
        raise LiestructError("expected a quadratic minimal polynomial on S, got degree %d"
                             % degree(p))
    # p = t^2 - 2a t + (a^2 + b^2) for J = (f - a)/b
    a = -p[1] / 2
    disc = p[1] * p[1] - 4 * p[0]
    if disc >= 0:
        raise LiestructError("centroid splits over the reals (discriminant %s >= 0): the "
                             "algebra carries no complex structure" % disc)
    b_squared = p[0] - a * a
    b = _rational_square_root(b_squared)
    if b is None:
        raise LiestructError("a complex structure exists over the reals but not over Q: "
                             "%s is not a rational square" % b_squared)
    # J^2 = -1 on the int columns of den J, in End(g) and not in Cent's table
    den, (cols,) = _int_endos(cent, [{k: (x - a * o) / b for k, (x, o) in enumerate(zip(f, one))}])
    if _compose(cols, cols) != {c * (n + 1): -den * den for c in range(n)}:
        raise LiestructError("constructed J fails J^2 = -1 (internal error)")
    return ComplexStructure(J=_public(den, cols))
