"""Decomposition into indecomposable ideals via centroid idempotents.

When the center of an algebra sits inside its commutator, a complete family
of primitive orthogonal idempotents of the centroid cuts the algebra into
indecomposable ideals, and the Peirce blocks p_i Cent p_j measure how far
that decomposition is from unique. The idempotents are found by a
deterministic separating-element search: factor the minimal polynomial of
candidate centroid elements, turn rational roots into spectral projectors
(Lagrange interpolation on the squarefree part), lift them to exact
idempotents through the radical, and recurse on the corner algebras.

The centroid need not be commutative here (off-diagonal blocks between
summands with center can fail to commute with nilpotent centroid elements),
but the search never relies on commutativity: each branch works inside the
commutative subalgebra generated by one element, corner nesting makes
idempotents from different branches orthogonal, and the trace-form kernel
equals the radical for any faithfully represented algebra in characteristic
zero. So the search runs in the regular representation (the d x d matrices
L_b, d = dim Cent), which is faithful because Cent contains 1; its
idempotents are mapped back to End(g) and checked there. A corner
p Cent(g) p is canonically the centroid of the ideal im(p) (extend an
endomorphism of the ideal by zero on the complement), so the recursion
stops exactly when each piece is indecomposable.

All arithmetic is exact, so every claimed identity (p^2 = p, orthogonality,
completeness) holds on the nose, not up to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import LiestructError, PreconditionError, SeparatingElementError
from .endo import (EndoSpace, _algebra_table, _centroid_table, _from_regular, _regular,
                   centroid, check_abelian, j_space, split_centroid)
from .lie import LieAlgebra, _memoized
from .linalg import Matrix, Subspace, kernel_basis
from .poly import (
    _rational_square_root,
    degree,
    factor_small,
    min_poly,
    poly,
    poly_div_exact,
    poly_eval,
    poly_eval_matrix,
    squarefree_part,
)

__all__ = [
    "IdempotentSet",
    "DecompositionReport",
    "ComplexStructure",
    "centroid_radical",
    "primitive_idempotents",
    "indecompose",
    "complex_structure",
]

STATUS_ORDER = {"split": 0, "nonsplit_real": 1, "nonsplit_unknown": 2}


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
    regular) representation of a commutative algebra with 1 is exactly its
    nilpotent elements in characteristic zero (all power traces vanish).
    """
    table = _algebra_table(cent)
    check_abelian(cent, table)
    return _trace_form_kernel(_regular(table))


def _trace_form_kernel(mats: list[Matrix]) -> Subspace:
    d = len(mats)
    gram = Matrix(
        [[(mats[a] @ mats[b]).trace() for b in range(d)] for a in range(d)]
    )
    return kernel_basis(gram)


# ---------------------------------------------------------------------------
# Primitive idempotents by separating elements
# ---------------------------------------------------------------------------

def _candidates(basis: list[Matrix], bound: int):
    """Deterministic stream: basis elements, then powers-weighted sums."""
    for b in basis:
        yield b
    d = len(basis)
    for j in range(1, bound + 1):
        acc = Matrix.zero(basis[0].nrows, basis[0].ncols)
        w = 1
        for b in basis:
            acc = acc + b.scale(w)
            w *= j
        yield acc


def _lift_idempotent(e: Matrix) -> Matrix:
    """Newton-lift an idempotent-modulo-nilpotents to an exact idempotent."""
    for _ in range(2 * e.nrows.bit_length() + 4):
        if e @ e == e:
            return e
        e = (e @ e).scale(3) - (e @ e @ e).scale(2)
    raise RuntimeError("idempotent lifting did not stabilize (unreachable)")


def _corner_basis(e: Matrix, basis: list[Matrix]) -> list[Matrix]:
    """Basis of the corner algebra e A e from a spanning set of A."""
    n = e.nrows
    span = Subspace.span([(e @ b @ e).flatten() for b in basis], n * n)
    return [Matrix.unflatten(r, n, n) for r in span.rows]


def _split_local(unit: Matrix, basis: list[Matrix], search_bound: int):
    """Recursive splitting of the corner algebra spanned by ``basis``.

    Returns (list of primitive idempotents summing to ``unit``, status).
    """
    d = len(basis)
    if d == 1:
        return [unit], "split"
    rad_dim = _trace_form_kernel(basis).dim
    if d == rad_dim + 1:
        # residue field is Q: local algebra, unit is primitive
        return [unit], "split"
    residue_dim = d - rad_dim

    rootless_evidence = []  # squarefree minimal polynomials without rational roots
    saw_degree_two_or_more = False
    for f in _candidates(basis, search_bound):
        p = squarefree_part(min_poly(f, unit=unit))
        if degree(p) < 2:
            continue
        saw_degree_two_or_more = True
        linear, quads, rem = factor_small(p)
        if not linear:
            rootless_evidence.append(p)
            continue
        pieces = []
        for root, _ in linear:
            ell = poly_div_exact(p, poly([-root, 1]))
            denom = poly_eval(ell, root)
            proj = poly_eval_matrix(
                [c / denom for c in ell], f, unit=unit
            )
            lifted = _lift_idempotent(proj)
            if not lifted.is_zero():
                pieces.append(lifted)
        residual = unit
        for e in pieces:
            residual = residual - e
        if not residual.is_zero():
            pieces.append(_lift_idempotent(residual))
        if len(pieces) <= 1:
            continue  # candidate did not actually separate anything
        idems = []
        statuses = []
        for e in pieces:
            sub_idems, sub_status = _split_local(
                e, _corner_basis(e, basis), search_bound
            )
            idems.extend(sub_idems)
            statuses.append(sub_status)
        return idems, max(statuses, key=STATUS_ORDER.__getitem__)

    # No candidate produced a genuine split. Classify from the evidence.
    if not saw_degree_two_or_more:
        raise SeparatingElementError(
            "no separating element found: every candidate acts as a scalar "
            "modulo the radical, yet the residue algebra has dimension %d"
            % residue_dim
        )
    for p in rootless_evidence:
        if degree(p) == 2 and degree(p) == residue_dim:
            disc = p[1] * p[1] - 4 * p[0]
            if disc < 0:
                # residue algebra is an imaginary quadratic field: it stays
                # indecomposable over the reals as well
                return [unit], "nonsplit_real"
    return [unit], "nonsplit_unknown"


def primitive_idempotents(cent: EndoSpace) -> tuple[IdempotentSet, str]:
    """Complete family of primitive orthogonal idempotents of the centroid.

    Returns (idempotents, status) where status records how completely the
    minimal polynomials factored over Q: "split" (all the way into rational
    roots), "nonsplit_real" (an imaginary-quadratic residue field appeared:
    decomposition is final over R too), or "nonsplit_unknown" (evidence of
    real irrationalities: the rational decomposition may be coarser than the
    real one). The search runs in cent's regular representation (module docs).
    """
    table = _algebra_table(cent)
    check_abelian(cent, table)
    return _primitive_idempotents_any(cent, table)


def _primitive_idempotents_any(cent: EndoSpace, table) -> tuple[IdempotentSet, str]:
    """Idempotent search without the commutativity gate, given cent's table (module docs)."""
    if not cent.dim:
        raise PreconditionError("centroid is zero-dimensional")
    unit = Matrix.identity(cent.n)
    if not cent.contains(unit):
        raise PreconditionError("centroid does not contain the identity")
    bound = cent.dim * cent.dim + 1
    idems, status = _split_local(Matrix.identity(cent.dim), _regular(table), bound)
    idems = [Matrix.unflatten(_from_regular(cent, p), cent.n, cent.n) for p in idems]
    # exactness checks: mutual orthogonality and completeness
    total = Matrix.zero(cent.n, cent.n)
    for i, p in enumerate(idems):
        if p @ p != p:
            raise LiestructError("lifted projection %d is not idempotent" % i)
        total = total + p
        for q in idems[i + 1 :]:
            if not (p @ q).is_zero():
                raise LiestructError("projections are not orthogonal")
    if total != unit:
        raise LiestructError("projections do not sum to the identity")
    return IdempotentSet(tuple(idems)), status


# ---------------------------------------------------------------------------
# Full decomposition report
# ---------------------------------------------------------------------------

@_memoized
def indecompose(g: LieAlgebra) -> DecompositionReport:
    """Decompose g into indecomposable nonzero ideals.

    Requires z(g) inside [g, g] (in particular holds when g is perfect or
    centerfree); without it the pieces of a finest decomposition are not
    even determined up to isomorphism and the call is refused. Under the
    hypothesis the centroid may still be noncommutative; the idempotent
    search handles that (see the module docstring), and the off-diagonal
    Peirce blocks it reports measure the remaining non-uniqueness: the
    decomposition is unique exactly when they all vanish (`is_unique`).
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
    idems, status = _primitive_idempotents_any(cent, table)
    n = g.dim
    ideals = [
        Subspace.span([p.column(j) for j in range(n)], n) for p in idems
    ]
    if sum(s.dim for s in ideals) != n:
        raise LiestructError("ideal dimensions do not sum to dim g")
    # p_i b p_j in coordinates: L_{p_i} L_b c(p_j)
    coords = [cent.coordinates(p) for p in idems]
    regular = _regular(table)
    blocks = [
        [Subspace.span([table._left_matrix(ci).apply(b.apply(cj)) for b in regular],
                       cent.dim).dim for cj in coords]
        for ci in coords
    ]
    if sum(sum(row) for row in blocks) != cent.dim:
        raise LiestructError("Peirce block dimensions do not sum to dim Cent")
    restricted = [g.restrict_to(s) for s in ideals]
    j_dims = []
    for i, gi in enumerate(restricted):
        zi = gi.center().dim
        j_dims.append(j_space(gi).dim)
        for j, gj in enumerate(restricted):
            if i == j:
                continue
            hom_dim = (gj.dim - gj.commutator_algebra().dim) * zi
            if blocks[i][j] != hom_dim:
                raise LiestructError(
                    "block (%d, %d) has dim %d but Hom(g_j/[g_j,g_j], z(g_i)) "
                    "has dim %d" % (i, j, blocks[i][j], hom_dim)
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
        raise PreconditionError(
            "algebra is decomposable (%d ideals); complex structures are "
            "classified only for indecomposable algebras" % len(report.ideals)
        )
    _, sspace = split_centroid(g)
    n = g.dim
    if sspace.dim == 1:
        return None
    if sspace.dim > 2:
        raise LiestructError(
            "inconsistency: semisimple part of the centroid has dimension %d "
            "> 2 on an indecomposable algebra" % sspace.dim
        )
    ident = Matrix.identity(n)
    identity_line = Subspace.span([ident.flatten()], n * n)
    f = None
    for m in sspace.basis_matrices():
        if not identity_line.contains(m.flatten()):
            f = m
            break
    if f is None:
        raise LiestructError("semisimple part of dim 2 collapsed to scalars")
    # f has the minimal polynomial of L_f in the regular representation
    p = squarefree_part(min_poly(_centroid_table(g)._left_matrix(centroid(g).coordinates(f))))
    if degree(p) != 2:
        raise LiestructError(
            "expected a quadratic minimal polynomial on S, got degree %d"
            % degree(p)
        )
    # p = t^2 - 2a t + (a^2 + b^2) for J = (f - a)/b
    a = -p[1] / 2
    disc = p[1] * p[1] - 4 * p[0]
    if disc >= 0:
        raise LiestructError(
            "centroid splits over the reals (discriminant %s >= 0): the "
            "algebra carries no complex structure" % disc
        )
    b_squared = p[0] - a * a
    b = _rational_square_root(b_squared)
    if b is None:
        raise LiestructError(
            "a complex structure exists over the reals but not over Q: "
            "%s is not a rational square" % b_squared
        )
    jmat = (f - ident.scale(a)).scale(Fraction(1) / b)
    if jmat @ jmat != ident.scale(-1):
        raise LiestructError("constructed J fails J^2 = -1 (internal error)")
    return ComplexStructure(J=jmat)
