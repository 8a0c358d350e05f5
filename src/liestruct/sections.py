"""Finite models of section algebras and their structure theorems.

The algebra of sections of a Lie-algebra bundle is modeled at desk scale by
current algebras k (x) A: functions on finitely many points (A = Q^s) for
disconnected bases, truncated polynomial rings for infinitesimal
neighborhoods of a point. Every check in this module computes both sides of
a structural identity (center, commutator, derivations, centroid,
indecomposability, semisimple part) independently and compares them as
canonical subspaces — exact equality, no tolerances. The expected spaces of
endomorphisms are spanned by tensor products of sparse rows: the canonical
rows of Der(k), Cent(k) and Der(A), and A's multiplications read off its
structure constants, in the basis order of the current algebra.

The jet machinery at the bottom (partial-derivative operators, generalized
Leibniz expansion, reparametrization automorphisms) verifies the
differential-operator identities that the infinite-dimensional theory rests
on, inside honest finite quotients.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .construct import (
    CommutativeAlgebra,
    commutative_derivations,
    current_algebra,
    point_functions,
    truncated_poly,
)
from .decompose import _coefficient_idempotents, indecompose
from .endo import (_apply, _generators, _public, centroid, derivations, j_space, leibniz_system,
                   split_centroid)
from .errors import LiestructError, PreconditionError, TruncationError
from .lie import LieAlgebra, _integral, _memoized, _polynomials_in, _times
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    add_vectors,
    kernel_of_rows,
    unit_vector,
    vector,
    zero_vector,
)
from .poly import _semisimple_polynomial

__all__ = [
    "JetAlgebra",
    "XDerivation",
    "jet_algebra",
    "section_center_check",
    "section_commutator_check",
    "x_derivations",
    "symbol_check",
    "current_der_decomposition",
    "centroid_of_sections_check",
    "indecomposability_of_sections_check",
    "s_part_of_sections_check",
    "multinomial_sum",
    "leibniz_expand",
    "jet_reparametrization_automorphism",
]


# ---------------------------------------------------------------------------
# Jet algebras: truncated polynomials with partial-derivative operators
# ---------------------------------------------------------------------------

class JetAlgebra:
    """A truncated polynomial algebra with its partial derivatives.

    ``eval_vector`` is the "value at the marked point" functional (the
    coefficient of the constant monomial). The partials satisfy the Leibniz
    rule on basis pairs whose degrees sum below the truncation order; at the
    boundary the rule genuinely fails in the quotient (the product truncates
    to zero while the derivative of the would-be product does not), so only
    the sub-boundary instances are asserted.
    """

    __slots__ = ("A", "m_vars", "order", "eval_vector", "partials")

    def __init__(self, a: CommutativeAlgebra, m_vars: int, order: int,
                 eval_vector: Vector, partials: tuple):
        self.A = a
        self.m_vars = m_vars
        self.order = order
        self.eval_vector = eval_vector
        self.partials = partials
        self._validate()

    def _validate(self):
        a = self.A
        monos = a.monomials
        if monos is None:
            raise ValueError("jet algebra needs a monomial basis")
        if _pair(self.eval_vector, a.unit) != 1:
            raise ValueError("evaluation functional must send the unit to 1")
        for i, d in enumerate(self.partials):
            for p in range(a.dim):
                for q in range(a.dim):
                    if sum(monos[p]) + sum(monos[q]) >= self.order:
                        continue
                    ep, eq = unit_vector(a.dim, p), unit_vector(a.dim, q)
                    lhs = d.apply(a.product(ep, eq))
                    rhs = add_vectors(a.product(d.apply(ep), eq), a.product(ep, d.apply(eq)))
                    if lhs != rhs:
                        raise ValueError(
                            "partial %d fails the Leibniz rule below the "
                            "truncation boundary on basis pair (%d, %d)" % (i, p, q)
                        )
            for p, mono in enumerate(monos):
                if sum(mono) >= 2:
                    if _pair(self.eval_vector, d.apply(unit_vector(a.dim, p))) != 0:
                        raise ValueError(
                            "evaluation of a partial of a degree->=2 monomial "
                            "must vanish"
                        )

    def eval(self, coeff: Sequence[Fraction]) -> Fraction:
        return _pair(self.eval_vector, coeff)

    def monomial_degree(self, index: int) -> int:
        return sum(self.A.monomials[index])

    def degree(self, coeff: Sequence[Fraction]) -> int:
        """Max total degree of a coefficient vector; -1 for zero."""
        self.A._check_length(coeff)
        deg = -1
        for p, c in enumerate(coeff):
            if c:
                deg = max(deg, self.monomial_degree(p))
        return deg


def _pair(functional: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(functional) != len(v):
        raise ValueError("functional length %d != vector length %d" % (len(functional), len(v)))
    return sum((a * b for a, b in zip(functional, v)), Fraction(0))


def jet_algebra(m: int, order: int) -> JetAlgebra:
    """Jets of order < ``order`` in m variables, with partials and eval."""
    a = truncated_poly(m, order)
    monos = a.monomials
    index = {alpha: i for i, alpha in enumerate(monos)}
    n = a.dim
    partials = []
    for i in range(m):
        cols = []
        for alpha in monos:
            col = [Fraction(0)] * n
            if alpha[i] > 0:
                lowered = tuple(
                    x - 1 if t == i else x for t, x in enumerate(alpha)
                )
                col[index[lowered]] = Fraction(alpha[i])
            cols.append(col)
        partials.append(Matrix.from_columns(cols))
    eval_vector = unit_vector(n, 0)  # coefficient of the constant monomial
    return JetAlgebra(a, m, order, eval_vector, tuple(partials))


# ---------------------------------------------------------------------------
# Section-algebra structure checks
# ---------------------------------------------------------------------------

def _tensor_check(check: str, lhs: Subspace, sub: Subspace, a: CommutativeAlgebra) -> dict:
    """The report of lhs, a subspace of k (x) A, against sub (x) A for sub inside k."""
    na = a.dim
    # x (x) e_p has coordinate x_i at i * na + p
    rhs = Subspace.span([{i * na + p: x for i, x in row.items()}
                         for row in sub._rows.values() for p in range(na)], sub.ambient_dim * na)
    return {"check": check, "lhs_dim": lhs.dim, "rhs_dim": rhs.dim, "ok": lhs == rhs}


def _tensor_rows(xs, nk: int, ys, na: int) -> list[dict]:
    """x (x) y for each x in ``xs`` and y in ``ys``, flattened nk x nk and na x na
    ``{index: value}`` maps, as flattened rows of End(k (x) A): e_i (x) e_p is
    basis vector i na + p, so entry (i, j) of x times entry (p, q) of y is entry
    (i na + p, j na + q)."""
    n = nk * na
    ys = [[(pq // na * n + pq % na, v) for pq, v in y.items()] for y in ys]
    rows = []
    for x in xs:
        x = [(ij // nk * na * n + ij % nk * na, u) for ij, u in x.items()]
        rows.extend({s + t: u * v for s, u in x for t, v in y} for y in ys)
    return rows


def section_center_check(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """z(k (x) A) versus z(k) (x) A, computed independently."""
    return _tensor_check("center", current_algebra(k, a).center(), k.center(), a)


def section_commutator_check(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """[k (x) A, k (x) A] versus [k, k] (x) A."""
    return _tensor_check("commutator", current_algebra(k, a).commutator_algebra(),
                         k.commutator_algebra(), a)


def _require_perfect_or_centerfree(k: LieAlgebra):
    flags = k.flags()
    if not (flags["perfect"] or flags["centerfree"]):
        raise PreconditionError(
            "algebra is neither perfect nor centerfree "
            "(perfect=%s, centerfree=%s); the section theorems assume one of "
            "the two" % (flags["perfect"], flags["centerfree"])
        )


@dataclass(frozen=True)
class XDerivation:
    """A derivation-at-a-point: constant part D and first-order parts S^u."""

    D: Matrix
    S: tuple


@_memoized
def x_derivations(k: LieAlgebra, m: int) -> tuple[tuple[XDerivation, ...], int]:
    """Derivations of the section algebra into the fiber at a marked point.

    Models the section algebra by g = k (x) Q[x_1..x_m]/(deg >= 2) and
    solves delta[X,Y] = [delta X, ev Y] + [ev X, delta Y] for delta: g -> k,
    assembled from the brackets of g and k; ev keeps the leg on the
    constant monomial. A solution is read as blocks (D, S^1..S^m): D =
    delta on k (x) 1, S^u = delta on k (x) x_u. Returns the canonical basis
    of the solution space, as a tuple, and its dimension. Raises
    LiestructError unless that space is exactly Der(k) (+) Cent(k)^m, the
    independently assembled kernels.
    """
    _require_perfect_or_centerfree(k)
    if m < 0:
        raise ValueError("number of jet directions must be >= 0")
    n = k.dim
    na = m + 1
    g = current_algebra(k, truncated_poly(m, 2) if m else point_functions(1))
    big = g.dim
    ev = [i if p == 0 else None for i in range(n) for p in range(na)]
    space = kernel_of_rows(leibniz_system(g, k, ev), n * big)
    # column i * na + u of delta holds column i of D (u = 0) or of S^u
    der, cent = derivations(k), centroid(k)
    # entry p = r * n + i of a piece goes to column i * na + u of row r
    vecs = [{p // n * big + p % n * na + u: x for p, x in row.items()}
            for u, piece in enumerate([der] + [cent] * m) for row in piece.space._rows.values()]
    expected = Subspace.span(vecs, n * big)
    if space != expected:
        raise LiestructError(
            "point-derivation solutions (dim %d) differ from Der(k) + %d Cent(k) "
            "(dim %d + %d x %d)" % (space.dim, m, der.dim, m, cent.dim)
        )
    basis = []
    for row in space.sparse_rows():
        blocks = [{} for _ in range(na)]
        for p, x in row.items():
            i, u = divmod(p % big, na)
            blocks[u][p // big * n + i] = x
        blocks = [Matrix.unflatten(b, n, n) for b in blocks]
        basis.append(XDerivation(D=blocks[0], S=tuple(blocks[1:])))
    return tuple(basis), space.dim

def symbol_check(k: LieAlgebra, m: int) -> dict:
    """Exactness of 0 -> Der(k) -> point-derivations -> Cent(k)^m -> 0.

    The symbol map sends (D, S^1..S^m) to (S^1..S^m); its kernel must be the
    naturally embedded Der(k) (maps of the form D after evaluation), and its
    image must be all of Cent(k)^m.
    """
    basis, total = x_derivations(k, m)
    n = k.dim
    der_space = derivations(k).space
    cent_space = centroid(k).space
    kernel = [xd for xd in basis if all(s.is_zero() for s in xd.S)]
    kernel_ok = all(der_space.contains(xd.D.flatten()) for xd in kernel) and len(
        kernel
    ) == der_space.dim
    image = Subspace.span(
        [
            tuple(x for s in xd.S for x in s.flatten())
            for xd in basis
        ],
        m * n * n,
    )
    image_dim = image.dim
    surjective = image_dim == m * cent_space.dim
    return {
        "check": "symbol",
        "total_dim": total,
        "kernel_dim": len(kernel),
        "image_dim": image_dim,
        "kernel_is_embedded_der": kernel_ok,
        "surjective": surjective,
        "ok": kernel_ok and surjective and total == len(kernel) + image_dim,
    }


def current_der_decomposition(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """Der(k (x) A) = Der(k) (x) A + Cent(k) (x) Der(A), exactly.

    The full derivation algebra is computed from its own Leibniz system on
    k (x) A; the two candidate pieces are spanned by Kronecker products
    (D (x) L_a with L_a multiplication on coefficients, and S (x) d with d a
    derivation of A). The check asserts the sum is direct and exhausts the
    full space.
    """
    _require_perfect_or_centerfree(k)
    g = current_algebra(k, a)
    full = derivations(g)
    n = g.dim
    der_k, cent_k = derivations(k).space._rows.values(), centroid(k).space._rows.values()
    der_a = commutative_derivations(a).space._rows.values()
    tensor_part = Subspace.span(_tensor_rows(der_k, k.dim, a._flat_left(), a.dim), n * n)
    connection_part = Subspace.span(_tensor_rows(cent_k, k.dim, der_a, a.dim), n * n)
    together = tensor_part.sum(connection_part)
    direct = together.dim == tensor_part.dim + connection_part.dim
    spans = together == full.space
    return {
        "check": "derdecomp",
        "full_dim": full.dim,
        "tensor_part_dim": tensor_part.dim,
        "connection_part_dim": connection_part.dim,
        "direct": direct,
        "ok": direct and spans,
    }


def centroid_of_sections_check(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """Cent(k (x) A) versus Cent(k) (x) {multiplications by A}."""
    _require_perfect_or_centerfree(k)
    g = current_algebra(k, a)
    full = centroid(g)
    n = g.dim
    cent_k = centroid(k).space._rows.values()
    expected = Subspace.span(_tensor_rows(cent_k, k.dim, a._flat_left(), a.dim), n * n)
    return {
        "check": "centroid",
        "full_dim": full.dim,
        "expected_dim": centroid(k).dim * a.dim,
        "ok": full.dim == centroid(k).dim * a.dim and expected == full.space,
    }


def _require_split_central(k: LieAlgebra):
    """Refuse a fiber whose S(k) is not the identity line: then neither the
    idempotents nor the S part of Cent(k (x) A) = Cent(k) (x) A are A's."""
    _, s_of_k = split_centroid(k)
    if s_of_k.dim != 1 or not s_of_k.space.contains({i * k.dim + i: 1 for i in range(k.dim)}):
        raise PreconditionError("S(k) must be spanned by the identity (split-central fiber)")


def indecomposability_of_sections_check(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """Ideal count of k (x) A against the idempotent count of A.

    For an indecomposable k with Hom(k/[k,k], z(k)) = 0 and S(k) = Q 1, the
    current algebra decomposes exactly along the primitive idempotents of A: one
    ideal for a local A (connected base), s ideals for A = Q^s (s points). Other
    fibers are refused: for sl2 over Q(i), Q(i) (x) Q(i) splits where Q(i) does not.
    """
    if j_space(k).dim != 0:
        raise PreconditionError("Hom(k/[k,k], z(k)) is nonzero (dim %d); the indecomposability "
                                "theorem does not apply" % j_space(k).dim)
    if len(indecompose(k).ideals) != 1:
        raise PreconditionError("k is decomposable; the check needs an "
                                "indecomposable fiber")
    _require_split_central(k)
    expected_idems = _coefficient_idempotents(a)
    g = current_algebra(k, a)
    report = indecompose(g)
    return {
        "check": "indecomposability",
        "ideals": len(report.ideals),
        "expected": len(expected_idems),
        "status": report.status,
        "ok": len(report.ideals) == len(expected_idems),
    }


def s_part_of_sections_check(k: LieAlgebra, a: CommutativeAlgebra) -> dict:
    """S(k (x) A) versus multiplications by the semisimple part of A.

    Needs S(k) spanned by the identity and Hom(k/[k,k], z(k)) = 0; then the
    semisimple part of the centroid of the current algebra is exactly
    {1 (x) L_s : s in S(A)} — "functions times the identity".
    """
    _require_perfect_or_centerfree(k)
    if j_space(k).dim != 0:
        raise PreconditionError("Hom(k/[k,k], z(k)) must vanish for the S-part description")
    _require_split_central(k)
    identity = {i * k.dim + i: 1 for i in range(k.dim)}
    g = current_algebra(k, a)
    n_g, s_g = split_centroid(g)
    # L_s, flattened, for s = P(e_p) the semisimple part of each basis element e_p
    # of A, P and e_p's Krylov vectors on A's table
    s_parts = []
    for p in range(a.dim):
        m, at = _polynomials_in(a, {p: 1})
        s = at(_semisimple_polynomial(m))
        s_parts.append({r * a.dim + j: c for j in range(a.dim)
                        for r, c in enumerate(a._product(s, unit_vector(a.dim, j))) if c})
    expected = Subspace.span(_tensor_rows([identity], k.dim, s_parts, a.dim), g.dim * g.dim)
    return {
        "check": "spart",
        "s_dim": s_g.dim,
        "n_dim": n_g.dim,
        "expected_s_dim": expected.dim,
        "ok": s_g.space == expected,
    }


# ---------------------------------------------------------------------------
# Multi-index combinatorics and the generalized Leibniz rule
# ---------------------------------------------------------------------------

def multi_factorial(alpha: Sequence[int]) -> int:
    out = 1
    for x in alpha:
        out *= factorial(x)
    return out


def multi_binomial(alpha: Sequence[int], gamma: Sequence[int]) -> int:
    out = 1
    for x, y in zip(alpha, gamma):
        out *= comb(x, y)
    return out


def sub_indices(alpha: Sequence[int]):
    """All multi-indices gamma <= alpha componentwise."""
    return itertools.product(*(range(x + 1) for x in alpha))


def multinomial_sum(alpha: Sequence[int]) -> Fraction:
    """The alternating multi-index sum; 1 at alpha = 0 and 0 elsewhere.

    Computes sum over gamma <= alpha of (-1)^|alpha - gamma| / (gamma! *
    (alpha - gamma)!) term by term, in ints over one alpha!; the binomial
    theorem collapses it to the Kronecker delta at zero.
    """
    alpha = tuple(int(x) for x in alpha)
    if any(x < 0 for x in alpha):
        raise ValueError("multi-index components must be non-negative")
    total = 0  # 1 / (gamma! (alpha - gamma)!) = C(alpha, gamma) / alpha!
    for gamma in sub_indices(alpha):
        sign = -1 if (sum(alpha) - sum(gamma)) % 2 else 1
        total += sign * multi_binomial(alpha, gamma)
    return Fraction(total, multi_factorial(alpha))


def _apply_partial_power(jet: JetAlgebra, gamma: Sequence[int], coeff: Vector) -> Vector:
    out = vector(coeff)
    for i, times in enumerate(gamma):
        for _ in range(times):
            out = jet.partials[i].apply(out)
    return out


def leibniz_expand(alpha: Sequence[int], t_mat, f_vec, jet: JetAlgebra):
    """Generalized Leibniz rule for partial derivatives of T . f.

    ``t_mat`` is a matrix with entries in the jet coefficient algebra (a
    grid of coordinate vectors), ``f_vec`` a vector with such entries.
    Returns sum over gamma <= alpha of C(alpha, gamma) (d^gamma T)(d^(alpha -
    gamma) f) and asserts it equals the direct derivative d^alpha (T . f).
    Raises TruncationError when the product degree reaches the truncation
    order, where the identity genuinely breaks.
    """
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != jet.m_vars:
        raise ValueError("multi-index length does not match the jet variables")
    a = jet.A
    t_mat = [[vector(entry) for entry in row] for row in t_mat]
    f_vec = [vector(entry) for entry in f_vec]
    r = len(f_vec)
    if len(t_mat) != r or any(len(row) != r for row in t_mat):
        raise ValueError("matrix and vector sizes do not match")
    deg_t = max((jet.degree(e) for row in t_mat for e in row), default=-1)
    deg_f = max((jet.degree(e) for e in f_vec), default=-1)
    if deg_t >= 0 and deg_f >= 0 and deg_t + deg_f >= jet.order:
        raise TruncationError(
            "product of degrees %d and %d is not representable below "
            "truncation order %d" % (deg_t, deg_f, jet.order)
        )

    def mat_vec(tm, fv):
        return [functools.reduce(add_vectors, (a.product(tm[i][j], fv[j]) for j in range(r)),
                                 zero_vector(a.dim)) for i in range(r)]

    direct = [
        _apply_partial_power(jet, alpha, entry) for entry in mat_vec(t_mat, f_vec)
    ]
    expanded = [zero_vector(a.dim)] * r
    for gamma in sub_indices(alpha):
        rest = tuple(x - y for x, y in zip(alpha, gamma))
        coeff = multi_binomial(alpha, gamma)
        dt = [[_apply_partial_power(jet, gamma, e) for e in row] for row in t_mat]
        df = [_apply_partial_power(jet, rest, e) for e in f_vec]
        term = mat_vec(dt, df)
        expanded = [
            tuple(x + coeff * y for x, y in zip(acc, entry))
            for acc, entry in zip(expanded, term)
        ]
    if expanded != direct:
        raise LiestructError(
            "Leibniz expansion disagrees with the direct derivative "
            "(below the truncation boundary; internal error)"
        )
    return expanded


# ---------------------------------------------------------------------------
# Jet reparametrization automorphisms
# ---------------------------------------------------------------------------

def _preserves_brackets(g: LieAlgebra, den: int, phi) -> bool:
    """phi[e_s, e_j] = [phi e_s, phi e_j] for the int columns phi of den phi, in ints, for s
    in ``endo._generators(g)`` (or the basis) and every j: every pair, as the x with
    phi[x, y] = [phi x, phi y] for all y form a subalgebra when g satisfies Jacobi."""
    (_, nz), gens = g._int_constants(), _generators(g)
    return all({r: den * x for r, x in _apply(phi, nz[s][j]).items()}
               == _times(nz, dict(phi[s]), dict(phi[j]))
               for s in (range(g.dim) if gens is None else sorted(gens)) for j in range(g.dim))


def jet_reparametrization_automorphism(
    k: LieAlgebra, jet: JetAlgebra, n_elem
) -> tuple[Matrix, dict]:
    """The automorphism of k (x) A induced by t -> t + n(t).

    ``n_elem`` must lie in the maximal ideal (vanish at the marked point).
    The coefficient map mu = sum over j < order of (1/j!) N^j d^j (N =
    multiplication by n_elem, d = d/dt) is the exact Taylor substitution
    a(t) -> a(t + n(t)): a nilpotent differential operator of order at most
    order - 1 that is verified to be an algebra automorphism, then tensored
    with the identity of k and verified to preserve brackets
    (:func:`_preserves_brackets`).
    """
    if jet.m_vars != 1:
        raise PreconditionError("reparametrization model is single-variable")
    n_elem = vector(n_elem)
    a = jet.A
    if jet.eval(n_elem) != 0:
        raise PreconditionError("reparametrization direction must lie in the maximal ideal "
                                "(its value at the marked point is %s)" % jet.eval(n_elem))
    nmat = a.mult_matrix(n_elem)
    d = jet.partials[0]
    mu = Matrix.zero(a.dim, a.dim)
    npow = Matrix.identity(a.dim)
    dpow = Matrix.identity(a.dim)
    for j in range(jet.order):
        mu = mu + (npow @ dpow).scale(Fraction(1, factorial(j)))
        npow = npow @ nmat
        dpow = dpow @ d
    # multiplicativity of mu on A
    bad = next(((p, q) for p in range(a.dim) for q in range(p, a.dim)
                if mu.apply(a.product(unit_vector(a.dim, p), unit_vector(a.dim, q)))
                != a.product(mu.column(p), mu.column(q))), None)
    if bad:
        raise LiestructError("coefficient substitution is not multiplicative on basis "
                             "pair (%d, %d)" % bad)
    if mu.apply(a.unit) != a.unit:
        raise LiestructError("coefficient substitution moves the unit")
    # full = I_k (x) mu as the int columns of den full: column i dim A + p is e_i (x) den mu
    # e_p; as full - I = I_k (x) (mu - I), invertibility and unipotence are decided on mu
    den, (cols,) = _integral([[[(q, x) for q, x in enumerate(col) if x] for col in zip(*mu.rows)]])
    phi = [tuple((i * a.dim + q, x) for q, x in col) for i in range(k.dim) for col in cols]
    auto_ok = _preserves_brackets(current_algebra(k, a), den, phi)
    invertible = Subspace.span(mu.rows, a.dim).dim == a.dim
    nilpotent = (mu - Matrix.identity(a.dim)).power(a.dim).is_zero()
    report = {
        "check": "jetauto",
        "automorphism": auto_ok and invertible,
        "bracket_preserving": auto_ok,
        "invertible": invertible,
        "mu_minus_identity_nilpotent": nilpotent,
        "ok": auto_ok and invertible,
    }
    return _public(den, phi), report
