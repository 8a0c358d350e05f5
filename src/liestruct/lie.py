"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is a validated, immutable table c[i][j] of bracket coordinate
vectors. Construction goes through :func:`build`, which checks antisymmetry
by construction and the Jacobi identity on every basis triple, so downstream
code can assume it is working with an actual Lie algebra. A passed check is
the table's Jacobi verdict, a memo entry like any other, and the constructions
that keep the identity pass it on; ``endo`` reads it before it trusts the
identity to cut a constraint system. The structure
constants, held only as nonzero lists, the product, the left
multiplication and the one trace form live in one private structure-constant
core, which ``construct.CommutativeAlgebra`` and the centroid's table share,
with polynomials in an element of a unital table (:func:`_polynomials_in`).
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
    _dense,
    _span,
    frac,
    kernel_of_rows,
    unit_vector,
    vector,
)
from .poly import _krylov

__all__ = ["LieAlgebra", "build", "from_dict", "to_dict"]

CacheInfo = namedtuple("CacheInfo", "hits misses")

# table -> its memo entries {(function, remaining args): result}, read once per table
_memo = weakref.WeakKeyDictionary()


def _entries(g) -> dict:
    """g's memo entries, held on g itself from its first memo access on: the entries of an
    equal table alive at that moment (``_memo``), else a fresh dict registered for g."""
    entries = g._memo_entries
    if entries is None:
        entries = g._memo_entries = _memo.setdefault(g, {})
    return entries


def _memoized(fn):
    """Memoize ``fn(g, *args)`` on g: a Lie algebra, a commutative coefficient algebra
    or a bare structure table.

    The entries live on g (:func:`_entries`), so they die with g and outlive any equal
    table they were first shared with. At g's first memo access the registry ``_memo``,
    keyed by value (a bare table's identity), hands g the entries of an equal table
    alive then; an equal table that first asks after every registered one has died
    starts with fresh entries and recomputes its results. Other arguments must be
    hashable. Results are shared and must not be mutated; a call that raises stores
    nothing. ``cache_info()`` reports the hits and misses of ``fn``.
    """
    counts = [0, 0]

    @functools.wraps(fn)
    def memoized(g, *args):
        entries, key = _entries(g), (fn, args)
        if key in entries:
            counts[0] += 1
        else:
            counts[1] += 1
            entries[key] = fn(g, *args)
        return entries[key]

    memoized.cache_info = lambda: CacheInfo(*counts)
    return memoized


def _integral(*tables):
    """(den, *tables) with every constant of the sparse ``tables`` times den.

    ``tables`` are nested like ``_StructureTable._nonzero``, [i][j] -> ((k,
    c), ...) with c rational; den is the least common denominator of all of
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

    The one home of the constants for Lie algebras and for commutative
    coefficient algebras, held only as ``_nonzero[i][j]``, the nonzero
    entries (k, c) of e_i e_j sorted by k. ``products`` maps any ordered pair
    (i, j) to ``{k: c}``, zero coefficients and omitted pairs allowed; a
    dense table, ``table[i][j]`` the coordinate vector of e_i e_j, is
    converted once on the way in. The product, the left multiplication
    matrix and the hash read the nonzero lists; the triple checks read them
    scaled to integers by :func:`_integral`. ``unit`` holds the coordinates of
    a unital table's 1, None on a Lie table; the memo entries live in the table.
    """

    __slots__ = ("dim", "names", "unit", "_nonzero", "_hash", "_memo_entries", "__weakref__")
    _product_word = "product"  # in error messages

    def __init__(self, names: Sequence[str], products, unit=None):
        self.names = tuple(names)
        self.dim = n = len(self.names)
        if not isinstance(products, Mapping):  # a dense table, from the public constructors
            rows = [[tuple(v) for v in row] for row in products]
            if len(rows) != n or any(len(r) != n or any(len(v) != n for v in r) for r in rows):
                raise ValueError("structure table shape does not match dimension")
            products = {(i, j): {k: c for k, c in enumerate(v) if c}
                        for i, row in enumerate(rows) for j, v in enumerate(row)}
        nonzero = [[()] * n for _ in range(n)]
        for (i, j), value in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("%s (%r, %r) outside 0..%d" % (self._product_word, i, j, n - 1))
            entries = []
            for k, c in value.items():
                if not 0 <= k < n:
                    raise ValueError("%s (%d, %d) has coefficient index %d outside 0..%d"
                                     % (self._product_word, i, j, k, n - 1))
                c = frac(c)
                if c:
                    entries.append((k, c))
            nonzero[i][j] = tuple(sorted(entries))
        self._nonzero = tuple(map(tuple, nonzero))
        self.unit = None if unit is None else vector(unit)
        self._hash = self._memo_entries = None

    @property
    def table(self):
        """The dense table, rebuilt on every read: [i][j] is the vector of e_i e_j."""
        return tuple(tuple(tuple(_dense(v, self.dim)) for v in row) for row in self._nonzero)

    def _same_table(self, other) -> bool:
        return self is other or (
            type(other) is type(self) and self.names == other.names
            and self._nonzero == other._nonzero
        )

    def _noncommuting_pair(self):
        """The first basis pair i < j with e_i e_j != e_j e_i, or None."""
        nz = self._nonzero
        pairs = itertools.combinations(range(self.dim), 2)
        return next(((i, j) for i, j in pairs if nz[i][j] != nz[j][i]), None)

    def _table_hash(self, *extra) -> int:
        if self._hash is None:
            # equal tables have equal nonzero lists; the lower triangle follows
            # from the upper one by (anti)symmetry
            nz = self._nonzero
            self._hash = hash((self.names, extra, tuple(
                nz[i][j] for i in range(self.dim) for j in range(i, self.dim)
            )))
        return self._hash

    def _check_length(self, x: Sequence[Fraction]):
        if len(x) != self.dim:
            raise ValueError("vector length %d != dimension %d" % (len(x), self.dim))

    def _product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """x y for coordinate vectors x, y."""
        self._check_length(x)
        self._check_length(y)
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
        self._check_length(x)
        n = self.dim
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if xi:
                for j, entries in enumerate(self._nonzero[i]):
                    for k, v in entries:
                        rows[k][j] += xi * v
        return Matrix._trusted(map(tuple, rows))

    def _flat_left(self) -> list[dict]:
        """den L_{e_i} flattened row-major for each i, entry (k, j) the e_k coefficient
        of e_i e_j, over the int constants (den, nz) of :meth:`_int_constants`."""
        n = self.dim
        return [{k * n + j: c for j, v in enumerate(row) for k, c in v}
                for row in self._int_constants()[1]]

    @_memoized
    def _int_constants(self) -> tuple:
        """(den, nz) = :func:`_integral` of the constants, scaled once per table."""
        return _integral(self._nonzero)

    @_memoized
    def _trace_form(self) -> tuple:
        """(den^2, rows): rows[i][j] = den^2 tr(L_{e_i} L_{e_j}) = sum of c_il^k c_jk^l over k, l
        when nonzero, in ints over the constants scaled by :func:`_integral`: the Killing form
        of a Lie table; on an associative table with 1, its kernel is the radical. Memoized."""
        n = self.dim
        den, flat = self._int_constants()[0], self._flat_left()
        rows = [{} for _ in range(n)]
        for i, a in enumerate(flat):
            for j in range(i, n):
                b = flat[j]
                s = sum(c * b[t] for kl, c in a.items() if (t := kl % n * n + kl // n) in b)
                if s:
                    rows[i][j] = rows[j][i] = s
        return den * den, rows

    @_memoized
    def _radical(self) -> Subspace:
        """The kernel of the trace form's int rows: the radical of an associative table with 1."""
        return kernel_of_rows(map(dict, self._trace_form()[1]), self.dim)


def _scaled(v: dict) -> tuple[int, dict]:
    """(s, w): w = s v as ``{index: int}``, for v as ``{index: value}``, s the least
    common denominator of v."""
    s = lcm(*(x.denominator for x in v.values()))
    return s, {i: x.numerator * (s // x.denominator) for i, x in v.items() if x}


def _times(nz, x: dict, y: dict) -> dict:
    """x y as ``{index: int}``, for x and y as ``{index: int}`` and the int constants ``nz``."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in nz[i][j]:
                out[k] = out.get(k, 0) + a * b * c
    return {k: v for k, v in out.items() if v}


def _polynomials_in(table: _StructureTable, x: dict):
    """(m, at) for x, as ``{index: value}``, in a unital associative ``table`` (its 1 at
    ``table.unit``): m is x's minimal polynomial (and L_x's, as x 1 = x), the first
    dependency among the Krylov vectors step^k x^k 1 (``poly._krylov``, over the
    table's int constants), and at(p) the coordinates of p(x) 1 for deg p < deg m,
    those vectors combined over one denominator: no d x d matrix, no Horner step."""
    (den, nz), (xs, xi) = table._int_constants(), _scaled(x)
    s, unit, step = *_scaled(dict(enumerate(table.unit))), den * xs
    m, powers = _krylov(lambda v: _times(nz, xi, v), unit, table.dim, step)

    def at(p) -> tuple:  # p(x) 1 = sum_k p_k powers[k] / (s step^k), with p = e / over
        over, e = _scaled(dict(enumerate(p)))
        top, acc = max(e, default=0), {}
        for k, c in e.items():
            for i, v in powers[k].items():
                acc[i] = acc.get(i, 0) + c * step ** (top - k) * v
        return tuple(Fraction(acc.get(i, 0), over * s * step ** top) for i in range(table.dim))

    return m, at


class LieAlgebra(_StructureTable):
    """Immutable Lie algebra with a fixed ordered basis.

    ``table`` is dense, ``table[i][j]`` the coordinate vector of [e_i, e_j],
    or sparse, ``{(i, j): {k: c}}``; the structure-constant core that keeps
    only the nonzero constants and brackets with them is shared with the
    commutative coefficient algebras. Instances are
    hashable and compare by structure table and basis names. The hash is
    computed once, on first use. Expensive invariants (here and in ``endo``,
    ``construct`` and ``decompose``) are memoized on the algebra itself
    (:func:`_memoized`): the results are freed with it, and an equal algebra
    built while it lives is served the same results.
    """

    __slots__ = ()
    _product_word = "bracket"

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
        rows = {}  # sum_i x_i c_ij^k = 0 for each entry (k, j) of ad x, over int constants
        for i, ad in enumerate(self._flat_left()):
            for kj, c in ad.items():
                rows.setdefault(kj, {})[i] = c
        return kernel_of_rows(rows.values(), self.dim)

    def bracket_span(self, s: Subspace, t: Subspace) -> Subspace:
        """Subspace spanned by all [u, v], u in s, v in t, over their int rows."""
        nz, trows = self._int_constants()[1], t._rows.values()
        return _span((_times(nz, u, v) for u in s._rows.values() for v in trows), self.dim)

    @_memoized
    def commutator_algebra(self) -> Subspace:
        """[g, g], the derived subalgebra: the span of the brackets [e_i, e_j]."""
        nz = self._int_constants()[1]
        return _span((dict(v) for i, row in enumerate(nz) for v in row[i + 1 :] if v), self.dim)

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
        """kappa(i, j) = tr(ad e_i ad e_j), the table's trace form."""
        den2, rows = self._trace_form()
        return Matrix._trusted(tuple(Fraction(row.get(j, 0), den2) for j in range(self.dim))
                               for row in rows)

    @_memoized
    def _killing_rank(self) -> int:
        """Rank of the Killing form, on the trace form's int rows; it is dim g exactly
        when g is semisimple (Cartan's criterion), provided g satisfies the Jacobi identity.
        With a Jacobi verdict, rank dim g puts z(g) = 0 and [g,g] = g in the memo, for
        :meth:`center` and :meth:`commutator_algebra`, which never compute the form."""
        rank = _span(map(dict, self._trace_form()[1]), self.dim).dim
        if rank == self.dim and _jacobi_known(self):
            _record(self, LieAlgebra.center, Subspace.zero(self.dim))
            _record(self, LieAlgebra.commutator_algebra, Subspace.full(self.dim))
        return rank

    # -- structural flags ----------------------------------------------------

    def flags(self) -> dict:
        """Boolean structure flags from exact rank computations, as a fresh dict."""
        return dict(self._flags())

    @_memoized
    def _flags(self) -> dict:
        """The flags from g's own invariants, the Killing rank first, so that a semisimple g
        with a Jacobi verdict reads z(g) and [g,g] off the memo. With a verdict, [g,g] of a
        reductive g (:func:`_reductive`) is semisimple, hence perfect, so both series stop
        at [g,g]: solvable = nilpotent = abelian, with no series spanned. A semisimple g is
        simple iff its centroid, a product of fields, one per simple ideal, is a field."""
        semisimple = self._killing_rank() == self.dim
        comm = self.commutator_algebra()
        center = self.center()
        abelian = comm.is_zero()
        reductive = _reductive(self)
        if reductive and _jacobi_known(self):
            solvable = nilpotent = abelian
        else:
            solvable = self.derived_series()[-1].is_zero()
            nilpotent = self.lower_central_series()[-1].is_zero()
        simple = False
        if semisimple and not abelian:
            from .decompose import _centroid_split

            simple = len(_centroid_split(self)[0]) == 1
        return {
            "abelian": abelian,
            "nilpotent": nilpotent,
            "solvable": solvable,
            "perfect": comm.is_full(),
            "centerfree": center.is_zero(),
            "semisimple": semisimple,
            "reductive": reductive,
            "simple": simple,
        }

    # -- derived algebras ------------------------------------------------------

    def restrict_to(self, s: Subspace, names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """The subalgebra on the canonical basis of s.

        Raises ValueError when s is not closed under the bracket, or when
        ``names`` does not hold one name per basis vector.
        """
        if names is not None and len(names) != s.dim:
            raise ValueError("%d names for a subspace of dimension %d" % (len(names), s.dim))
        rows = s.rows
        products = {}
        for a, u in enumerate(rows):
            for b, v in enumerate(rows):
                coords = s.coordinates(self.bracket(u, v))
                if coords is None:
                    raise ValueError(
                        "subspace is not closed under the bracket "
                        "(product of basis vectors %d and %d escapes)" % (a, b)
                    )
                products[(a, b)] = {c: x for c, x in enumerate(coords) if x}
        if names is None:
            names = ["s%d" % a for a in range(s.dim)]
        return _inherit_jacobi(LieAlgebra(names, products), self)

    def quotient(self, ideal: Subspace) -> "LieAlgebra":
        """g / ideal on the images of the basis vectors outside the pivots.

        Raises NotAnIdealError naming a basis vector and an ideal generator
        whose bracket escapes the ideal.
        """
        rows = ideal.rows
        for i in range(self.dim):
            for v in rows:
                if not ideal.contains(self.bracket(unit_vector(self.dim, i), v)):
                    raise NotAnIdealError(i, v)
        if ideal.is_zero():
            return self
        pivot_set = set(ideal.pivots)
        complement = [j for j in range(self.dim) if j not in pivot_set]
        # residues after reduction vanish on pivot columns, so the surviving
        # coordinates are exactly the complement coordinates
        products = {}
        for a, ia in enumerate(complement):
            for b, ib in enumerate(complement):
                w = ideal.reduce(dict(self._nonzero[ia][ib]))
                products[(a, b)] = {c: w[j] for c, j in enumerate(complement) if w[j]}
        names = [self.names[j] + "~" for j in complement]
        return _inherit_jacobi(LieAlgebra(names, products), self)

    def permuted(self, perm: Sequence[int]) -> "LieAlgebra":
        """Relabel the basis: new basis vector a is old basis vector perm[a]."""
        if sorted(perm) != list(range(self.dim)):
            raise ValueError("not a permutation of 0..%d" % (self.dim - 1))
        inv = [0] * self.dim
        for a, p in enumerate(perm):
            inv[p] = a
        products = {
            (a, b): {inv[k]: c for k, c in self._nonzero[pa][pb]}
            for a, pa in enumerate(perm) for b, pb in enumerate(perm)
        }
        names = [self.names[p] for p in perm]
        return _inherit_jacobi(LieAlgebra(names, products), self)


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
    products = {}
    for (i, j), value in brackets.items():
        if not (0 <= i < j < dim):
            raise ValueError(
                "bracket key (%r, %r) must satisfy 0 <= left < right < dim" % (i, j)
            )
        value = products[(i, j)] = {int(k): _coefficient(c) for k, c in value.items()}
        products[(j, i)] = {k: -c for k, c in value.items()}
    algebra = LieAlgebra(names, products)
    if validate:
        _check_jacobi(algebra)
    return algebra


def _coefficient(c) -> Fraction:
    """frac(c); int() reads an integer string faster (not with "_": Fraction < 3.11 refuses it)."""
    try:
        return Fraction(int(c)) if type(c) is str and "_" not in c else frac(c)
    except ValueError:
        return frac(c)


def _triple(nz, a: int, b: int, c: int, acc: dict, negate: bool = False) -> dict:
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


@_memoized
def _check_jacobi(g: LieAlgebra) -> bool:
    """Raise JacobiError on the first basis triple i < j < k with a nonzero
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]; the three cyclic
    terms are summed into one dict over the constants scaled to integers,
    and the defect carried is divided back by den^2. True otherwise: the memo
    entry of a pass is g's Jacobi verdict (:func:`_jacobi_known`).
    """
    n = g.dim
    den, nz = g._int_constants()
    for i, j, k in itertools.combinations(range(n), 3):
        defect = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            _triple(nz, a, b, c, defect)
        if any(defect.values()):
            raise JacobiError(
                (i, j, k), tuple(Fraction(defect.get(m, 0), den * den) for m in range(n))
            )
    return True


def _jacobi_known(g: LieAlgebra) -> bool:
    """Whether g's table is known to satisfy the Jacobi identity: it passed
    :func:`_check_jacobi`, or a construction that keeps the identity built it from
    inputs known to satisfy it. The verdict is g's memo entry of the check, read
    without checking. A table from ``LieAlgebra(...)`` or ``build(validate=False)``
    has none, unless an equal table that had one was alive at its first memo access."""
    return _peek(g, _check_jacobi) is True


def _reductive(g: LieAlgebra) -> bool:
    """Whether g is semisimple (Killing rank dim g) or g = z(g) + [g,g] with Killing rank
    dim [g,g]. When g = z(g) + [g,g], ad_x ad_y for x, y in [g,g] kills z(g) and maps into
    [g,g], so kappa has the rank of B kappa B^T, the Killing form of [g,g]: with the Jacobi
    identity, [g,g] is then semisimple (Cartan's criterion). An abelian g has rank 0."""
    rank, comm = g._killing_rank(), g.commutator_algebra()
    return rank == g.dim or (rank == comm.dim and g.center().dim + rank == g.dim
                             and g.center().sum(comm).is_full())


def _peek(g, fn):
    """The memoized fn(g) when the memo holds it, else None; computes nothing."""
    return _entries(g).get((fn.__wrapped__, ()))


def _record(g, fn, value):
    """Put value in the memo as the memoized fn(g), unless it holds that already."""
    _entries(g).setdefault((fn.__wrapped__, ()), value)


def _inherit_jacobi(g: LieAlgebra, *sources: LieAlgebra) -> LieAlgebra:
    """Record the Jacobi verdict for g when every one of ``sources`` has it
    (at once when there are none), and return g. For constructions whose
    result satisfies the identity whenever their inputs do."""
    if all(map(_jacobi_known, sources)):
        _record(g, _check_jacobi, True)
    return g


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

    ``"dim"``, ``"left"`` and ``"right"`` must be JSON integers;
    ``"basis"``, when given, must be a list of ``dim`` distinct strings; each
    bracket pair and each coefficient index within a pair must be given
    once; coefficients are ints or strings such as ``"1/10"``, never floats.
    ValueError otherwise.
    """
    dim = _json_int(data, "dim")
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
        i, j = _json_int(entry, "left"), _json_int(entry, "right")
        value = {int(k): c for k, c in entry["value"].items()}
        if (i, j) in brackets:
            raise ValueError("bracket (%d, %d) is given more than once" % (i, j))
        if len(value) < len(entry["value"]):
            raise ValueError("bracket (%d, %d) names a coefficient index more than once" % (i, j))
        if any(isinstance(c, float) for c in value.values()):
            raise ValueError('bracket (%d, %d) has a float coefficient; write exact values as '
                             'strings such as "1/10"' % (i, j))
        brackets[(i, j)] = value
    return build(dim, brackets, names=names, validate=validate)


def _json_int(data: Mapping, field: str) -> int:
    """``data[field]``; ValueError unless it is an int (not a float, bool or string)."""
    value = data[field]
    if type(value) is not int:
        raise ValueError('"%s" must be an integer, got %r' % (field, value))
    return value
