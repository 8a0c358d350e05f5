"""Spaces of endomorphisms attached to a Lie algebra.

Derivations, inner derivations, the centroid, the two-sided annihilator
space J(g), and commutants of matrix families. Derivations are the exact
kernel of a sparse linear system over the dim^2 matrix entries (row-major
flattening, columns are images of basis vectors), assembled by one Leibniz
row generator; the centroid and commutants are the exact kernel of a spun
system over far fewer unknowns (below); J(g) is built in closed form.
Constants are scaled to integers over one common denominator, once per
table (``_int_constants``), so every row is a ``{col: int}`` map that the
integer echelon takes as it is. An endomorphism has one form in the core:
den times its columns, each the nonzero (row, int) pairs, as ``_compose`` and
``_apply`` take them. ``_int_endos`` reads it off a space's int basis rows
for coordinates in that basis; Cent's table, the idempotents, J and the N/S
split are built and checked on it, and a ``Matrix`` only for a public value.

Where Der and Cent come from. When g is known to satisfy the Jacobi identity
(see ``lie._jacobi_known``), two exact facts cut the work:

- If g is reductive (``lie._reductive``: the Killing form is nondegenerate,
  or g = z(g) + [g,g] and its rank is dim [g,g]), then [g,g] is semisimple
  (Cartan's criterion) and Der(g) = ad(g) + J(g), read off the span of the
  ad e_i and the closed form of J with no Leibniz rows at all; J(g) = 0
  when g is semisimple (:func:`derivations`). Cent of a semisimple g is a
  product of fields, so the radical of its table is 0, recorded as such
  when the Killing rank is already known (:func:`_centroid_table`).
- Otherwise {x : D[x,y] = [Dx,y] + [x,Dy] for all y} and {x : f ad_x =
  ad_x f} are subalgebras, so for a set S of basis vectors that generates g
  the Leibniz rows of the pairs that meet S give Der, and the commutant of
  the ad e_s, s in S, is Cent. S comes from one greedy pass, and is used
  only once the span of its iterated brackets is checked to be all of g.

A table with no Jacobi verdict, or no generating set smaller than its
basis, takes every Leibniz row and the ad of every basis vector.

One spinner (:class:`_Spinner`) serves the generating set and every
commutant: the span of seed vectors closed under operators, grown by a new
seed or a new operator (Parker's MeatAxe). S spins its own basis vectors
under their ad. Cent, and every commutant {f : f A = A f for A in ops},
spins the e_i (Cent's by descending bracket count, so that one often
suffices) under the fixed ops until seeds v_1..v_m and their images span
Q^n, each spun vector an exact word image b = A b'. A commuting f has f(b) =
A f(b'), so it is fixed by w = (f(v_1), ..., f(v_m)), m n unknowns instead
of n^2, and f -> w is injective on the commutant. Conversely a w extends to
a commuting f exactly when f(A b) = A f(b) holds for every spun b and
operator A: commutation checked on a basis. The pairs whose image is already
in the span add one block of rows each, read with the map back to f off one
tagged echelon of [B | I]. They stream into one ``kernel_of_rows``, in rounds
across the seeds' orbits, reading the echelon they feed: at a block that adds
no pivot, once each seed's n columns hold one, the kernel K' so far is mapped
back and checked to commute with every operator. K' holds the kernel K of all
the blocks, and the map back gives f(b_k) = F_k w, so a w in K' whose f
commutes satisfies every relation: if all pass, K' = K and the stream ends.
A failed check waits for the rows fed to double; a stream that runs out is
checked, and raises on a failure, as it does unless the identity is in the
kernel. :func:`commutant_system` keeps the n^2 unknowns; it is the tests'
independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, takewhile, zip_longest
from math import lcm
from typing import Optional, Sequence

from .errors import LiestructError, PreconditionError
from .lie import (LieAlgebra, _integral, _jacobi_known, _memoized, _peek, _polynomials_in,
                  _record, _reductive, _scaled, _StructureTable)
from .linalg import (_SOLVES, Matrix, Subspace, _echelon, _kernel, _primitive, _reduce,
                     _span, kernel_of_rows)
from .poly import _semisimple_polynomial

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
        _, source = source._int_constants()
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
    scaled over one common denominator first. The library computes
    commutants by spinning (:func:`_commutant`); these rows over all n^2
    entries are the independent oracle its tests compare with.
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


def _apply(op, v) -> dict:
    """A v as ``{row: int}``, for an operator A given by its int columns (as
    :func:`commutant_system` takes them) and v as (index, int) pairs."""
    out = {}
    for s, x in v:
        for r, a in op[s]:
            out[r] = out.get(r, 0) + a * x
    return {r: x for r, x in out.items() if x}


def _compose(a, b) -> dict:
    """The product a b of two operators given by their int columns, as
    ``{index: int}`` of its nonzero entries, row-major as :func:`_flat`."""
    out, n = {}, len(b)
    for c, col in enumerate(b):
        for s, y in col:
            for r, x in a[s]:
                out[r * n + c] = out.get(r * n + c, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _flat(op) -> dict:
    """The int columns of an operator, flattened row-major as ``{index: int}``."""
    n = len(op)
    return {r * n + c: x for c, col in enumerate(op) for r, x in col}


def _int_endos(space: EndoSpace, coords) -> tuple:
    """(den, ops): den sum_k c_k b_k over the canonical basis b_k of ``space`` for each map
    c = {k: value} in ``coords``, as int columns (:func:`_compose`) over one den."""
    n, basis = space.n, [(row, row[c]) for c, row in space.space._rows.items()]
    coords = [_scaled({k: Fraction(x, basis[k][1]) for k, x in c.items()}) for c in coords]
    den, ops = lcm(*(over for over, _ in coords)), []
    for over, c in coords:  # b_k = r_k / p_k, int row over pivot entry: c_k b_k = c'_k r_k / over
        acc, cols = {}, [[] for _ in range(n)]
        for k, x in c.items():
            for p, v in basis[k][0].items():
                acc[p] = acc.get(p, 0) + den // over * x * v
        for p, x in acc.items():
            if x:
                cols[p % n].append((p // n, x))
        ops.append(cols)
    return den, ops


def _public(den: int, op) -> Matrix:
    """The Matrix of op / den, for op given by its int columns."""
    n = len(op)
    return Matrix.unflatten({p: Fraction(x, den) for p, x in _flat(op).items()}, n, n)


def _apply_block(op, block: dict, c: int = 1) -> dict:
    """c A F for an int operator A (columns) and a block F as rows ``{row: {col: int}}``."""
    out = {}
    for s, row in block.items():
        for r, a in op[s]:
            acc, a = out.setdefault(r, {}), a * c
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + a * x
    return {r: {j: x for j, x in acc.items() if x} for r, acc in out.items()}


def _residue(pivots: dict, v: dict) -> dict:
    """v reduced against the echelon rows ``pivots``, keyed by their leading column,
    until its leading column holds no pivot."""
    while v:
        c = min(v)
        if c not in pivots:
            break
        v = _reduce(v, pivots[c], c)
    return v


class _Spinner:
    """The span of seed vectors closed under a growing list of int operators
    (columns, as :func:`_apply` takes them), spun breadth first in Q^n.

    ``basis[k]`` is each vector that grew the span, as it was made: a seed
    (``parents[k]`` is None) or the exact image A b_j of an earlier vector
    under the operator of index a (``parents[k]`` is (j, a)). The span itself
    is an echelon of primitive int rows keyed by their leading column.
    ``applied[k]`` counts the operators already applied to b_k, so a new seed
    or a new operator closes the span again by taking only the images not yet
    taken. Spinning stops once the span is all of Q^n.
    """

    def __init__(self, n: int, ops=()):
        self.n, self.ops = n, list(ops)
        self.pivots, self.basis, self.parents, self.applied = {}, [], [], []

    def push(self, v: dict) -> bool:
        """Add the seed v and close the span again; False when v was in it."""
        new = self._grow(v, None)
        self._close()
        return new

    def add(self, op):
        """Add the operator op and close the span under it."""
        self.ops.append(op)
        self._close()

    def _grow(self, v: dict, parent) -> bool:
        """Take v, made by ``parent``, into the basis when it is outside the span."""
        r = len(self.basis) < self.n and _residue(self.pivots, dict(v))
        if not r:
            return False
        self.pivots[min(r)] = _primitive(r)
        self.basis.append(v)
        self.parents.append(parent)
        self.applied.append(0)
        return True

    def _close(self):
        k, ops = 0, self.ops
        while k < len(self.basis) < self.n:
            while self.applied[k] < len(ops):
                a = self.applied[k]
                self.applied[k] = a + 1
                self._grow(_apply(ops[a], self.basis[k].items()), (k, a))
            k += 1


def _by_brackets(nz) -> list[int]:
    """The basis indices of ``nz`` by descending count of nonzero brackets, ties by index."""
    return sorted(range(len(nz)), key=lambda i: (-sum(1 for v in nz[i] if v), i))


def _greedy_generators(nz) -> list[int]:
    """Basis indices that generate the algebra of the structure constants ``nz``,
    in one pass over the basis, taken in :func:`_by_brackets` order: an index joins
    when it is not in what the earlier ones generate, the span of the joined ones
    closed under their ad."""
    spin, gens = _Spinner(len(nz)), []
    for i in _by_brackets(nz):
        if spin.push({i: 1}):
            gens.append(i)
            spin.add(nz[i])
    return gens


def _generates(nz, gens) -> bool:
    """The certificate: the iterated brackets of the basis vectors ``gens`` span
    everything, as the span of ``gens`` closed under their ad."""
    spin = _Spinner(len(nz), [nz[s] for s in gens])
    for s in gens:
        spin.push({s: 1})
    return len(spin.basis) == len(nz)


@_memoized
def _generators(g: LieAlgebra) -> Optional[frozenset]:
    """A set S of basis indices that generates g, checked by :func:`_generates`,
    when g is known to satisfy the Jacobi identity and S is smaller than the
    basis; None otherwise, and then every basis index contributes rows."""
    if not _jacobi_known(g):
        return None
    _, nz = g._int_constants()
    gens = _greedy_generators(nz)
    if len(gens) == g.dim or not _generates(nz, gens):
        return None
    return frozenset(gens)


def _spin_relations(spin: _Spinner, images, tagged):
    """Blocks of rows {col: int} of alpha A F_k + sum_j tau_j F_j = 0, one of up to n rows
    for each vector b_k and operator A with A b_k in the span (every pair that made no
    vector), alpha A b_k + sum_j tau_j b_j = 0 read off the tags of A b_k (its own tag in
    column 2n) reduced against the tagged echelon ``tagged`` of [B | I], B the spinner's
    basis; b_k in rounds across the seeds' orbits: each seed's first spun vector, then..."""
    ops, n, made, orbit = spin.ops, spin.n, set(spin.parents), []
    for k, parent in enumerate(spin.parents):  # orbit[k]: b_k's orbit, one list its vectors share
        orbit.append(orbit[parent[0]] if parent else [])
        orbit[k].append(k)
    rounds = zip_longest(*(orbit[k] for k, parent in enumerate(spin.parents) if not parent))
    for k in (k for rnd in rounds for k in rnd if k is not None):
        for a, op in enumerate(ops):
            if (k, a) in made:
                continue
            tags = _residue(tagged, {**_apply(op, spin.basis[k].items()), 2 * n: 1})
            block = _apply_block(op, images[k], tags.pop(2 * n))  # times alpha
            for t, tau in tags.items():
                for r, row in images[t - n].items():
                    acc = block.setdefault(r, {})
                    for j, x in row.items():
                        acc[j] = acc.get(j, 0) + tau * x
            yield [r for row in block.values() if (r := {j: x for j, x in row.items() if x})]


def _commutant(ops, n: int, kind: str, order) -> EndoSpace:
    """{f : f A = A f for every A in ``ops``}, n x n operators as int columns.

    The e_i are pushed in the index ``order`` into a :class:`_Spinner` of ``ops``
    (module docs); f(b_k) = F_k w for w = (f(e_i)) over its seeds, where F_k
    is the identity on the seed's block of w, and A F_j for b_k = A b_j. The
    kernel of the blocks of :func:`_spin_relations`, or of a certified prefix
    (module docs), maps back by f(e_c) = sum_k lambda_ck f(b_k) / p_c, p_c e_c =
    sum_k lambda_ck b_k read off the tagged echelon of [B | I] that gave the
    relations. ``kind`` names the space, in the result and in any error.
    """
    spin = _Spinner(n, ops)
    for i in order:
        spin.push({i: 1})
    images, seeds = [], []
    for b, parent in zip(spin.basis, spin.parents):
        if parent is None:
            images.append({r: {len(seeds) * n + r: 1} for r in range(n)})
            seeds.append(min(b))
        else:
            images.append(_apply_block(ops[parent[1]], images[parent[0]]))
    tagged = {}
    _echelon(({**b, n + k: 1} for k, b in enumerate(spin.basis)), tagged)
    den = lcm(*(row[c] for c, row in tagged.items()))
    back = [[(k - n, x * (den // row[c])) for k, x in row.items() if k >= n]
            for c, row in sorted(tagged.items())]
    m, cert = len(seeds), []  # cert: a certified prefix kernel and its maps

    def commuting(w):  # den f as int columns for the kernel vector w, or None unless f A = A f
        fb, t = [], 0  # f(b_k): the seeds' part of w, or A f(b_j) for b_k = A b_j
        for parent in spin.parents:
            if parent is None:
                fb.append(tuple((r, w[t * n + r]) for r in range(n) if t * n + r in w))
                t += 1
            else:
                fb.append(tuple(_apply(ops[parent[1]], fb[parent[0]]).items()))
        f = [tuple(_apply(fb, lam).items()) for lam in back]  # f(e_c) times den
        return f if all(_compose(f, op) == _compose(op, f) for op in ops) else None

    def relations():  # the blocks, until a prefix is certified (module docs)
        live, fed, due, seen, bare = _SOLVES[-1] if _SOLVES else {}, 0, 0, 0, set(range(m))
        for block in _spin_relations(spin, images, tagged):
            rank = len(live)
            yield block  # resumed once its last row is in the echelon
            fed += len(block)
            if block and len(live) == rank and fed >= due:
                # the seeds with no pivot in their n columns; new pivots come last
                bare.difference_update(c // n for c in islice(live, seen, None))
                seen = rank
                if not bare:  # the kernel so far, highest free column (likeliest to fail) first
                    prefix = _kernel(live, m * n)
                    fs = list(takewhile(bool, map(commuting, reversed(prefix._rows.values()))))
                    if len(fs) == prefix.dim:
                        cert[:] = prefix, fs
                        return
                    due = 2 * fed

    ker = kernel_of_rows(chain.from_iterable(relations()), m * n)
    if not ker.contains({t * n + i: 1 for t, i in enumerate(seeds)}):
        raise LiestructError("%s: the identity fails the spun relations" % kind)
    found = cert[1] if cert and cert[0] == ker else [*map(commuting, ker._rows.values())]
    if not all(found):
        raise LiestructError("%s: a spun element fails f A = A f" % kind)
    return EndoSpace(kind, n, _span(map(_flat, found), n * n))


@_memoized
def derivations(g: LieAlgebra) -> EndoSpace:
    """Der(g) = {D : D[x,y] = [Dx,y] + [x,Dy]}.

    Der(g) = ad(g) + J(g) when g satisfies the Jacobi identity and is
    reductive (``lie._reductive``), so that [g,g] is semisimple: D maps z(g)
    into z(g), as [Dz, x] = D[z, x] - [z, Dx] = 0, and [g,g] into [g,g], so D
    on [g,g] is a derivation of a semisimple algebra, ad x for some x in
    [g,g]. D - ad x then maps g = z(g) + [g,g] into z(g) and kills [g,g]: it
    is in J(g). Otherwise the kernel of the Leibniz rows, for the pairs that
    meet the generating set of :func:`_generators`.
    """
    n = g.dim
    if _jacobi_known(g) and _reductive(g):
        return EndoSpace("derivations", n, inner_derivations(g).space.sum(j_space(g).space))
    rows = _leibniz_rows(g, None, None, _generators(g))
    return EndoSpace("derivations", n, kernel_of_rows(rows, n * n))


@_memoized
def inner_derivations(g: LieAlgebra) -> EndoSpace:
    """Span of the adjoint maps; dim = dim g - dim z(g)."""
    n = g.dim
    return EndoSpace("inner", n, _span(g._flat_left(), n * n))


@_memoized
def centroid(g: LieAlgebra) -> EndoSpace:
    """Cent(g) = {f : f ad_x = ad_x f for all x}; contains the identity.

    x ranges over the generating set of :func:`_generators`, or over the
    basis when there is none; the commutant of those ad x is spun by
    :func:`_commutant`, from seeds in :func:`_by_brackets` order.
    """
    n, gens, nz = g.dim, _generators(g), g._int_constants()[1]
    # column j of ad e_i is [e_i, e_j]: the ad e_i are g's scaled nonzero lists as they stand
    return _commutant([nz[s] for s in sorted(gens or range(n))], n, "centroid", _by_brackets(nz))


@_memoized
def j_space(g: LieAlgebra) -> EndoSpace:
    """J(g) = {phi : ad_x phi = 0 = phi ad_x for all x} = Hom(g/[g,g], z(g)).

    ad_x phi = 0 for all x puts the image of phi in the center, and
    phi ad_x = 0 for all x makes phi vanish on [g,g]. So J(g) is spanned by
    the outer products z w^T, with z in a basis of z(g) and w in a basis of
    the annihilator of [g,g]; it is zero when the center is.
    """
    n = g.dim
    center = g.center()._rows.values()
    if not center:
        return EndoSpace("j_space", n, Subspace.zero(n * n))
    ann = kernel_of_rows(map(dict, g.commutator_algebra()._rows.values()), n)._rows.values()
    outer = [{i * n + j: a * b for i, a in z.items() for j, b in w.items()}
             for z in center for w in ann]
    return EndoSpace("j_space", n, _span(outer, n * n))


def module_commutant(rep: Sequence[Matrix]) -> EndoSpace:
    """Commutant {T : T rho = rho T for every rho in rep}, spun by :func:`_commutant`."""
    rep = list(rep)
    if not rep:
        raise ValueError("empty representation; ambient size unknown")
    n = rep[0].nrows
    for m in rep:
        if not m.is_square() or m.nrows != n:
            raise ValueError("representation matrices must be square of one size")
    # column j of each op lists (k, den rho_kj), as _commutant takes them
    return _commutant(_integral([[[(k, x) for k, x in enumerate(col) if x] for col in zip(*m.rows)]
                                 for m in rep])[1], n, "commutant", range(n))


def _algebra_table(space: EndoSpace) -> _StructureTable:
    """Multiplication table of a matrix algebra holding the identity: ``[i][j]`` holds the
    coordinates of b_i b_j, its entries at the pivots of the echelon basis, read off the
    composed int columns of den b_i and den b_j over den^2 (:func:`_int_endos`); its unit
    is the identity's coordinates, 1 at the diagonal pivots."""
    n, d, pivots = space.n, space.dim, space.space.pivots
    den, ops = _int_endos(space, ({k: 1} for k in range(d)))
    return _StructureTable(["b%d" % i for i in range(d)], {
        (i, j): {k: Fraction(ab[p], den * den) for k, p in enumerate(pivots) if p in ab}
        for i, a in enumerate(ops) for j, b in enumerate(ops) for ab in (_compose(a, b),)},
        [int(p % (n + 1) == 0) for p in pivots])


@_memoized
def _centroid_table(g: LieAlgebra) -> _StructureTable:
    """Cent(g)'s table, with its radical recorded as 0 when g has a Jacobi verdict and a Killing
    rank dim g in the memo (never computed here): Cent of a semisimple g is a product of fields."""
    table = _algebra_table(centroid(g))
    if _jacobi_known(g) and _peek(g, LieAlgebra._killing_rank) == g.dim:
        _record(table, _StructureTable._radical, Subspace.zero(table.dim))
    return table


def check_abelian(space: EndoSpace, table: _StructureTable):
    """Raise PreconditionError naming the first noncommuting pair in ``space``'s table."""
    pair = table._noncommuting_pair()
    if pair:
        raise PreconditionError("%s is not commutative: basis elements %d and %d do not "
                                "commute" % (space.kind, *pair))


@_memoized
def split_centroid(g: LieAlgebra) -> tuple[EndoSpace, EndoSpace]:
    """Split an abelian centroid into nilpotent and semisimple parts.

    N is the radical of Cent's table (``_StructureTable._radical``). S is
    spanned by the semisimple parts s(b) of the basis elements b off N's
    pivots: on a commutative algebra s is linear with kernel N, so they span
    s(Cent). Each s(b) = P(b), P by Newton in Q[t]/(m)
    (``poly._semisimple_polynomial``), from b's Krylov vectors on Cent's table
    (``lie._polynomials_in``). Both come back to End(g) as int columns
    (:func:`_int_endos`), flattened. When N = 0, S = Cent. N + S = Cent,
    direct, is checked in End(g).
    """
    cent = centroid(g)
    table = _centroid_table(g)
    check_abelian(cent, table)
    n, rad = g.dim, table._radical()
    semi = [dict(enumerate(at(_semisimple_polynomial(m))))
            for m, at in (_polynomials_in(table, {b: 1})
                          for b in range(cent.dim) if rad.dim and b not in rad.pivots)]
    _, ops = _int_endos(cent, [*rad._rows.values(), *semi])
    flats = [_flat(op) for op in ops]
    nspace = EndoSpace("nilpotent_part", n, _span(flats[:rad.dim], n * n))
    sspace = EndoSpace("semisimple_part", n, _span(flats[rad.dim:], n * n) if semi else cent.space)
    total = nspace.space.sum(sspace.space)
    if total != cent.space or total.dim != nspace.dim + sspace.dim:
        raise PreconditionError(
            "nilpotent/semisimple parts do not split the centroid "
            "(is the centroid really abelian?)"
        )
    return nspace, sspace
