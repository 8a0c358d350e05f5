"""Exact linear algebra over the rationals.

Everything in this package reduces to rank/kernel/solve computations over Q.
Scalars are ``fractions.Fraction``; matrices are immutable dense row-major
grids. The elimination core takes rows either dense or as sparse ``{col:
value}`` maps, clears denominators and reduces sparse ``{col: int}`` rows
(plain Python ints are much faster than Fraction arithmetic, and constraint
systems are mostly zeros); rows that are already ``{col: int}`` maps, as the
constraint generators in ``endo`` yield, enter as they are. The echelon
keeps every pivot row reduced, so a redundant row is cleared by each pivot
once, with no fill-in; a row's pivot is its smallest column for a span, its
largest for a kernel, whose canonical basis is then read off in natural
column order. A subspace keeps the echelon's int rows, which the core reads
as they stand; Fractions are built only for its public views.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_INT, _FRACTION, _EXACT = frozenset((int,)), frozenset((Fraction,)), frozenset((int, Fraction))
_SOLVES: list = []  # the echelon of each kernel_of_rows call in progress, innermost last


def frac(x) -> Fraction:
    """Coerce ints, strings like "2/3", and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def add_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _dense(entries, n: int) -> list:
    """The length-n list with the (index, value) ``entries`` and zeros elsewhere."""
    out = [_ZERO] * n
    for j, x in entries:
        out[j] = x
    return out


class Matrix:
    """An immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: tuple[Vector, ...] = tuple(vector(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def _trusted(cls, rows: Iterable[Vector]) -> "Matrix":
        """A matrix on ``rows``, equal-length tuples of Fractions, taken as they are."""
        self = object.__new__(cls)
        self.rows = tuple(rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        return self

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._trusted(unit_vector(n, i) for i in range(n))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix._trusted((zero_vector(ncols),) * nrows)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Fraction]]) -> "Matrix":
        return Matrix(cols).transpose()

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return "Matrix[%s]" % body

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(add_vectors(r, s) for r, s in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix._trusted(
            tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple(-a for a in r) for r in self.rows)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix._trusted(tuple(c * a for a in r) for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        ocols = other.ncols
        out = []
        for r in self.rows:
            acc = [_ZERO] * ocols
            for k, a in enumerate(r):
                if a:
                    orow = other.rows[k]
                    for j in range(ocols):
                        if orow[j]:
                            acc[j] += a * orow[j]
            out.append(tuple(acc))
        return Matrix._trusted(out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product (v as a column)."""
        if len(v) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(v), self.ncols))
        return tuple(
            sum((a * x for a, x in zip(r, v) if a), Fraction(0)) for r in self.rows
        )

    def transpose(self) -> "Matrix":
        return Matrix._trusted(zip(*self.rows))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power %d" % k)
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base_needed = k >> 1
            if base_needed:
                base = base @ base
            k = base_needed
        return result

    def flatten(self) -> Vector:
        """Row-major vectorization."""
        return tuple(x for r in self.rows for x in r)

    @staticmethod
    def unflatten(v, nrows: int, ncols: int) -> "Matrix":
        """Row-major entries ``v``, dense or as ``{index: Fraction}``, reshaped."""
        if isinstance(v, dict):
            v = _dense(v.items(), nrows * ncols)
        elif len(v) != nrows * ncols:
            raise ValueError("cannot reshape %d entries to %dx%d" % (len(v), nrows, ncols))
        return Matrix._trusted(tuple(v[i * ncols : (i + 1) * ncols]) for i in range(nrows))

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rref = _span([r + unit_vector(n, i) for i, r in enumerate(self.rows)], 2 * n)
        if rref.pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._trusted(row[n:] for row in rref.rows)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


# ---------------------------------------------------------------------------
# Elimination core (sparse integer rows for speed)
# ---------------------------------------------------------------------------

def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by its content; sign of leading entry > 0."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _int_row(row, width: int = None) -> dict[int, int]:
    """Sparse primitive integer multiple ``{col: int}`` of a rational row.

    ``row`` is a dense sequence, of ``width`` entries if that is given, or a
    ``{col: value}`` map; zero entries are dropped before any arithmetic.
    """
    if not isinstance(row, dict) and width is not None and len(row) != width:
        raise ValueError("row length %d != %d columns" % (len(row), width))
    items = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x]
    if not items:
        return {}
    den = lcm(*(x.denominator for _, x in items))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in items})


def _reduce(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Fraction-free elimination of column ``c`` from ``row`` by pivot row ``prow``."""
    a, b = prow[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1 or row is prow:  # else in place; a map streamed twice may be its own pivot
        row = {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]
    return row


def _echelon(rows: Iterable, pivots: dict[int, dict[int, int]], lead=min, width: int = None):
    """Incremental reduced integer echelon form.

    Fills ``pivots`` with pivot_column -> sparse primitive ``{col: int}`` row
    and returns views of the pivot rows' entries, as pivot_column -> values.
    ``lead`` (``min`` or ``max``, one per ``pivots``) picks a row's pivot. Each
    pivot row is zero in every other pivot column: the reduced row echelon
    form in ``lead``'s column order, up to scale. An incoming row is reduced
    once against the pivots whose columns it holds; those carry no other
    pivot column, so it gets no fill-in there, and a redundant row reaches
    zero in as many steps as it has pivot columns. A new pivot is cleared
    from the rows that hold its column, by exact cross-multiplication, as
    every step is. A map of nonzero ints enters as it is and may be reduced
    in place; other rows go through :func:`_int_row` (``width`` as there).
    Pivot rows are made primitive when stored.
    """
    # column -> pivot columns whose rows may hold it (a superset, checked on use)
    holders: dict[int, set[int]] = {}
    for c, prow in pivots.items():
        for j in prow:
            holders.setdefault(j, set()).add(c)
    for row in rows:
        if type(row) is not dict or not _INT.issuperset(map(type, vs := row.values())) or 0 in vs:
            row = _int_row(row, width)
        for c in [c for c in row if c in pivots]:
            row = _reduce(row, pivots[c], c)
        if row:
            p = lead(row)
            row = pivots[p] = _primitive(row)
            for c in holders.pop(p, ()):
                if p in pivots[c]:
                    pivots[c] = _primitive(_reduce(pivots[c], row, p))
                    for j in row:
                        holders.setdefault(j, set()).add(c)
            for j in row:
                holders.setdefault(j, set()).add(p)
    # the views are what perfbench/tracing.py reads for the largest entry size
    return {c: prow.values() for c, prow in pivots.items()}


def _span(rows: Iterable, ambient_dim: int) -> "Subspace":
    """The span of ``rows``, already valid for :func:`_echelon`, on its own pivot rows."""
    pivots: dict[int, dict[int, int]] = {}
    _echelon(rows, pivots)
    return Subspace._make(ambient_dim, pivots)


def _checked(v, n: int):
    """A public vector, dense or ``{col: value}``, checked against the ambient
    dimension n. Copied only if an entry is not an int or a Fraction (then coerced),
    or if it is a map holding an int: the echelon may reduce all-int maps in place."""
    if isinstance(v, dict):
        if not all(isinstance(j, int) and 0 <= j < n for j in v):
            raise ValueError("vector column outside 0..%d" % (n - 1))
        if _FRACTION.issuperset(map(type, v.values())):
            return v
        return {j: x if type(x) is int else frac(x) for j, x in v.items()}
    if not (isinstance(v, (tuple, list)) and _EXACT.issuperset(map(type, v))):
        v = vector(v)
    if len(v) != n:
        raise ValueError("vector length != ambient dimension")
    return v


def row_reduce(m: Matrix):
    """Unique reduced row echelon form of ``m``.

    Returns (rref: Matrix, rank: int, pivots: tuple of column indices).
    """
    rref = _span(m.rows, m.ncols)
    padded = rref.rows + (zero_vector(m.ncols),) * (m.nrows - rref.dim)
    return Matrix._trusted(padded), rref.dim, rref.pivots


def kernel_basis(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    return kernel_of_rows(m.rows, m.ncols)


def kernel_of_rows(rows: Iterable, ncols: int) -> "Subspace":
    """Kernel of the linear map given by an (implicit) stack of rows.

    Each row is a dense sequence of ``ncols`` rationals or a sparse
    ``{col: value}`` map over columns 0..ncols-1, else ValueError (maps are
    checked on the pivot rows, outside the columns exactly when their span
    is). Rows are streamed through the sparse integer echelon, so callers
    can assemble large constraint systems lazily and never materialize their
    zeros. A map of nonzero ints may be reduced in place (not to be read
    again); other rows are left as they are. While they stream in, the call's
    echelon is ``_SOLVES[-1]``, for a stream to read (:func:`_kernel`) and stop.
    """
    _SOLVES.append({})
    try:
        _echelon(rows, _SOLVES[-1], max, ncols)
        return _kernel(_SOLVES[-1], ncols)
    finally:
        _SOLVES.pop()


def _kernel(pivots: dict[int, dict[int, int]], ncols: int) -> "Subspace":
    """The kernel of the reduced echelon ``pivots`` of :func:`kernel_of_rows`. A
    row's pivot is its largest column, so each pivot row reads a_cc x_c + sum
    a_cj x_j = 0 over free columns j < c. The RREF vector of free column j has
    its 1 at j and -a_cj / a_cc at pivot columns c > j only, where the other
    kernel vectors are zero. Its primitive int multiple, positive at j (a_cc may
    be negative), scales it by s_j, the lcm of the reduced denominators a_cc /
    gcd(a_cc, a_cj) of the rows with j."""
    scale = {j: 1 for j in range(ncols) if j not in pivots}
    try:
        for c, row in pivots.items():
            if c not in range(ncols):
                raise KeyError(c)
            for j, v in row.items():  # free columns only: the row is reduced
                if j != c:
                    scale[j] = lcm(scale[j], row[c] // gcd(row[c], v))
    except KeyError as e:
        raise ValueError("row column %r outside 0..%d" % (e.args[0], ncols - 1)) from None
    basis = {j: {j: s} for j, s in scale.items()}
    for c, row in pivots.items():
        for j, v in row.items():
            if j != c:
                basis[j][c] = -v * scale[j] // row[c]
    return Subspace._make(ncols, basis)


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """Some solution x of m x = b, or None when inconsistent.

    Free variables are set to 0, so the answer is deterministic.
    """
    if len(b) != m.nrows:
        raise ValueError("right-hand side length %d != %d rows" % (len(b), m.nrows))
    n = m.ncols
    rref = _span([r + (bv,) for r, bv in zip(m.rows, vector(b))], n + 1)
    if n in rref.pivots:
        return None
    return tuple(_dense(((c, row[n]) for c, row in zip(rref.pivots, rref.rows)), n))


class Subspace:
    """A subspace of Q^n held in canonical form.

    Row i is the primitive int multiple of the i-th RREF row, positive at its
    pivot: the echelon's own pivot row, kept as ``{col: int}`` in column order
    and keyed by its pivot. That multiple is unique, so equal subspaces have
    equal int rows and hash equal. The views ``rows``, ``sparse_rows``,
    ``combine``, ``reduce`` and ``coordinates`` build Fractions for the RREF
    rows, 1 at each pivot; membership reduces one int row.
    """

    __slots__ = ("ambient_dim", "pivots", "_rows")

    def __init__(self, *_):
        raise TypeError("use Subspace.span / Subspace.zero / Subspace.full")

    @classmethod
    def _make(cls, ambient: int, rows: dict[int, dict[int, int]]) -> "Subspace":
        """From canonical int rows, pivot -> {col: int}, primitive and positive at the pivot."""
        self = object.__new__(cls)
        self.ambient_dim = ambient
        self.pivots = tuple(sorted(rows))
        self._rows = {c: dict(sorted(rows[c].items())) for c in self.pivots}
        return self

    @classmethod
    def span(cls, vectors: Iterable, ambient_dim: int) -> "Subspace":
        """Span of ``vectors``, each a dense sequence of ``ambient_dim``
        rationals or a sparse ``{col: value}`` map."""
        return _span((_checked(v, ambient_dim) for v in vectors), ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._make(ambient_dim, {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._make(ambient_dim, {i: {i: 1} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The canonical RREF basis as dense vectors, rebuilt on every read."""
        return tuple(tuple(_dense(row.items(), self.ambient_dim)) for row in self.sparse_rows())

    def sparse_rows(self) -> list[dict[int, Fraction]]:
        """The canonical RREF basis as ``{col: value}`` maps of the nonzero entries."""
        return [{j: Fraction(x, row[c]) for j, x in row.items()} for c, row in self._rows.items()]

    def combine(self, coeffs: Sequence[Fraction]) -> Vector:
        """The vector sum c_i b_i with coordinates ``coeffs`` in the canonical RREF basis."""
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count %d != dimension %d" % (len(coeffs), self.dim))
        out = [_ZERO] * self.ambient_dim
        for x, (c, row) in zip(coeffs, self._rows.items()):
            if x:
                x = Fraction(x, row[c])
                for j, v in row.items():
                    out[j] += x * v
        return tuple(out)

    def is_zero(self) -> bool:
        return not self._rows

    def is_full(self) -> bool:
        return len(self._rows) == self.ambient_dim

    def _residue(self, v) -> tuple[dict, int, dict[int, int]]:
        """(w, m, r) for v, dense or ``{col: value}``: w maps v's nonzero entries, and r / m
        is its residue against the canonical basis, an int map that each pivot row whose
        column v holds clears once (the rows are zero at each other's pivots)."""
        v = _checked(v, self.ambient_dim)
        w = {j: x for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}
        m, rows = lcm(*(x.denominator for x in w.values())), self._rows
        r = {j: x.numerator * (m // x.denominator) for j, x in w.items()}
        for c in [c for c in r if c in rows]:
            m *= rows[c][c] // gcd(rows[c][c], r[c])
            r = _reduce(r, rows[c], c)
        return w, m, r

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Residue of v after elimination against the canonical basis."""
        _, m, r = self._residue(v)
        return tuple(_dense(((j, Fraction(x, m)) for j, x in r.items()), self.ambient_dim))

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not self._residue(v)[2]

    def coordinates(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """Coefficients of v in the canonical RREF basis (its pivot entries), or None."""
        w, _, r = self._residue(v)
        return None if r else tuple(frac(w.get(c, 0)) for c in self.pivots)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other._rows.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return _span([dict(row) for row in (*self._rows.values(), *other._rows.values())],
                     self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The annihilator of the sum of the two annihilators."""
        self._check_ambient(other)
        n = self.ambient_dim
        # each annihilator is built here and read once: its rows may be reduced in place
        anns = [kernel_of_rows(map(dict, s._rows.values()), n) for s in (self, other)]
        return kernel_of_rows([row for ann in anns for row in ann._rows.values()], n)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(row.items()) for row in self._rows.values())))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
