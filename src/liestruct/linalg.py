"""Exact linear algebra over the rationals.

Everything in this package reduces to rank/kernel/solve computations over Q.
Scalars are ``fractions.Fraction``; matrices and subspace bases are immutable
dense row-major grids. The elimination core takes rows either dense or as
sparse ``{col: value}`` maps, clears denominators and reduces sparse
``{col: int}`` rows (plain Python ints are much faster than Fraction
arithmetic, and constraint systems are mostly zeros), then normalizes back to
monic-pivot reduced row echelon form over Q, building Fractions only for the
nonzero entries of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


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


class Matrix:
    """An immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: tuple[Vector, ...] = tuple(vector(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([unit_vector(n, i) for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([zero_vector(ncols) for _ in range(nrows)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Fraction]]) -> "Matrix":
        if not cols:
            return Matrix([])
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))])

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
        return Matrix(
            [add_vectors(r, s) for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        ocols = other.ncols
        out = []
        for r in self.rows:
            acc = [Fraction(0)] * ocols
            for k, a in enumerate(r):
                if a:
                    orow = other.rows[k]
                    for j in range(ocols):
                        if orow[j]:
                            acc[j] += a * orow[j]
            out.append(acc)
        return Matrix(out)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product (v as a column)."""
        if len(v) != self.ncols:
            raise ValueError("vector length %d != %d columns" % (len(v), self.ncols))
        return tuple(
            sum((a * x for a, x in zip(r, v) if a), Fraction(0)) for r in self.rows
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
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
    def unflatten(v: Sequence[Fraction], nrows: int, ncols: int) -> "Matrix":
        if len(v) != nrows * ncols:
            raise ValueError("cannot reshape %d entries to %dx%d" % (len(v), nrows, ncols))
        return Matrix([v[i * ncols : (i + 1) * ncols] for i in range(nrows)])

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(r) + list(unit_vector(n, i)) for i, r in enumerate(self.rows)]
        rref, rank, pivots = _rref(aug, 2 * n)
        if rank < n or pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in rref])

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row/column index (i, p) maps to i*b.nrows + p."""
    zeros = (_ZERO,) * b.ncols
    out = []
    for arow in a.rows:
        for brow in b.rows:
            row = []
            for aij in arow:
                row.extend([aij * x for x in brow] if aij else zeros)
            out.append(row)
    return Matrix(out)


# ---------------------------------------------------------------------------
# Elimination core (sparse integer rows for speed)
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer row by its content; sign of leading entry > 0."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _int_row(row) -> dict[int, int]:
    """Sparse primitive integer multiple ``{col: int}`` of a rational row.

    ``row`` is a dense sequence or a ``{col: value}`` map; zero entries are
    dropped before any arithmetic.
    """
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
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]
    return row


def _echelon(rows: Iterable, pivots: dict[int, dict[int, int]]):
    """Incremental integer echelon form.

    Fills ``pivots`` with pivot_column -> sparse ``{col: int}`` row and
    returns views of the pivot rows' entries, as pivot_column -> values.
    Rows are combined with exact cross-multiplication, so no fractions ever
    appear during elimination.
    """
    for raw in rows:
        row = _int_row(raw)
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = _primitive(row)
                break
            row = _reduce(row, prow, lead)
    # the views are what perfbench/tracing.py reads for the largest entry size
    return {c: prow.values() for c, prow in pivots.items()}


def _back_substitute(pivots: dict[int, dict[int, int]]) -> list[int]:
    """Clear each pivot column from the integer pivot rows above it, bottom-up,
    in place; returns the sorted pivot columns."""
    cols = sorted(pivots)
    for idx in range(len(cols) - 1, -1, -1):
        c = cols[idx]
        prow = pivots[c]
        for c2 in cols[:idx]:
            if c in pivots[c2]:
                pivots[c2] = _primitive(_reduce(pivots[c2], prow, c))
    return cols


def _rref(rows: Iterable, ncols: int):
    """Reduced row echelon form.

    Returns (rref_rows as lists of Fractions, rank, pivot column list). The
    back-substitution stays on sparse integer rows; Fractions are made only
    for the nonzero entries of the result.
    """
    pivots: dict[int, dict[int, int]] = {}
    _echelon(rows, pivots)
    cols = _back_substitute(pivots)
    out = []
    for c in cols:
        row = pivots[c]
        lead = row[c]
        dense = [_ZERO] * ncols
        for j, v in row.items():
            dense[j] = Fraction(v, lead)
        out.append(dense)
    return out, len(cols), cols


def row_reduce(m: Matrix):
    """Unique reduced row echelon form of ``m``.

    Returns (rref: Matrix, rank: int, pivots: tuple of column indices).
    """
    rref_rows, rank, pivots = _rref(m.rows, m.ncols)
    padded = rref_rows + [list(zero_vector(m.ncols)) for _ in range(m.nrows - rank)]
    return Matrix(padded), rank, tuple(pivots)


def kernel_basis(m: Matrix) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    return kernel_of_rows(m.rows, m.ncols)


def kernel_of_rows(rows: Iterable, ncols: int) -> "Subspace":
    """Kernel of the linear map given by an (implicit) stack of rows.

    Each row is a dense sequence of ``ncols`` rationals or a sparse
    ``{col: value}`` map with no zero entries. Rows are streamed through the
    sparse integer echelon, so callers can assemble large constraint systems
    lazily and never materialize their zeros.

    Column j is eliminated as ncols-1-j, so each reduced pivot row reads
    x_c + sum a_cj x_j = 0 over free columns j < c. The vector of free column
    j has its 1 at j and -a_cj at pivot columns c > j only, where the other
    kernel vectors are zero: the canonical RREF basis, read off directly.
    """
    last = ncols - 1
    pivots: dict[int, dict[int, int]] = {}
    _echelon(
        ({last - j: x for j, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
         for r in rows),
        pivots,
    )
    _back_substitute(pivots)
    free = [j for j in range(ncols) if last - j not in pivots]
    basis = {j: [_ZERO] * j + [Fraction(1)] + [_ZERO] * (last - j) for j in free}
    for p, row in pivots.items():
        lead, c = row[p], last - p
        for k, v in row.items():
            if k != p:
                basis[last - k][c] = Fraction(-v, lead)
    return Subspace._make(basis.values(), ncols, free)


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """Some solution x of m x = b, or None when inconsistent.

    Free variables are set to 0, so the answer is deterministic.
    """
    if len(b) != m.nrows:
        raise ValueError("right-hand side length %d != %d rows" % (len(b), m.nrows))
    b = vector(b)
    aug = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    rref_rows, rank, pivots = _rref(aug, m.ncols + 1)
    if m.ncols in pivots:
        return None
    x = [Fraction(0)] * m.ncols
    for r, c in enumerate(pivots):
        x[c] = rref_rows[r][m.ncols]
    return tuple(x)


class Subspace:
    """A subspace of Q^n held in canonical (RREF) form.

    Two subspaces are equal iff they have the same row set, so equality of
    the canonical form is equality of subspaces.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, *_):
        raise TypeError("use Subspace.span / Subspace.zero / Subspace.full")

    @classmethod
    def _make(cls, rows, ambient, pivots):
        self = object.__new__(cls)
        self.ambient_dim = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        return self

    @classmethod
    def span(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        rref_rows, rank, pivots = _rref(vecs, ambient_dim)
        return cls._make(rref_rows, ambient_dim, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._make([], ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._make(
            [unit_vector(ambient_dim, i) for i in range(ambient_dim)],
            ambient_dim,
            list(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def _eliminate(self, v: Sequence[Fraction]) -> tuple[list, list]:
        """(residue, coefficients) of v after elimination against the canonical basis."""
        v = list(vector(v))
        coeffs = []
        for row, c in zip(self.rows, self.pivots):
            coeff = v[c]
            coeffs.append(coeff)
            if coeff:
                for j in range(c, self.ambient_dim):
                    if row[j]:
                        v[j] -= coeff * row[j]
        return v, coeffs

    def reduce(self, v: Sequence[Fraction]) -> Vector:
        """Residue of v after elimination against the canonical basis."""
        return tuple(self._eliminate(v)[0])

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self._eliminate(v)[0])

    def coordinates(self, v: Sequence[Fraction]) -> Optional[Vector]:
        """Coefficients of v in the canonical basis, or None if outside."""
        residue, coeffs = self._eliminate(v)
        return None if any(residue) else tuple(coeffs)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(list(self.rows) + list(other.rows), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system."""
        self._check_ambient(other)
        if self.is_full():
            return other
        if other.is_full():
            return self
        # x in both spans: x = sum u_i a_i = sum v_j b_j;
        # solve [A^T | -B^T] (u; v) = 0 and map the u-part through A.
        a, b = self.rows, other.rows
        if not a or not b:
            return Subspace.zero(self.ambient_dim)
        stacked = [
            [ (a[i][r] if i < len(a) else -b[i - len(a)][r]) for i in range(len(a) + len(b)) ]
            for r in range(self.ambient_dim)
        ]
        ker = kernel_of_rows(stacked, len(a) + len(b))
        vecs = []
        for k in ker.rows:
            u = k[: len(a)]
            vecs.append([
                sum((u[i] * a[i][r] for i in range(len(a)) if u[i]), Fraction(0))
                for r in range(self.ambient_dim)
            ])
        return Subspace.span(vecs, self.ambient_dim)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
