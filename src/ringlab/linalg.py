"""Exact linear algebra over GF(p) and the rationals.

Matrices are immutable dense arrays of exact field elements.  There is one
Gauss-Jordan, the incremental ``Subspace``: ``null_space``, ``Matrix.rref``,
``rank`` and ``solve``, ``modp_rank`` and ``rational_rank`` fill one row by
row and read its rows and pivots.  Rows enter it dense or sparse ({column:
entry}, as the module engine and ``truncate`` build them) and go straight
into the kernel's form, with no per-entry ``coerce``; only the public
``Subspace.add``, ``contains`` and ``reduce`` check and coerce their input.  Over GF(2) that form is a row packed
into a Python int, so each row operation is a single XOR.  Elsewhere it is
an integer row: over q each row has its denominators cleared once, and rows
are combined as x * row_i - y * row_r, so no ``Fraction`` is built inside
the kernel.  The two fields differ only in how a row is normalized after
each operation: reduced mod p, or divided by the gcd of its entries over q.
Field elements are rebuilt only when rows leave the kernel: ``rref``, the
sparse vectors of ``null_space`` (``Matrix.kernel_basis`` is their dense
view), the rows and residuals of a ``Subspace``.  ``gf2_rank`` is the packed
rank-only screen that the subset-homology scans elsewhere in the package run
first; it keeps no echelon form.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import QQ, FieldSpec

# ---------------------------------------------------------------------------
# row helpers, the GF(2) rank screen and the rank functions
# ---------------------------------------------------------------------------


def gf2_pack(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pack 0/1 rows into ints, bit j <-> column j."""
    return [_pack_one(enumerate(row)) for row in rows]


def gf2_rank(packed: list[int]) -> int:
    """Rank of packed GF(2) rows (row-reduction without column order bookkeeping)."""
    basis: dict[int, int] = {}  # lowest-bit position -> row
    rank = 0
    for row in packed:
        while row:
            low = (row & -row).bit_length()
            b = basis.get(low)
            if b is None:
                basis[low] = row
                rank += 1
                break
            row ^= b
    return rank


def _integer_row(values) -> tuple[list[int], int]:
    """Rational values (ints or Fractions) as an integer row and a common
    denominator d, so that the values are row / d."""
    d = lcm(*(v.denominator for v in values))
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _clear(row: list[int], pr: list[int], c: int, p: int | None) -> tuple[list[int], int]:
    """x * row - y * pr, with x and y the entries of pr and row at column c over
    their gcd, so that column c becomes 0; returns the new row and x."""
    x, y = pr[c], row[c]
    g = gcd(x, y)
    x, y = x // g, y // g
    if p is None:
        return [x * a - y * b for a, b in zip(row, pr)], x
    return [(x * a - y * b) % p for a, b in zip(row, pr)], x


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _eliminate(row: list[int], pr: list[int], c: int, p: int | None) -> list[int]:
    """row with its column c cleared by pr, kept primitive over q."""
    row = _clear(row, pr, c, p)[0]
    return row if p is not None else _primitive(row)


def _quotient(v: int, x: int, p: int | None):
    """v / x as a field element."""
    return Fraction(v, x) if p is None else v * pow(x, -1, p) % p


def _kernel_row(field: FieldSpec, row, ncols: int):
    """A row of field elements, dense or sparse ({column: entry}), in the
    kernel's form: a packed int over GF(2), otherwise an integer row of length
    ncols, over q the row times the lcm of its denominators (no coerce)."""
    p = field.p
    if type(row) is not dict:
        return _pack_one(enumerate(row)) if p == 2 else row if p else _integer_row(row)[0]
    if p == 2:
        return _pack_one(row.items())
    d = 1 if p else lcm(*(v.denominator for v in row.values()))
    out = [0] * ncols
    for j, v in row.items():
        out[j] = v.numerator * (d // v.denominator)
    return out


def _row_space(field: FieldSpec, rows: Iterable, ncols: int) -> "Subspace":
    """The span of rows of field elements, dense or sparse, of length ncols."""
    span = Subspace(field, ncols)
    for row in rows:
        span._add_row(row)
    return span


def _rank(field: FieldSpec, rows: Iterable, ncols: int) -> int:
    """The rank of dense or sparse rows; over GF(2) by the screen ``gf2_rank``."""
    if field.p == 2:
        return gf2_rank([_kernel_row(field, row, ncols) for row in rows])
    return _row_space(field, rows, ncols).dim


def null_space(field: FieldSpec, rows: Iterable, ncols: int) -> list[dict]:
    """A basis of the right null space of rows of field elements, dense or
    sparse ({column: entry}), of length ncols: one sparse vector per free
    column, its nonzero entries at pivot columns, then a 1 at its free column,
    its last key.  So a null vector's entries at the free columns are its
    coordinates."""
    span = _row_space(field, rows, ncols)
    pivot_set = set(span.pivots())
    basis = []
    for free in range(ncols):
        if free not in pivot_set:
            vec = {pc: field.neg(entry) for pc, entry in span._column(free)}
            vec[free] = field.one()
            basis.append(vec)
    return basis


def modp_rank(rows: Iterable[Sequence[int]], p: int) -> int:
    if p == 2:
        return gf2_rank(gf2_pack(rows))
    work = [[v % p for v in r] for r in rows]
    return _row_space(FieldSpec.prime(p), work, len(work[0])).dim if work else 0


def rational_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank over the rationals of integer (or Fraction) rows."""
    rows = list(rows)
    return _row_space(QQ, rows, len(rows[0])).dim if rows else 0


# ---------------------------------------------------------------------------
# the Matrix type
# ---------------------------------------------------------------------------


class Matrix:
    """An immutable dense matrix with exact entries in a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable], ncols: int | None = None):
        data = [tuple(field.coerce(v) for v in row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.field = field
        self.nrows = len(data)
        self.ncols = ncols
        self._rows = tuple(data)

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_columns(field: FieldSpec, columns: Sequence[Sequence]) -> "Matrix":
        if not columns:
            return Matrix(field, [], 0)
        nrows = len(columns[0])
        return Matrix(field, [[col[i] for col in columns] for i in range(nrows)], len(columns))

    # -- accessors -----------------------------------------------------------

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def rows(self) -> tuple:
        return self._rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic ----------------------------------------------------------

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        f = self.field
        ocols = list(zip(*other._rows)) if other._rows else [()] * other.ncols
        out = []
        for r in self._rows:
            new = []
            for c in range(other.ncols):
                acc = f.zero()
                col = ocols[c] if other._rows else ()
                for a, b in zip(r, col):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(new)
        return Matrix(f, out, other.ncols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for r in self._rows:
            acc = f.zero()
            for a, b in zip(r, v):
                if a and b:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    # -- reduction ------------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        Returns:
            (R, pivots) with rank(self) == len(pivots).
        """
        span = _row_space(self.field, self._rows, self.ncols)
        out = span.basis_rows()
        out += [[self.field.zero()] * self.ncols for _ in range(span.dim, self.nrows)]
        return Matrix(self.field, out, self.ncols), span.pivots()

    def rank(self) -> int:
        return _rank(self.field, self._rows, self.ncols)

    def kernel_basis(self) -> list[tuple]:
        """``null_space`` of the rows, as dense vectors."""
        zero, n = self.field.zero(), self.ncols
        return [tuple(vec.get(j, zero) for j in range(n)) for vec in null_space(self.field, self._rows, n)]

    def solve(self, b: Sequence):
        """One solution of ``self @ x = b``, or None if inconsistent."""
        f = self.field
        rhs = [f.coerce(v) for v in b]
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        span = _row_space(f, [r + (x,) for r, x in zip(self._rows, rhs)], self.ncols + 1)
        if self.ncols in span.pivots():
            return None
        vec = [f.zero()] * self.ncols
        for pc, entry in span._column(self.ncols):
            vec[pc] = entry
        return tuple(vec)


# ---------------------------------------------------------------------------
# incremental subspace, used heavily by the module/algebra engines
# ---------------------------------------------------------------------------


class Subspace:
    """A growing subspace of k^n kept in reduced echelon form.

    This is the package's one Gauss-Jordan: ``Matrix`` reductions and the
    rank helpers fill a ``Subspace`` row by row and read its rows and pivots.
    ``add`` reduces the candidate against the current basis and either absorbs
    it (returning True when the dimension grew) or discards it, clearing the
    new pivot from the rows already there.  Over GF(2) rows are packed ints,
    so each row operation is one XOR; elsewhere they are integer rows, each
    with a nonzero pivot entry that is not necessarily 1, and zeros in every
    other row's pivot column.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._packed = field.p == 2
        self._rows: list = []  # kept sorted by pivot column
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _vector(self, vec) -> tuple:
        """vec, checked and coerced, in the kernel's form, with the integer d
        such that vec = row / d over q (1 elsewhere)."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in a subspace of k^{self.ncols}")
        f = self.field
        vec = [f.coerce(x) for x in vec]
        if f.p is None:
            return _integer_row(vec)
        return _kernel_row(f, vec, self.ncols), 1

    def _reduce_packed(self, vec: int) -> int:
        for pc, row in zip(self._pivots, self._rows):
            if (vec >> pc) & 1:
                vec ^= row
        return vec

    def _reduce_dense(self, row: list[int], d: int) -> tuple[list[int], int]:
        """The residual of row / d modulo the span, as (row, d) in the same
        form: an integer row and a nonzero integer (mod p) denominator."""
        p = self.field.p
        for pc, basis_row in zip(self._pivots, self._rows):
            if row[pc]:
                row, x = _clear(row, basis_row, pc, p)
                if p is None:
                    d *= x
                    g = gcd(d, *row)
                    if g > 1:
                        row, d = [v // g for v in row], d // g
                else:
                    d = d * x % p
        return row, d

    def _insert(self, pc: int, row) -> None:
        """Insert a reduced row under its pivot, keeping the pivots sorted."""
        pos = bisect_left(self._pivots, pc)
        self._rows.insert(pos, row)
        self._pivots.insert(pos, pc)

    def _add(self, v) -> bool:
        """``add`` for a vector already in the kernel's form: a packed int
        over GF(2), otherwise an integer row of length ncols (entries reduced
        mod p over GF(p)).  Nothing is checked or coerced."""
        if self._packed:
            v = self._reduce_packed(v)
            if not v:
                return False
            pc = _lowest_bit_index(v)
            # eliminate the new pivot from existing rows to stay reduced
            for i, row in enumerate(self._rows):
                if (row >> pc) & 1:
                    self._rows[i] = row ^ v
            self._insert(pc, v)
            return True
        p = self.field.p
        v = self._reduce_dense(v, 1)[0]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        if p is None:
            v = _primitive(v)
        for i, row in enumerate(self._rows):
            if row[pc]:
                self._rows[i] = _eliminate(row, v, pc, p)
        self._insert(pc, v)
        return True

    def _add_row(self, row) -> bool:
        """``_add`` for a dense or sparse row of field elements, unchecked."""
        return self._add(_kernel_row(self.field, row, self.ncols))

    def add(self, vec) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        return self._add(self._vector(vec)[0])

    def contains(self, vec) -> bool:
        v, d = self._vector(vec)
        return not (self._reduce_packed(v) if self._packed else any(self._reduce_dense(v, d)[0]))

    def reduce(self, vec) -> tuple:
        """The residual of ``vec`` modulo the span, as a dense tuple."""
        v, d = self._vector(vec)
        if self._packed:
            r = self._reduce_packed(v)
            return tuple((r >> j) & 1 for j in range(self.ncols))
        row, d = self._reduce_dense(v, d)
        return tuple(_quotient(x, d, self.field.p) for x in row)

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def basis_rows(self) -> list[tuple]:
        if self._packed:
            return [tuple((r >> j) & 1 for j in range(self.ncols)) for r in self._rows]
        p = self.field.p
        return [tuple(_quotient(v, row[pc], p) for v in row) for row, pc in zip(self._rows, self._pivots)]

    def _column(self, j: int) -> list[tuple]:
        """(pivot, entry j of the basis row with that pivot, as a field element)
        for each basis row whose entry j is nonzero."""
        if self._packed:
            return [(pc, 1) for pc, row in zip(self._pivots, self._rows) if (row >> j) & 1]
        p = self.field.p
        return [(pc, _quotient(row[j], row[pc], p)) for pc, row in zip(self._pivots, self._rows) if row[j]]


def _pack_one(items) -> int:
    """(column j, 0/1 entry) pairs packed into an int, bit j <-> column j."""
    acc = 0
    for j, v in items:
        if v & 1:
            acc |= 1 << j
    return acc


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1
