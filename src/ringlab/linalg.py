"""Dense exact linear algebra over GF(p) and the rationals.

Matrices are immutable dense arrays of exact field elements.  Reduction is
one Gauss-Jordan kernel on integer rows for every field: over q each row has
its denominators cleared once, and the kernel eliminates with cross-multiplied
row operations (x * row_i - y * row_r), so no ``Fraction`` is built inside it.
The two fields differ only in how a row is normalized after each operation:
reduced mod p, or divided by the gcd of its entries over q.  Field elements
are rebuilt only when rows leave the kernel (``rref``, ``kernel_basis``, the
rows and residuals of a ``Subspace``).  Over GF(2) the rows are packed into
Python ints instead, so the row operations become single XORs, which is what
makes the subset-homology scans elsewhere in the package affordable.  The
reduced row echelon form is unique, so every path gives the same answer and
callers never need to know which one ran.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import FieldSpec

# ---------------------------------------------------------------------------
# low-level eliminators; each returns (rows in echelon form, pivot column list)
# ---------------------------------------------------------------------------


def gf2_pack(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pack 0/1 rows into ints, bit j <-> column j."""
    return [_pack_one(row) for row in rows]


def gf2_rref(packed: list[int], ncols: int) -> tuple[list[int], list[int]]:
    rows = list(packed)
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        pivot_row = -1
        for i in range(r, m):
            if rows[i] & bit:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pr = rows[r]
        for i in range(m):
            if i != r and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


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


def _rref_dense(rows: list[list[int]], ncols: int, p: int | None) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on integer rows: over GF(p) (entries reduced mod p) or
    over the rationals when p is None (rows with their denominators cleared).

    Returns the rows in reduced echelon form up to scaling: each pivot row has
    a nonzero pivot entry, not necessarily 1, and zeros in every other pivot
    column.  Over q every row is kept primitive.
    """
    m = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = -1
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pr = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], pr, c, p)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _quotient(v: int, x: int, p: int | None):
    """v / x as a field element."""
    return Fraction(v, x) if p is None else v * pow(x, -1, p) % p


def modp_rank(rows: Iterable[Sequence[int]], p: int) -> int:
    if p == 2:
        return gf2_rank(gf2_pack(rows))
    work = [[v % p for v in r] for r in rows]
    if not work:
        return 0
    _, pivots = _rref_dense(work, len(work[0]), p)
    return len(pivots)


def rational_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank over the rationals of integer (or Fraction) rows."""
    work = [_integer_row(r)[0] for r in rows]
    if not work:
        return 0
    _, pivots = _rref_dense(work, len(work[0]), None)
    return len(pivots)


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
    def identity(field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return Matrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero()
        return Matrix(field, [[zero] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def from_columns(field: FieldSpec, columns: Sequence[Sequence]) -> "Matrix":
        if not columns:
            return Matrix(field, [], 0)
        nrows = len(columns[0])
        return Matrix(field, [[col[i] for col in columns] for i in range(nrows)], len(columns))

    # -- accessors -----------------------------------------------------------

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    def rows(self) -> tuple:
        return self._rows

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._rows)

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

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)], self.nrows)

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

    def _rref_raw(self) -> tuple[list[list[int]], list[int]]:
        """Integer rows in reduced echelon form up to scaling, and the pivots."""
        p = self.field.p
        if p == 2:
            packed, pivots = gf2_rref(gf2_pack(self._rows), self.ncols)
            return [[(r >> j) & 1 for j in range(self.ncols)] for r in packed], pivots
        if p is None:
            return _rref_dense([_integer_row(r)[0] for r in self._rows], self.ncols, None)
        return _rref_dense([list(r) for r in self._rows], self.ncols, p)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        Returns:
            (R, pivots) with rank(self) == len(pivots).
        """
        rows, pivots = self._rref_raw()
        p = self.field.p
        out = [[_quotient(v, row[pc], p) for v in row] for row, pc in zip(rows, pivots)]
        out += [[self.field.zero()] * self.ncols for _ in range(len(pivots), self.nrows)]
        return Matrix(self.field, out, self.ncols), tuple(pivots)

    def rank(self) -> int:
        if self.field.p == 2:
            return gf2_rank(gf2_pack(self._rows))
        return len(self._rref_raw()[1])

    def kernel_basis(self) -> list[tuple]:
        """A basis of the right null space, one vector per free column.

        Each vector has a 1 at its own free column, which is its last nonzero
        entry, and a 0 at every other free column; so a vector of the null
        space has its free-column entries as its coordinates in this basis.
        """
        rows, pivots = self._rref_raw()
        f = self.field
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [f.zero()] * self.ncols
            vec[free] = f.one()
            for row, pc in zip(rows, pivots):
                entry = row[free]
                if entry:
                    vec[pc] = _quotient(-entry, row[pc], f.p)
            basis.append(tuple(vec))
        return basis

    def solve(self, b: Sequence):
        """One solution of ``self @ x = b``, or None if inconsistent."""
        f = self.field
        rhs = [f.coerce(v) for v in b]
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        aug = Matrix(f, [list(r) + [rhs[i]] for i, r in enumerate(self._rows)], self.ncols + 1)
        rows, pivots = aug._rref_raw()
        if pivots and pivots[-1] == self.ncols:
            return None
        vec = [f.zero()] * self.ncols
        for row, pc in zip(rows, pivots):
            vec[pc] = _quotient(row[self.ncols], row[pc], f.p)
        return tuple(vec)


# ---------------------------------------------------------------------------
# incremental subspace, used heavily by the module/algebra engines
# ---------------------------------------------------------------------------


class Subspace:
    """A growing subspace of k^n kept in reduced echelon form.

    ``add`` reduces the candidate against the current basis and either absorbs
    it (returning True when the dimension grew) or discards it.  Over GF(2)
    rows are packed ints; elsewhere they are the integer rows of the
    elimination kernel, each with a nonzero pivot entry that is not
    necessarily 1, and zeros in every other row's pivot column.
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

    def _packed_vector(self, vec) -> int:
        if isinstance(vec, int):
            if vec < 0 or vec >> self.ncols:
                raise ValueError(f"packed vector has bits beyond column {self.ncols}")
            return vec
        self._check_length(vec)
        return _pack_one(vec)

    def _check_length(self, vec) -> None:
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in a subspace of k^{self.ncols}")

    def _reduce_packed(self, vec: int) -> int:
        for pc, row in zip(self._pivots, self._rows):
            if (vec >> pc) & 1:
                vec ^= row
        return vec

    def _reduce_dense(self, vec) -> tuple[list[int], int]:
        """The residual of ``vec`` modulo the span as (row, d): the residual
        is row / d, with row an integer row and d a nonzero integer (mod p)."""
        self._check_length(vec)
        f = self.field
        p = f.p
        if p is None:
            row, d = _integer_row([f.coerce(x) for x in vec])
        else:
            row, d = [f.coerce(x) for x in vec], 1
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

    def add(self, vec) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        if self._packed:
            v = self._reduce_packed(self._packed_vector(vec))
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
        v = self._reduce_dense(vec)[0]
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

    def contains(self, vec) -> bool:
        if self._packed:
            return self._reduce_packed(self._packed_vector(vec)) == 0
        return not any(self._reduce_dense(vec)[0])

    def reduce(self, vec) -> tuple:
        """The residual of ``vec`` modulo the span, as a dense tuple."""
        if self._packed:
            r = self._reduce_packed(self._packed_vector(vec))
            return tuple((r >> j) & 1 for j in range(self.ncols))
        row, d = self._reduce_dense(vec)
        return tuple(_quotient(v, d, self.field.p) for v in row)

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def basis_rows(self) -> list[tuple]:
        if self._packed:
            return [tuple((r >> j) & 1 for j in range(self.ncols)) for r in self._rows]
        p = self.field.p
        return [tuple(_quotient(v, row[pc], p) for v in row) for row, pc in zip(self._rows, self._pivots)]


def _pack_one(vec) -> int:
    acc = 0
    for j, v in enumerate(vec):
        if v & 1:
            acc |= 1 << j
    return acc


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1
