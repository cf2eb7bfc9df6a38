"""Dense exact linear algebra over GF(p) and the rationals.

Matrices are immutable dense arrays of exact field elements.  Reduction is
one plain Gauss-Jordan kernel for every field; over GF(2) the rows are
packed into Python ints instead, so the row operations become single XORs,
which is what makes the subset-homology scans elsewhere in the package
affordable.  Both paths produce the identical reduced row echelon form, so
callers never need to know which one ran.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from .fields import FieldSpec

# ---------------------------------------------------------------------------
# low-level eliminators; each returns (rows-in-rref, pivot column list)
# ---------------------------------------------------------------------------


def gf2_pack(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pack 0/1 rows into ints, bit j <-> column j."""
    return [_pack_one(row) for row in rows]


def gf2_rref(packed: list[int], ncols: int, pivot_limit: int | None = None) -> tuple[list[int], list[int]]:
    rows = list(packed)
    m = len(rows)
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
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


def _rref_dense(rows: list[list], ncols: int, p: int | None, pivot_limit: int | None) -> tuple[list[list], list[int]]:
    """Gauss-Jordan over GF(p), or over the rationals when p is None.

    Entries must already be field elements (ints reduced mod p, or
    Fractions): a zero entry is recognized by its truthiness.
    """
    m = len(rows)
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        pivot_row = -1
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p is None:
            inv = 1 / rows[r][c]
            rows[r] = [v * inv for v in rows[r]]
        else:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [(v * inv) % p for v in rows[r]]
        pr = rows[r]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                if f:
                    if p is None:
                        rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
                    else:
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def modp_rank(rows: Iterable[Sequence[int]], p: int) -> int:
    if p == 2:
        return gf2_rank(gf2_pack(rows))
    work = [[v % p for v in r] for r in rows]
    if not work:
        return 0
    _, pivots = _rref_dense(work, len(work[0]), p, None)
    return len(pivots)


def rational_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank over the rationals of integer (or Fraction) rows."""
    work = [[Fraction(v) for v in r] for r in rows]
    if not work:
        return 0
    _, pivots = _rref_dense(work, len(work[0]), None, None)
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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

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

    def _rref_raw(self, pivot_limit: int | None = None) -> tuple[list, list[int]]:
        f = self.field
        if f.p == 2:
            packed, pivots = gf2_rref(gf2_pack(self._rows), self.ncols, pivot_limit)
            rows = [[(r >> j) & 1 for j in range(self.ncols)] for r in packed]
            return rows, pivots
        return _rref_dense([list(r) for r in self._rows], self.ncols, f.p, pivot_limit)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        Returns:
            (R, pivots) with rank(self) == len(pivots).
        """
        rows, pivots = self._rref_raw()
        return Matrix(self.field, rows, self.ncols), tuple(pivots)

    def rank(self) -> int:
        if self.field.p == 2:
            return gf2_rank(gf2_pack(self._rows))
        return len(self._rref_raw()[1])

    def kernel_basis(self) -> list[tuple]:
        """A basis of the right null space, one vector per free column."""
        rows, pivots = self._rref_raw()
        f = self.field
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [f.zero()] * self.ncols
            vec[free] = f.one()
            for r, pc in enumerate(pivots):
                entry = rows[r][free]
                if entry:
                    vec[pc] = f.neg(entry)
            basis.append(tuple(vec))
        return basis

    def solve(self, b: Sequence):
        """One solution of ``self @ x = b``, or None if inconsistent."""
        f = self.field
        rhs = [f.coerce(v) for v in b]
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        aug = Matrix(f, [list(r) + [rhs[i]] for i, r in enumerate(self._rows)], self.ncols + 1)
        rows, pivots = aug._rref_raw(pivot_limit=self.ncols)
        rank = len(pivots)
        for i in range(rank, self.nrows):
            if rows[i][self.ncols]:
                return None
        vec = [f.zero()] * self.ncols
        for r, pc in enumerate(pivots):
            vec[pc] = rows[r][self.ncols]
        return tuple(vec)


# ---------------------------------------------------------------------------
# incremental subspace, used heavily by the module/algebra engines
# ---------------------------------------------------------------------------


class Subspace:
    """A growing subspace of k^n kept in reduced echelon form.

    ``add`` reduces the candidate against the current basis and either absorbs
    it (returning True when the dimension grew) or discards it.  Over GF(2)
    rows are packed ints; elsewhere they are lists of field elements.
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

    def _reduce_packed(self, vec: int) -> int:
        for pc, row in zip(self._pivots, self._rows):
            if (vec >> pc) & 1:
                vec ^= row
        return vec

    def _reduce_dense(self, vec: list) -> list:
        f = self.field
        for pc, row in zip(self._pivots, self._rows):
            c = vec[pc]
            if c:
                vec = [f.sub(a, f.mul(c, b)) for a, b in zip(vec, row)]
        return vec

    def _insert(self, pc: int, row) -> None:
        """Insert a reduced row under its pivot, keeping the pivots sorted."""
        pos = bisect_left(self._pivots, pc)
        self._rows.insert(pos, row)
        self._pivots.insert(pos, pc)

    def add(self, vec) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        if self._packed:
            v = vec if isinstance(vec, int) else _pack_one(vec)
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
        f = self.field
        v = self._reduce_dense([f.coerce(x) for x in vec])
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is None:
            return False
        inv = f.inv(v[pc])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self._rows):
            c = row[pc]
            if c:
                self._rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
        self._insert(pc, v)
        return True

    def contains(self, vec) -> bool:
        if self._packed:
            v = vec if isinstance(vec, int) else _pack_one(vec)
            return self._reduce_packed(v) == 0
        f = self.field
        return not any(self._reduce_dense([f.coerce(x) for x in vec]))

    def reduce(self, vec) -> tuple:
        """The residual of ``vec`` modulo the span, as a dense tuple."""
        if self._packed:
            v = vec if isinstance(vec, int) else _pack_one(vec)
            r = self._reduce_packed(v)
            return tuple((r >> j) & 1 for j in range(self.ncols))
        f = self.field
        return tuple(self._reduce_dense([f.coerce(x) for x in vec]))

    def pivots(self) -> tuple[int, ...]:
        return tuple(self._pivots)

    def basis_rows(self) -> list[tuple]:
        if self._packed:
            return [tuple((r >> j) & 1 for j in range(self.ncols)) for r in self._rows]
        return [tuple(r) for r in self._rows]


def _pack_one(vec) -> int:
    acc = 0
    for j, v in enumerate(vec):
        if int(v) & 1:
            acc |= 1 << j
    return acc


def _lowest_bit_index(x: int) -> int:
    return (x & -x).bit_length() - 1
