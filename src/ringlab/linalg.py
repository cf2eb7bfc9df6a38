"""Exact linear algebra over GF(p) and the rationals.

There is one Gauss-Jordan, the incremental ``Subspace``: ``null_space``,
``_rank``, ``modp_rank``, ``rational_rank`` and the dense ``Matrix``
reductions fill one row by row and read its rows and pivots.  No other
module of the package builds a ``Matrix``; the benchmark's probes still name
its methods.  Rows enter the kernel dense or sparse ({column: entry}, as the
module engine and ``truncate`` build them) and go straight into its form,
with no per-entry ``coerce``; only the public ``Subspace.add`` checks and
coerces its input.
Over GF(2) that form is a row packed into a Python int, so each row
operation is a single XOR.  Elsewhere it is a sparse integer row {column:
nonzero int}, so a row operation costs the nonzeros of the two rows, not
the width: over q each row has its denominators cleared once, and rows are
combined as x * row_i - y * row_r, so no ``Fraction`` is built inside the
kernel.  The two fields differ only in how a row is normalized after each
operation: reduced mod p, or divided by the gcd of its entries over q.
Field elements are rebuilt only when rows leave the kernel, through one
reader of the basis rows (``Subspace._entries``): ``rref``, the sparse
vectors of ``null_space`` (``Matrix.kernel_basis`` is their dense view),
the rows and residuals of a ``Subspace``.  ``gf2_rank`` is the packed
rank-only screen that the subset-homology scans elsewhere in the package run
first; it keeps no echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import QQ, FieldSpec

# ---------------------------------------------------------------------------
# row helpers, the GF(2) rank screen and the rank functions
# ---------------------------------------------------------------------------


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


def _clear(row: dict, pr: dict, c: int, p: int | None) -> tuple[dict, int]:
    """x * row - y * pr, with x and y the entries of pr and row at column c over
    their gcd, so that column c becomes 0; returns the new row, its zeros
    dropped, and x."""
    x, y = pr[c], row[c]
    g = gcd(x, y)
    x, y = x // g, y // g
    out = {j: x * a for j, a in row.items()}
    for j, b in pr.items():
        out[j] = out.get(j, 0) - y * b
    return {j: v for j, a in out.items() if (v := a if p is None else a % p)}, x


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


def _quotient(v: int, x: int, p: int | None):
    """v / x as a field element."""
    return Fraction(v, x) if p is None else v * pow(x, -1, p) % p


def _kernel_row(field: FieldSpec, row) -> tuple:
    """A row of field elements, dense or sparse ({column: entry}), in the
    kernel's form, with no coerce: a packed int over GF(2), otherwise
    {column: nonzero int}, over q the row times the lcm d of its
    denominators.  Returns the row and d (1 over GF(p))."""
    items = row.items() if type(row) is dict else enumerate(row)
    if field.p == 2:
        return _pack_one(items), 1
    items = [(j, v) for j, v in items if v]
    d = lcm(*(v.denominator for _, v in items))
    return {j: v.numerator * (d // v.denominator) for j, v in items}, d


def _row_space(field: FieldSpec, rows: Iterable, ncols: int) -> "Subspace":
    """The span of rows of field elements, dense or sparse, of length ncols."""
    span = Subspace(field, ncols)
    for row in rows:
        span._add_row(row)
    return span


def _rank(field: FieldSpec, rows: Iterable, ncols: int) -> int:
    """The rank of dense or sparse rows; over GF(2) by the screen ``gf2_rank``."""
    if field.p == 2:
        return gf2_rank([_kernel_row(field, row)[0] for row in rows])
    return _row_space(field, rows, ncols).dim


def null_space(field: FieldSpec, rows: Iterable, ncols: int) -> list[dict]:
    """A basis of the right null space of rows of field elements, dense or
    sparse ({column: entry}), of length ncols: one sparse vector per free
    column, its nonzero entries at pivot columns, then a 1 at its free column,
    its last key.  So a null vector's entries at the free columns are its
    coordinates."""
    span = _row_space(field, rows, ncols)
    basis = {free: {} for free in range(ncols) if free not in span._rows}
    # one pass over the basis rows, in pivot order: a row's entry at a free
    # column is minus its pivot's entry in that column's null vector
    for pc, row in span._entries():
        for j, entry in row.items():
            if j != pc:
                basis[j][pc] = field.neg(entry)
    one = field.one()
    for free, vec in basis.items():
        vec[free] = one
    return list(basis.values())


def modp_rank(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of integer rows."""
    work = [[v % p for v in r] for r in rows]
    return _row_space(FieldSpec.prime(p), work, len(work[0])).dim if work else 0


def rational_rank(rows: Iterable[Sequence]) -> int:
    """Exact rank over the rationals of integer (or Fraction) rows."""
    rows = list(rows)
    return _row_space(QQ, rows, len(rows[0])).dim if rows else 0


# ---------------------------------------------------------------------------
# the Matrix type
# ---------------------------------------------------------------------------


# kept only for the spans and guards of benchmarks/, which name its methods
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
        if self.ncols in span._rows:
            return None
        vec = [f.zero()] * self.ncols
        for pc, row in span._entries():
            vec[pc] = row.get(self.ncols, f.zero())
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
    new pivot from the rows already there.  The basis is kept as {pivot
    column: row}.  Over GF(2) rows are packed ints, so each row operation is
    one XOR; elsewhere they are sparse integer rows {column: nonzero int},
    each with its pivot as its lowest column, a pivot entry that is not
    necessarily 1, and no entry in any other row's pivot column.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._packed = field.p == 2
        self._rows: dict = {}  # pivot column -> row in the kernel's form
        self._mask = 0  # the pivots as bits, for packed rows

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _reduce(self, v, d: int) -> tuple:
        """The residual of v / d modulo the span, as (row, d) in the same
        form: a row in the kernel's form and a nonzero integer (mod p)
        denominator."""
        rows = self._rows
        # a basis row has no entry at another pivot, so clearing the pivots
        # present in v brings no new pivot into it
        if self._packed:
            for pc in _set_bits(v & self._mask):
                v ^= rows[pc]
            return v, d
        p = self.field.p
        for pc in [c for c in v if c in rows]:
            v, x = _clear(v, rows[pc], pc, p)
            if p is None:
                d *= x
                g = gcd(d, *v.values())
                if g > 1:
                    v, d = {j: a // g for j, a in v.items()}, d // g
            else:
                d = d * x % p
        return v, d

    def _add(self, v) -> bool:
        """``add`` for a row already in the kernel's form (see
        ``_kernel_row``).  Nothing is checked or coerced."""
        v = self._reduce(v, 1)[0]
        if not v:
            return False
        rows = self._rows
        # eliminate the new pivot from existing rows to stay reduced
        if self._packed:
            pc = (v & -v).bit_length() - 1
            for q, row in rows.items():
                if (row >> pc) & 1:
                    rows[q] = row ^ v
            self._mask |= 1 << pc
        else:
            p = self.field.p
            pc = min(v)
            if p is None:
                v = _primitive(v)
            for q, row in rows.items():
                if pc in row:
                    row = _clear(row, v, pc, p)[0]
                    rows[q] = row if p is not None else _primitive(row)
        rows[pc] = v
        return True

    def _add_row(self, row) -> bool:
        """``_add`` for a dense or sparse row of field elements, unchecked."""
        return self._add(_kernel_row(self.field, row)[0])

    def _residual(self, row) -> tuple:
        """A dense or sparse row of field elements, unchecked, modulo the span."""
        v, d = self._reduce(*_kernel_row(self.field, row))
        if self._packed:
            return tuple((v >> j) & 1 for j in range(self.ncols))
        p = self.field.p
        return tuple(_quotient(v.get(j, 0), d, p) for j in range(self.ncols))

    def add(self, vec) -> bool:
        """Insert a vector, its length checked and its entries coerced;
        returns True iff it enlarged the span."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in a subspace of k^{self.ncols}")
        return self._add_row([self.field.coerce(x) for x in vec])

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def basis_rows(self) -> list[tuple]:
        zero = self.field.zero()
        return [tuple(row.get(j, zero) for j in range(self.ncols)) for _, row in self._entries()]

    def _entries(self):
        """(pivot, {column: entry as a field element}) for each basis row, in
        pivot order; a packed row yields only its set bits."""
        p = self.field.p
        for pc in sorted(self._rows):
            row = self._rows[pc]
            if self._packed:
                yield pc, dict.fromkeys(_set_bits(row), 1)
            else:
                yield pc, {j: _quotient(v, row[pc], p) for j, v in row.items()}


def _pack_one(items) -> int:
    """(column j, 0/1 entry) pairs packed into an int, bit j <-> column j."""
    acc = 0
    for j, v in items:
        if v & 1:
            acc |= 1 << j
    return acc


def _set_bits(x: int):
    """The indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
