"""A textbook Gauss-Jordan for the test oracles.

Matrices are lists of rows of exact entries: ``Fraction`` (or int) over q,
given by ``p = None``, and ints over GF(p).  ``rank`` over q eliminates
fraction-free on integer rows instead of running the ``Fraction`` rref.
Nothing here comes from ``ringlab``, so an oracle built on these helpers
shares no elimination with the engine it checks;
``tests/test_linalg_oracle.py`` checks them against sympy and the integer
rank against the ``Fraction`` rref.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _norm(x, p):
    return Fraction(x) if p is None else x % p


def rref(p, rows, ncols: int) -> tuple[list[list], list[int]]:
    """The nonzero rows of the reduced row echelon form, and the pivot columns."""
    work = [[_norm(x, p) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c] if p is None else pow(work[r][c], -1, p)
        work[r] = [_norm(x * inv, p) for x in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [_norm(x - row[c] * y, p) for x, y in zip(row, work[r])]
        pivots.append(c)
    return work[: len(pivots)], pivots


def solve(p, rows, ncols: int, b) -> list | None:
    """One solution x of rows @ x = b, 0 at every free column, or None when
    the system is inconsistent."""
    assert len(b) == len(rows)
    reduced, pivots = rref(p, [list(row) + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [_norm(0, p)] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[ncols]
    return x


def rank(p, rows, ncols: int) -> int:
    if p is None:
        return _integer_rank(rows)
    return len(rref(p, rows, ncols)[1])


def _integer_rank(rows) -> int:
    """Rank over q, fraction-free: each row is scaled by the lcm of its
    denominators to a sparse integer row and reduced against the pivot rows
    kept so far, each keyed by its first column.  A step replaces the row by
    (p / g) * row - (e / g) * pivot, for pivot entry p, row entry e and
    g = gcd(p, e), and then divides it by the gcd of its entries, so the
    entries stay integers and small.  A row that survives with a new first
    column becomes a pivot."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        entries = [(j, Fraction(x)) for j, x in enumerate(row) if x]
        den = math.lcm(*(x.denominator for _, x in entries))
        vec = {j: x.numerator * (den // x.denominator) for j, x in entries}
        while vec:
            c = min(vec)
            if c not in pivots:
                pivots[c] = vec
                break
            pivot = pivots[c]
            g = math.gcd(pivot[c], vec[c])
            scale, e = pivot[c] // g, vec[c] // g
            out = {j: scale * x for j, x in vec.items()}
            for j, y in pivot.items():
                out[j] = out.get(j, 0) - e * y
            content = math.gcd(*out.values())
            vec = {j: x // content for j, x in out.items() if x}
    return len(pivots)


def kernel(p, rows, ncols: int) -> list[list]:
    """A basis of the right null space, one vector per free column."""
    reduced, pivots = rref(p, rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [_norm(0, p)] * ncols
            vec[free] = _norm(1, p)
            for row, pc in zip(reduced, pivots):
                vec[pc] = _norm(-row[free], p)
            basis.append(vec)
    return basis


def identity(p, n: int) -> list[list]:
    return [[_norm(int(i == j), p) for j in range(n)] for i in range(n)]


def mat_mul(p, left, right) -> list[list]:
    cols = list(zip(*right))
    return [[_norm(sum(a * b for a, b in zip(row, col)), p) for col in cols] for row in left]


def apply(p, mat, vec) -> list:
    """mat times the column vector vec."""
    return [_norm(sum(a * b for a, b in zip(row, vec)), p) for row in mat]
