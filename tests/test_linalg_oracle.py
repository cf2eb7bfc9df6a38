"""Exact ranks, echelon forms and kernels checked against sympy.

sympy is an implementation of exact linear algebra that shares no code with
ringlab, so agreement here is independent evidence for the dense Gauss-Jordan
kernel, the packed GF(2) path and the rank helpers the subset scan uses.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from ringlab.fields import QQ, FieldSpec  # noqa: E402
from ringlab.graphs import Graph  # noqa: E402
from ringlab.linalg import Matrix, modp_rank, rational_rank  # noqa: E402
from ringlab.monomials import edge_ideal  # noqa: E402
from ringlab.sr_invariants import _Scan, _signed_rows  # noqa: E402

PRIMES = (2, 3, 5)


def random_int_matrices(seed: int, count: int):
    """Small integer matrices, many of them rank-deficient."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.5:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        yield rows


def boundary_matrices():
    """Signed boundary rows of independence complexes of a few graphs on 6 vertices."""
    rng = random.Random(7)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for _ in range(12):
        g = Graph.from_edges(6, rng.sample(pairs, rng.randint(0, 6)))
        scan = _Scan(edge_ideal(g))
        faces = scan.faces_by_size(scan.face_verts, scan.n)
        for size in range(1, len(faces) - 1):
            rows = _signed_rows(faces[size + 1], faces[size])
            if rows:
                yield rows


def as_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def check_rationals(rows):
    ncols = len(rows[0])
    ref, pivots = sympy.Matrix(rows).rref()
    r, piv = Matrix(QQ, rows, ncols).rref()
    assert piv == tuple(pivots)
    assert [list(row) for row in r.rows()] == [[as_fraction(x) for x in ref.row(i)] for i in range(ref.rows)]
    rank = len(pivots)
    assert Matrix(QQ, rows, ncols).rank() == rank
    assert rational_rank(rows) == rank
    kernel = Matrix(QQ, rows, ncols).kernel_basis()
    assert len(kernel) == ncols - rank
    for vec in kernel:
        product = sympy.Matrix(rows) * sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in vec])
        assert all(x == 0 for x in product)


def check_prime(rows, p):
    ncols = len(rows[0])
    field = FieldSpec.prime(p)
    dm = DomainMatrix.from_list(rows, sympy.GF(p))
    ref, pivots = dm.rref()
    rank = dm.rank()
    assert len(pivots) == rank
    r, piv = Matrix(field, rows, ncols).rref()
    assert piv == tuple(pivots)
    assert [list(row) for row in r.rows()] == [[int(x) % p for x in row] for row in ref.to_list()]
    assert Matrix(field, rows, ncols).rank() == rank
    assert modp_rank(rows, p) == rank
    assert len(Matrix(field, rows, ncols).kernel_basis()) == ncols - rank


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_matrices_match_sympy(seed):
    for rows in random_int_matrices(seed, 40):
        check_rationals(rows)
        for p in PRIMES:
            check_prime(rows, p)


def test_rational_entries_match_sympy():
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)]
        check_rationals(rows)


def test_boundary_rows_match_sympy():
    seen = 0
    for rows in boundary_matrices():
        seen += 1
        check_rationals(rows)
        for p in PRIMES:
            check_prime(rows, p)
    assert seen > 12
