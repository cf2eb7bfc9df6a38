"""Exact ranks, echelon forms and kernels checked against sympy.

sympy is an implementation of exact linear algebra that shares no code with
ringlab, so agreement here is independent evidence for ``Subspace``, the one
Gauss-Jordan (packed over GF(2), sparse integer rows otherwise) behind every
``Matrix`` reduction, and for the rank helpers the subset scan uses.  The
tests' own Gauss-Jordan, ``gauss_oracle``, which the Ext, module-action,
Hom-coordinate and homology oracles use instead of ringlab's, is checked
against sympy here as well.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
import gauss_oracle  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from ringlab.fields import QQ, FieldSpec  # noqa: E402
from ringlab.graphs import Graph  # noqa: E402
from ringlab.linalg import Matrix, Subspace, modp_rank, rational_rank  # noqa: E402
from ringlab.monomials import edge_ideal  # noqa: E402
from ringlab.sr_invariants import _boundary, _Scan, _signed  # noqa: E402

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
    """The scan's signed boundary rows (``_boundary`` unpacked by ``_signed``)
    of independence complexes of a few graphs on 6 vertices."""
    rng = random.Random(7)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for _ in range(12):
        g = Graph.from_edges(6, rng.sample(pairs, rng.randint(0, 6)))
        scan = _Scan(edge_ideal(g))
        faces = scan.faces_by_size(scan.face_verts, scan.n)
        for size in range(1, len(faces) - 1):
            rows = [_signed(row, len(faces[size])) for row in _boundary(faces[size + 1], faces[size])]
            if rows:
                yield rows


def as_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def check_gauss_oracle(rows, p, reduced, pivots):
    """gauss_oracle, over q for p None and over GF(p) otherwise, against
    sympy's nonzero reduced rows and pivots."""
    ncols = len(rows[0])
    assert gauss_oracle.rref(p, rows, ncols) == (reduced, list(pivots))
    assert gauss_oracle.rank(p, rows, ncols) == len(pivots)
    kernel = gauss_oracle.kernel(p, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    assert len(kernel) == len(free)
    for vec, c in zip(kernel, free):
        assert [vec[j] for j in free] == [int(j == c) for j in free]
        assert not any(gauss_oracle.apply(p, rows, vec))
    # the product with the transpose, against sympy's
    gram = sympy.Matrix(rows) * sympy.Matrix(rows).T
    expected = [[as_fraction(x) if p is None else int(x) % p for x in gram.row(i)] for i in range(len(rows))]
    assert gauss_oracle.mat_mul(p, rows, [list(col) for col in zip(*rows)]) == expected


def check_oracle_solve(rows, p):
    """gauss_oracle.solve, over q for p None and over GF(p) otherwise, against
    sympy: a solution exactly when the system is consistent by sympy's ranks,
    and then one that solves it, for a consistent right-hand side (the sum of
    the columns) and a unit vector."""
    ncols = len(rows[0])

    def rank(m):
        return sympy.Matrix(m).rank() if p is None else DomainMatrix.from_list(m, sympy.GF(p)).rank()

    unit = [0] * (len(rows) - 1) + [1]
    for b in ([sum(row) for row in rows], unit):
        x = gauss_oracle.solve(p, rows, ncols, b)
        consistent = rank([list(row) + [v] for row, v in zip(rows, b)]) == rank(rows)
        assert (x is not None) == consistent
        if x is not None:
            product = sympy.Matrix(rows) * sympy.Matrix(x)
            assert all((got - want if p is None else (got - want) % p) == 0 for got, want in zip(product, b))


def check_rationals(rows):
    ncols = len(rows[0])
    ref, pivots = sympy.Matrix(rows).rref()
    r, piv = Matrix(QQ, rows, ncols).rref()
    assert piv == tuple(pivots)
    assert [list(row) for row in r.rows()] == [[as_fraction(x) for x in ref.row(i)] for i in range(ref.rows)]
    check_gauss_oracle(rows, None, [[as_fraction(x) for x in ref.row(i)] for i in range(len(pivots))], pivots)
    check_oracle_solve(rows, None)
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
    check_gauss_oracle(rows, p, [[int(x) % p for x in row] for row in ref.to_list()[:rank]], pivots)
    check_oracle_solve(rows, p)
    assert Matrix(field, rows, ncols).rank() == rank
    assert modp_rank(rows, p) == rank
    kernel = Matrix(field, rows, ncols).kernel_basis()
    assert len(kernel) == ncols - rank
    for vec in kernel:
        assert all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows)


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


def wide_rational_matrices(seed: int, count: int):
    """Rational matrices whose pivots are not units: entries up to 10^6 in
    absolute value over mixed denominators, so that clearing denominators and
    dividing rows by their content both have work to do."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [
            [
                Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 2, 3, 6, 7, 10**3, 999_983)))
                if rng.random() < 0.7
                else Fraction(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        if nrows >= 2 and rng.random() < 0.5:
            a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-(10**6), 10**6)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
        yield rows


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_rational_entries_match_sympy(seed):
    for rows in wide_rational_matrices(seed, 60):
        check_rationals(rows)


def sparse_dependent_matrices(seed: int, count: int):
    """Wider, mostly zero matrices with entries -1, 1, 2 and 1/3, plus rows
    that combine two of them with rational coefficients, shuffled in: the
    shape of the k-rank checks of ``algebra_oracle.check_resolution``."""
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(2, 24), rng.randint(1, 30)
        rows = [
            [rng.choice((-1, 1, 2, Fraction(1, 3))) if rng.random() < 0.15 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        for _ in range(rng.randint(0, nrows)):
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rng.shuffle(rows)
        yield rows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_rank_matches_the_fraction_rref(seed):
    # gauss_oracle.rank over q eliminates fraction-free on integer rows; the
    # Fraction rref is the reference
    matrices = [
        *random_int_matrices(seed, 40),
        *wide_rational_matrices(seed, 40),
        *sparse_dependent_matrices(seed, 40),
    ]
    for rows in matrices:
        ncols = len(rows[0])
        assert gauss_oracle.rank(None, rows, ncols) == len(gauss_oracle.rref(None, rows, ncols)[1])


def sympy_rows(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subspace_over_q_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for rows in wide_rational_matrices(seed + 10, 25):
        ncols = len(rows[0])
        sub = Subspace(QQ, ncols)
        for i, row in enumerate(rows):
            before = sympy_rows(rows[:i]).rank() if i else 0
            assert sub.add(row) == (sympy_rows(rows[: i + 1]).rank() > before)
        ref, pivots = sympy_rows(rows).rref()
        rank = len(pivots)
        basis = [[as_fraction(x) for x in ref.row(r)] for r in range(rank)]
        assert sub.dim == rank and sub.pivots() == tuple(pivots)
        assert [list(row) for row in sub.basis_rows()] == basis
        probes = [row for row in rows]
        probes += [[Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(ncols)] for _ in range(4)]
        probes.append([a * 3 - b for a, b in zip(rows[0], rows[-1])])
        for vec in probes:
            # the residual of vec modulo a reduced echelon basis subtracts
            # vec's entry at each pivot times that pivot's row
            residual = [v - sum(vec[pc] * row[j] for pc, row in zip(pivots, basis)) for j, v in enumerate(vec)]
            assert list(sub._residual(vec)) == residual
            assert sub.contains(vec) == (sympy_rows(rows + [vec]).rank() == rank)
            assert sub.contains(vec) == (not any(residual))
