import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.linalg import (
    Matrix,
    Subspace,
    _rank,
    _row_space,
    gf2_rank,
    modp_rank,
    null_space,
    rational_rank,
)

GF5 = FieldSpec.prime(5)


def test_rref_identity():
    m = Matrix(QQ, [[1, 0], [0, 1]])
    r, piv = m.rref()
    assert r == m
    assert piv == (0, 1)


def test_rref_rank_one_over_q():
    r, piv = Matrix(QQ, [[1, 2], [2, 4]]).rref()
    assert r.rows() == ((1, 2), (0, 0))
    assert piv == (0,)


def test_rref_gf2_hand_elimination():
    r, piv = Matrix(GF2, [[1, 1], [1, 1]]).rref()
    assert r.rows() == ((1, 1), (0, 0))
    assert piv == (0,)


def test_kernel_identity_empty():
    assert Matrix(QQ, [[1, 0], [0, 1]]).kernel_basis() == []


def test_kernel_zero_matrix():
    kb = Matrix(QQ, [[0, 0, 0], [0, 0, 0]]).kernel_basis()
    assert len(kb) == 3


def test_kernel_gf2_hand_solved():
    kb = Matrix(GF2, [[1, 1, 0], [0, 1, 1]]).kernel_basis()
    assert kb == [(1, 1, 1)]


def test_solve_identity():
    assert Matrix(QQ, [[1, 0], [0, 1]]).solve([3, 4]) == (3, 4)


def test_solve_inconsistent():
    assert Matrix(QQ, [[0, 0]]).solve([1]) is None


def test_solve_mod5():
    # 2 * 3 = 6 = 1 mod 5
    assert Matrix(GF5, [[2]]).solve([1]) == (3,)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix(QQ, [[1, 2]]).solve([1, 2])


def _random_matrix(rng, field, rows, cols):
    if field.p is None:
        data = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, data, cols)


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_rank_nullity_and_kernel_exactness(field):
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, rows, cols)
        kb = m.kernel_basis()
        assert m.rank() + len(kb) == cols
        for v in kb:
            assert not any(m.apply(v))


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_rref_idempotent(field):
    rng = random.Random(5)
    for _ in range(25):
        m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
        r, piv = m.rref()
        r2, piv2 = r.rref()
        assert r2 == r and piv2 == piv


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_solve_agrees_with_rank_criterion(field):
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, field, rows, cols)
        b = [field.coerce(rng.randint(-3, 3)) for _ in range(rows)]
        aug = Matrix(field, [list(m.row(i)) + [b[i]] for i in range(rows)], cols + 1)
        consistent = aug.rank() == m.rank()
        sol = m.solve(b)
        assert (sol is not None) == consistent
        if sol is not None:
            assert m.apply(sol) == tuple(b)


def test_gf2_screen_bounds_rational_rank():
    # an r x r minor that is odd is nonzero over the integers, so the
    # mod-2 rank can never exceed the rational rank
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        r2 = gf2_rank([sum(1 << j for j, x in enumerate(row) if x % 2) for row in data])
        rq = rational_rank(data)
        assert r2 <= rq


def test_modp_rank_matches_matrix_rank():
    rng = random.Random(9)
    for p in (2, 3, 5):
        f = FieldSpec.prime(p)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            assert modp_rank(data, p) == Matrix(f, data, cols).rank()


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_rank_nullity_over_q(rows):
    m = Matrix(QQ, rows, 3)
    assert m.rank() + len(m.kernel_basis()) == 3


@given(st.integers(min_value=2, max_value=200))
@settings(max_examples=40, deadline=None)
def test_field_inverse(p_candidate):
    from ringlab.fields import is_prime

    if not is_prime(p_candidate):
        with pytest.raises(ValueError):
            FieldSpec.prime(p_candidate)
        return
    assert FieldSpec.prime(p_candidate).p == p_candidate


def _sympy_rref(field, vecs):
    """Nonzero rows of the reduced echelon form, computed by sympy: a
    ``DomainMatrix`` over GF(p), a ``sympy.Matrix`` over q."""
    sympy = pytest.importorskip("sympy")
    if field.p is None:
        ref, pivots = sympy.Matrix(vecs).rref()
        rows = [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(pivots))]
        return rows, tuple(pivots)
    from sympy.polys.matrices import DomainMatrix

    ref, pivots = DomainMatrix.from_list(vecs, sympy.GF(field.p)).rref()
    return [[int(x) % field.p for x in row] for row in ref.to_list()[: len(pivots)]], tuple(pivots)


def test_subspace_matches_sympy():
    # Matrix reductions run on Subspace itself, so the reference is sympy
    rng = random.Random(17)
    for field in (QQ, GF2, GF5):
        for _ in range(20):
            cols = rng.randint(1, 6)
            vecs = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
            sub = Subspace(field, cols)
            for v in vecs:
                sub.add(v)
            rows, pivots = _sympy_rref(field, vecs)
            assert sub.dim == len(pivots) and sub.pivots() == pivots
            assert [list(r) for r in sub.basis_rows()] == rows
            for v in vecs:
                assert not any(sub._residual([field.coerce(x) for x in v]))


@pytest.mark.parametrize("field", [GF2, FieldSpec.prime(3), GF5, FieldSpec.prime(7), QQ], ids=str)
def test_sparse_rows_match_sympy_on_the_dense_rows(field):
    # the module engine hands null_space and the rank sparse rows {column:
    # entry}, keys in any order; they must give what sympy gives on the same
    # rows made dense, explicit zero entries and empty rows included.  Keys
    # come shuffled or descending, so a row's pivot is often not its first key.
    rng = random.Random(43)
    if field.p is None:
        values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)]
    else:
        values = list(range(field.p))
    empty = late_pivot = 0
    for t in range(120):
        ncols = rng.randint(1, 7)
        sparse = []
        for _ in range(rng.randint(1, 6)):
            keys = rng.sample(range(ncols), rng.randint(0, ncols))
            if t % 3 == 0:
                keys.sort(reverse=True)
            sparse.append({j: rng.choice(values) for j in keys})
        empty += sum(not row for row in sparse)
        late_pivot += sum(next(iter(nz), None) != min(nz, default=None) for nz in ([j for j in row if row[j]] for row in sparse))
        dense = [[row.get(j, field.zero()) for j in range(ncols)] for row in sparse]
        ref, pivots = _sympy_rref(field, dense)
        expected = []
        for free in (j for j in range(ncols) if j not in pivots):
            vec = {pc: field.neg(row[free]) for pc, row in zip(pivots, ref) if row[free]}
            vec[free] = field.one()
            expected.append(list(vec.items()))
        got = null_space(field, sparse, ncols)
        assert [list(vec.items()) for vec in got] == expected
        assert all(type(x) is type(field.one()) for vec in got for x in vec.values())
        assert _rank(field, sparse, ncols) == len(pivots)
        span = _row_space(field, sparse, ncols)
        assert span.pivots() == pivots and span.dim == len(pivots)
        assert [list(row) for row in span.basis_rows()] == ref
        probes = dense + [[rng.choice(values) for _ in range(ncols)] for _ in range(3)]
        for vec in probes:
            # the residual subtracts vec's entry at each pivot times that row
            residual = list(vec)
            for pc, row in zip(pivots, ref):
                residual = [field.sub(x, field.mul(vec[pc], y)) for x, y in zip(residual, row)]
            keys = list(range(ncols))
            rng.shuffle(keys)
            assert list(span._residual(vec)) == residual
            assert list(span._residual({j: vec[j] for j in keys})) == residual
    assert empty and late_pivot


@pytest.mark.parametrize("field", [FieldSpec.prime(3), QQ], ids=str)
def test_sparse_rows_are_never_made_dense(field):
    # the kernel keeps only a row's nonzeros: 50 rows of 2 nonzeros each in
    # 10^5 columns cost kilobytes, where one row of full width costs 0.8 MB
    ncols = 10**5
    two = field.add(field.one(), field.one())
    rows = [{1999 * (i + 1): two, 1999 * i: field.one()} for i in range(50)]
    tracemalloc.start()
    try:
        rank = _rank(field, rows, ncols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 50
    assert peak < 2**20


@pytest.mark.parametrize("field", [GF2, FieldSpec.prime(3), QQ], ids=str)
def test_kernel_basis_is_indexed_by_the_free_columns(field):
    # the module engine reads a null vector's coordinates in this basis off
    # its free-column entries (modules._free_columns, with no recombination),
    # which needs exactly this shape; the sparse null_space vectors must have
    # it too, with the free column last
    rng = random.Random(29)
    for _ in range(60):
        m = _random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 7))
        pivots = set(m.rref()[1])
        free = [j for j in range(m.ncols) if j not in pivots]
        kb = m.kernel_basis()
        assert len(kb) == len(free)
        for vec, own in zip(kb, free):
            assert vec[own] == 1
            assert not any(vec[own + 1 :])
            assert all(vec[j] == 0 for j in free if j != own)
        sparse = null_space(field, m.rows(), m.ncols)
        assert len(sparse) == len(free)
        for vec, own in zip(sparse, free):
            keys = list(vec)
            assert keys == sorted(keys) and keys[-1] == own and vec[own] == 1
            assert not any(j in vec for j in free if j != own)
            assert all(vec.values())
        assert [tuple(vec.get(j, 0) for j in range(m.ncols)) for vec in sparse] == kb


def test_field_parse_and_str():
    assert str(FieldSpec.parse("q")) == "q"
    assert FieldSpec.parse("fp:5").p == 5
    with pytest.raises(ValueError):
        FieldSpec.parse("fp:6")
    with pytest.raises(ValueError):
        FieldSpec.parse("float")


def test_no_rounding_anywhere():
    # rational arithmetic is Fraction-exact: a classic float trap
    m = Matrix(QQ, [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 21), 1]])
    r, piv = m.rref()
    assert piv == (0, 1)
    assert all(isinstance(x, Fraction) for row in r.rows() for x in row)
    # a float is refused, never rounded mod p or expanded in binary over q
    with pytest.raises(TypeError, match="float"):
        GF5.coerce(2.7)
    with pytest.raises(TypeError, match="float"):
        QQ.coerce(0.1)
    with pytest.raises(TypeError, match="float"):
        Matrix(QQ, [[1, 0.5]])
    with pytest.raises(TypeError, match="float"):
        Subspace(GF2, 2).add([1.0, 0])
    assert QQ.coerce("0.1") == Fraction(1, 10)


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=str)
def test_subspace_refuses_wrong_length_vectors(field):
    sub = Subspace(field, 3)
    sub.add([1, 1, 0])
    for vec in ([0, 0, 1, 0], [1, 2], []):
        with pytest.raises(ValueError, match="length"):
            sub.add(vec)
    assert sub.dim == 1
    assert sub.basis_rows() == [(1, 1, 0)]


@pytest.mark.parametrize("field", [GF2, GF5, QQ], ids=str)
def test_subspace_coerces_its_entries_over_every_field(field):
    # add takes each entry through the field's coerce,
    # GF(2) included: a Fraction, a string, a bool or a negative entry means
    # what coerce makes of it
    entries = [Fraction(1, 3), "2/7", True, -3, Fraction(-4, 9), "-1"]
    coerced = [field.coerce(x) for x in entries]
    probe = [field.coerce(x) for x in (Fraction(1, 3), "2/7", True)]
    for vec, want in ((entries[:3], coerced[:3]), (entries[3:], coerced[3:])):
        sub, ref = Subspace(field, 3), Subspace(field, 3)
        assert sub.add(vec) == ref.add(want) == any(want)
        assert sub.basis_rows() == ref.basis_rows()
        assert sub._residual(probe) == ref._residual(probe)
    if field == GF2:
        # 1/2 has no value mod 2: the error is coerce's, not a TypeError
        with pytest.raises(ZeroDivisionError, match="mod 2"):
            Subspace(field, 2).add([Fraction(1, 2), 0])


def test_only_linalg_names_matrix():
    # the package computes on sparse rows; the dense Matrix stays in linalg.py
    # only because the benchmark's probes name its methods.  A module listed
    # here has started to use it again
    package = Path(ringlab.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py")) if re.search(r"\bMatrix\b", p.read_text())]
    assert users == ["linalg.py"]
