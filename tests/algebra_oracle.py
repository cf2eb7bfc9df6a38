"""Independent structure oracle for truncated local algebras.

``check_algebra(a)`` proves that an algebra built by ``truncate`` is
k[x]/(I + m^N) for its presentation and order N.  Let phi: k[x] -> A send
x_k to ``var_images[k]``.  Once A is a commutative associative algebra with
unit (checks 4 and 5), phi is a ring map; it is onto when every basis monomial
maps to its unit vector (check 1), it kills I + m^N when every generator and
every degree-N monomial maps to 0 (check 2), and then dim_k A equal to the
number of standard monomials of I + m^N, counted by sympy's Groebner bases
(check 3), makes the induced map k[x]/(I + m^N) -> A an isomorphism.  Check 6
pins the m-adic filtration against ``power_dims``, the chain of powers of m.

Products are taken only through the public ``multiply``: each basis pair once,
and triples are expanded from that table by bilinearity, so the exhaustive
associativity check stays cheap.  ``check_module_action`` checks that a
module's basis actions follow the algebra's multiplication table and respect
its grading; ``check_resolution`` checks a minimal free resolution.  Ranks
and matrix products come from ``gauss_oracle``, which shares no elimination
with ringlab.
"""

from __future__ import annotations

import itertools
import random

try:
    import sympy
except ImportError:  # without sympy the Groebner dimension check is skipped
    sympy = None

from gauss_oracle import identity, mat_mul, rank, rref

EXHAUSTIVE_DIM = 60
SAMPLED_TRIPLES = 1000


def _basis_vec(a, i: int) -> tuple:
    vec = [a.field.zero()] * a.dim_k
    vec[i] = a.field.one()
    return tuple(vec)


def _unit(a) -> tuple:
    return _basis_vec(a, a.index[(0,) * a.nvars])


def _sparse(vec) -> dict:
    return {i: c for i, c in enumerate(vec) if c}


def _combine(f, terms) -> dict:
    """sum of c * vec over (c, sparse vec) pairs, as a sparse dict."""
    out: dict = {}
    for c, vec in terms:
        for t, x in vec.items():
            out[t] = f.add(out.get(t, f.zero()), f.mul(c, x))
    return {t: x for t, x in out.items() if x}


def _evaluate_monomial(a, mono, cache) -> tuple:
    if mono not in cache:
        k = next((idx for idx, e in enumerate(mono) if e), None)
        if k is None:
            cache[mono] = _unit(a)
        else:
            rest = mono[:k] + (mono[k] - 1,) + mono[k + 1 :]
            cache[mono] = a.multiply(_evaluate_monomial(a, rest, cache), a.var_images[k])
    return cache[mono]


def _monomials_of_degree(nv: int, d: int):
    for combo in itertools.combinations_with_replacement(range(nv), d):
        e = [0] * nv
        for k in combo:
            e[k] += 1
        yield tuple(e)


def groebner_dim(presentation, order: int) -> int | None:
    """dim_k k[x]/(gens + m^order) from a sympy Groebner basis; None without sympy."""
    if sympy is None:
        return None
    nv = presentation.nvars
    if nv == 0:
        return 1
    xs = sympy.symbols(f"x0:{nv}")

    def term(mono):
        return sympy.Mul(*(x**e for x, e in zip(xs, mono)))

    polys = [
        sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * term(m) for m, c in g.terms.items()))
        for g in presentation.gens
    ]
    polys += [term(m) for m in _monomials_of_degree(nv, order)]
    options = {} if presentation.field.is_rational else {"modulus": presentation.field.p}
    basis = sympy.groebner(polys, *xs, order="grevlex", **options)
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    return sum(
        1
        for m in itertools.product(range(order), repeat=nv)
        if sum(m) < order and not any(all(x >= y for x, y in zip(m, lead)) for lead in leads)
    )


def check_algebra(a) -> None:
    """Assert A = k[x]/(I + m^N) for the presentation and order of ``a``."""
    f = a.field
    d = a.dim_k
    p = a.presentation
    n = a.trunc_order
    cache: dict = {}
    # 1. phi maps each basis monomial to its unit vector: phi is onto
    for i, mono in enumerate(a.basis_monomials):
        assert _evaluate_monomial(a, mono, cache) == _basis_vec(a, i), f"basis monomial {mono}"
    # 2. phi kills the generators and m^N
    for g in p.gens:
        image = (f.zero(),) * d
        for mono, c in g.terms.items():
            image = tuple(f.add(x, f.mul(c, y)) for x, y in zip(image, _evaluate_monomial(a, mono, cache)))
        assert not any(image), f"generator {g.terms} does not vanish"
    for mono in _monomials_of_degree(a.nvars, n):
        assert not any(_evaluate_monomial(a, mono, cache)), f"degree-{n} monomial {mono} survives"
    # 3. the dimension is that of k[x]/(I + m^N)
    expected = groebner_dim(p, n)
    if expected is not None:
        assert d == expected, f"dim_k {d}, Groebner count {expected}"
    # 4. unit law
    unit = _unit(a)
    for i in range(d):
        e = _basis_vec(a, i)
        assert a.multiply(unit, e) == e and a.multiply(e, unit) == e, f"unit law at {i}"
    # 5. commutativity and associativity, on every pair and triple up to
    #    EXHAUSTIVE_DIM and on seeded triples above it
    table: dict = {}

    def prod(i, j):
        if (i, j) not in table:
            table[(i, j)] = _sparse(a.multiply(_basis_vec(a, i), _basis_vec(a, j)))
        return table[(i, j)]

    if d <= EXHAUSTIVE_DIM:
        for i, j in itertools.combinations(range(d), 2):
            assert prod(i, j) == prod(j, i), f"commutativity at {(i, j)}"
        triples = itertools.product(range(d), repeat=3)
    else:
        rng = random.Random(0)
        triples = [tuple(rng.randrange(d) for _ in range(3)) for _ in range(SAMPLED_TRIPLES)]
        for i, j, _ in triples:
            assert prod(i, j) == prod(j, i), f"commutativity at {(i, j)}"
    for i, j, k in triples:
        left = _combine(f, ((c, prod(t, k)) for t, c in prod(i, j).items()))
        right = _combine(f, ((c, prod(i, t)) for t, c in prod(j, k).items()))
        assert left == right, f"associativity at {(i, j, k)}"
    # 6. the m-adic filtration
    filt = a.filtration
    assert filt[0] == d and filt[-1] == 0, f"filtration {filt}"
    assert all(filt[j] >= filt[j + 1] for j in range(len(filt) - 1)), f"filtration {filt}"
    assert filt == power_dims(a), f"filtration {filt}, powers of m {power_dims(a)}"


def power_dims(a) -> tuple:
    """dim m^j for j = 0, 1, ... up to the first zero, from the chain of
    powers: m^0 = A, and m^(j+1) is the span of x_k times the rows of m^j."""
    p, d = a.field.p, a.dim_k
    rows, dims = identity(p, d), [d]
    while rows:
        rows = rref(p, [a.multiply(a.var_images[k], row) for row in rows for k in range(a.nvars)], d)[0]
        dims.append(len(rows))
    return tuple(dims)


def dense_action(m, k: int) -> list[list]:
    """Variable k's action on m as a list of rows, read off its sparse columns."""
    rows = [[m.algebra.field.zero()] * m.dim for _ in range(m.dim)]
    for j, col in enumerate(m.var_sparse[k]):
        for i, x in col:
            rows[i][j] = x
    return rows


def dense_map(m, n, vec) -> list[list]:
    """A ``hom_module`` basis map, the sparse vector {s * dim M + t: entry},
    as the dim N x dim M list of rows of a map M -> N."""
    zero = m.algebra.field.zero()
    return [[vec.get(s * m.dim + t, zero) for t in range(m.dim)] for s in range(n.dim)]


def dense_basis_action(m, b: int) -> list[list]:
    """The action on m of the b-th basis monomial, as a list of rows: the
    product of the dense variable actions along its exponents."""
    p = m.algebra.field.p
    mat = identity(p, m.dim)
    for var, e in enumerate(m.algebra.basis_monomials[b]):
        for _ in range(e):
            mat = mat_mul(p, dense_action(m, var), mat)
    return mat


def _element_action(m, coeffs, basis_actions) -> list[list]:
    """The action of the algebra element sum_b coeffs[b] * b, from the
    actions of the basis elements."""
    f = m.algebra.field
    rows = [[f.zero()] * m.dim for _ in range(m.dim)]
    for c, mat in zip(coeffs, basis_actions):
        if not c:
            continue
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x:
                    rows[i][j] = f.add(rows[i][j], f.mul(c, x))
    return rows


def check_module_action(m) -> None:
    """Assert action(b * b') = action(b) o action(b') on every basis pair,
    that the unit acts as the identity, that every degree has the length of
    the algebra's degrees unless all are () (the trivial grading), and that
    variable k sends degree d into degree d + deg(x_k) (always true of a
    trivially graded module): the homogeneity ``FPModule`` demands of a
    hand-built grading.  Basis actions are the dense products of
    ``dense_basis_action``."""
    a = m.algebra
    p = a.field.p
    if any(m.degrees):
        assert {len(deg) for deg in m.degrees} == {len(a.degrees[0])}, "degree lengths"
    basis = [dense_basis_action(m, b) for b in range(a.dim_k)]
    assert _element_action(m, _unit(a), basis) == identity(p, m.dim), "unit action"
    for i in range(a.dim_k):
        for j in range(a.dim_k):
            product = a.multiply(_basis_vec(a, i), _basis_vec(a, j))
            assert _element_action(m, product, basis) == mat_mul(p, basis[i], basis[j]), f"action at {(i, j)}"
    for k in range(a.nvars):
        shift = a._grade(a._var_monomial(k))
        rows = dense_action(m, k)
        for j in range(m.dim):
            target = _degree_sum(m.degrees[j], shift)
            for i in range(m.dim):
                if rows[i][j]:
                    assert m.degrees[i] == target, f"variable {k} sends degree {m.degrees[j]} to {m.degrees[i]}"


def _degree_sum(u: tuple, v: tuple) -> tuple:
    # the trivial degree () absorbs every other degree
    return tuple(x + y for x, y in zip(u, v))


def _k_rank(a, diff, nrows: int, product) -> int:
    """k-rank of a sparse differential into A^nrows, one column b * col per
    (column, basis element b), from the basis products ``product(b', b)``."""
    f, d = a.field, a.dim_k
    cols = []
    for col in diff:
        for b in range(d):
            dense = [f.zero()] * (nrows * d)
            for pos, c in col.items():
                r, b_entry = divmod(pos, d)
                for j, x in product(b_entry, b).items():
                    dense[r * d + j] = f.add(dense[r * d + j], f.mul(c, x))
            cols.append(dense)
    # the rank of a matrix is the rank of its columns
    return rank(f.p, cols, nrows * d)


def _dense(a, res) -> list:
    """Each differential's sparse columns {r * dim_k + b: c} as columns of
    betti[t - 1] dense coefficient tuples over the algebra basis; asserts
    that no stored coefficient is zero."""
    out = []
    for t, diff in enumerate(res.differentials, start=1):
        cols = []
        for vec in diff:
            col = [[a.field.zero()] * a.dim_k for _ in range(res.betti[t - 1])]
            for pos, c in vec.items():
                assert c, f"d_{t} stores a zero coefficient"
                r, b = divmod(pos, a.dim_k)
                col[r][b] = c
            cols.append(tuple(map(tuple, col)))
        out.append(tuple(cols))
    return out


def check_resolution(m, res) -> None:
    """Assert that ``res`` is a minimal resolution of m up to its bound: every
    entry lies in the maximal ideal, consecutive differentials compose to
    zero over A, the k-ranks make F_1 -> F_0 -> M -> 0 and every
    F_{t+1} -> F_t -> F_{t-1} exact, and each differential is homogeneous of
    degree zero: entry (column i, row r) of d_t has only basis terms b with
    deg(e_r) + deg(b) = deg(e_i)."""
    a = m.algebra
    unit = a.index[(0,) * a.nvars]
    differentials = _dense(a, res)
    for t, diff in enumerate(differentials, start=1):
        assert len(diff) == res.betti[t] == len(res.degrees[t])
        for i, col in enumerate(diff):
            assert len(col) == res.betti[t - 1]
            for r, entry in enumerate(col):
                assert entry[unit] == 0, f"unit entry in d_{t}"
                for b, c in enumerate(entry):
                    if c:
                        got = _degree_sum(res.degrees[t - 1][r], a.degrees[b])
                        assert got == res.degrees[t][i], f"d_{t} column {i} is not homogeneous"
    # d_t d_{t+1} over the nonzero coefficients of the sparse columns only,
    # with basis products from the public multiply, each pair taken once
    f, d = a.field, a.dim_k
    table: dict = {}

    def product(b, b_prev) -> dict:
        if (b, b_prev) not in table:
            table[b, b_prev] = _sparse(a.multiply(_basis_vec(a, b), _basis_vec(a, b_prev)))
        return table[b, b_prev]

    for t in range(1, len(res.differentials)):
        left = res.differentials[t - 1]
        for col in res.differentials[t]:
            total: dict = {}
            for pos, c in col.items():
                r_mid, b = divmod(pos, d)
                for pos_prev, c_prev in left[r_mid].items():
                    r_prev, b_prev = divmod(pos_prev, d)
                    cc = f.mul(c, c_prev)
                    for j, x in product(b, b_prev).items():
                        key = r_prev * d + j
                        total[key] = f.add(total.get(key, f.zero()), f.mul(cc, x))
            assert not any(total.values()), f"d_{t} d_{t + 1} != 0"
    ranks = [_k_rank(a, diff, res.betti[t], product) for t, diff in enumerate(res.differentials)]
    if ranks:
        assert ranks[0] == res.betti[0] * a.dim_k - m.dim, "F_1 -> F_0 -> M is not exact"
    for t in range(1, len(ranks)):
        assert ranks[t - 1] + ranks[t] == res.betti[t] * a.dim_k, f"not exact at F_{t}"
