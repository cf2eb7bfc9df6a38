"""The graded module engine against its own trivial grading.

A monomial algebra is Z^n-graded by exponent tuples and a homogeneous
presentation is Z-graded by total degree; ``residue_field``, ``free_module``,
``canonical_module`` and ``cyclic_module`` on homogeneous generators carry
those degrees, and resolutions and Hom/tensor ranks are computed one degree
block at a time.  Forcing every degree to the trivial degree () puts each
computation into a single block, the ungraded computation: both runs must
give the same Betti, Bass, Ext and Tor numbers.  The graded run's
resolutions are also checked by ``algebra_oracle.check_resolution``
(minimality, d o d = 0, exactness by k-ranks, homogeneity).
"""

import pytest

import ringlab.modules as modules
from algebra_oracle import check_module_action, check_resolution, dense_action, dense_basis_action, dense_map
from gauss_oracle import mat_mul
from ringlab.artin import LocalAlgebra, canonical_module, truncate
from ringlab.constructions import (
    edge_ideal_all_squares,
    named_graph,
    plane_conic_presentation,
    stanley_example_big_ring,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.linalg import Matrix
from ringlab.modules import (
    FPModule,
    bass_truncation,
    biduality_is_iso,
    cyclic_module,
    dual_module,
    ext,
    free_module,
    hom_module,
    is_semidualizing_up_to,
    is_totally_reflexive_up_to,
    minimal_resolution,
    poincare_truncation,
    residue_field,
    tor,
)
from ringlab.monomials import Presentation, parse_poly, presentation_of

GF3 = FieldSpec.prime(3)


def _pres(vars_, gens, field):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


def _kprime(name, order):
    return lambda f: truncate(presentation_of(edge_ideal_all_squares(named_graph(name)), f), order)


# The algebras of tests/test_modules.py and of acceptance criteria 5, 6, 10
# and 11, plus one homogeneous and one inhomogeneous general presentation.
ALGEBRAS = {
    "k[x]/(x2)": lambda f: truncate(_pres(["x"], ["x^2"], f), 2),
    "k[x,y]/(x2,xy,y2)": lambda f: truncate(_pres(["x", "y"], ["x^2", "x*y", "y^2"], f), 2),
    "k[x,y]/(x2,y2)": lambda f: truncate(_pres(["x", "y"], ["x^2", "y^2"], f), 3),
    "ex54R": lambda f: truncate(stanley_example_big_ring(f), 3),
    "kprime(P3)": _kprime("p3", 4),
    "k[x,y,z]/(x2,y2,z2)": lambda f: truncate(_pres(["x", "y", "z"], ["x^2", "y^2", "z^2"], f), 4),
    "conic": lambda f: truncate(plane_conic_presentation(f), 4),
    "inhomogeneous": lambda f: truncate(_pres(["x", "y"], ["x^2 - y^3"], f), 5),
}
BOUND = 4


def _pool(a):
    first, last = a.var_names[0], a.var_names[-1]
    quotient = cyclic_module(a, [a.element_from_linear({first: 1})])
    return {
        "k": residue_field(a),
        "A": free_module(a),
        "canonical": canonical_module(a),
        "A/(x)": quotient,
        # inhomogeneous under a multigrading, so trivially graded there
        "A/(x+y)": cyclic_module(a, [a.element_from_linear({first: 1, last: 1})]),
        "(A/(x))*": dual_module(quotient),  # trivially graded
    }


def _invariants(a) -> dict:
    pool = _pool(a)
    out = {}
    for name, m in pool.items():
        out[name, "betti"] = poincare_truncation(m, BOUND)
        out[name, "bass"] = bass_truncation(a, m, BOUND - 1)
        for other, n in pool.items():
            out[name, other, "ext"] = [ext(m, n, i) for i in range(3)]
            out[name, other, "tor"] = [tor(m, n, i) for i in range(3)]
    return out


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_graded_engine_matches_the_trivial_grading(name, field, monkeypatch):
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    mixed = pool["A/(x+y)"].degrees
    if a._monomial_path:
        assert a.degrees == a.basis_monomials
        assert a.nvars == 1 or mixed == ((),) * len(mixed)
    elif name == "conic":
        assert a.degrees == tuple((sum(m),) for m in a.basis_monomials)
        assert () not in mixed
    else:
        assert a.degrees == ((),) * a.dim_k
    spans = []
    real_step = modules._resolution_step

    def step(alg, state):
        real_step(alg, state)
        spans.append((state["span"], state["at"]))

    monkeypatch.setattr(modules, "_resolution_step", step)
    for m in pool.values():
        check_module_action(m)
        check_resolution(m, minimal_resolution(m, BOUND))
    # every kernel vector lies in one degree
    assert spans and all(len({at[pos] for pos in w}) == 1 for span, at in spans for w in span)
    graded = _invariants(a)
    monkeypatch.setattr(LocalAlgebra, "degrees", property(lambda self: ((),) * self.dim_k))
    trivial = _invariants(ALGEBRAS[name](field))
    assert graded == trivial


@pytest.mark.parametrize("field, bound", [(GF2, 6), (QQ, 5)], ids=["fp:2", "q"])
def test_dress_kramer_betti_numbers_of_kprime_c4(field, bound):
    # kprime(C4) at order 3 is the fiber product over k of two copies of
    # S = k[a,b]/(a^2, b^2), whose residue field has 1/P^S = (1 - t)^2.  By
    # Dress-Kraemer 1/P = 1/P^S + 1/P^S - 1 = 1 - 4t + 2t^2, so the Betti
    # numbers of k satisfy b_t = 4 b_{t-1} - 2 b_{t-2}.
    a = _kprime("c4", 3)(field)
    betti = poincare_truncation(residue_field(a), bound)
    assert betti == [1, 4, 14, 48, 164, 560, 1912][: bound + 1]
    assert all(betti[t] == 4 * betti[t - 1] - 2 * betti[t - 2] for t in range(2, bound + 1))


def test_no_kernel_block_is_wider_than_its_betti_number(monkeypatch):
    # the five basis monomials of kprime(P3) have distinct multidegrees, so a
    # degree block of the columns b * g_j holds at most one column per
    # generator g_j; a single ungraded block would hold five
    a = _kprime("p3", 4)(GF2)
    assert len(set(a.degrees)) == a.dim_k == 5
    widths: list = []
    real_step, real_kernel = modules._resolution_step, modules._kernel_of_columns

    def step(alg, state):
        widths.append([])
        real_step(alg, state)

    def kernel(f, columns, slot, size):
        widths[-1].append(len(columns))
        return real_kernel(f, columns, slot, size)

    monkeypatch.setattr(modules, "_resolution_step", step)
    monkeypatch.setattr(modules, "_kernel_of_columns", kernel)
    res = minimal_resolution(canonical_module(a), 7)
    assert res.betti == (2, 4, 11, 29, 76, 199, 521, 1364)
    assert len(widths) == 8
    for t, blocks in enumerate(widths):
        assert sum(blocks) == res.betti[t] * a.dim_k
        assert max(blocks) <= res.betti[t], (t, max(blocks))


# -- Hom coordinates against Matrix.solve -------------------------------------------
#
# hom_module, the homothety of is_semidualizing_up_to and the evaluation map of
# biduality_is_iso read coordinates off the free columns of the kernel basis.
# The oracle below is the older route: every vector is solved for against the
# flattened basis maps with Matrix.solve, a separate elimination.


def _flat(rows) -> list:
    return [x for row in rows for x in row]


def _columns(f, cols) -> Matrix:
    """The matrix with the given columns, each of the same length."""
    return Matrix(f, list(zip(*cols)), len(cols))


def _solve_coordinates(f, maps, vectors):
    """Coordinates of each vector in the span of the flattened maps, or None
    for a vector outside it."""
    basis = _columns(f, [_flat(phi) for phi in maps])
    return [basis.solve(vec) for vec in vectors]


def _solve_hom_actions(m, n, maps):
    """Each variable's action on Hom(M, N) in the basis ``maps``, as rows, or
    None when some x_k Phi leaves the span of the maps."""
    f = m.algebra.field
    maps = [dense_map(m, n, phi) for phi in maps]
    actions = []
    for k in range(m.algebra.nvars):
        rn = dense_action(n, k)
        cols = _solve_coordinates(f, maps, [_flat(mat_mul(f.p, rn, phi)) for phi in maps])
        if any(c is None for c in cols):
            return None
        actions.append([list(row) for row in zip(*cols)])
    return actions


def _hom_actions(hom) -> list:
    return [dense_action(hom, k) for k in range(hom.algebra.nvars)]


def _solve_semidualizing(c, b) -> bool:
    a = c.algebra
    hom, maps = hom_module(c, c)
    if hom.dim != a.dim_k:
        return False
    maps = [dense_map(c, c, phi) for phi in maps]
    actions = [_flat(dense_basis_action(c, i)) for i in range(a.dim_k)]
    cols = _solve_coordinates(a.field, maps, actions)
    if any(col is None for col in cols) or (cols and _columns(a.field, cols).rank() != a.dim_k):
        return False
    return all(ext(c, c, i) == 0 for i in range(1, b + 1))


def _solve_biduality(m) -> bool:
    a = m.algebra
    free = free_module(a)
    dual, phis = hom_module(m, free)
    double, psis = hom_module(dual, free)
    if double.dim != m.dim:
        return False
    if m.dim == 0:
        return True
    phis = [dense_map(m, free, phi) for phi in phis]
    evs = [[phis[t][s][j] for s in range(a.dim_k) for t in range(dual.dim)] for j in range(m.dim)]
    cols = _solve_coordinates(a.field, [dense_map(dual, free, psi) for psi in psis], evs)
    assert all(col is not None for col in cols)
    return _columns(a.field, cols).rank() == m.dim


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_hom_coordinates_match_the_solve_route(name, field):
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    for m in pool.values():
        for n in (pool["A"], m):
            hom, maps = hom_module(m, n)
            assert _hom_actions(hom) == _solve_hom_actions(m, n, maps)
        assert is_semidualizing_up_to(m, 2) == _solve_semidualizing(m, 2)
        assert biduality_is_iso(m) == _solve_biduality(m)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_trusted_modules_pass_the_action_oracle(name, field):
    # residue_field, free_module, cyclic_module, canonical_module and
    # hom_module skip FPModule's commutation check; this oracle stands in for it
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    for m in pool.values():
        check_module_action(m)
        for n in pool.values():
            check_module_action(hom_module(m, n)[0])


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_sparse_basis_action_matches_the_dense_products(name, field):
    # the engine builds each basis element's action along the division tree,
    # sparse; the reference multiplies the dense var_actions along the monomial
    a = ALGEBRAS[name](field)
    for m in _pool(a).values():
        for b in range(a.dim_k):
            cols = m._basis_action(b)
            dense = [[cols[j].get(i, 0) for j in range(m.dim)] for i in range(m.dim)]
            assert dense == dense_basis_action(m, b), (b, m)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_the_engine_builds_no_matrix(name, field, monkeypatch):
    # truncate and the module engine keep every normal form and action sparse,
    # at their public edges too: a hand-built FPModule and hom_module build no
    # Matrix either
    built = []
    real = Matrix.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", init)
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    for m in pool.values():
        minimal_resolution(m, BOUND)
        bass_truncation(a, m, 2)
        is_semidualizing_up_to(m, 2)
        is_totally_reflexive_up_to(m, 2)
        biduality_is_iso(m)
        dual_module(m)
        by_hand = FPModule(a, m.dim, [dense_action(m, k) for k in range(a.nvars)], degrees=m.degrees)
        minimal_resolution(by_hand, 2)
        for n in pool.values():
            hom_module(m, n)
            for i in range(3):
                ext(m, n, i)
                tor(m, n, i)
    assert not built


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_block_rank_matches_the_dense_matrix_rank(name, field, monkeypatch):
    # _block_rank ranks sparse rows; the reference is Matrix.rank on the same
    # block made dense
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    real = modules._rank
    blocks = []

    def rank(f, block, ncols):
        dense = [[row.get(j, 0) for j in range(ncols)] for row in block]
        got = real(f, block, ncols)
        assert got == Matrix(f, dense, ncols).rank()
        blocks.append(ncols)
        return got

    monkeypatch.setattr(modules, "_rank", rank)
    for m in pool.values():
        for n in pool.values():
            for i in range(3):
                ext(m, n, i)
                tor(m, n, i)
    assert blocks


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_hom_refuses_a_basis_that_is_not_closed(field, monkeypatch):
    # Hom(A, A) over k[x,y]/(x^2, y^2) is A itself, with basis the four
    # multiplications; a kernel basis cut down to one of them spans a closed
    # subspace only for the multiplication by xy, which x and y kill.  The
    # engine reads the action's coordinates unchecked; the solve route of
    # test_hom_coordinates_match_the_solve_route refuses the other three
    a = ALGEBRAS["k[x,y]/(x2,y2)"](field)
    free = free_module(a)
    real = modules.null_space
    _, maps = hom_module(free, free)
    assert len(maps) == 4
    closed = []
    for keep in range(4):
        monkeypatch.setattr(modules, "null_space", lambda *args, keep=keep: real(*args)[keep : keep + 1])
        hom, _ = hom_module(free, free)
        if _hom_actions(hom) == _solve_hom_actions(free, free, [maps[keep]]):
            closed.append(keep)
    assert len(closed) == 1
    assert sum(1 for x in maps[closed[0]].values() if x) == 1  # xy maps 1 to xy, all else to 0
