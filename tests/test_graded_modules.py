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

import pickle

import pytest

import ringlab.modules as modules
from algebra_oracle import check_module_action, check_resolution, dense_action, dense_basis_action, dense_map
import gauss_oracle
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


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_cyclic_quotient_dimension_against_the_product_table(name, field):
    # the products e_i * g over the basis span the ideal (g), so dim A/(g) is
    # dim A minus their rank; ``multiply`` reads the product table and shares
    # no code with the closure's ``_act`` over ``var_sparse``
    a = ALGEBRAS[name](field)
    first, last = a.var_names[0], a.var_names[-1]
    forms = [{v: 1} for v in a.var_names] + ([{first: 1, last: -1}] if first != last else [])
    for form in forms:
        g = a.element_from_linear(form)
        products = [a.multiply(a._basis_vec(i), g) for i in range(a.dim_k)]
        assert cyclic_module(a, [g]).dim == a.dim_k - gauss_oracle.rank(field.p, products, a.dim_k), form


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
        at = {pos: deg for deg, positions in state["rows"].items() for pos in positions}
        spans.append([({at[pos] for pos in w}, deg) for w, deg in zip(state["span"], state["span_degrees"])])

    monkeypatch.setattr(modules, "_resolution_step", step)
    for m in pool.values():
        check_module_action(m)
        check_resolution(m, minimal_resolution(m, BOUND))
    # every kernel vector lies in the one degree the state gives it
    assert spans and all(found == {deg} for span in spans for found, deg in span)
    graded = _invariants(a)
    monkeypatch.setattr(LocalAlgebra, "degrees", property(lambda self: ((),) * self.dim_k))
    trivial = _invariants(ALGEBRAS[name](field))
    assert graded == trivial


def _exact(res) -> tuple:
    # the differentials with their key order, which dict equality ignores
    return res.betti, res.degrees, tuple(tuple(tuple(col.items()) for col in d) for d in res.differentials)


def _prefix(res, b) -> tuple:
    betti, degrees, diffs = _exact(res)
    return betti[: b + 1], degrees[: b + 1], diffs[:b]


def _homology_values(m, n) -> list:
    return [(ext(m, n, i), tor(m, n, i)) for i in range(4)]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_a_resolution_raised_in_pieces_matches_one_shot(name, field):
    # a resolution to b stops after beta_b and d_b, with the kernel of F_b
    # pending in the state; every later bound, and the Ext and Tor values
    # that resolve one degree further, must take that kernel exactly once
    a = ALGEBRAS[name](field)
    whole, pieces = _pool(a), _pool(a)
    k = whole["k"]
    for key, m in pieces.items():
        one_shot = minimal_resolution(whole[key], 7)
        for b in (2, 5, 3):
            assert _exact(minimal_resolution(m, b)) == _prefix(one_shot, b), (key, b)
            # Ext^b and Tor_b resolve to b + 1; the Bass numbers resolve M^v
            assert (ext(m, k, b), tor(m, k, b)) == (ext(whole[key], k, b), tor(whole[key], k, b)), (key, b)
            assert bass_truncation(a, m, b) == bass_truncation(a, whole[key], b), (key, b)
        assert _exact(minimal_resolution(m, 7)) == _exact(one_shot), key
        assert _homology_values(m, k) == _homology_values(whole[key], k), key


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_a_resolved_module_pickles_and_resumes(name, field):
    # the state, the cover pending its kernel included, is plain data
    a = ALGEBRAS[name](field)
    whole, pieces = _pool(a), _pool(a)
    for key, m in pieces.items():
        first = _exact(minimal_resolution(m, 3))
        copy = pickle.loads(pickle.dumps(m))
        assert _exact(minimal_resolution(copy, 3)) == first, key
        assert _exact(minimal_resolution(copy, 5)) == _exact(minimal_resolution(whole[key], 5)), key
        assert _homology_values(copy, whole["k"]) == _homology_values(whole[key], whole["k"]), key


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
    # generator g_j; a single ungraded block would hold five.  Taking the
    # kernel of F_t groups its columns by degree and leaves the groups in
    # state["rows"], so those give the width of every group, also of the
    # groups whose kernel is read off the dimension count without
    # elimination.  The kernel of F_t is taken only when beta_{t+1} is asked
    # for: resolving to degree 7 takes seven, and extending to 8 the eighth
    a = _kprime("p3", 4)(GF2)
    assert len(set(a.degrees)) == a.dim_k == 5
    widths: list = []
    real_kernel = modules._cover_kernel

    def cover_kernel(alg, state):
        real_kernel(alg, state)
        widths.append([len(positions) for positions in state["rows"].values()])

    monkeypatch.setattr(modules, "_cover_kernel", cover_kernel)
    omega = canonical_module(a)
    assert minimal_resolution(omega, 7).betti == (2, 4, 11, 29, 76, 199, 521, 1364)
    assert len(widths) == 7
    res = minimal_resolution(omega, 8)
    assert res.betti[8] == 3571
    assert len(widths) == 8
    for t, blocks in enumerate(widths):
        assert sum(blocks) == res.betti[t] * a.dim_k
        assert max(blocks) <= res.betti[t], (t, max(blocks))


def _count_eliminations(monkeypatch) -> dict:
    calls = {"kernel": 0, "insert": 0}
    real_kernel, real_add = modules._kernel_of_columns, modules.Subspace._add_row

    def kernel(*args):
        calls["kernel"] += 1
        return real_kernel(*args)

    def add_row(self, row):
        calls["insert"] += 1
        return real_add(self, row)

    monkeypatch.setattr(modules, "_kernel_of_columns", kernel)
    monkeypatch.setattr(modules.Subspace, "_add_row", add_row)
    return calls


def _count_products(monkeypatch) -> dict:
    # each _act applies one variable to one sparse vector: the step's products
    calls = {"act": 0}
    real = modules._act

    def act(*args):
        calls["act"] += 1
        return real(*args)

    monkeypatch.setattr(modules, "_act", act)
    return calls


def test_dimension_counts_settle_every_block_of_k_over_kprime_k5(monkeypatch):
    # over k[x1..x5]/m^2 every m-multiple of the span is zero, so each span
    # vector is a generator with no insertion, and each group of columns
    # either has as many columns as the span has vectors in its degree (no
    # kernel) or lies over a degree the span misses (all kernel): no group
    # is eliminated.  Every x_k * w lands in a degree the span misses, and
    # no group needs its columns, so no product is formed either
    calls = _count_eliminations(monkeypatch)
    products = _count_products(monkeypatch)
    res = minimal_resolution(residue_field(_kprime("k5", 6)(GF2)), 5)
    assert res.betti == (1, 5, 25, 125, 625, 3125)
    assert calls == {"kernel": 0, "insert": 0}
    assert products == {"act": 0}


def test_dimension_counts_leave_the_eliminations_they_do_not_settle(monkeypatch):
    # the canonical module of kprime(P3) fills some degrees only partly, so
    # both eliminations still run there, and only the products they read are
    # formed.  A resolution to degree 7 stops at beta_7 and d_7: the kernel
    # of F_7 is taken, once, only when the bound is raised to 8, so the
    # extension adds exactly what a fresh resolution to 8 takes beyond 7
    calls = _count_eliminations(monkeypatch)
    products = _count_products(monkeypatch)
    omega = canonical_module(_kprime("p3", 4)(GF2))
    res = minimal_resolution(omega, 7)
    assert res.betti == (2, 4, 11, 29, 76, 199, 521, 1364)
    assert calls == {"kernel": 92, "insert": 3352}
    assert products == {"act": 3740}
    assert minimal_resolution(omega, 7) == res
    assert calls == {"kernel": 92, "insert": 3352} and products == {"act": 3740}
    assert minimal_resolution(omega, 8).betti[8] == 3571
    assert calls == {"kernel": 92 + 49, "insert": 3352 + 5965}
    assert products == {"act": 3740 + 6869}
    calls.update(kernel=0, insert=0)
    products.update(act=0)
    minimal_resolution(canonical_module(omega.algebra), 8)
    assert calls == {"kernel": 141, "insert": 9317}
    assert products == {"act": 10609}


def _half_y_module(field) -> FPModule:
    # A/(y) (+) A(-(1, 0)) over k[x,y]/(x^2, y^2) by hand, basis u, xu, v,
    # yv, xv, xyv: y acts as zero on u and xu only
    x = [[0] * 6 for _ in range(6)]
    y = [[0] * 6 for _ in range(6)]
    for row, col in ((1, 0), (4, 2), (5, 3)):
        x[row][col] = 1
    for row, col in ((3, 2), (5, 4)):
        y[row][col] = 1
    degrees = [(0, 0), (1, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    return FPModule(ALGEBRAS["k[x,y]/(x2,y2)"](field), 6, [x, y], degrees=degrees)


def _ex54_modules(field):
    a = ALGEBRAS["ex54R"](field)
    return {"A/(z)": cyclic_module(a, [a.element_from_linear({"z": 1})]), "k": residue_field(a)}


SKIP_CASES = {
    "hand-built": lambda f: (_half_y_module(f), 6, (2, 1, 1, 1, 1, 1, 1)),
    "ex54R A/(z)": lambda f: (_ex54_modules(f)["A/(z)"], 6, (1,) * 7),
    "ex54R k": lambda f: (_ex54_modules(f)["k"], 6, (1, 3, 7, 15, 31, 63, 127)),
}


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
@pytest.mark.parametrize("case", list(SKIP_CASES))
def test_products_skipped_by_the_count_match_the_trivial_grading(case, field, monkeypatch):
    # a step forms x_k * w only when the span has vectors in its degree
    # deg(w) + deg(x_k); these modules cross such empty degrees at every
    # step.  The trivially graded copy, built by hand without degrees, has
    # one degree and skips nothing
    m, bound, betti = SKIP_CASES[case](field)
    a = m.algebra
    shifts = [a._grade(a._var_monomial(k)) for k in range(a.nvars)]
    missed: list = []
    real_step = modules._resolution_step

    def step(alg, state):
        real_step(alg, state)
        degrees = state["span_degrees"]  # of the span the step covered
        present = set(degrees)
        missed.append(sum(modules._deg_sum(deg, s) not in present for deg in degrees for s in shifts))

    monkeypatch.setattr(modules, "_resolution_step", step)
    res = minimal_resolution(m, bound)
    monkeypatch.undo()
    assert res.betti == betti
    assert len(missed) == bound + 1 and all(missed)
    check_resolution(m, res)
    trivial = FPModule(a, m.dim, [dense_action(m, k) for k in range(a.nvars)])
    assert set(trivial.degrees) == {()}
    assert minimal_resolution(trivial, bound).betti == betti
    k = residue_field(a)
    for n in (k, m):
        assert [ext(m, n, i) for i in range(4)] == [ext(trivial, n, i) for i in range(4)]
        assert [tor(m, n, i) for i in range(4)] == [tor(trivial, n, i) for i in range(4)]


# -- Hom coordinates against an independent solve -----------------------------------
#
# hom_module reads the action's coordinates off the free columns of the kernel
# basis; is_semidualizing_up_to takes dim Hom(C, C) as Ext^0(C, C) and ranks
# the homotheties as flattened actions, and biduality_is_iso ranks the
# evaluation maps as they come off the basis maps of M*, with no coordinates.
# The oracle below is the older route: every vector is solved for against the
# flattened basis maps of the Hom system, and the solutions are ranked, by the
# tests' own Gauss-Jordan (gauss_oracle), which shares no elimination with
# ringlab.


def _flat(rows) -> list:
    return [x for row in rows for x in row]


def _solve_coordinates(f, maps, vectors):
    """Coordinates of each vector in the span of the flattened maps, or None
    for a vector outside it."""
    basis = list(zip(*(_flat(phi) for phi in maps)))
    return [gauss_oracle.solve(f.p, basis, len(maps), vec) for vec in vectors]


def _column_rank(f, cols) -> int:
    """The rank of the matrix with the given columns, each of the same length."""
    return gauss_oracle.rank(f.p, cols, len(cols[0]))


def _solve_hom_actions(m, n, maps):
    """Each variable's action on Hom(M, N) in the basis ``maps``, as rows, or
    None when some x_k Phi leaves the span of the maps."""
    f = m.algebra.field
    maps = [dense_map(m, n, phi) for phi in maps]
    actions = []
    for k in range(m.algebra.nvars):
        rn = dense_action(n, k)
        cols = _solve_coordinates(f, maps, [_flat(gauss_oracle.mat_mul(f.p, rn, phi)) for phi in maps])
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
    if any(col is None for col in cols) or (cols and _column_rank(a.field, cols) != a.dim_k):
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
    return _column_rank(a.field, cols) == m.dim


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
def test_semidualizing_builds_no_hom_system(name, field, monkeypatch):
    # Ext^0(C, C) and the faithfulness rank stand in for Hom(C, C); the
    # answers are the solve route's, taken before hom_module is refused
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    expected = {key: _solve_semidualizing(m, 2) for key, m in pool.items()}

    def refuse(*args):
        raise AssertionError("a Hom system was built")

    monkeypatch.setattr(modules, "hom_module", refuse)
    assert {key: is_semidualizing_up_to(m, 2) for key, m in pool.items()} == expected


def test_semidualizing_resolves_the_canonical_module_to_degree_zero_only(monkeypatch):
    # kprime(P3) at order 4 is not Gorenstein: omega needs two generators and
    # its dual, A, one, so the check resolves A and reads omega's beta_0 only.
    # A cyclic C builds no dual at all
    a = _kprime("p3", 4)(GF2)
    omega = canonical_module(a)
    assert is_semidualizing_up_to(omega, 6)
    assert omega._res_state["betti"] == [2]

    def refuse(m):
        raise AssertionError("a Matlis dual was built")

    pool = _pool(a)
    monkeypatch.setattr(modules, "_matlis_dual", refuse)
    assert is_semidualizing_up_to(pool["A"], 6)
    assert not is_semidualizing_up_to(pool["A/(x)"], 2)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_bass_numbers_match_the_route_through_k(name, field):
    # bass_truncation reads the Betti numbers of M^v; ext(k, M) ranks k's
    # resolution against M
    a = ALGEBRAS[name](field)
    k = residue_field(a)
    modules_ = list(_pool(a).values()) + [FPModule(a, 0, [[]] * a.nvars)]
    for m in modules_:
        assert bass_truncation(a, m, 5) == [ext(k, m, i) for i in range(6)], m


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_matlis_dual_is_an_involution_on_the_action(name, field):
    a = ALGEBRAS[name](field)
    for m in _pool(a).values():
        dual = modules._matlis_dual(m)
        check_module_action(dual)
        again = modules._matlis_dual(dual)
        assert again.dim == m.dim and again.degrees == m.degrees
        for k in range(a.nvars):
            assert [dict(col) for col in again.var_sparse[k]] == [dict(col) for col in m.var_sparse[k]]


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
    # _block_rank ranks sparse rows; the reference is gauss_oracle's rank of
    # the same block made dense
    a = ALGEBRAS[name](field)
    pool = _pool(a)
    real = modules._rank
    blocks = []

    def rank(f, block, ncols):
        dense = [[row.get(j, 0) for j in range(ncols)] for row in block]
        got = real(f, block, ncols)
        assert got == gauss_oracle.rank(f.p, dense, ncols)
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
