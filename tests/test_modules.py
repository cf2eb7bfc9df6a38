"""Module/homology engine tests, with an independent Ext oracle.

The oracle builds a deliberately non-minimal two-step free presentation (free
covers on every k-basis vector, not on minimal generators) and takes the
homology of its Hom complex directly.  It shares only the algebra's
multiplication table and the modules' variable actions with the production
path.
"""

import itertools
import random

import pytest

import ringlab.modules as modules
from algebra_oracle import check_module_action, check_resolution, dense_action, dense_basis_action, dense_map
from gauss_oracle import apply as oracle_apply, mat_mul, rank as oracle_rank
from ringlab.artin import canonical_module, ideal_direct_sum_check, socle, truncate
from ringlab.constructions import edge_ideal_all_squares, named_graph, stanley_example_big_ring
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.modules import (
    FPModule,
    _kernel_of_columns,
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


def pres(vars_, gens, field=QQ):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


def dual_numbers(field=QQ):
    return truncate(pres(["x"], ["x^2"], field), 2)


def fat_point(field=QQ):
    return truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"], field), 2)


def ci_algebra(field=QQ):
    return truncate(pres(["x", "y"], ["x^2", "y^2"], field), 3)


def ex54_ring(field=QQ):
    return truncate(stanley_example_big_ring(field), 3)


# -- constructors ----------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_hom_system_with_a_nonzero_diagonal(field):
    # A = k[x]/(x^2) in a conjugated basis: x acts with diagonal (1, -1), so
    # each diagonal unknown of the Hom system gets an entry from M's action
    # and one from N's; End(A) = A is still 2-dimensional
    a = dual_numbers(field)
    m = FPModule(a, 2, [[[1, -1], [1, -1]]])
    x = dense_action(m, 0)
    hom, maps = hom_module(m, m)
    assert hom.dim == 2
    for phi in maps:
        phi = dense_map(m, m, phi)
        assert mat_mul(field.p, x, phi) == mat_mul(field.p, phi, x)
    check_module_action(hom)


def test_residue_field_basic():
    a = dual_numbers()
    k = residue_field(a)
    assert k.dim == 1 and k.label == "k"
    assert all(not col for v in range(a.nvars) for col in k.var_sparse[v])


def test_free_module_is_regular_representation():
    a = dual_numbers()
    f = free_module(a)
    assert f.dim == a.dim_k
    unit = a._basis_vec(a.index[(0,)])
    assert tuple(oracle_apply(a.field.p, dense_action(f, 0), unit)) == a.element_from_linear({"x": 1})


def test_cyclic_module_examples():
    r = ex54_ring()
    z = r.element_from_linear({"z": 1})
    m = cyclic_module(r, [z])
    assert m.dim == 3
    assert cyclic_module(r, []).dim == r.dim_k
    mm = [r._basis_vec(i) for i in range(1, r.dim_k)]
    assert cyclic_module(r, mm).dim == 1


def test_membership_in_m_reads_the_unit_coordinate(monkeypatch):
    # the first basis monomial is 1 and the others lie in m, so no power of m
    # is built to test a generator; a wrong length is refused first
    a = truncate(stanley_example_big_ring(GF3), 3)
    monkeypatch.setattr(type(a), "_modulo_power", lambda *args: pytest.fail("a power of m was built"))
    x, z = a.element_from_linear({"x": 1}), a.element_from_linear({"z": 1})
    unit = a._basis_vec(0)
    with pytest.raises(ValueError, match="cyclic quotient generators must lie in the maximal ideal"):
        cyclic_module(a, [z, unit])
    with pytest.raises(ValueError, match="^generators must lie in the maximal ideal"):
        ideal_direct_sum_check(a, [x], [unit])
    short = f"vector of length {a.dim_k - 1} in a subspace of k\\^{a.dim_k}"
    with pytest.raises(ValueError, match=short):
        cyclic_module(a, [unit[:-1]])
    with pytest.raises(ValueError, match=short):
        ideal_direct_sum_check(a, [x], [unit[:-1]])
    # 3 is 0 in GF(3), so z + 3 * 1 lies in m and generates what z does
    shifted = (3,) + z[1:]
    assert cyclic_module(a, [shifted]).dim == cyclic_module(a, [z]).dim
    assert ideal_direct_sum_check(a, [x], [shifted]) == ideal_direct_sum_check(a, [x], [z])


def test_action_respects_table():
    r = ex54_ring(GF2)
    check_module_action(cyclic_module(r, [r.element_from_linear({"z": 1})]))
    check_module_action(free_module(r))
    check_module_action(canonical_module(r))


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_hand_built_module_actions_must_commute(field):
    # the package's own constructors skip the commutation check, a hand-built
    # module keeps it: on k^2 over the fat point, x = e_21 and y = e_12 give
    # xy = e_22 but yx = e_11
    a = fat_point(field)
    x = [[0, 0], [1, 0]]
    y = ((0, 1), (0, 0))
    with pytest.raises(AssertionError, match="variable actions do not commute"):
        FPModule(a, 2, [x, y])
    # with y acting as 0 it is A/(y): its syzygy (y) is k, whose Betti
    # numbers over the fat point double
    m = FPModule(a, 2, [x, [[0, 0], [0, 0]]])
    check_module_action(m)
    assert poincare_truncation(m, 3) == [1, 1, 2, 4]


ZERO_ACTIONS = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize(
    "actions, degrees, error, message",
    [
        ([[[0, 0], [1, 0]]], None, ValueError, "need one action per variable"),
        ([[[0, 0], [1, 0]], [[0, 0]]], None, ValueError, "action has wrong shape"),
        ([[[0, 0], [1, 0]], [[0, 0], [0]]], None, ValueError, "action has wrong shape"),
        ([[[0, 0], [1, 0]], [[0, 0], [0, 0]]], [(0, 0)], ValueError, "need one degree per basis element"),
        ([[[0, 0], [1, 0]], [[0, 0], [0.5, 0]]], None, TypeError, "not an exact field element"),
        (ZERO_ACTIONS, [("a", 0), (0, 0)], ValueError, r"degree \('a', 0\) is not a tuple of integers"),
        (ZERO_ACTIONS, [(0, 0), (0.5, 0)], ValueError, r"degree \(0.5, 0\) is not a tuple of integers"),
        (ZERO_ACTIONS, [(True, 0), (0, 0)], ValueError, r"degree \(True, 0\) is not a tuple of integers"),
        (ZERO_ACTIONS, [(0, None), (0, 0)], ValueError, r"degree \(0, None\) is not a tuple of integers"),
        (ZERO_ACTIONS, [0, 1], ValueError, "degree 0 is not a tuple of integers"),
    ],
    ids=["action count", "row count", "ragged row", "degree count", "float entry"]
    + ["string degree", "fractional degree", "bool degree", "None degree", "bare int degree"],
)
def test_hand_built_module_refuses_malformed_input(actions, degrees, error, message):
    with pytest.raises(error, match=message):
        FPModule(fat_point(), 2, actions, degrees=degrees)


def test_hand_built_degrees_are_kept_as_ints():
    # an integer value is accepted as its int, and negative entries are legal,
    # as in the canonical module's degrees
    m = FPModule(fat_point(), 2, ZERO_ACTIONS, degrees=[[-1, 0], (2.0, 0)])
    assert m.degrees == ((-1, 0), (2, 0))
    assert all(type(e) is int for deg in minimal_resolution(m, 1).degrees[1] for e in deg)


@pytest.mark.parametrize(
    "degrees, message",
    [
        ([(0, 1), (0, 0)], r"y sends degree \(0, 1\) to \(0, 0\), not \(0, 2\)"),
        ([(0, 0), (0, 0)], r"y sends degree \(0, 0\) to \(0, 0\), not \(0, 1\)"),
        ([(0, 0), (1, 0)], r"y sends degree \(0, 0\) to \(1, 0\), not \(0, 1\)"),
        ([(0,), (1,)], r"degree \(0,\) has length 1, but the algebra's degrees have length 2"),
    ],
    ids=["swapped", "flat", "wrong variable", "short"],
)
def test_hand_built_degrees_must_make_the_action_homogeneous(degrees, message):
    # A/(x) over k[x,y]/(x^2, y^2) by hand: basis 1, y, with x acting as 0 and
    # y sending 1 to y.  The resolution trusts each degree block's dimension,
    # so a grading under which y's action is not homogeneous is refused:
    # trusting the counts, the first two would give Betti numbers 1, 2, 3, 4, 5
    a = ci_algebra(GF2)
    actions = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(ValueError, match=message):
        FPModule(a, 2, actions, degrees=degrees)
    m = FPModule(a, 2, actions, degrees=[(0, 0), (0, 1)])
    check_module_action(m)
    assert minimal_resolution(m, 4).betti == (1, 1, 1, 1, 1)


# -- resolutions -------------------------------------------------------------------


def test_betti_dual_numbers():
    assert poincare_truncation(residue_field(dual_numbers()), 5) == [1, 1, 1, 1, 1, 1]


def test_betti_fat_point_doubles():
    assert poincare_truncation(residue_field(fat_point()), 5) == [1, 2, 4, 8, 16, 32]


def test_betti_complete_intersection_linear():
    assert poincare_truncation(residue_field(ci_algebra()), 5) == [1, 2, 3, 4, 5, 6]


def test_betti_free_module():
    a = fat_point()
    assert poincare_truncation(free_module(a), 4) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("ring", [fat_point, ex54_ring])
@pytest.mark.parametrize("module", ["k", "canonical", "A/(x)"])
def test_resolution_minimality_and_exactness(module, ring, field):
    a = ring(field)
    m = {
        "k": residue_field,
        "canonical": canonical_module,
        "A/(x)": lambda a: cyclic_module(a, [a.element_from_linear({a.var_names[0]: 1})]),
    }[module](a)
    # minimality, d o d = 0, exactness by k-ranks and homogeneity
    check_resolution(m, minimal_resolution(m, 4))


def test_betti_monotone_for_k_over_singular_algebras():
    for a in (dual_numbers(), fat_point(), ci_algebra(), ex54_ring()):
        betti = poincare_truncation(residue_field(a), 5)
        assert all(betti[i + 1] >= betti[i] for i in range(5))


def test_poincare_cross_check_tor_route():
    a = fat_point(GF2)
    m = cyclic_module(a, [a.element_from_linear({"x": 1})])
    k = residue_field(a)
    assert poincare_truncation(m, 4) == [tor(k, m, i) for i in range(5)]


def test_resolution_bound_cap():
    with pytest.raises(ValueError):
        minimal_resolution(residue_field(dual_numbers()), 13)


def test_homology_at_the_bound_cap():
    # A/(z) over ex54R has the periodic resolution ... -z-> A -z-> A, and z
    # kills A/(z): Ext^12(A/(z), A) = 0 and Tor_12 = Ext^12 = A/(z), dim 3
    a = ex54_ring(GF2)
    m = cyclic_module(a, [a.element_from_linear({"z": 1})])
    assert ext(m, free_module(a), 12) == 0
    assert ext(m, m, 12) == 3
    assert tor(m, m, 12) == 3
    assert is_totally_reflexive_up_to(m, 12)


def test_degree_past_the_cap_refused_before_resolving(monkeypatch):
    def refuse(*args):
        raise AssertionError("resolving started")

    monkeypatch.setattr(modules, "_resolution_step", refuse)
    a = dual_numbers(GF2)
    k = residue_field(a)
    for call in (
        lambda: minimal_resolution(k, 13),
        lambda: ext(k, k, 13),
        lambda: tor(k, k, 13),
        lambda: bass_truncation(a, k, 13),
        lambda: is_totally_reflexive_up_to(k, 13),
        lambda: is_semidualizing_up_to(k, 13),
    ):
        with pytest.raises(ValueError, match="capped at 12"):
            call()


def test_negative_resolution_bound_refused():
    k = residue_field(dual_numbers())
    with pytest.raises(ValueError, match="negative"):
        minimal_resolution(k, -1)
    with pytest.raises(ValueError, match="negative"):
        bass_truncation(k.algebra, k, -1)


@pytest.mark.parametrize("b, message", [(-1, "negative bound"), (13, "bound capped at 12")])
@pytest.mark.parametrize("check", [is_semidualizing_up_to, is_totally_reflexive_up_to], ids=lambda c: c.__name__)
def test_bounded_checks_refuse_a_bound_out_of_range(check, b, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("Hom or a resolution started")

    monkeypatch.setattr(modules, "_resolution_step", refuse)
    monkeypatch.setattr(modules, "hom_module", refuse)
    with pytest.raises(ValueError, match=message):
        check(residue_field(dual_numbers(GF2)), b)


def test_hom_cell_cap_is_checked_before_any_row(monkeypatch):
    # Hom(A, A) over the dual numbers is a 4 x 4 system: 16 cells
    a = dual_numbers()
    free = free_module(a)
    monkeypatch.setattr(modules, "_MAX_HOM_CELLS", 16)
    assert hom_module(free, free)[0].dim == 2
    monkeypatch.setattr(modules, "_MAX_HOM_CELLS", 15)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hom system was built")

    monkeypatch.setattr(modules, "null_space", refuse)
    with pytest.raises(ValueError, match="4 x 4 system, over 15 cells"):
        hom_module(free, free)


def test_non_minimal_cover_is_refused(monkeypatch):
    # a Subspace that reports growth but keeps nothing never fills a degree,
    # so the m-multiple y of A/(x) over the fat point (basis 1, y) does not
    # settle its degree and the span vector y is inserted and taken as a
    # generator: the cover A^2 -> A/(x) is not minimal, and its kernel holds
    # y * e_1 - e_2, which has a unit component.  The engine trusts what
    # _add_row reports; the resolution oracle refuses the result.
    class Forgetful(modules.Subspace):
        def _add_row(self, row):
            return True

    monkeypatch.setattr(modules, "Subspace", Forgetful)
    a = fat_point(GF2)
    m = cyclic_module(a, [a.element_from_linear({"x": 1})])
    res = minimal_resolution(m, 1)
    with pytest.raises(AssertionError, match="unit entry in d_1"):
        check_resolution(m, res)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_library_built_vectors_skip_the_checked_entry_path(field, monkeypatch):
    # Subspace.add, contains and reduce coerce every entry of a caller's
    # vector; rows the library built itself (the ideal's closure under the
    # variables, the quotient's action, the sum of two ideals) go in
    # unchecked, so only each caller generator is coerced: at its unit
    # coordinate where it is tested against m and entry by entry where it
    # enters the ideal, 1 + dim_k = 7
    a = truncate(stanley_example_big_ring(field), 3)
    x, y, z = (a.element_from_linear({name: 1}) for name in ("x", "y", "z"))
    calls = []
    real = FieldSpec.coerce
    monkeypatch.setattr(FieldSpec, "coerce", lambda self, value: calls.append(value) or real(self, value))
    cyclic_module(a, [z])
    assert len(calls) == 1 + a.dim_k == 7
    calls.clear()
    assert ideal_direct_sum_check(a, [x, y], [z]) is False  # xz lies in both ideals
    assert len(calls) == 3 * (1 + a.dim_k)


def _ranked_differentials(monkeypatch) -> list:
    ranked: list = []
    real = modules._block_rank

    def block_rank(n, state, t, tensor):
        ranked.append(t)
        return real(n, state, t, tensor)

    monkeypatch.setattr(modules, "_block_rank", block_rank)
    return ranked


def test_each_differential_ranked_once(monkeypatch):
    ranked = _ranked_differentials(monkeypatch)
    kprime_p3 = truncate(presentation_of(edge_ideal_all_squares(named_graph("p3")), GF2), 4)
    omega = canonical_module(kprime_p3)
    # with the dual withheld, omega ties with it and runs as itself, on a
    # resolution with nonzero differentials (Betti numbers 2, 3, ...)
    monkeypatch.setattr(modules, "_matlis_dual", lambda m: m)
    assert is_semidualizing_up_to(omega, 6)
    assert ranked == [1, 2, 3, 4, 5, 6, 7]
    assert all(omega._res_state["diffs"][:7]) and len(omega._res_state["betti"]) == 8
    monkeypatch.undo()
    ranked = _ranked_differentials(monkeypatch)
    # k[x,y]/(x^2, y^2) is Gorenstein: A is injective, mu_0 = 1 and mu_i = 0
    # after.  Bass numbers are the Betti numbers of M^v: here A^v = omega,
    # which is free, and nothing is ranked, nor for a trivially graded M
    a = ci_algebra(GF2)
    ungraded = dual_module(cyclic_module(a, [a.element_from_linear({"x": 1})]))
    assert not any(ungraded.degrees)
    expected = [ext(residue_field(a), ungraded, i) for i in range(5)]
    ranked.clear()
    assert bass_truncation(a, free_module(a), 4) == [1, 0, 0, 0, 0]
    assert bass_truncation(a, ungraded, 4) == expected
    assert ranked == []


# -- kernel vectors against the oracles ----------------------------------------------


def _corrupt_first_kernel_vector(monkeypatch):
    """Make the engine's null_space return its basis with 1 added to the
    entry at column 0 of the first vector (column 0 is nonzero, so it leaves
    the kernel); an empty basis comes back as it is."""
    real = modules.null_space

    def corrupted(field, rows, ncols):
        basis = real(field, rows, ncols)
        if basis:
            basis[0] = {**basis[0], 0: field.add(basis[0].get(0, field.zero()), 1)}
        return basis

    monkeypatch.setattr(modules, "null_space", corrupted)


def _sparse_block(columns, nrows):
    """Dense columns as _kernel_of_columns' arguments: (position, sparse
    vector) pairs with the column index as position, rows at positions
    0..nrows - 1."""
    sparse = [(j, {i: c for i, c in enumerate(col) if c}) for j, col in enumerate(columns)]
    return sparse, list(range(nrows)), nrows


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_check_resolution_catches_a_corrupted_kernel_vector(field, monkeypatch):
    # the engine trusts null_space's kernel vectors; the resolution oracle
    # (d o d = 0, exactness by k-ranks, minimality) proves every resolution,
    # so a vector pushed out of the kernel must make it fail
    a = ci_algebra(field)
    k = residue_field(a)
    check_resolution(k, minimal_resolution(k, 3))
    _corrupt_first_kernel_vector(monkeypatch)
    k = residue_field(a)  # a fresh module: each keeps its resolution
    res = minimal_resolution(k, 3)
    with pytest.raises(AssertionError):
        check_resolution(k, res)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_check_resolution_catches_a_nonzero_composite(field):
    # over k[x,y]/(x^2, y^2), d_2 of k has the column y e_1 - x e_2; without
    # its term -x e_2 it stays homogeneous and minimal, but d_1 sends it to xy
    a = ci_algebra(field)
    k = residue_field(a)
    res = minimal_resolution(k, 3)
    j, col = next((j, col) for j, col in enumerate(res.differentials[1]) if len(col) > 1)
    d2 = list(res.differentials[1])
    d2[j] = dict(list(col.items())[:-1])
    broken = modules.Resolution(res.betti, (res.differentials[0], tuple(d2), *res.differentials[2:]), res.degrees)
    with pytest.raises(AssertionError, match="d_1 d_2 != 0"):
        check_resolution(k, broken)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_sparse_kernel_check_matches_dense_apply(field):
    # the kernel the engine takes from sparse columns, against the textbook
    # dense apply and rank of gauss_oracle: every vector is killed by the
    # columns, and there are ncols - rank of them, independent
    rng = random.Random(41)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        columns = [tuple(field.coerce(rng.choice((0, 0, 1, 2, -1))) for _ in range(nrows)) for _ in range(ncols)]
        rows = [list(row) for row in zip(*columns)]
        sparse = _kernel_of_columns(field, *_sparse_block(columns, nrows))
        kernel = [[w.get(j, 0) for j in range(ncols)] for w in sparse]
        assert all(not any(oracle_apply(field.p, rows, w)) for w in kernel)
        assert len(kernel) == ncols - oracle_rank(field.p, rows, ncols)
        assert oracle_rank(field.p, kernel, ncols) == len(kernel)


def test_zero_module_resolution():
    a = dual_numbers()
    z = FPModule(a, 0, [[] for _ in range(a.nvars)], label="0")
    assert poincare_truncation(z, 3) == [0, 0, 0, 0]


# -- poincare / bass -----------------------------------------------------------------


def test_ex54_module_is_periodic():
    r = ex54_ring()
    m = cyclic_module(r, [r.element_from_linear({"z": 1})])
    assert poincare_truncation(m, 6) == [1] * 7


def test_bass_gorenstein_artinian():
    a = dual_numbers()
    assert bass_truncation(a, free_module(a), 4) == [1, 0, 0, 0, 0]


def test_bass_first_coefficient_is_socle_dim():
    a = fat_point()
    assert bass_truncation(a, free_module(a), 2)[0] == len(socle(a)) == 2


def test_bass_of_canonical_is_delta():
    a = fat_point()
    omega = canonical_module(a)
    assert bass_truncation(a, omega, 4) == [1, 0, 0, 0, 0]
    r = ex54_ring(GF2)
    assert bass_truncation(r, canonical_module(r), 3) == [1, 0, 0, 0]


# -- ext / tor -----------------------------------------------------------------------


def test_ext_degree_zero_of_free():
    a = fat_point()
    n = cyclic_module(a, [a.element_from_linear({"x": 1})])
    assert ext(free_module(a), n, 0) == n.dim


def test_ext_k_k_dual_numbers():
    a = dual_numbers()
    k = residue_field(a)
    assert ext(k, k, 1) == 1


def test_tor_degree_zero_of_free():
    a = fat_point()
    n = cyclic_module(a, [a.element_from_linear({"y": 1})])
    assert tor(free_module(a), n, 0) == n.dim


def test_tor_k_k_equals_betti():
    a = fat_point(GF2)
    k = residue_field(a)
    assert [tor(k, k, i) for i in range(5)] == [1, 2, 4, 8, 16]
    b = dual_numbers()
    kb = residue_field(b)
    assert tor(kb, kb, 1) == 1


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("make", [fat_point, ci_algebra], ids=["fat_point", "ci"])
def test_tor_is_symmetric(make, field):
    # tor(M, N) tensors a resolution of M with N and tor(N, M) one of N with M:
    # the two sides resolve different modules and read the block grid of the
    # differentials in transposed order
    a = make(field)
    modules = [residue_field(a), cyclic_module(a, [a.element_from_linear({"x": 1})]), canonical_module(a)]
    for i in range(4):
        for m, n in itertools.combinations(modules, 2):
            assert tor(m, n, i) == tor(n, m, i), (m, n, i)


def test_ext_mismatched_algebras():
    with pytest.raises(ValueError):
        ext(residue_field(dual_numbers()), residue_field(fat_point()), 0)


def test_same_basis_with_another_multiplication_is_refused():
    # k[x,y]/(x^2 + y^2) and k[x,y]/(x^2 - y^2) at order 4 share their basis
    # monomials but not their multiplication: over the first, Hom(M, A) has
    # dim 2 and Ext^1(M, A) dim 1 for M = A/(x + y); read over the second they
    # would give 3 and 3
    plus = pres(["x", "y"], ["x^2+y^2"])
    a1, a2 = truncate(plus, 4), truncate(pres(["x", "y"], ["x^2-y^2"]), 4)
    assert a1.basis_monomials == a2.basis_monomials
    m = cyclic_module(a1, [a1.element_from_linear({"x": 1, "y": 1})])
    with pytest.raises(ValueError, match="modules live over different algebras"):
        hom_module(m, free_module(a2))
    with pytest.raises(ValueError, match="modules live over different algebras"):
        ext(m, free_module(a2), 1)
    # Bass numbers resolve M^v, which never meets a2: the refusal is explicit
    with pytest.raises(ValueError, match="modules live over different algebras"):
        bass_truncation(a2, m, 2)
    # two truncations of one presentation are one algebra
    again = truncate(plus, 4)
    assert again is not a1
    assert hom_module(m, free_module(again))[0].dim == 2
    assert ext(m, free_module(again), 1) == 1


# -- duality --------------------------------------------------------------------------


def test_dual_of_free_is_free():
    a = fat_point()
    f = free_module(a)
    assert dual_module(f).dim == a.dim_k
    assert biduality_is_iso(f)


def test_dual_of_k_is_socle_sized():
    a = dual_numbers()
    k = residue_field(a)
    assert dual_module(k).dim == 1
    assert biduality_is_iso(k)


def test_k_not_reflexive_over_fat_point():
    a = fat_point()
    k = residue_field(a)
    assert dual_module(k).dim == 2  # Hom(k, A) = socle
    assert not biduality_is_iso(k)
    assert not is_totally_reflexive_up_to(k, 3)
    fa = free_module(a)
    assert ext(k, fa, 1) > 0


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_biduality_needs_the_evaluation_map_injective(field):
    # M = A over k[x,y]/(x^2, y^2): the honest basis maps of M* give an
    # injective ev: M -> M**.  One map repeated leaves the dual module, so
    # dim M** still equals dim M, but ev then has rank 1: only the rank of
    # ev tells the two apart
    m = free_module(ci_algebra(field))
    dual, phis = hom_module(m, free_module(m.algebra))
    assert hom_module(dual, free_module(m.algebra))[0].dim == m.dim
    assert modules._is_bidual(m, dual, phis)
    assert not modules._is_bidual(m, dual, [phis[0]] * len(phis))


def test_free_modules_totally_reflexive():
    for a in (dual_numbers(), fat_point()):
        assert is_totally_reflexive_up_to(free_module(a), 4)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_total_reflexivity_builds_the_dual_once(field, monkeypatch):
    # Hom(M, A) serves both biduality and Ext(M*, A); Hom(M*, A) gives dim M**
    a = ex54_ring(field)
    m = cyclic_module(a, [a.element_from_linear({"z": 1})])
    built = []
    real = modules.hom_module
    monkeypatch.setattr(modules, "hom_module", lambda m, n: built.append((m.label, n.label)) or real(m, n))
    assert is_totally_reflexive_up_to(m, 3)
    assert built == [(m.label, "A"), (f"Hom({m.label},A)", "A")]


def test_hom_module_variable_only_matches_full_basis():
    # commuting with the variables equals commuting with every basis element
    a = ex54_ring(GF2)
    m = cyclic_module(a, [a.element_from_linear({"z": 1})])
    n = cyclic_module(a, [a.element_from_linear({"x": 1})])
    h, maps = hom_module(m, n)
    for phi in maps:
        for b in range(a.dim_k):
            left = mat_mul(a.field.p, dense_map(m, n, phi), dense_basis_action(m, b))
            right = mat_mul(a.field.p, dense_basis_action(n, b), dense_map(m, n, phi))
            assert left == right


# -- semidualizing ---------------------------------------------------------------------


def test_free_rank_one_semidualizing():
    for a in (dual_numbers(), fat_point(), ci_algebra()):
        assert is_semidualizing_up_to(free_module(a), 4)


def test_canonical_semidualizing_small():
    for a in (dual_numbers(), fat_point(), ci_algebra()):
        assert is_semidualizing_up_to(canonical_module(a), 4)


def test_k_not_semidualizing():
    a = fat_point()
    assert not is_semidualizing_up_to(residue_field(a), 2)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_an_unfaithful_module_is_not_semidualizing(field):
    # C = k + k over k[x]/(x^4): x kills C, so Hom(C, C) is all 2 x 2
    # matrices, of dimension 4 = dim A, and at bound 0 only the homothety's
    # rank, 1, tells C from a semidualizing module
    a = truncate(pres(["x"], ["x^4"], field), 4)
    c = FPModule(a, 2, [[[0, 0], [0, 0]]])
    assert ext(c, c, 0) == a.dim_k == 4
    assert not is_semidualizing_up_to(c, 0)
    assert not is_semidualizing_up_to(c, 2)


# -- the independent Ext oracle ---------------------------------------------------------


def _module_pool(algebra, rng):
    """A deterministic grab-bag of small modules over one algebra."""
    pool = [residue_field(algebra), free_module(algebra), canonical_module(algebra)]
    names = list(algebra.var_names)
    for name in names[: rng.randint(1, len(names))]:
        pool.append(cyclic_module(algebra, [algebra.element_from_linear({name: 1})]))
    pool.append(dual_module(pool[-1]))
    return pool


def test_ext_oracle_equivalence_small():
    from ext_oracle import ext_oracle

    rng = random.Random(2024)
    algebras = [
        dual_numbers(GF2),
        fat_point(GF3),
        ci_algebra(GF2),
        ex54_ring(GF2),
        dual_numbers(QQ),
    ]
    pairs = 0
    for a in algebras:
        pool = _module_pool(a, rng)
        for _ in range(3):
            m = pool[rng.randrange(len(pool))]
            n = pool[rng.randrange(len(pool))]
            for i in (0, 1):
                assert ext(m, n, i) == ext_oracle(m, n, i), (a, m.label, n.label, i)
            pairs += 1
    assert pairs >= 15


def test_ext_oracle_degree_two():
    from ext_oracle import ext_oracle

    a = fat_point(GF2)
    k = residue_field(a)
    f = free_module(a)
    assert ext_oracle(k, f, 2) == ext(k, f, 2)
    assert ext_oracle(k, k, 2) == ext(k, k, 2) == 4
