import pytest

from algebra_oracle import check_algebra
from ringlab.constructions import (
    edge_ideal_all_squares,
    named_graph,
    plane_conic_presentation,
    stanley_example_big_ring,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import Graph, complement, enumerate_graphs, maximal_cliques
from ringlab.monomials import (
    MonomialIdeal,
    Presentation,
    fiber_product_presentation,
    format_monomial,
    parse_poly,
    presentation_of,
    variable_partition_decomposable,
)
from ringlab.artin import (
    LocalAlgebra,
    hilbert_function,
    ideal_direct_sum_check,
    is_gorenstein_artinian,
    pair_decomposition_search,
    socle,
    socle_monomials,
    truncate,
)

GF3 = FieldSpec.prime(3)
GF5 = FieldSpec.prime(5)


def pres(vars_, gens, field=QQ):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


def mono_ideal(vars_, *gens):
    return MonomialIdeal(vars_, [next(iter(parse_poly(vars_, g, QQ).terms)) for g in gens])


def fmt(a, vec) -> str:
    """An element as the sum of its basis monomials with their coefficients."""
    parts = []
    for i, c in enumerate(vec):
        if c:
            mono = format_monomial(a.var_names, a.basis_monomials[i])
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def unit(a) -> tuple:
    return a._basis_vec(a.index[(0,) * a.nvars])


# -- truncate -----------------------------------------------------------------


def test_truncate_monomial_example():
    a = truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"]), 3)
    assert a.dim_k == 3
    assert [fmt(a, a._basis_vec(i)) for i in range(3)] == ["1", "x", "y"]


def test_truncate_polynomial_ring():
    a = truncate(pres(["x"], []), 4)
    assert a.dim_k == 4
    assert a.basis_monomials == ((0,), (1,), (2,), (3,))


def test_truncate_general_gf2():
    a = truncate(pres(["x", "y", "z"], ["x^2"], GF2), 3)
    assert a.dim_k == 9
    names = [fmt(a, a._basis_vec(i)) for i in range(9)]
    assert names == ["1", "x", "y", "z", "x*y", "x*z", "y^2", "y*z", "z^2"]


def test_truncate_requires_positive_order():
    with pytest.raises(ValueError):
        truncate(pres(["x"], []), 0)


def test_truncate_size_cap_admits_the_largest_corpus():
    # named rings are not capped by the n <= 7 labeled corpus: the vertex-square
    # quotient of an 8-vertex graph (kprime:e8) at order 9 has C(16, 8) = 12,870
    # monomials below the order
    a = truncate(presentation_of(edge_ideal_all_squares(Graph(8)), GF2), 9)
    assert a.dim_k == 2**8
    with pytest.raises(ValueError, match="monomials below the order"):
        truncate(presentation_of(edge_ideal_all_squares(Graph(8)), GF2), 10)


def test_relation_cap_admits_over_gf2_what_it_refuses_over_q(monkeypatch):
    # a 252 x 792 relation matrix: refused over q (tests/test_cli.py), built over GF(2)
    import ringlab.artin

    monkeypatch.setattr(ringlab.artin, "_truncate_general", lambda p, n: "built")
    assert truncate(pres(list("abcde"), ["a^2 + b*c"], GF2), 8) == "built"


def test_truncate_order_one_is_residue_field():
    a = truncate(pres(["x", "y"], ["x*y"]), 1)
    assert a.dim_k == 1 and hilbert_function(a) == [1]


def test_truncation_orders_agree_on_shared_filtration():
    p = pres(["x", "y"], ["x^2"])
    a3 = truncate(p, 3)
    a4 = truncate(p, 4)
    assert hilbert_function(a3)[:2] == hilbert_function(a4)[:2]


def test_general_path_quadric():
    a = truncate(plane_conic_presentation(GF5), 4)
    assert a.dim_k == 7
    assert hilbert_function(a) == [1, 2, 2, 2]
    x = a.element_from_linear({"x": 1})
    y = a.element_from_linear({"y": 1})
    xx = a.multiply(x, x)
    yy = a.multiply(y, y)
    assert tuple(a.field.add(u, v) for u, v in zip(xx, yy)) == (a.field.zero(),) * a.dim_k


# -- socle ---------------------------------------------------------------------


def test_socle_kprime_p3():
    kp = edge_ideal_all_squares(named_graph("p3"))
    a = truncate(presentation_of(kp, QQ), 4)
    assert sorted(fmt(a, v) for v in socle(a)) == ["v1*v3", "v2"]


def test_socle_dual_numbers():
    a = truncate(pres(["x"], ["x^2"]), 2)
    assert [fmt(a, v) for v in socle(a)] == ["x"]


def test_socle_three_vars():
    a = truncate(pres(["x", "y", "z"], ["x^2", "x*y", "y^2", "z^2"]), 3)
    assert a.dim_k == 6
    assert sorted(fmt(a, v) for v in socle(a)) == ["x*z", "y*z"]


def test_socle_annihilated_by_every_variable():
    for g in enumerate_graphs(3):
        a = truncate(presentation_of(edge_ideal_all_squares(g), GF2), 4)
        for v in socle(a):
            for k in range(a.nvars):
                assert not any(a.var_multiply(k, v))


def test_socle_general_path_matches_monomial_path():
    # same algebra presented once as monomial and once with a hidden
    # non-monomial zero rewrite: socle dimensions agree
    a1 = truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"]), 3)
    a2 = truncate(pres(["x", "y"], ["x^2", "x*y + x^2", "y^2"]), 3)
    assert len(socle(a1)) == len(socle(a2)) == 2


# -- hilbert function -----------------------------------------------------------


def test_hilbert_function_examples():
    assert hilbert_function(truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"]), 3)) == [1, 2]
    assert hilbert_function(truncate(pres(["x"], ["x^3"]), 5)) == [1, 1, 1]
    kp = edge_ideal_all_squares(named_graph("p3"))
    assert hilbert_function(truncate(presentation_of(kp, QQ), 4)) == [1, 3, 1]


def test_hilbert_function_sums_to_dim():
    for g in enumerate_graphs(3):
        a = truncate(presentation_of(edge_ideal_all_squares(g), GF2), 4)
        assert sum(hilbert_function(a)) == a.dim_k


# -- gorenstein ------------------------------------------------------------------


def test_gorenstein_complete_intersection():
    assert is_gorenstein_artinian(truncate(pres(["x", "y"], ["x^2", "y^2"]), 3))


def test_not_gorenstein_fat_point():
    assert not is_gorenstein_artinian(truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"]), 3))


def test_gorenstein_dual_numbers():
    assert is_gorenstein_artinian(truncate(pres(["x"], ["x^2"]), 2))


def test_gorenstein_precondition_rejects_cut_ring():
    # (x^3, y^3) at order 3 is not the full ring: x^2*y survives
    with pytest.raises(ValueError):
        is_gorenstein_artinian(truncate(pres(["x", "y"], ["x^3", "y^3"]), 3))


# -- canonical module -------------------------------------------------------------


def test_canonical_module_gorenstein_is_free_like():
    from ringlab.artin import canonical_module
    from ringlab.modules import minimal_resolution

    a = truncate(pres(["x"], ["x^2"]), 2)
    omega = canonical_module(a)
    assert omega.dim == a.dim_k
    assert minimal_resolution(omega, 0).betti == (1,)


def test_canonical_module_generator_count_is_socle_dim():
    from ringlab.artin import canonical_module
    from ringlab.modules import minimal_resolution

    for gens in (["x^2", "x*y", "y^2"], ["x^2", "y^2"]):
        a = truncate(pres(["x", "y"], gens), 3)
        omega = canonical_module(a)
        assert minimal_resolution(omega, 0).betti == (len(socle(a)),)
    kp = edge_ideal_all_squares(named_graph("p3"))
    a = truncate(presentation_of(kp, QQ), 4)
    from ringlab.modules import minimal_resolution as mr

    assert mr(canonical_module(a), 0).betti == (2,)


# -- decomposition search -----------------------------------------------------------


def test_pair_search_quadric_gf5():
    a = truncate(plane_conic_presentation(GF5), 4)
    pair = pair_decomposition_search(a, mode="full")
    assert pair is not None
    alpha, beta = pair
    coeffs = {alpha.coeffs, beta.coeffs}
    assert coeffs == {(("x", 1), ("y", 2)), (("x", 1), ("y", 3))}
    assert not any(a.multiply(alpha.vector, beta.vector))
    # mode=full success implies the direct-sum certificate
    assert ideal_direct_sum_check(a, [alpha.vector], [beta.vector])


def test_pair_search_case1_none():
    from ringlab.constructions import cusp_square_presentation

    for p in (2, 3, 5, 7):
        a = truncate(cusp_square_presentation(FieldSpec.prime(p)), 3)
        assert pair_decomposition_search(a, mode="necessary") is None


def test_pair_search_coordinate_split():
    a = truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"], GF3), 3)
    pair = pair_decomposition_search(a, mode="full")
    names = {pair[0].coeffs, pair[1].coeffs}
    assert names == {(("x", 1),), (("y", 1),)}


def test_pair_search_requires_finite_field():
    a = truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"]), 3)
    with pytest.raises(ValueError):
        pair_decomposition_search(a)


def test_pair_search_deterministic():
    a = truncate(plane_conic_presentation(GF5), 4)
    first = pair_decomposition_search(a, mode="full")
    second = pair_decomposition_search(a, mode="full")
    assert first == second


# -- ideal direct sums -----------------------------------------------------------


def test_direct_sum_two_duals():
    a = truncate(pres(["x", "y"], ["x^2", "y^2", "x*y"]), 3)
    x = a.element_from_linear({"x": 1})
    y = a.element_from_linear({"y": 1})
    assert ideal_direct_sum_check(a, [x], [y])


def test_direct_sum_nested_ideals_fail():
    a = truncate(pres(["x"], ["x^3"]), 3)
    x = a.element_from_linear({"x": 1})
    x2 = a.multiply(x, x)
    assert not ideal_direct_sum_check(a, [x], [x2])


def test_direct_sum_trivial_split_rejected():
    a = truncate(pres(["x"], ["x^2"]), 2)
    x = a.element_from_linear({"x": 1})
    assert not ideal_direct_sum_check(a, [], [x])


def test_direct_sum_requires_m_membership():
    a = truncate(pres(["x"], ["x^2"]), 2)
    with pytest.raises(ValueError):
        ideal_direct_sum_check(a, [unit(a)], [a.element_from_linear({"x": 1})])


# -- structural invariants ---------------------------------------------------------


def test_fiber_product_dimension_additivity_small():
    ps = pres(["x"], ["x^3"])
    pt = pres(["y", "z"], ["y*z"])
    for n in (1, 2, 3, 4):
        fp = fiber_product_presentation(ps, pt)
        assert truncate(fp, n).dim_k == truncate(ps, n).dim_k + truncate(pt, n).dim_k - 1


def test_socle_clique_bijection_small():
    for n in (1, 2, 3, 4):
        for g in enumerate_graphs(n):
            kp = edge_ideal_all_squares(g)
            a = truncate(presentation_of(kp, GF2), n + 1)
            soc = sorted(sorted(i + 1 for i, e in enumerate(m) if e) for m in socle_monomials(a))
            cliques = sorted(sorted(c) for c in maximal_cliques(complement(g)))
            assert soc == cliques


def test_decomposable_never_gorenstein_small():
    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            kp = edge_ideal_all_squares(g)
            if variable_partition_decomposable(kp) is None:
                continue
            a = truncate(presentation_of(kp, GF2), n + 1)
            assert len(socle(a)) >= 2
            assert not is_gorenstein_artinian(a)


def test_square_exponent_open_question_resolution():
    """Both square exponents give internally consistent fiber products, but
    only exponent 2 matches the vertex-square construction; the artifact
    follows the definition (exponent 2)."""
    # exponent 2 everywhere: dim 5 = 2 + 4 - 1
    v2 = pres(["v1", "v2", "v3"], ["v1^2", "v2^2", "v3^2", "v1*v2", "v2*v3"])
    a2 = truncate(v2, 4)
    assert a2.dim_k == 5
    left = pres(["v2"], ["v2^2"])
    right2 = pres(["v1", "v3"], ["v1^2", "v3^2"])
    fp2 = truncate(fiber_product_presentation(left, right2), 4)
    assert fp2.dim_k == a2.dim_k == 5
    assert sorted(hilbert_function(fp2)) == sorted(hilbert_function(a2))
    # the cubed variant is consistent with its own fiber product (dim 7)
    v3 = pres(["v1", "v2", "v3"], ["v1^2", "v2^2", "v3^3", "v1*v2", "v2*v3"])
    a3 = truncate(v3, 5)
    right3 = pres(["v1", "v3"], ["v1^2", "v3^3"])
    fp3 = truncate(fiber_product_presentation(left, right3), 5)
    assert fp3.dim_k == a3.dim_k == 7
    # but only exponent 2 is the vertex-square quotient of the path
    assert a2.dim_k == truncate(presentation_of(edge_ideal_all_squares(named_graph("p3")), QQ), 4).dim_k


def test_structural_invariants_on_fixtures():
    for a in (
        truncate(stanley_example_big_ring(GF2), 3),
        truncate(plane_conic_presentation(GF5), 4),
        truncate(pres(["x", "y"], ["x^2", "y^2"]), 3),
    ):
        check_algebra(a)


@pytest.mark.parametrize(
    "presentation, order",
    [
        (presentation_of(edge_ideal_all_squares(named_graph("p3")), GF2), 4),
        (plane_conic_presentation(GF5), 4),
    ],
    ids=["kprime_p3", "plane_conic"],
)
def test_truncate_multiplies_nothing(presentation, order, monkeypatch):
    """truncate trusts the algebra it builds: no product is re-checked."""
    calls = []
    multiply = LocalAlgebra.multiply

    def counted(self, u, v):
        calls.append(1)
        return multiply(self, u, v)

    monkeypatch.setattr(LocalAlgebra, "multiply", counted)
    a = truncate(presentation, order)
    assert len(calls) == 0
    assert a.multiply(unit(a), unit(a)) == unit(a) and len(calls) == 1


def test_monomial_truncate_forms_no_normal_form_until_var_images_is_read(monkeypatch):
    """var_images and filtration are computed on first read, not by truncate."""
    calls = []
    normal_form = LocalAlgebra._normal_form

    def counted(self, mono):
        calls.append(mono)
        return normal_form(self, mono)

    monkeypatch.setattr(LocalAlgebra, "_normal_form", counted)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            a = truncate(presentation_of(edge_ideal_all_squares(g), GF2), n + 1)
            socle_monomials(a)
            hilbert_function(a)
            assert calls == [] and "var_images" not in vars(a)
    images = a.var_images
    assert len(calls) == a.nvars and images == tuple(a._basis_vec(a.index[m]) for m in calls)


def test_socle_monomials_returns_a_fresh_list():
    a = truncate(presentation_of(edge_ideal_all_squares(named_graph("p4")), GF2), 5)
    first = socle_monomials(a)
    expected = list(first)
    first.append((1, 1, 1, 1))
    first.pop(0)
    assert socle_monomials(a) == expected


def test_socle_monomials_of_vertex_square_quotients_build_no_index():
    """truncate records the socle in its walk: no basis-monomial index is built."""
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            a = truncate(presentation_of(edge_ideal_all_squares(g), GF2), n + 1)
            socle_monomials(a)
            assert "index" not in a.__dict__
