"""Every fixture algebra is k[x]/(I + m^N): the structure oracle in
``algebra_oracle.py`` run over the paper's fixtures, the module-engine and
fiber-product algebras, the vertex-square corpora and random presentations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import EXHAUSTIVE_DIM, check_algebra, power_dims
from ringlab.artin import truncate
from ringlab.constructions import (
    cusp_square_presentation,
    cusp_square_two_var_presentation,
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    plane_conic_presentation,
    stanley_example_big_ring,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import enumerate_graphs, star_vertices
from ringlab.monomials import Poly, Presentation, fiber_product_presentation, parse_poly, presentation_of

GF3 = FieldSpec.prime(3)
FIELDS = (QQ, GF2, GF3, FieldSpec.prime(5), FieldSpec.prime(7))


def pres(vars_, gens, field=QQ):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize(
    "build, order",
    [
        (plane_conic_presentation, 4),
        (cusp_square_presentation, 3),
        (cusp_square_two_var_presentation, 3),
        (stanley_example_big_ring, 3),
    ],
    ids=["plane_conic", "cusp_square", "cusp_square_two_var", "stanley_big"],
)
def test_paper_fixtures_at_their_verify_orders(build, order, field):
    check_algebra(truncate(build(field), order))


@pytest.mark.parametrize("field", (GF2, GF3, QQ), ids=str)
def test_module_engine_algebras(field):
    for vars_, gens, order in (
        (["x"], ["x^2"], 2),
        (["x", "y"], ["x^2", "y^2"], 3),
        (["x", "y"], ["x^2", "x*y", "y^2"], 2),
    ):
        check_algebra(truncate(pres(vars_, gens, field), order))
    check_algebra(truncate(presentation_of(edge_ideal_all_squares(named_graph("p3")), field), 4))


def test_fiber_products():
    left, ps, pt = pres(["v2"], ["v2^2"]), pres(["x"], ["x^3"]), pres(["y", "z"], ["y*z"])
    for order in (1, 2, 3, 4):
        check_algebra(truncate(fiber_product_presentation(ps, pt), order))
    check_algebra(truncate(fiber_product_presentation(left, pres(["v1", "v3"], ["v1^2", "v3^2"])), 4))
    check_algebra(truncate(fiber_product_presentation(left, pres(["v1", "v3"], ["v1^2", "v3^3"])), 5))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_square_quotients(n):
    for g in enumerate_graphs(n):
        check_algebra(truncate(presentation_of(edge_ideal_all_squares(g), GF2), n + 1))


def test_theorem_B_square_quotients():
    for n in (2, 3):
        for g in enumerate_graphs(n):
            for star in star_vertices(g):
                for field in (QQ, GF2):
                    check_algebra(truncate(presentation_of(edge_ideal_squares_except(g, star), field), 3))


@pytest.mark.parametrize("field", (QQ, GF3), ids=str)
def test_sampled_triples_above_the_exhaustive_bound(field):
    # the cone over a conic has Hilbert function 1, 3, 5, ...: dim N^2 at order N
    a = truncate(pres(["x", "y", "z"], ["x^2 - y*z"], field), 8)
    assert a.dim_k == 64 > EXHAUSTIVE_DIM
    check_algebra(a)


@st.composite
def presentations(draw):
    field = draw(st.sampled_from((QQ, GF2, GF3)))
    nv = draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 3)] * nv).filter(any)
    if field.is_rational:
        coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    else:
        coeff = st.integers(1, field.p - 1)
    gens = draw(st.lists(st.dictionaries(monomial, coeff, min_size=1, max_size=3), max_size=3))
    order = draw(st.integers(2, 4))
    return Presentation("xyz"[:nv], [Poly(field, nv, g) for g in gens], field), order


@settings(max_examples=200, deadline=None)
@given(case=presentations())
def test_random_presentations(case):
    p, order = case
    check_algebra(truncate(p, order))


def _fixture_algebras():
    """The algebras of the fixture tests above, built afresh."""
    for field in FIELDS:
        for build, order in (
            (plane_conic_presentation, 4),
            (cusp_square_presentation, 3),
            (cusp_square_two_var_presentation, 3),
            (stanley_example_big_ring, 3),
        ):
            yield truncate(build(field), order)
    for field in (GF2, GF3, QQ):
        for vars_, gens, order in (
            (["x"], ["x^2"], 2),
            (["x", "y"], ["x^2", "y^2"], 3),
            (["x", "y"], ["x^2", "x*y", "y^2"], 2),
            (["x", "y", "z"], ["x^2 - y*z"], 5),
        ):
            yield truncate(pres(vars_, gens, field), order)
        yield truncate(presentation_of(edge_ideal_all_squares(named_graph("p3")), field), 4)
    ps, pt = pres(["x"], ["x^3"]), pres(["y", "z"], ["y*z"])
    for order in (1, 2, 3, 4):
        yield truncate(fiber_product_presentation(ps, pt), order)
    for n in (1, 2, 3, 4):
        for g in enumerate_graphs(n):
            yield truncate(presentation_of(edge_ideal_all_squares(g), GF2), n + 1)
            for star in star_vertices(g):
                yield truncate(presentation_of(edge_ideal_squares_except(g, star), QQ), 3)


def test_lazy_fields_equal_their_eager_values():
    """var_images and filtration, computed on first read, equal the normal
    forms of the variables and the dimensions of the powers of m."""
    for a in _fixture_algebras():
        assert "var_images" not in vars(a) and "filtration" not in vars(a)
        filtration = a.filtration
        assert a.var_images == tuple(a._dense(a._normal_form(a._var_monomial(k))) for k in range(a.nvars))
        assert filtration == power_dims(a)
        assert filtration[-1] == 0 and 0 not in filtration[:-1]
