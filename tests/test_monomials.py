import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    whisker_except_edge_ideal,
    whiskered_edge_ideal,
    whisker_names,
)
from ringlab.fields import QQ, FieldSpec
from ringlab.graphs import Graph, enumerate_graphs, star_vertices
from ringlab.monomials import (
    MonomialIdeal,
    _minimalize,
    Poly,
    Presentation,
    add_squares,
    contains,
    edge_ideal,
    eliminate_variables,
    fiber_product_presentation,
    format_poly,
    monomial_divides,
    parse_poly,
    polarize,
    presentation_from_json,
    presentation_of,
    rename_ideal,
    substitute,
    substitute_ideal,
    to_monomial_ideal,
    variable_partition_decomposable,
)


def mono(vars_, text):
    return next(iter(parse_poly(vars_, text, QQ).terms))


def ideal(vars_, *gens):
    return MonomialIdeal(vars_, [mono(vars_, g) for g in gens])


# -- edge ideals -------------------------------------------------------------


def test_edge_ideal_k2():
    assert edge_ideal(named_graph("k2")).gen_strings() == ["v1*v2"]


def test_edge_ideal_whiskered_k2():
    assert whiskered_edge_ideal(named_graph("k2")).gen_strings() == ["v1*v2", "v1*w1", "v2*w2"]


def test_edge_ideal_edgeless_is_zero():
    assert edge_ideal(Graph(3)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_ideals_match_the_validating_constructor(n):
    for g in enumerate_graphs(n):
        ideals = [edge_ideal(g), edge_ideal_all_squares(g), whiskered_edge_ideal(g)]
        for v in range(1, n + 1):
            ideals += [edge_ideal_squares_except(g, v), whisker_except_edge_ideal(g, v)]
        for i in ideals:
            rebuilt = MonomialIdeal(i.ambient, i.gens)
            assert i == rebuilt and hash(i) == hash(rebuilt)
            assert type(i.ambient) is tuple and type(i.gens) is frozenset


@pytest.mark.parametrize(
    "names, message",
    [(["x", "x"], "duplicate variable names"), (["x"], "one variable name per vertex")],
)
def test_edge_ideal_refuses_bad_names(names, message):
    with pytest.raises(ValueError, match=message):
        edge_ideal(named_graph("k2"), names)


# -- add_squares -------------------------------------------------------------


def test_add_squares_p3():
    # exponent two on every vertex: the definition wins over the typo'd display
    got = edge_ideal_all_squares(named_graph("p3"))
    assert got.gen_strings() == ["v1^2", "v1*v2", "v2^2", "v2*v3", "v3^2"]


def test_add_squares_zero_ideal():
    base = MonomialIdeal(["x"], [])
    assert add_squares(base, ["x"]).gen_strings() == ["x^2"]


def test_add_squares_idempotent_on_overlap():
    base = ideal(["x"], "x^2")
    assert add_squares(base, ["x"]) == base


def test_add_squares_unknown_variable():
    with pytest.raises(ValueError):
        add_squares(ideal(["x"], "x^2"), ["y"])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_square_constructions_equal_add_squares(n):
    for g in enumerate_graphs(n):
        base = edge_ideal(g)
        assert edge_ideal_all_squares(g) == add_squares(base, base.ambient)
        for v in range(1, n + 1):
            others = [name for u, name in enumerate(base.ambient, start=1) if u != v]
            assert edge_ideal_squares_except(g, v) == add_squares(base, others)
        for v in (0, n + 1):
            with pytest.raises(ValueError, match="out of range"):
                edge_ideal_squares_except(g, v)


# -- polarization ------------------------------------------------------------


def test_polarize_single_square():
    got = polarize(ideal(["x"], "x^2"))
    assert got.ambient == ("x", "x'")
    assert got.gen_strings() == ["x*x'"]


def test_polarize_squarefree_identity():
    sq = ideal(["x", "y"], "x*y")
    assert polarize(sq) == sq


def test_polarize_idempotent():
    once = polarize(ideal(["x", "y"], "x^2*y", "y^3"))
    assert polarize(once) == once


def test_polarize_cube():
    got = polarize(ideal(["x"], "x^3"))
    assert got.ambient == ("x", "x'", "x''")
    assert got.gen_strings() == ["x*x'*x''"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_polarized_squares_equal_whiskered_ideal(n):
    # polarize(I(G) + all squares) = I(Sigma G) under the canonical renaming
    for g in enumerate_graphs(n):
        pol = polarize(edge_ideal_all_squares(g))
        target = whiskered_edge_ideal(g)
        assert pol.nvars == target.nvars
        assert rename_ideal(pol, whisker_names(n)) == target


# -- substitution ------------------------------------------------------------


def test_substitute_whisker_collapse_k2():
    pres = presentation_of(whiskered_edge_ideal(named_graph("k2")), QQ)
    got = to_monomial_ideal(substitute(pres, {"w1": "v1", "w2": "v2"}))
    assert got.gen_strings() == ["v1^2", "v1*v2", "v2^2"]


def test_substitute_identity_map():
    pres = presentation_of(whiskered_edge_ideal(named_graph("k2")), QQ)
    assert substitute(pres, {}) == pres


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_substitute_collapse_corpus(n):
    mapping = {f"w{i}": f"v{i}" for i in range(1, n + 1)}
    for g in enumerate_graphs(n):
        pres = presentation_of(whiskered_edge_ideal(g), QQ)
        got = to_monomial_ideal(substitute(pres, mapping))
        assert got == edge_ideal_all_squares(g)


def test_substitute_cancellation():
    amb = ["x", "y"]
    pres = Presentation(amb, [parse_poly(amb, "x - y", QQ)], QQ)
    got = substitute(pres, {"y": "x"})
    assert got.gens == ()


def test_substitute_requires_known_vars():
    with pytest.raises(ValueError, match="leaves the ambient ring"):
        substitute(Presentation(["x"], [parse_poly(["x"], "x^2", QQ)], QQ), {"x": "z"})


def test_substitute_refuses_a_chained_substitution():
    amb = ["x", "y", "z"]
    pres = Presentation(amb, [parse_poly(amb, "x*z", QQ)], QQ)
    with pytest.raises(ValueError, match="chained substitution x->y->z"):
        substitute(pres, {"x": "y", "y": "z"})


def test_substitute_ideal_refuses_a_chained_substitution():
    with pytest.raises(ValueError, match="chained substitution x->y->z"):
        substitute_ideal(ideal(["x", "y", "z"], "x*z"), {"x": "y", "y": "z"})


def test_substitute_ideal_requires_known_vars():
    with pytest.raises(ValueError, match="leaves the ambient ring"):
        substitute_ideal(ideal(["x"], "x^2"), {"x": "z"})
    with pytest.raises(ValueError, match="leaves the ambient ring"):
        substitute_ideal(ideal(["x"], "x^2"), {"z": "x"})


def _collapse_cases(g):
    yield whiskered_edge_ideal(g), {f"w{u}": f"v{u}" for u in range(1, g.n + 1)}
    for s in star_vertices(g):
        yield whisker_except_edge_ideal(g, s), {f"w{u}": f"v{u}" for u in range(1, g.n + 1) if u != s}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_substitute_ideal_matches_the_presentation_route(n):
    # oracle: the exponent-tuple routine against the polynomial round trip
    for g in enumerate_graphs(n):
        for source, mapping in _collapse_cases(g):
            expected = to_monomial_ideal(substitute(presentation_of(source, QQ), mapping))
            got = substitute_ideal(source, mapping)
            assert got == expected and got.ambient == expected.ambient


def test_substitute_ideal_minimalizes_its_image():
    # w -> x sends x*w to x^2, which divides the image x^2*y of the other
    # generator: the image is not minimal and only (x^2) is kept
    source = ideal(["x", "y", "w"], "x*w", "x^2*y")
    got = substitute_ideal(source, {"w": "x"})
    assert got.ambient == ("x", "y") and got.gens == {(2, 0)}
    assert got == to_monomial_ideal(substitute(presentation_of(source, QQ), {"w": "x"}))


# -- fiber products ----------------------------------------------------------


def test_fiber_product_two_duals():
    ps = presentation_from_json('{"vars": ["x"], "gens": ["x^2"], "field": "q"}')
    pt = presentation_from_json('{"vars": ["y"], "gens": ["y^2"], "field": "q"}')
    fp = fiber_product_presentation(ps, pt)
    assert fp.ambient == ("x", "y")
    assert fp.gen_strings() == ["x^2", "y^2", "x*y"]


def test_fiber_product_zero_ideals():
    ps = Presentation(["x"], [], QQ)
    pt = Presentation(["y"], [], QQ)
    fp = fiber_product_presentation(ps, pt)
    assert fp.gen_strings() == ["x*y"]


def test_fiber_product_mixed():
    ps = Presentation(["x"], [parse_poly(["x"], "x^3", QQ)], QQ)
    pt = Presentation(["y", "z"], [parse_poly(["y", "z"], "y*z", QQ)], QQ)
    fp = fiber_product_presentation(ps, pt)
    assert fp.gen_strings() == ["x^3", "y*z", "x*y", "x*z"]


def test_fiber_product_generator_count():
    ps = Presentation(["x", "y"], [parse_poly(["x", "y"], s, QQ) for s in ("x^2", "y^3")], QQ)
    pt = Presentation(["u", "v", "w"], [parse_poly(["u", "v", "w"], "u*v", QQ)], QQ)
    fp = fiber_product_presentation(ps, pt)
    assert len(fp.gens) == 2 + 1 + 2 * 3


def test_fiber_product_renames_clashes():
    ps = Presentation(["x"], [parse_poly(["x"], "x^2", QQ)], QQ)
    pt = Presentation(["x"], [parse_poly(["x"], "x^3", QQ)], QQ)
    fp = fiber_product_presentation(ps, pt)
    assert fp.ambient == ("x", "x_")


def test_fiber_product_round_trips_through_json():
    # the renamed variable is one the presentation grammar reads back
    p = Presentation(["x"], [parse_poly(["x"], "x^2", QQ)], QQ)
    fp = fiber_product_presentation(p, p)
    text = json.dumps({"vars": list(fp.ambient), "gens": fp.gen_strings(), "field": str(fp.field)})
    back = presentation_from_json(text)
    assert back.ambient == fp.ambient == ("x", "x_")
    assert back.gen_strings() == fp.gen_strings() == ["x^2", "x_^2", "x*x_"]


# -- membership --------------------------------------------------------------


def test_contains_examples():
    i = ideal(["x", "y"], "x*y")
    assert contains(i, mono(["x", "y"], "x^2*y"))
    assert not contains(i, mono(["x", "y"], "x^2"))
    k3 = edge_ideal(named_graph("k3"))
    assert contains(k3, mono(k3.ambient, "v1*v2*v3"))


# -- decomposability ----------------------------------------------------------


def test_partition_two_duals():
    split = variable_partition_decomposable(ideal(["x", "y"], "x^2", "y^2", "x*y"))
    assert {split[0], split[1]} == {frozenset({"x"}), frozenset({"y"})}


def test_partition_kprime_p3():
    split = variable_partition_decomposable(edge_ideal_all_squares(named_graph("p3")))
    assert {split[0], split[1]} == {frozenset({"v2"}), frozenset({"v1", "v3"})}


def test_partition_connected_cross_graph():
    assert variable_partition_decomposable(ideal(["x", "y"], "x^2")) is None


def test_partition_rejects_variable_generator():
    with pytest.raises(ValueError):
        variable_partition_decomposable(MonomialIdeal(["x", "y"], [(1, 0)]))


def test_partition_star_vertex_is_first_part():
    # when the last vertex is a star vertex the returned pair isolates it
    g = named_graph("k3")
    split = variable_partition_decomposable(edge_ideal_all_squares(g))
    assert split[0] == frozenset({"v3"})


# -- presentations, parsing, elimination --------------------------------------


def test_presentation_rejects_constant_term():
    with pytest.raises(ValueError):
        Presentation(["x"], [parse_poly(["x"], "x + 1", QQ)], QQ)


AMB = ["x", "y"]


@st.composite
def polys(draw):
    field = draw(st.sampled_from((QQ, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5))))
    if field.is_rational:
        coeff = st.fractions(-9, 9, max_denominator=9)
    else:
        coeff = st.integers(0, field.p - 1)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=4))
    return Poly(field, len(AMB), terms)


@settings(max_examples=200, deadline=None)
@given(poly=polys())
@example(poly=parse_poly(AMB, "x^2", QQ))
@example(poly=parse_poly(AMB, "x*y", QQ))
@example(poly=parse_poly(AMB, "2*x + 1/2*y^3", QQ))
@example(poly=parse_poly(AMB, "-x + y", QQ))
@example(poly=parse_poly(AMB, "x^2 - 3*x*y", QQ))
def test_parse_and_format_round_trip(poly):
    assert parse_poly(AMB, format_poly(AMB, poly), poly.field) == poly


def test_parse_fraction_coefficients_mod_p():
    p = parse_poly(["x"], "1/2*x", FieldSpec.prime(5))
    ((_, coeff),) = p.terms.items()
    assert coeff == 3  # 1/2 = 3 mod 5


def test_presentation_json_round_trip():
    text = '{"vars": ["x", "y"], "gens": ["x^2", "x*y", "y^2"], "field": "q"}'
    pres = presentation_from_json(text)
    again = presentation_from_json(
        json.dumps({"vars": list(pres.ambient), "gens": pres.gen_strings(), "field": str(pres.field)})
    )
    assert again == pres


def test_eliminate_variables():
    amb = ["x", "y", "z"]
    pres = Presentation(amb, [parse_poly(amb, s, QQ) for s in ("x^2", "x*y", "y^2")], QQ)
    got = eliminate_variables(pres, ["z"])
    assert got.ambient == ("x", "y")
    assert len(got.gens) == 3
    withz = Presentation(amb, [parse_poly(amb, s, QQ) for s in ("x^2", "z*y")], QQ)
    got2 = eliminate_variables(withz, ["z"])
    assert got2.gen_strings() == ["x^2"]


def test_minimalization_invariant():
    i = MonomialIdeal(["x", "y"], [(1, 1), (2, 1), (0, 2)])
    assert i.gen_strings() == ["x*y", "y^2"]
    # presentations drop repeated generators and keep first-occurrence order
    p = Presentation(AMB, [parse_poly(AMB, s, QQ) for s in ("x*y", "2*x^2", "y*x", "x^2 + x^2", "y^2")], QQ)
    assert p.gen_strings() == ["x*y", "2*x^2", "y^2"]


def test_unit_generator_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal(["x"], [(0,)])


@pytest.mark.parametrize(
    "ambient, gens, message",
    [
        (["x", "x"], [(1, 0)], "duplicate variable names"),
        (["x", "y"], [(1, 0, 0)], "exponent tuple has wrong length"),
        (["x", "y"], [(1,)], "exponent tuple has wrong length"),
        (["x", "y"], [(2, -1)], "negative exponent"),
        (["x", "y"], [(1, 1), (0, 0)], "unit generator not allowed"),
        ([], [()], "unit generator not allowed"),
        ([], [(1,)], "exponent tuple has wrong length"),
    ],
)
def test_monomial_ideal_refusals(ambient, gens, message):
    with pytest.raises(ValueError, match=message):
        MonomialIdeal(ambient, gens)


def test_monomial_ideal_coerces_exponents_to_int():
    i = MonomialIdeal(["x", "y"], [(2.0, True), [Fraction(0), Fraction(2)]])
    assert i.gens == {(2, 1), (0, 2)}
    assert all(type(e) is int for g in i.gens for e in g)
    assert MonomialIdeal([], []).gens == frozenset()


@st.composite
def squarefree_ideals(draw):
    nv = draw(st.integers(min_value=1, max_value=5))
    names = [f"x{i}" for i in range(nv)]
    gens = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=nv, max_size=nv).filter(
                lambda e: sum(e) >= 1
            ),
            max_size=5,
        )
    )
    return MonomialIdeal(names, [tuple(g) for g in gens])


@given(squarefree_ideals())
@settings(max_examples=60, deadline=None)
def test_polarize_fixed_on_squarefree(i):
    assert polarize(i) == i


# -- integer exponents ---------------------------------------------------------

NOT_INTEGERS = [2.5, 1.9, Fraction(5, 2), "2", "0"]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_monomial_ideal_refuses_a_non_integer_exponent(bad):
    with pytest.raises(ValueError, match="is not an integer"):
        MonomialIdeal(["x", "y"], [(bad, 1)])


def test_monomial_ideal_refuses_a_string_generator():
    # "12" used to become x*y^2 through int("1"), int("2")
    with pytest.raises(ValueError, match="is not an integer"):
        MonomialIdeal(["x", "y"], ["12"])


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_contains_refuses_a_non_integer_exponent(bad):
    i = ideal(["x", "y"], "x*y")
    with pytest.raises(ValueError, match="is not an integer"):
        contains(i, (bad, 1))


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_poly_refuses_a_non_integer_exponent(bad):
    with pytest.raises(ValueError, match="is not an integer"):
        Poly(QQ, 2, {(bad, 1): 1})


def test_integer_valued_exponents_are_accepted_at_every_entry_point():
    exact = (2, 1)
    for given in [(2.0, True), (Fraction(2), 1), (2, Fraction(1))]:
        assert MonomialIdeal(["x", "y"], [given]).gens == {exact}
        assert contains(MonomialIdeal(["x", "y"], [exact]), given)
        poly = Poly(QQ, 2, {given: 1})
        assert poly.terms == {exact: 1} and all(type(e) is int for e in next(iter(poly.terms)))
    assert not contains(MonomialIdeal(["x", "y"], [exact]), (1.0, 1))


def test_negative_exponents_are_refused_at_every_entry_point():
    from ringlab.artin import truncate

    with pytest.raises(ValueError, match="negative exponent"):
        Poly(QQ, 2, {(-1, 2): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MonomialIdeal(["x", "y"], [(-1, 2)])
    with pytest.raises(ValueError, match="negative exponent"):
        contains(MonomialIdeal(["x", "y"], [(1, 1)]), (-1, 2))
    # y^2 / x is no polynomial: its truncation at order 3 is not k[x,y]/m^3
    with pytest.raises(ValueError, match="negative exponent"):
        truncate(Presentation(["x", "y"], [Poly(QQ, 2, {(-1, 2): 1})], QQ), 3)


# -- the trusted presentation_of against the validating route --------------------


def _validated_presentation(i, field):
    return Presentation(i.ambient, [Poly(field, i.nvars, {g: 1}) for g in i.sorted_gens()], field)


def _assert_trusted_presentation(i):
    assert i.sorted_gens() == sorted(i.gens, key=lambda g: (sum(g), tuple(-e for e in g)))
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), QQ):
        got, want = presentation_of(i, field), _validated_presentation(i, field)
        assert got == want
        assert got.ambient == want.ambient and got.field == want.field
        assert [g.key() for g in got.gens] == [g.key() for g in want.gens]
        assert all(g.field == field and g.nvars == i.nvars for g in got.gens)
        # same coefficient type too: Fraction(1) == 1, so the keys cannot tell
        assert [type(c) for g in got.gens for c in g.terms.values()] == [
            type(c) for g in want.gens for c in g.terms.values()
        ]
    assert presentation_of(i, QQ).gen_strings() == i.gen_strings()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_presentation_of_matches_the_validating_route(n):
    for g in enumerate_graphs(n):
        squares = edge_ideal_all_squares(g)
        ideals = [squares, polarize(squares), whiskered_edge_ideal(g)]
        for v in range(1, n + 1):
            ideals += [edge_ideal_squares_except(g, v), polarize(edge_ideal_squares_except(g, v))]
        for i in ideals:
            _assert_trusted_presentation(i)


@given(squarefree_ideals())
@settings(max_examples=60, deadline=None)
def test_presentation_of_matches_the_validating_route_on_random_ideals(i):
    _assert_trusted_presentation(i)


# -- _minimalize against pairwise divisibility -----------------------------------


def _brute_minimalize(gens):
    gens = set(gens)
    return frozenset(g for g in gens if not any(h != g and monomial_divides(h, g) for h in gens))


@st.composite
def generator_lists(draw):
    nv = draw(st.integers(min_value=1, max_value=4))
    exponent = st.lists(st.integers(min_value=0, max_value=3), min_size=nv, max_size=nv).filter(any)
    gens = draw(st.lists(exponent.map(tuple), max_size=8))
    shape = draw(st.sampled_from(["mixed", "one degree", "duplicates"]))
    if shape == "one degree" and gens:
        d = sum(gens[0])
        gens = [g for g in gens if sum(g) == d]
    if shape == "duplicates":
        gens = gens + gens[: draw(st.integers(min_value=0, max_value=len(gens)))]
    return nv, gens


@given(generator_lists())
@settings(max_examples=300, deadline=None)
@example((2, [(1, 1), (2, 0), (1, 1)]))
@example((2, [(1, 1), (2, 1), (0, 2)]))
@example((3, [(1, 0, 0), (2, 0, 0), (0, 1, 1), (1, 1, 1)]))
def test_minimalize_matches_pairwise_divisibility(case):
    nv, gens = case
    assert _minimalize(gens) == _brute_minimalize(gens)
    assert MonomialIdeal([f"x{k}" for k in range(nv)], gens).gens == _brute_minimalize(gens)


@given(generator_lists())
@settings(max_examples=100, deadline=None)
def test_polarize_and_rename_match_the_validating_constructor(case):
    nv, gens = case
    pol = polarize(MonomialIdeal([f"x{k}" for k in range(nv)], gens))
    renamed = rename_ideal(pol, [f"y{k}" for k in range(pol.nvars)])
    for i in (pol, renamed):
        rebuilt = MonomialIdeal(i.ambient, i.gens)
        assert i == rebuilt and hash(i) == hash(rebuilt)
        assert type(i.ambient) is tuple and type(i.gens) is frozenset


def test_polarize_and_rename_refuse_bad_names():
    # x^2 polarizes over the fresh name x', which the ambient already has
    with pytest.raises(ValueError, match="duplicate variable names"):
        polarize(MonomialIdeal(["x", "x'"], [(2, 0)]))
    with pytest.raises(ValueError, match="duplicate variable names"):
        rename_ideal(ideal(["x", "y"], "x*y"), ["z", "z"])
    with pytest.raises(ValueError, match="one name per variable"):
        rename_ideal(ideal(["x", "y"], "x*y"), ["z"])


# -- presentation rewrites against sympy -------------------------------------

GF3 = FieldSpec.prime(3)


def _random_terms(rng, nv, field):
    """Two to four distinct monomials of positive degree with nonzero
    coefficients; exponents stay below 3, so rewrites often merge terms."""
    size, terms = min(rng.randint(2, 4), 3**nv - 1), {}
    while len(terms) < size:
        e = tuple(rng.randint(0, 2) for _ in range(nv))
        if any(e):
            c = rng.choice([-2, -1, 1, 2])
            terms[e] = c if field == GF3 else Fraction(c, rng.randint(1, 3))
    return terms


def _random_presentation(rng, names, field):
    terms = [_random_terms(rng, len(names), field) for _ in range(rng.randint(1, 3))]
    return Presentation(names, [Poly(field, len(names), t) for t in terms], field), terms


def _value(c, field):
    """A ringlab or sympy coefficient as an int mod 3 or a Fraction."""
    return int(c) % 3 if field == GF3 else Fraction(int(c.numerator), int(c.denominator))


def _ringlab_gens(p):
    return {frozenset((m, _value(c, p.field)) for m, c in g.terms.items()) for g in p.gens}


def _sympy_gens(sympy, exprs, symbols, field):
    """The nonzero polynomials among exprs, as sets of (exponents, value)."""
    domain = sympy.GF(3) if field == GF3 else sympy.QQ
    out = set()
    for expr in exprs:
        poly = sympy.Poly(expr, *symbols, domain=domain)
        gen = frozenset((m, _value(domain.to_sympy(c), field)) for m, c in poly.terms() if c)
        if gen:
            out.add(gen)
    return out


def _sympy_expr(sympy, terms, symbols):
    return sympy.Add(*(sympy.Rational(c) * sympy.Mul(*(s**k for s, k in zip(symbols, m))) for m, c in terms.items()))


@pytest.mark.parametrize("field", [QQ, GF3], ids=["q", "fp:3"])
def test_rewrites_match_sympy(field):
    # substitute, eliminate_variables and fiber_product_presentation on random
    # non-monomial presentations, against sympy's subs, setting variables to 0
    # and the cross products of the two factors' variables
    sympy = pytest.importorskip("sympy")
    merged = 0
    for seed in range(40):
        rng = random.Random(seed)
        names = ["x", "y", "z", "w"][: rng.randint(2, 4)]
        symbols = [sympy.Symbol(v) for v in names]
        p, terms = _random_presentation(rng, names, field)
        exprs = [_sympy_expr(sympy, t, symbols) for t in terms]

        # substitute: sources map to variables that are not themselves sources
        sources = rng.sample(names, rng.randint(1, len(names) - 1))
        targets = [v for v in names if v not in sources]
        mapping = {s: rng.choice(targets) for s in sources}
        got = substitute(p, mapping)
        keep = [s for v, s in zip(names, symbols) if v in targets]
        images = [e.subs({sympy.Symbol(s): sympy.Symbol(t) for s, t in mapping.items()}) for e in exprs]
        want = _sympy_gens(sympy, images, keep, field)
        merged += sum(len(sympy.Poly(e, *keep).terms()) < len(t) for e, t in zip(images, terms))
        if all(len(g) == 1 for g in want):
            # an all-monomial image is minimalized, with unit coefficients
            monos = {m for g in want for m, _ in g}
            want = {frozenset({(m, 1)}) for m in monos if not any(d != m and monomial_divides(d, m) for d in monos)}
        assert got.ambient == tuple(targets), seed
        assert _ringlab_gens(got) == want, seed

        # eliminate_variables: the dropped variables are set to zero
        drop = rng.sample(names, rng.randint(1, len(names) - 1))
        got = eliminate_variables(p, drop)
        keep = [s for v, s in zip(names, symbols) if v not in drop]
        killed = [e.subs({sympy.Symbol(v): 0 for v in drop}) for e in exprs]
        assert got.ambient == tuple(v for v in names if v not in drop), seed
        assert _ringlab_gens(got) == _sympy_gens(sympy, killed, keep, field), seed

        # fiber_product_presentation: the right factor's names clash with the
        # left's, and "x_" forces a second rename
        right = rng.sample(["x", "y", "x_", "v"], rng.randint(1, 3))
        pt, right_terms = _random_presentation(rng, right, field)
        renamed = []
        for v in right:
            while v in names or v in renamed:
                v += "_"
            renamed.append(v)
        got = fiber_product_presentation(p, pt)
        left_symbols = [sympy.Symbol(v) for v in names]
        right_symbols = [sympy.Symbol(v) for v in renamed]
        pieces = exprs + [_sympy_expr(sympy, t, right_symbols) for t in right_terms]
        pieces += [a * b for a in left_symbols for b in right_symbols]
        assert got.ambient == tuple(names + renamed), seed
        assert _ringlab_gens(got) == _sympy_gens(sympy, pieces, left_symbols + right_symbols, field), seed
    assert merged, "no substitution merged two terms"


def test_json_presentation_is_read_in_the_given_field():
    text = '{"vars": ["x", "y"], "gens": ["x^2 - y^2", "1/2*x*y"], "field": "fp:5"}'
    assert presentation_from_json(text).gen_strings() == ["x^2 + 4*y^2", "3*x*y"]
    assert presentation_from_json(text, GF3).gen_strings() == ["x^2 + 2*y^2", "2*x*y"]
    assert presentation_from_json(text, QQ).gen_strings() == ["x^2 - y^2", "1/2*x*y"]
    with pytest.raises(ValueError, match="4 is not prime"):
        presentation_from_json(text.replace("fp:5", "fp:4"), QQ)
