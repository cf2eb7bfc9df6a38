"""The monomial core's lookups against brute-force divisibility scans.

Standard monomials, the socle, the filtration, the cut-ring check of
``is_gorenstein_artinian``, ``_minimalize`` and the split test are answered
by lookups in sets the code built itself.  Each is checked here against the
definition it replaces, which tests every monomial against every generator:
over the vertex-square quotients k[V]/(I(G) + squares) of every labeled graph
on at most five vertices, and over hypothesis-generated monomial ideals.  The
scan is this file's own (``divides``, ``oracle_contains``), so it shares no
code with ``contains``, which is checked against it too.  A counter guard
pins that the truncation forms each candidate monomial once.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import artin
from ringlab.artin import (
    hilbert_function,
    is_gorenstein_artinian,
    socle,
    socle_monomials,
    truncate,
)
from ringlab.constructions import edge_ideal_all_squares
from ringlab.fields import GF2, QQ
from ringlab.graphs import enumerate_graphs
from ringlab.monomials import (
    MonomialIdeal,
    Poly,
    Presentation,
    _minimalize,
    contains,
    format_monomial,
    presentation_of,
    variable_partition_decomposable,
)


def monomials_of_degree(nv: int, deg: int):
    """Every exponent tuple of total degree deg, in ascending tuple order."""
    if nv == 1:
        yield (deg,)
        return
    for e in range(deg + 1):
        for rest in monomials_of_degree(nv - 1, deg - e):
            yield (e,) + rest


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_contains(ideal: MonomialIdeal, m) -> bool:
    """Membership by definition: some generator divides m."""
    return any(divides(g, m) for g in ideal.gens)


def oracle_basis(ideal: MonomialIdeal, order: int) -> tuple:
    """The monomials below order outside the ideal, by degree and then in
    descending exponent tuples, the basis order."""
    below = [m for d in range(order) for m in monomials_of_degree(ideal.nvars, d)]
    standard = [m for m in below if not oracle_contains(ideal, m)]
    return tuple(sorted(standard, key=lambda m: (sum(m), [-e for e in m])))


def oracle_socle(a) -> list:
    """A basis vector is in the socle iff every variable kills it."""
    out = []
    for j in range(a.dim_k):
        vec = a._basis_vec(j)
        if all(not any(a.var_multiply(k, vec)) for k in range(a.nvars)):
            out.append(vec)
    return out


def oracle_filtration(basis) -> tuple:
    """dim m^j: the standard monomials of degree >= j, down to the first 0."""
    top = max(sum(m) for m in basis)
    return tuple(sum(1 for m in basis if sum(m) >= j) for j in range(top + 2))


def oracle_minimalize(gens) -> frozenset:
    gens = set(gens)
    return frozenset(g for g in gens if not any(h != g and divides(h, g) for h in gens))


def oracle_cut_message(ideal: MonomialIdeal, order: int) -> str | None:
    """The error of the cut-ring check: the first surviving degree-order monomial."""
    for m in monomials_of_degree(ideal.nvars, order):
        if not oracle_contains(ideal, m):
            return (
                "truncation order cuts the ring: monomial "
                f"{format_monomial(ideal.ambient, m)} survives; not a full artinian ring"
            )
    return None


def oracle_split(ideal: MonomialIdeal):
    """The cross graph from the membership scan, its components by a plain
    set search."""
    n = ideal.nvars
    if any(sum(g) == 1 for g in ideal.gens):
        return "raises"
    if n <= 1:
        return None

    def cross(a, b):
        e = [0] * n
        e[a] += 1
        e[b] += 1
        return not oracle_contains(ideal, tuple(e))

    comp, todo = {n - 1}, [n - 1]
    while todo:
        u = todo.pop()
        for v in range(n):
            if v not in comp and cross(min(u, v), max(u, v)):
                comp.add(v)
                todo.append(v)
    if len(comp) == n:
        return None
    return (
        frozenset(ideal.ambient[k] for k in comp),
        frozenset(ideal.ambient[k] for k in range(n) if k not in comp),
    )


def split_outcome(ideal: MonomialIdeal):
    try:
        return variable_partition_decomposable(ideal)
    except ValueError:
        return "raises"


def check_algebra(ideal: MonomialIdeal, presentation: Presentation, order: int) -> None:
    a = truncate(presentation, order)
    basis = oracle_basis(ideal, order)
    assert a.basis_monomials == basis
    assert socle(a) == oracle_socle(a)
    assert socle_monomials(a) == [a.basis_monomials[next(i for i, c in enumerate(v) if c)] for v in oracle_socle(a)]
    assert a.filtration == oracle_filtration(basis)
    assert hilbert_function(a) == [sum(1 for m in basis if sum(m) == d) for d in range(len(a.filtration) - 1)]
    expected = oracle_cut_message(ideal, order)
    if expected is None:
        assert is_gorenstein_artinian(a) == (len(oracle_socle(a)) == 1)
    else:
        with pytest.raises(ValueError) as err:
            is_gorenstein_artinian(a)
        assert str(err.value) == expected


def independence_number(g) -> int:
    return max(
        bin(mask).count("1")
        for mask in range(1 << g.n)
        if not any(mask >> (i - 1) & 1 and mask >> (j - 1) & 1 for i, j in g.edges)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_square_quotients_against_scans(n):
    for g in enumerate_graphs(n):
        ideal = edge_ideal_all_squares(g)
        p = presentation_of(ideal, GF2)
        alpha = independence_number(g)
        # order alpha cuts the ring (a maximal independent set survives);
        # alpha + 1 and n + 1 do not
        for order in sorted({alpha, alpha + 1, n + 1}):
            check_algebra(ideal, p, order)
        assert split_outcome(ideal) == oracle_split(ideal)
        # edge pairs and vertex-square multiples are not minimal
        extra = [tuple(x + y for x, y in zip(u, v)) for u in ideal.gens for v in ideal.gens]
        gens = list(ideal.gens) + extra
        assert ideal.gens == oracle_minimalize(gens)
        assert _minimalize(gens) == oracle_minimalize(gens)


@st.composite
def monomial_ideals(draw):
    nv = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * nv).filter(any)
    return nv, draw(st.lists(exponents, max_size=6))


@settings(max_examples=300, deadline=None)
@given(monomial_ideals(), st.integers(1, 5))
def test_random_monomial_ideals_against_scans(case, order):
    nv, gens = case
    ambient = [f"x{k}" for k in range(1, nv + 1)]
    ideal = MonomialIdeal(ambient, gens)
    assert ideal.gens == oracle_minimalize(gens)
    # the raw, possibly non-minimal generators go into the presentation
    raw = Presentation(ambient, [Poly(GF2, nv, {g: 1}) for g in gens], GF2)
    check_algebra(ideal, raw, order)
    assert split_outcome(ideal) == oracle_split(ideal)


def test_contains_against_the_scan():
    # squarefree and non-squarefree ideals and the zero ideal, probed with
    # every generator, with monomials of a generator's support but other
    # exponents, and with random monomials
    rng = random.Random(26)
    for trial in range(400):
        nv = rng.randint(1, 5)
        top = 1 if trial % 2 else 3
        raw = [tuple(rng.randint(0, top) for _ in range(nv)) for _ in range(rng.randint(0, 5))]
        ideal = MonomialIdeal([f"x{k}" for k in range(nv)], [g for g in raw if any(g)])
        probes = list(ideal.gens)
        for g in ideal.gens:
            probes.append(tuple(rng.randint(1, 4) if e else 0 for e in g))
            probes.append(tuple(max(1, e - 1) if e else 0 for e in g))
        probes += [tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(6)]
        for m in probes:
            assert contains(ideal, m) == oracle_contains(ideal, m), (ideal, m)
    assert not contains(MonomialIdeal(["x", "y"], []), (3, 3))


# 40 variables in which only x38, x39, x40 multiply freely: the base-4 codes
# of the walk at order 3 pass 2^64, and x38*x39*x40 survives the order
MANY = [f"x{k}" for k in range(1, 41)]
FREE = {37, 38, 39}
MANY_GENS = [
    tuple(int(k in (i, j)) + int(k == i == j) for k in range(40))
    for i in range(40)
    for j in range(i, 40)
    if not (i != j and {i, j} <= FREE)
]
EDGE_INPUTS = [
    # order 1: the basis is the unit alone
    (["x", "y"], [(1, 1)], 1),
    # generators of degree = N (y^3) and > N (z^4, whose exponent is no
    # base-4 digit, and x*y^2*z)
    (["x", "y", "z"], [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 2, 1)], 3),
    # raw non-minimal generators: x*y, three of its multiples and y^4
    (["x", "y"], [(1, 1), (2, 1), (1, 3), (3, 3), (0, 4)], 5),
    (MANY, MANY_GENS, 3),
]


@pytest.mark.parametrize("ambient, gens, order", EDGE_INPUTS, ids=["order-1", "degree-N", "non-minimal", "40-vars"])
def test_coded_walk_edge_inputs(ambient, gens, order):
    raw = Presentation(ambient, [Poly(GF2, len(ambient), {g: 1}) for g in gens], GF2)
    check_algebra(MonomialIdeal(ambient, gens), raw, order)


def degree_extensions(a) -> int:
    """The candidates a truncation that forms each monomial once must test:
    m*x_k for every basis monomial m below the top degree and every k at or
    after m's last variable."""
    return sum(
        a.nvars - max((k for k, e in enumerate(m) if e), default=0)
        for m in a.basis_monomials
        if sum(m) < a.trunc_order - 1
    )


NON_SQUAREFREE = [
    (["x", "y"], [(3, 0), (1, 2), (0, 4)]),
    (["x", "y", "z"], [(2, 1, 0), (0, 0, 3), (0, 2, 0)]),
    (["x", "y", "z"], [(3, 0, 0)]),
]


class ProbedCodes(set):
    """A generator-code set that records every code tested against it."""

    def __init__(self, codes, probes: list):
        super().__init__(codes)
        self.probes = probes

    def __contains__(self, code) -> bool:
        self.probes.append(code)
        return super().__contains__(code)


def test_truncate_tests_each_candidate_once(monkeypatch):
    """The walk tests each candidate code against the generators first, so
    the probes of the generator-code set are the candidates tested."""
    tested = []
    coding = artin._coding

    def counted(p, n):
        w, gens = coding(p, n)
        return w, ProbedCodes(gens, tested)

    monkeypatch.setattr(artin, "_coding", counted)
    cases = [
        (presentation_of(edge_ideal_all_squares(g), GF2), g.n + 1) for n in range(1, 6) for g in enumerate_graphs(n)
    ]
    for ambient, gens in NON_SQUAREFREE:
        cases += [(presentation_of(MonomialIdeal(ambient, gens), GF2), order) for order in (1, 3, 5, 7)]
    for p, order in cases:
        tested.clear()
        a = truncate(p, order)
        assert len(tested) == len(set(tested)) == degree_extensions(a)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_general_path_agrees_with_the_monomial_path(field):
    """Both paths take their monomials from one walk; the general path's
    elimination must then reproduce the monomial path's generator exclusion:
    the same basis, variable actions and socle, the general socle being the
    null space of the stacked actions and the monomial one the walk's record."""
    cases = []
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            p = presentation_of(edge_ideal_all_squares(g), field)
            cases += [(p, order) for order in sorted({2, n + 1})]
    for ambient, gens in NON_SQUAREFREE:
        cases += [(presentation_of(MonomialIdeal(ambient, gens), field), order) for order in (1, 3, 5, 7)]
    for p, order in cases:
        general, monomial = artin._truncate_general(p, order), artin._truncate_monomial(p, order)
        assert not general._monomial_path and monomial._monomial_path
        assert general.basis_monomials == monomial.basis_monomials
        for k in range(p.nvars):
            assert general.var_sparse(k) == monomial.var_sparse(k)
        assert socle(general) == socle(monomial)
