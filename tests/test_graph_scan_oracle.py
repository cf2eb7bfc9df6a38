"""A graph-built ideal answers off its masks as its tuple twin answers.

``edge_ideal`` and the vertex-square quotients keep their graph's neighbour
masks and a mask of square vertices, and build ``gens`` only when read:
``_Scan`` takes the non-face pairs from the masks, and polarization,
substitution, membership, equality, the variable split and ``truncate``'s
generator codes read them too.  Every answer must equal that of the
graph-less twin ``MonomialIdeal(ambient, gens)``, which takes the tuple
path; and an edge ideal's polarization and scan must read none of its
generators.
"""

import pickle
import random
from functools import cache
from itertools import combinations, product

import pytest

from ringlab.artin import socle_monomials, truncate
from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    whisker_except_edge_ideal,
    whiskered_edge_ideal,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import enumerate_graphs, star_vertices
from ringlab.monomials import (
    MonomialIdeal,
    contains,
    edge_ideal,
    polarize,
    presentation_of,
    rename_ideal,
    substitute_ideal,
    variable_partition_decomposable,
)
from ringlab.sr_invariants import (
    _scan_of,
    cohen_macaulay_witness_fields,
    depth,
    hilbert_series,
    krull_dim,
)

FIELDS = (QQ, GF2, FieldSpec.prime(3))


def scan_answers(ideal: MonomialIdeal) -> tuple:
    scan = _scan_of(ideal)
    return (
        scan.n,
        scan.added,
        scan.ambient,
        scan.face_verts,
        scan.compat,
        scan.flag,
        scan.gens_by_vertex,
        scan.vd_facet_sizes,
        scan.max_face_size,
        scan.f_counts,
        scan._folded_core(),
    )


def graph_ideals(g):
    yield edge_ideal(g)
    yield whiskered_edge_ideal(g)
    for star in star_vertices(g):
        yield whisker_except_edge_ideal(g, star)


def assert_scan_matches_its_twin(ideal: MonomialIdeal) -> None:
    assert "_graph" in ideal.__dict__
    twin = MonomialIdeal(ideal.ambient, ideal.gens)
    assert "_graph" not in twin.__dict__ and twin == ideal
    assert scan_answers(ideal) == scan_answers(twin), ideal


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_graph_scans_match_the_generator_scans(n):
    checked = 0
    for g in enumerate_graphs(n):
        for ideal in graph_ideals(g):
            assert_scan_matches_its_twin(ideal)
            checked += 1
    # every graph gives its edge ideal and Sigma_G, and one ideal per star
    assert checked == {0: 2, 1: 3, 2: 6, 3: 22, 4: 160, 5: 2368}[n]


def test_six_vertex_graph_scans_match_the_generator_scans():
    # 32,768 edge ideals; with n <= 5 above, 35,329 ideals in all
    for g in enumerate_graphs(6):
        assert_scan_matches_its_twin(edge_ideal(g))


def invariants(ideal: MonomialIdeal) -> tuple:
    return (
        krull_dim(ideal),
        [depth(ideal, f) for f in FIELDS],
        hilbert_series(ideal),
        cohen_macaulay_witness_fields(ideal, FIELDS),
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pickled_and_renamed_edge_ideals_keep_their_invariants(n):
    for g in enumerate_graphs(n):
        for ideal in (edge_ideal(g), whiskered_edge_ideal(g)):
            back = pickle.loads(pickle.dumps(ideal))
            assert back == ideal and back.__dict__["_graph"] == ideal.__dict__["_graph"]
            names = {a: f"x{k}" for k, a in enumerate(ideal.ambient)}
            renamed = rename_ideal(ideal, list(names.values()))
            want = invariants(ideal)
            assert invariants(back) == want
            # the renamed ring's witnesses name its own variables
            for w in want[3].values():
                if w is not None:
                    w["subset"] = sorted(names[a] for a in w["subset"])
            assert invariants(renamed) == want


class _Unread(frozenset):
    """A generator set that counts the times it is iterated."""

    reads = 0

    def __iter__(self):
        _Unread.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("n", [1, 3, 5])
def test_an_edge_ideal_polarizes_and_scans_with_no_generator_read(n):
    _Unread.reads = 0
    for g in enumerate_graphs(n):
        for ideal in graph_ideals(g):
            ideal.__dict__["gens"] = _Unread(ideal.gens)
            assert polarize(ideal) is ideal
            scan = _scan_of(ideal)
            assert scan.added == 0 and scan.flag
    assert _Unread.reads == 0
    # a squarefree ideal built apart reads its generators once, to learn it
    # is its own polarization
    twin = MonomialIdeal(ideal.ambient, ideal.gens)
    twin.__dict__["gens"] = _Unread(twin.gens)
    _Unread.reads = 0
    assert polarize(twin) is twin and _Unread.reads == 1


def square_ideals(g):
    yield edge_ideal_all_squares(g)
    for star in star_vertices(g):
        yield edge_ideal_squares_except(g, star)


@cache
def small_monomials(nvars: int) -> list:
    """Every monomial with support of size <= 3 and exponents <= 2."""
    out = []
    for size in range(4):
        for support in combinations(range(nvars), size):
            for exps in product((1, 2), repeat=size):
                e = [0] * nvars
                for k, x in zip(support, exps):
                    e[k] = x
                out.append(tuple(e))
    return out


def random_map(ambient, rng) -> dict:
    """A variable-to-variable substitution: a few kept targets, and some of
    the other variables each sent to one of them."""
    names = list(ambient)
    rng.shuffle(names)
    k = rng.randint(1, len(names))
    return {v: rng.choice(names[:k]) for v in names[k:] if rng.random() < 0.7}


def answers(ideal, order: int | None) -> tuple:
    """What the graph path and the tuple path must agree on; membership and
    the truncation at ``order`` over GF(2) unless it is None."""
    pol = polarize(ideal)
    collapse = {a: "v" + a[1:] for a in ideal.ambient if a[0] == "w"}
    images = [substitute_ideal(ideal, m) for m in (collapse, random_map(ideal.ambient, random.Random(ideal.nvars)))]
    out = [
        pol.ambient,
        pol.gens,
        [(image.ambient, image.gens) for image in images],
        variable_partition_decomposable(ideal),
        krull_dim(ideal),
        [depth(ideal, f) for f in (QQ, GF2)],
        ideal.is_squarefree(),
        ideal._max_degree(),
        ideal._polarized_nvars(),
    ]
    if order is not None:
        algebra = truncate(presentation_of(ideal, GF2), order)
        out += [
            [m for m in small_monomials(ideal.nvars) if contains(ideal, m)],
            algebra.basis_monomials,
            socle_monomials(algebra),
        ]
    return out, images


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_built_ideals_answer_as_their_tuple_twins(n):
    checked = 0
    for index, g in enumerate(enumerate_graphs(n)):
        ideals = [*graph_ideals(g), *square_ideals(g)]
        backs = [pickle.loads(pickle.dumps(ideal)) for ideal in ideals]
        twins = [MonomialIdeal(ideal.ambient, ideal.gens) for ideal in ideals]
        for ideal, twin, back in zip(ideals, twins, backs):
            assert "_graph" in ideal.__dict__ and "_graph" not in twin.__dict__
            assert ideal.gens == twin.gens and hash(ideal) == hash(twin)
            assert ideal == twin and twin == ideal
            # membership and truncate on the whiskered rings of n = 5 (9 and
            # 10 variables) run on every 32nd graph, to keep the test short
            order = n + 1 if n < 5 or ideal.nvars <= n or index % 32 == 0 else None
            got, images = answers(ideal, order)
            want, twin_images = answers(twin, order)
            assert got == want, ideal
            assert images == twin_images and all("_graph" in image.__dict__ for image in images)
            names = [f"x{k}" for k in range(ideal.nvars)]
            renamed = rename_ideal(ideal, names)
            assert "_graph" in renamed.__dict__ and renamed == rename_ideal(twin, names)
            assert polarize(renamed).gens == polarize(ideal).gens
            # pickled before its generators were built, it keeps its masks
            assert "gens" not in back.__dict__ and back == ideal and back.gens == twin.gens
            checked += 1
        # equality on the masks answers as equality on the generators
        for (a, twin_a), (b, twin_b) in combinations(zip(ideals, twins), 2):
            assert (a == b) == (twin_a == twin_b)
    # per graph: its edge ideal, Sigma_G and the square quotient, and the
    # partly whiskered ring and the square quotient at each star vertex
    assert checked == {1: 5, 2: 10, 3: 36, 4: 256, 5: 3712}[n]
