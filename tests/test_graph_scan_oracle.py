"""A graph-built ideal answers off its masks as a reference reads its tuples.

``edge_ideal`` and the vertex-square quotients keep their graph's neighbour
masks and a mask of square vertices, and build ``gens`` only when read:
``_Scan`` takes the non-face pairs from the masks, and polarization,
substitution, membership, equality, the variable split and ``truncate``'s
generator codes read them too.  Every answer must equal that of the twin
``MonomialIdeal(ambient, gens)``, built from the exponent tuples, whose scan,
polarization, substitution and membership are computed here from those
tuples alone (``reference_scan``, ``reference_polarization``,
``reference_substitution``); and an edge ideal's polarization and scan must
read none of its generators.
"""

import pickle
import random
from functools import cache
from itertools import combinations, compress, product

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
    monomial_divides,
    polarize,
    presentation_of,
    rename_ideal,
    substitute_ideal,
    variable_partition_decomposable,
)
from ringlab.sr_invariants import (
    _Scan,
    _scan_of,
    cohen_macaulay_witness_fields,
    depth,
    hilbert_series,
    krull_dim,
)

FIELDS = (QQ, GF2, FieldSpec.prime(3))


# -- the reference: every answer read off the exponent tuples ---------------


def reference_polarization(ideal: MonomialIdeal) -> tuple:
    """(ambient, gens) of the textbook polarization of ``ideal.gens``: x^j
    becomes x * x' * ... * x^(j-1 primes), the copies of each variable
    appended in ambient order."""
    n = ideal.nvars
    mults = [max([1, *(g[k] for g in ideal.gens)]) for k in range(n)]
    first, fresh = [], []
    for name, mult in zip(ideal.ambient, mults):
        first.append(n + len(fresh))
        fresh += [name + "'" * j for j in range(1, mult)]
    gens = []
    for g in ideal.gens:
        e = [0] * (n + len(fresh))
        for k, exp in enumerate(g):
            if exp:
                e[k] = 1
                e[first[k] : first[k] + exp - 1] = [1] * (exp - 1)
        gens.append(tuple(e))
    return ideal.ambient + tuple(fresh), frozenset(gens)


def reference_substitution(ideal: MonomialIdeal, mapping: dict) -> tuple:
    """(ambient, gens) of the image of ``ideal.gens`` under a variable
    substitution: exponents added into the image's column, then every image
    that another image divides dropped."""
    keep = [v for v in ideal.ambient if mapping.get(v, v) == v]
    column = [keep.index(mapping.get(v, v)) for v in ideal.ambient]
    images = set()
    for g in ideal.gens:
        e = [0] * len(keep)
        for k, exp in enumerate(g):
            e[column[k]] += exp
        images.add(tuple(e))
    return tuple(keep), frozenset(g for g in images if not any(h != g and monomial_divides(h, g) for h in images))


def _nonface_table(gens, bits: list[int]) -> tuple[list[int], int, list[int]]:
    """The non-face pairs of a squarefree ideal's complex as neighbour masks
    (bit b of table[a] iff x_a x_b is a generator), its face vertices (the
    variables that do not generate) and its generator masks of degree >= 3."""
    table = [0] * len(bits)
    face_verts = (1 << len(bits)) - 1
    big = []
    for mask in (sum(compress(bits, g)) for g in gens):
        size = mask.bit_count()
        if size == 1:
            face_verts ^= mask
        elif size == 2:
            low = mask & -mask
            table[low.bit_length() - 1] |= mask ^ low
            table[mask.bit_length() - 1] |= low
        else:
            big.append(mask)
    return table, face_verts, big


def reference_scan(ideal: MonomialIdeal) -> _Scan:
    """A ``_Scan`` whose 1-skeleton, face vertices and larger non-faces are
    read off the generators of ``reference_polarization``; its searches and
    counts are the scan's own."""
    ambient, gens = reference_polarization(ideal)
    n = len(ambient)
    bits = [1 << k for k in range(n)]
    table, face_verts, big = _nonface_table(gens, bits)
    scan = object.__new__(_Scan)
    scan.ambient, scan.n, scan.added, scan.face_verts = ambient, n, n - ideal.nvars, face_verts
    scan.compat = [face_verts & ~(bit | nbrs) if face_verts & bit else 0 for bit, nbrs in zip(bits, table)]
    scan.flag = not big
    scan.gens_by_vertex = [[m for m in big if m & bit] for bit in bits]
    return scan


def reference_twin(ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal rebuilt from its exponent tuples, holding ``reference_scan``
    as its scan, so its invariants read the reference."""
    twin = MonomialIdeal(ideal.ambient, ideal.gens)
    object.__setattr__(twin, "_scan", reference_scan(twin))
    return twin


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
    twin = reference_twin(ideal)
    assert twin == ideal
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


def substitutions(ideal) -> list:
    collapse = {a: "v" + a[1:] for a in ideal.ambient if a[0] == "w"}
    return [collapse, random_map(ideal.ambient, random.Random(ideal.nvars))]


def answers(ideal, order: int | None) -> tuple:
    """What the masks must answer as the reference does; membership and the
    truncation at ``order`` over GF(2) unless it is None."""
    pol = polarize(ideal)
    images = [substitute_ideal(ideal, m) for m in substitutions(ideal)]
    shape = [ideal.is_squarefree(), ideal._max_degree(), ideal._polarized_nvars()]
    return _answers(ideal, order, (pol.ambient, pol.gens), images, shape, lambda m: contains(ideal, m)), images


def reference_answers(twin, order: int | None) -> list:
    """``answers`` with the polarization, the substitutions, the shape and
    membership read off the twin's exponent tuples."""
    pol = reference_polarization(twin)
    images = [reference_substitution(twin, m) for m in substitutions(twin)]
    shape = [all(e <= 1 for g in twin.gens for e in g), max(map(sum, twin.gens), default=0), len(pol[0])]
    return _answers(twin, order, pol, images, shape, lambda m: any(monomial_divides(g, m) for g in twin.gens))


def _answers(ideal, order, pol, images, shape, member) -> list:
    out = [
        pol,
        [(image.ambient, image.gens) if isinstance(image, MonomialIdeal) else image for image in images],
        variable_partition_decomposable(ideal),
        krull_dim(ideal),
        [depth(ideal, f) for f in (QQ, GF2)],
        shape,
    ]
    if order is not None:
        algebra = truncate(presentation_of(ideal, GF2), order)
        out += [
            [m for m in small_monomials(ideal.nvars) if member(m)],
            algebra.basis_monomials,
            socle_monomials(algebra),
        ]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_built_ideals_answer_as_their_tuple_twins(n):
    checked = 0
    for index, g in enumerate(enumerate_graphs(n)):
        ideals = [*graph_ideals(g), *square_ideals(g)]
        backs = [pickle.loads(pickle.dumps(ideal)) for ideal in ideals]
        twins = [reference_twin(ideal) for ideal in ideals]
        for ideal, twin, back in zip(ideals, twins, backs):
            assert "_graph" in ideal.__dict__
            assert ideal.gens == twin.gens and hash(ideal) == hash(twin)
            assert ideal == twin and twin == ideal
            # membership and truncate on the whiskered rings of n = 5 (9 and
            # 10 variables) run on every 32nd graph, to keep the test short
            order = n + 1 if n < 5 or ideal.nvars <= n or index % 32 == 0 else None
            got, images = answers(ideal, order)
            assert got == reference_answers(twin, order), ideal
            assert all("_graph" in image.__dict__ for image in images)
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
