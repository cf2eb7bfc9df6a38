"""An edge ideal's scan reads its 1-skeleton off the graph it was built from.

``edge_ideal`` keeps its graph, and ``_Scan`` takes the non-face pairs from
the graph's neighbour masks instead of from the generators.  Every such scan
must answer as the scan of its graph-less twin ``MonomialIdeal(ambient,
gens)``, which derives the table from its generators; and an edge ideal's
polarization and scan must read none of its generators.
"""

import pickle

import pytest

from ringlab.constructions import whisker_except_edge_ideal, whiskered_edge_ideal
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import enumerate_graphs, star_vertices
from ringlab.monomials import MonomialIdeal, edge_ideal, polarize, rename_ideal
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
