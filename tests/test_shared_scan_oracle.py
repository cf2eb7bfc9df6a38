"""Theorem B's square quotient reads the scan of the partly whiskered ring.

``_adopt_scan(kdp, tilde)`` gives the vertex-square quotient kdp a copy of
tilde's scan, and answers True, when both polarize to the same generators.  Over every labeled
graph on at most five vertices, each star vertex and both fields, the copy
must answer as a scan kdp builds for itself; and a twin whose polarization
differs must be declined, leaving kdp to scan itself.
"""

import pytest

import ringlab.sr_invariants as sr
from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    whisker_except_edge_ideal,
)
from ringlab.fields import GF2, QQ
from ringlab.graphs import Graph, enumerate_graphs, star_vertices
from ringlab.monomials import MonomialIdeal
from ringlab.sr_invariants import _adopt_scan, _Scan, depth, krull_dim


def scan_answers(scan: _Scan) -> tuple:
    return (
        scan.ambient,
        scan.n,
        scan.added,
        scan.face_verts,
        scan.compat,
        scan.flag,
        [sorted(gens) for gens in scan.gens_by_vertex],
        scan.vd_facet_sizes,
        scan.f_counts,
        scan.max_face_size,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_adopted_scan_answers_as_a_fresh_one(n):
    adopted = 0
    for g in enumerate_graphs(n):
        for star in star_vertices(g):
            for f in (QQ, GF2):
                tilde = whisker_except_edge_ideal(g, star)
                if f is QQ:
                    # as in check_theorem_B: tilde's searches are cached first
                    krull_dim(tilde)
                    depth(tilde, f)
                kdp = edge_ideal_squares_except(g, star)
                assert _adopt_scan(kdp, tilde) and "_scan" in kdp.__dict__
                fresh = edge_ideal_squares_except(g, star)
                assert krull_dim(kdp) == krull_dim(fresh)
                assert depth(kdp, f) == depth(fresh, f)
                assert scan_answers(sr._scan_of(kdp)) == scan_answers(_Scan(kdp))
                adopted += 1
    # 720 triples for n = 2..5, the thmB corpus
    assert adopted == {1: 2, 2: 4, 3: 12, 4: 64, 5: 640}[n]


def broken_twins():
    """(ideal, twin) pairs whose polarizations differ."""
    k3 = named_graph("k3")
    tilde = whisker_except_edge_ideal(k3, 3)
    yield edge_ideal_all_squares(k3), tilde
    yield edge_ideal_squares_except(Graph.from_edges(3, []), 3), tilde
    yield MonomialIdeal(["x"], []), MonomialIdeal(["x", "y"], [])
    for n in (3, 4):
        for g in enumerate_graphs(n):
            stars = star_vertices(g)
            for star, other in zip(stars, stars[1:] + stars[:1]):
                if star != other:
                    yield edge_ideal_squares_except(g, star), whisker_except_edge_ideal(g, other)


@pytest.mark.parametrize("f", [QQ, GF2], ids=str)
def test_a_twin_with_another_polarization_is_declined(f):
    declined = 0
    for ideal, twin in broken_twins():
        krull_dim(twin)
        assert not _adopt_scan(ideal, twin)
        assert "_scan" not in ideal.__dict__, (ideal, twin)
        fresh = MonomialIdeal(ideal.ambient, ideal.gens)
        assert krull_dim(ideal) == krull_dim(fresh)
        assert depth(ideal, f) == depth(fresh, f)
        declined += 1
    assert declined > 3
