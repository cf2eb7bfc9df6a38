"""Vertex-decomposability certificates against the Hochster scan.

``depth`` and ``cohen_macaulay_witness_fields`` answer from a shedding order
(``_Scan.vd_facet_sizes``) when one is found and fall through to the subset
scan otherwise.  The oracle here forces the scan: ``top_hochster`` called
directly, with floor 0 for the depth and floor nvars - dim for the
Cohen-Macaulay witness, over q, GF(2) and GF(3).  Depth and the CM verdict
are isomorphism invariants, so the exhaustive n = 5 sweep scans one labeling
per isomorphism class and checks every labeled certificate against it.
"""

import itertools
import random

import pytest

from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    whisker_except_edge_ideal,
    whiskered_edge_ideal,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import Graph, enumerate_graphs
from ringlab.monomials import edge_ideal, polarize
from ringlab.sr_invariants import (
    _Scan,
    cohen_macaulay_witness_fields,
    depth,
    is_cohen_macaulay,
    krull_dim,
)
from test_sr_invariants import projective_plane_ideal

FIELDS = (QQ, GF2, FieldSpec.prime(3))


def kinds(g: Graph):
    """(kind, vertex or None, ideal) for the edge, whiskered, vertex-square,
    whisker-except and squares-except ideals of g."""
    yield "edge", None, edge_ideal(g)
    yield "whiskered", None, whiskered_edge_ideal(g)
    yield "squares", None, edge_ideal_all_squares(g)
    for v in range(1, g.n + 1):
        yield "whisker_except", v, whisker_except_edge_ideal(g, v)
        yield "squares_except", v, edge_ideal_squares_except(g, v)


def scan_answers(ideal, witnesses: bool = True) -> dict:
    """Krull dimension, and per field the depth and (when asked for and the
    ring is not CM over some field) the raw CM witness (W mask, degree) of
    the forced scan."""
    scan = _Scan(ideal)
    top = scan.max_face_size()
    pd_top = scan.top_hochster(FIELDS, 0)
    out = {"dim": top - scan.added}
    for f, t in pd_top.items():
        pd = 0 if t is None else t[0].bit_count() - 1 - t[1]
        out[f] = scan.n - pd - scan.added
    if witnesses and any(out[f] != out["dim"] for f in FIELDS):
        out["witness"] = scan.top_hochster(FIELDS, scan.n - top)
    return out


def raw_witness(ideal, wit):
    if wit is None:
        return None
    ambient = polarize(ideal).ambient
    return sum(1 << ambient.index(name) for name in wit["subset"]), wit["homology_degree"]


def check_public_answers(ideal, want: dict) -> None:
    """Every public answer for one ideal equals the forced scan's."""
    assert krull_dim(ideal) == want["dim"], ideal
    assert is_cohen_macaulay(ideal, GF2) == (want[GF2] == want["dim"]), ideal
    witnesses = cohen_macaulay_witness_fields(ideal, FIELDS)
    for f in FIELDS:
        assert depth(ideal, f) == want[f], (ideal, f)
        expected = want["witness"][f] if "witness" in want else None
        assert raw_witness(ideal, witnesses[f]) == expected, (ideal, f)


def check_certificate(ideal, want: dict) -> bool:
    """The certificate's answers against the scan's; False when the rule
    finds no certificate."""
    scan = _Scan(ideal)
    sizes = scan.vd_facet_sizes()
    if sizes is None:
        return False
    low, high = sizes[0] - scan.added, sizes[1] - scan.added
    assert high == want["dim"], ideal
    assert all(low == want[f] for f in FIELDS), ideal
    assert depth(ideal, GF2) == low, ideal
    if low == high:
        assert scan.is_sphere_wedge_shaped(sizes[1]), ideal
        assert cohen_macaulay_witness_fields(ideal, FIELDS) == dict.fromkeys(FIELDS), ideal
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_public_answer_matches_the_scan(n):
    for g in enumerate_graphs(n):
        for _, _, ideal in kinds(g):
            check_public_answers(ideal, scan_answers(ideal))


def orbit_keys(g: Graph, perms) -> dict:
    """Least relabelings of g (key None) and of each pair (g, v): equal keys
    mean isomorphic graphs, or isomorphic graphs with a marked vertex."""
    relabeled = [
        (tuple(sorted(tuple(sorted((p[a - 1], p[b - 1]))) for a, b in g.edges)), p) for p in perms
    ]
    keys = {None: min(edges for edges, _ in relabeled)}
    for v in range(1, g.n + 1):
        keys[v] = min((edges, p[v - 1]) for edges, p in relabeled)
    return keys


def test_certificates_on_every_five_vertex_graph():
    perms = list(itertools.permutations(range(1, 6)))
    scanned: dict = {}
    certified = total = 0
    for g in enumerate_graphs(5):
        keys = orbit_keys(g, perms)
        for kind, v, ideal in kinds(g):
            key = (kind, keys[v])
            if key not in scanned:
                scanned[key] = scan_answers(ideal, witnesses=False)
            certified += check_certificate(ideal, scanned[key])
            total += 1
    assert (certified, total, len(scanned)) == (13_230, 1024 * 13, 282)


def test_certificates_on_a_six_vertex_sample():
    rng = random.Random(6)
    graphs = list(enumerate_graphs(6))
    certified = 0
    for g in rng.sample(graphs, 4):
        for _, _, ideal in kinds(g):
            certified += check_certificate(ideal, scan_answers(ideal, witnesses=False))
    assert certified == 4 * 15


def test_the_five_cycle_reaches_the_scan():
    # no vertex of C5 has a neighbour whose closed neighbourhood lies in its
    # own, so the rule finds no certificate although the complex is CM
    ideal = edge_ideal(named_graph("c5"))
    assert _Scan(ideal).vd_facet_sizes() is None
    want = scan_answers(ideal)
    assert [want[f] for f in FIELDS] == [2, 2, 2] and want["dim"] == 2
    check_public_answers(ideal, want)


def test_a_forged_pure_certificate_is_caught_by_the_audit(monkeypatch):
    # C4's independence complex is two disjoint edges: pure, not CM, and not
    # certified.  Its top mod-2 Betti number is 0 against a reduced Euler
    # characteristic of 1, so a forged certificate claiming it pure VD is
    # refused and the scan decides.
    import ringlab.sr_invariants as sr

    ideal = edge_ideal(named_graph("c4"))
    scan = _Scan(ideal)
    assert scan.vd_facet_sizes() is None
    assert not scan.is_sphere_wedge_shaped(2)
    want = scan_answers(ideal)
    monkeypatch.setattr(sr._Scan, "vd_facet_sizes", lambda self: (2, 2))
    assert not is_cohen_macaulay(ideal, GF2)
    witnesses = cohen_macaulay_witness_fields(ideal, FIELDS)
    assert all(raw_witness(ideal, witnesses[f]) == want["witness"][f] for f in FIELDS)


def test_the_projective_plane_keeps_its_diverging_verdicts():
    # non-flag, so never certified: q and GF(3) say CM, GF(2) does not
    ideal = projective_plane_ideal()
    scan = _Scan(ideal)
    assert scan.vd_facet_sizes() is None
    want = scan_answers(ideal)
    assert [want[f] for f in FIELDS] == [3, 2, 3]
    check_public_answers(ideal, want)
    mask, degree = want["witness"][GF2]
    assert scan.reduced_betti(mask, degree, GF2) > 0
