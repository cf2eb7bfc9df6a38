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
from ringlab.monomials import MonomialIdeal, edge_ideal, polarize
from ringlab.sr_invariants import (
    _Scan,
    cohen_macaulay_witness_fields,
    depth,
    krull_dim,
)
from test_sr_invariants import oracle_faces, oracle_reduced_homology, projective_plane_ideal

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
    assert (cohen_macaulay_witness_fields(ideal, (GF2,))[GF2] is None) == (want[GF2] == want["dim"]), ideal
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
    assert cohen_macaulay_witness_fields(ideal, (GF2,))[GF2] is not None
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
    # the GF(2) witness replays through the brute-force homology oracle
    mask, degree = want["witness"][GF2]
    faces = oracle_faces(ideal, [k for k in range(scan.n) if mask >> k & 1])
    assert oracle_reduced_homology(faces, degree, GF2) > 0


def facet_sizes(g: Graph) -> tuple[int, int]:
    """(smallest, largest) maximal independent set of g, by brute force over
    every vertex subset: the facet sizes of the complex of edge_ideal(g)."""
    independent = [
        set(s)
        for r in range(g.n + 1)
        for s in itertools.combinations(range(1, g.n + 1), r)
        if not any(a in s and b in s for a, b in g.edges)
    ]
    sizes = [len(s) for s in independent if not any(s < t for t in independent)]
    return min(sizes), max(sizes)


def test_dimension_of_a_certified_ring_skips_the_face_search(monkeypatch):
    # sigma(E20) has 40 variables; the max-face search took 6.2 s on it.  Each
    # shedding step leaves its whisker as a cone apex, which is stripped, so
    # the certificate answers in one step per whisker
    import ringlab.sr_invariants as sr

    def refuse(self):
        raise AssertionError("max-face search started")

    monkeypatch.setattr(sr._Scan, "max_face_size", refuse)
    assert krull_dim(whiskered_edge_ideal(Graph(20, []))) == 20
    assert _Scan(whiskered_edge_ideal(Graph(20, []))).vd_facet_sizes() == (20, 20)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_cones_certify_through_their_apexes(m):
    # the simplex on m vertices is all apexes; the link of the first shed
    # vertex of K_m with pendants is its other pendants, all apexes again;
    # a triangle with isolated vertices is a cone over three points
    simplex = Graph(m, [])
    clique = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    pendants = Graph(2 * m, clique + [(v, m + v) for v in range(1, m + 1)])
    triangle = Graph(m + 3, [(1, 2), (2, 3), (1, 3)])
    for g in (simplex, pendants, triangle):
        ideal = edge_ideal(g)
        assert _Scan(ideal).vd_facet_sizes() == facet_sizes(g), g
        check_public_answers(ideal, scan_answers(ideal))


def test_the_shedding_search_runs_past_the_recursion_limit():
    # sigma(E1000) takes 1,000 shedding steps in a row, one per whisker: the
    # search keeps them on its own stack, not Python's
    assert krull_dim(whiskered_edge_ideal(Graph(1000, []))) == 1000


def test_uncertified_rings_above_the_size_limit(monkeypatch):
    # three disjoint five-cycles: 15 variables and no shedding vertex, so the
    # dimension needs the max-face search, which a squarefree ring runs at
    # any size.  A square y^2 alongside polarizes to 17 variables and is
    # refused before the search
    import ringlab.sr_invariants as sr

    cycles = Graph(15, [(5 * c + k, 5 * c + k % 5 + 1) for c in range(3) for k in range(1, 6)])
    ideal = edge_ideal(cycles)
    assert _Scan(ideal).vd_facet_sizes() is None
    assert krull_dim(ideal) == 6

    def refuse(self):
        raise AssertionError("max-face search started")

    monkeypatch.setattr(sr._Scan, "max_face_size", refuse)
    squared = MonomialIdeal(ideal.ambient + ("y",), [g + (0,) for g in ideal.gens] + [(0,) * 15 + (2,)])
    with pytest.raises(ValueError, match="size limit exceeded: 17 variables after polarization"):
        krull_dim(squared)
