"""Stanley-Reisner invariants against an independent brute-force oracle.

The oracle recomputes depth from scratch: every subset W, every homology
degree, faces enumerated by direct subset filtering, boundary matrices built
densely and ranked through the generic Matrix type.  No pruning, no screens,
no cones; it shares nothing with the production scan except the linalg core.
"""

import itertools
import math

import pytest

from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    whiskered_edge_ideal,
    whisker_except_edge_ideal,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import enumerate_graphs
from ringlab.linalg import Matrix
from ringlab.monomials import MonomialIdeal, edge_ideal, parse_poly, polarize
from ringlab.sr_invariants import (
    _Scan,
    cohen_macaulay_witness_fields,
    depth,
    f_vector,
    hilbert_series,
    krull_dim,
    multiplicity,
)

GF3 = FieldSpec.prime(3)


def ideal(vars_, *gens):
    return MonomialIdeal(vars_, [next(iter(parse_poly(vars_, g, QQ).terms)) for g in gens])


# -- the oracle ---------------------------------------------------------------


def oracle_faces(i: MonomialIdeal, verts):
    out = []
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            e = [0] * i.nvars
            for v in combo:
                e[v] = 1
            if not any(all(g[k] <= e[k] for k in range(i.nvars)) for g in i.gens):
                out.append(frozenset(combo))
    return out


def oracle_reduced_homology(faces, deg, field):
    by_dim = {}
    for fc in faces:
        by_dim.setdefault(len(fc) - 1, []).append(sorted(fc))
    for key in by_dim:
        by_dim[key].sort()
    c_deg = by_dim.get(deg, [])
    if not c_deg:
        return 1 if deg == -1 and faces == [frozenset()] else 0

    def boundary_rank(d):
        rows_faces = by_dim.get(d, [])
        cols_faces = by_dim.get(d - 1, [])
        if not rows_faces or not cols_faces:
            return 0
        index = {tuple(fc): k for k, fc in enumerate(cols_faces)}
        rows = []
        for fc in rows_faces:
            row = [0] * len(cols_faces)
            for k in range(len(fc)):
                sub = tuple(fc[:k] + fc[k + 1 :])
                row[index[sub]] = (-1) ** k
            rows.append(row)
        return Matrix(field, rows, len(cols_faces)).rank()

    return len(c_deg) - boundary_rank(deg) - boundary_rank(deg + 1)


def oracle_depth(i: MonomialIdeal, field):
    work = polarize(i)
    added = work.nvars - i.nvars
    n = work.nvars
    best_j = 0
    for w in range(1 << n):
        verts = [k for k in range(n) if w >> k & 1]
        faces = [fc for fc in oracle_faces(work, verts)]
        for deg in range(-1, len(verts)):
            if oracle_reduced_homology(faces, deg, field) > 0:
                best_j = max(best_j, len(verts) - 1 - deg)
    return n - best_j - added


SMALL_IDEALS = [
    ideal(["x", "y"], "x*y"),
    ideal(["x", "y", "z"], "x*y*z"),
    ideal(["x", "y", "z"], "x*y", "y*z"),
    ideal(["x", "y", "z"], "x*y", "y*z", "x*z"),
    ideal(["x", "y", "z", "w"], "x*y", "z*w"),
    ideal(["x", "y"], "x^2", "x*y", "y^2"),
    ideal(["a", "b", "c"], "a^2", "a*b", "b*c"),
    MonomialIdeal(["x", "y"], []),
    MonomialIdeal(["x", "y"], [(1, 0)]),
    edge_ideal_all_squares(named_graph("p3")),
    whiskered_edge_ideal(named_graph("k2")),
    edge_ideal_squares_except(named_graph("p3"), 2),
]


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_depth_matches_bruteforce_oracle(field):
    for i in SMALL_IDEALS:
        assert depth(i, field) == oracle_depth(i, field), i


def test_depth_le_dim_everywhere():
    for i in SMALL_IDEALS:
        d = krull_dim(i)
        for f in (QQ, GF2):
            assert depth(i, f) <= d


def graph_ideals(max_n):
    """Whiskered, vertex-square, squares-but-one and whiskered-but-one ideals
    of every labeled graph on at most max_n vertices."""
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            yield whiskered_edge_ideal(g)
            yield edge_ideal_all_squares(g)
            for v in range(1, n + 1):
                yield edge_ideal_squares_except(g, v)
                yield whisker_except_edge_ideal(g, v)


def replays(i: MonomialIdeal, wit, field) -> bool:
    from ringlab.sr_invariants import _Scan

    work = polarize(i)
    mask = 0
    for name in wit["subset"]:
        mask |= 1 << work.ambient.index(name)
    return _Scan(work).reduced_betti(mask, wit["homology_degree"], field) > 0


def test_cm_agrees_with_depth_eq_dim():
    # against the brute-force oracle, so the scan is not checked by itself;
    # a non-CM witness must replay and carry the maximal j = pd
    for i in SMALL_IDEALS + list(graph_ideals(3)):
        work = polarize(i)
        for f in (QQ, GF2, GF3):
            want = oracle_depth(i, f)
            wit = cohen_macaulay_witness_fields(i, (f,))[f]
            assert (wit is None) == (want == krull_dim(i)), (i, f)
            if wit is not None:
                assert replays(i, wit, f), (i, f, wit)
                j = len(wit["subset"]) - 1 - wit["homology_degree"]
                assert j == work.nvars - want - (work.nvars - i.nvars), (i, f, wit)


# -- spec examples -------------------------------------------------------------


def test_krull_dim_examples():
    assert krull_dim(whiskered_edge_ideal(named_graph("k2"))) == 2
    assert krull_dim(edge_ideal_squares_except(named_graph("p3"), 3)) == 1
    assert krull_dim(MonomialIdeal(["x", "y", "z"], [])) == 3


def test_depth_examples():
    sigma_k2 = whiskered_edge_ideal(named_graph("k2"))
    for f in (QQ, GF2):
        assert depth(sigma_k2, f) == 2
    tilde = whisker_except_edge_ideal(named_graph("k2"), 2)
    for f in (QQ, GF2):
        assert depth(tilde, f) == 1
    kdp = edge_ideal_squares_except(named_graph("p3"), 3)
    for f in (QQ, GF2):
        assert depth(kdp, f) == 0


def test_depth_size_limit():
    big = MonomialIdeal([f"x{i}" for i in range(15)], [])
    with pytest.raises(ValueError):
        depth(big, QQ)
    # eight variables, sixteen after polarization: only the subset scans refuse
    names = [f"x{i}" for i in range(8)]
    squares = ideal(names, *(f"{x}^2" for x in names))
    with pytest.raises(ValueError, match="16 variables after polarization"):
        depth(squares, QQ)
    with pytest.raises(ValueError, match="16 variables after polarization"):
        cohen_macaulay_witness_fields(squares, (QQ, GF2))
    assert krull_dim(squares) == 0


def test_depth_refuses_from_the_exponents_before_polarizing(monkeypatch):
    # x^100000 polarizes to 100000 variables; building them took 12.7 s and
    # 6.1 GB before the refusal.  The count is read off the exponents
    import ringlab.sr_invariants as sr

    def refuse(ideal):
        raise AssertionError("polarized before the size refusal")

    monkeypatch.setattr(sr, "polarize", refuse)
    big = MonomialIdeal(["x"], [(100000,)])
    with pytest.raises(ValueError, match="size limit exceeded: 100000 variables after polarization"):
        depth(big, QQ)
    with pytest.raises(ValueError, match="size limit exceeded: 100000 variables after polarization"):
        cohen_macaulay_witness_fields(big, (GF2,))


def test_dimension_and_hilbert_series_refuse_an_oversized_polarization(monkeypatch):
    # x^k polarizes to k variables: krull_dim of x^2000 raised RecursionError
    # in the max-face search, and hilbert_series of x^k enumerated 2^k - 1
    # faces.  A non-squarefree ring is refused from its exponents, before the
    # polarization is built
    import ringlab.sr_invariants as sr

    def refuse(ideal):
        raise AssertionError("polarized before the size refusal")

    monkeypatch.setattr(sr, "polarize", refuse)
    for k in (18, 2000, 3000000):
        power = MonomialIdeal(["x"], [(k,)])
        for call in (krull_dim, hilbert_series, multiplicity):
            with pytest.raises(ValueError, match=f"size limit exceeded: {k} variables after polarization"):
                call(power)


def test_max_face_search_takes_a_thousand_vertices(monkeypatch):
    # one cubic generator: no flag complex, so no shedding certificate, and
    # the max-face search walks 1,100 vertices deep.  It recursed once per
    # vertex and raised RecursionError; its branches now wait on a stack.
    # The first greedy face is optimal, so once it is found every resumed
    # branch is cut by the bound: about one extension test per vertex, not
    # the n^2 / 2 of a resumed branch that scans its candidates unchecked
    calls = 0
    extend_ok = _Scan._extend_ok

    def counted(self, mask, v):
        nonlocal calls
        calls += 1
        return extend_ok(self, mask, v)

    monkeypatch.setattr(_Scan, "_extend_ok", counted)
    n = 1100
    cube = MonomialIdeal([f"x{i}" for i in range(n)], [(1, 1, 1) + (0,) * (n - 3)])
    assert krull_dim(cube) == n - 1
    assert 0 < calls <= 2 * n


def test_face_counts_take_a_squarefree_ring_at_any_size():
    # a squarefree ring is taken as given: the 15-vertex simplex is above
    # the size limit of the subset scan, and its 2^15 faces are counted
    simplex = MonomialIdeal([f"x{i}" for i in range(15)], [])
    assert f_vector(simplex) == tuple(math.comb(15, i) for i in range(16))
    assert multiplicity(simplex) == 1
    assert hilbert_series(simplex) == ((1,), 15)
    assert krull_dim(simplex) == 15


def test_cm_examples():
    for n in (1, 2, 3, 4):
        for g in enumerate_graphs(n):
            sigma = whiskered_edge_ideal(g)
            assert cohen_macaulay_witness_fields(sigma, (QQ,))[QQ] is None
            assert cohen_macaulay_witness_fields(sigma, (GF2,))[GF2] is None
    assert cohen_macaulay_witness_fields(edge_ideal_squares_except(named_graph("p3"), 2), (QQ,))[QQ] is not None
    assert cohen_macaulay_witness_fields(MonomialIdeal(["x", "y"], []), (QQ,))[QQ] is None


def test_cm_witness_is_replayable():
    kdp = edge_ideal_squares_except(named_graph("p3"), 2)
    wit = cohen_macaulay_witness_fields(kdp, (QQ,))[QQ]
    assert wit is not None
    assert replays(kdp, wit, QQ)


def oracle_f_vector(i: MonomialIdeal):
    sizes = [len(fc) for fc in oracle_faces(i, range(i.nvars))]
    return tuple(sizes.count(k) for k in range(max(sizes) + 1))


def test_f_vector_examples():
    assert f_vector(ideal(["v1", "v2"], "v1*v2")) == (1, 2)
    assert f_vector(whiskered_edge_ideal(named_graph("k2"))) == (1, 4, 3)
    assert f_vector(MonomialIdeal(["v1", "v2"], [])) == (1, 2, 1)
    # both vertices are non-faces: the complex {empty face}
    assert f_vector(ideal(["v1", "v2"], "v1", "v2")) == (1,)


def test_f_vector_matches_bruteforce_oracle():
    ideals = [i for i in SMALL_IDEALS if i.is_squarefree()]
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            ideals += [edge_ideal(g), whiskered_edge_ideal(g)]
            ideals += [whisker_except_edge_ideal(g, v) for v in range(1, n + 1)]
    for i in ideals:
        assert f_vector(i) == oracle_f_vector(i), i


def test_f_vector_rejects_non_squarefree():
    with pytest.raises(ValueError, match="not squarefree"):
        f_vector(ideal(["x"], "x^2"))


def test_hilbert_series_examples():
    assert hilbert_series(MonomialIdeal(["x"], [])) == ((1,), 1)
    assert hilbert_series(ideal(["v1", "v2"], "v1*v2")) == ((1, 1), 1)
    assert hilbert_series(whiskered_edge_ideal(named_graph("k2"))) == ((1, 2), 2)


def test_hilbert_numerator_at_one_is_multiplicity():
    # squarefree or not: both are read off the polarization, and the
    # multiplicity is its complex's count of top faces (the oracle's).
    # graph_ideals covers the kprime and kdprime rings of ``ringlab ring``
    named = [edge_ideal_all_squares(named_graph("c4")), whiskered_edge_ideal(named_graph("c5"))]
    for i in SMALL_IDEALS + list(graph_ideals(3)) + named:
        num, _ = hilbert_series(i)
        assert sum(num) == multiplicity(i) == oracle_f_vector(polarize(i))[-1], i


def test_hilbert_matches_truncation_dimensions():
    # the graded dimensions of the quotient match the series coefficients
    from ringlab.artin import hilbert_function, truncate
    from ringlab.monomials import presentation_of

    for i in [
        ideal(["v1", "v2"], "v1*v2"),
        whiskered_edge_ideal(named_graph("k2")),
        ideal(["x", "y", "z"], "x*y", "y*z"),
    ]:
        num, d = hilbert_series(i)
        order = 4
        algebra = truncate(presentation_of(i, GF2), order)
        hf = hilbert_function(algebra)
        hf += [0] * (order - len(hf))
        assert series_coefficients(num, d, order) == hf


def series_coefficients(numerator, d: int, count: int) -> list[int]:
    """The first ``count`` coefficients of numerator / (1-t)^d: d prefix sums."""
    coeffs = (list(numerator) + [0] * count)[:count]
    for _ in range(d):
        coeffs = list(itertools.accumulate(coeffs))
    return coeffs


def test_multiplicity_examples():
    assert multiplicity(MonomialIdeal(["x"], [])) == 1
    assert multiplicity(ideal(["v1", "v2"], "v1*v2")) == 2
    assert multiplicity(whiskered_edge_ideal(named_graph("k2"))) == 3
    # k[x]/(x^2) polarizes to k[x, x']/(x x'): two points, length 2
    assert multiplicity(ideal(["x"], "x^2")) == 2
    assert multiplicity(edge_ideal_all_squares(named_graph("p3"))) == 5


def test_cone_homology_vanishes():
    from ringlab.sr_invariants import _Scan

    # y appears in no generator, so the full complex is a cone with apex y
    i = ideal(["x", "y", "z", "w"], "x*z", "x*w", "z*w")
    scan = _Scan(i)
    full = (1 << 4) - 1
    assert scan.is_cone(full, full & scan.face_verts)
    for deg in range(0, 4):
        assert scan.reduced_betti(full, deg, QQ) == 0
        assert scan.reduced_betti(full, deg, GF2) == 0


def test_reduced_betti_circle():
    # the hollow triangle is a circle: one loop in degree 1 over any field
    i = ideal(["x", "y", "z"], "x*y*z")
    from ringlab.sr_invariants import _Scan

    scan = _Scan(i)
    full = 0b111
    for f in (QQ, GF2, GF3):
        assert scan.reduced_betti(full, 1, f) == 1
        assert scan.reduced_betti(full, 0, f) == 0


def projective_plane_ideal() -> MonomialIdeal:
    """The Stanley-Reisner ideal of the 6-vertex triangulation of the real
    projective plane."""
    triangles = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    names = [f"x{i}" for i in range(1, 7)]
    faces = set()
    for t in triangles:
        for r in range(1, 4):
            faces.update(itertools.combinations(t, r))
    nonfaces = []
    for r in (2, 3):
        for combo in itertools.combinations(range(1, 7), r):
            if combo not in faces and not any(set(nf) <= set(combo) for nf in nonfaces):
                nonfaces.append(combo)
    gens = []
    for nf in nonfaces:
        e = [0] * 6
        for v in nf:
            e[v - 1] = 1
        gens.append(tuple(e))
    return MonomialIdeal(names, gens)


def test_projective_plane_distinguishes_fields():
    # H_1 of the projective plane vanishes over q but not over GF(2), so
    # depth genuinely depends on the field
    i = projective_plane_ideal()
    assert depth(i, QQ) == 3  # Cohen-Macaulay over the rationals
    assert depth(i, GF2) == 2  # but not over GF(2)
    assert cohen_macaulay_witness_fields(i, (QQ,))[QQ] is None
    assert cohen_macaulay_witness_fields(i, (GF2,))[GF2] is not None


def test_multi_field_scan_separates_diverging_verdicts():
    i = projective_plane_ideal()
    fields = (QQ, GF2, GF3)
    wits = cohen_macaulay_witness_fields(i, fields)
    assert wits[QQ] is None and wits[GF3] is None
    assert wits[GF2] is not None and replays(i, wits[GF2], GF2)
    for f in fields:
        assert wits[f] == cohen_macaulay_witness_fields(i, (f,))[f]
