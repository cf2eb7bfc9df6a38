import os

import pytest

import ringlab.fields
import ringlab.monomials
from ringlab.constructions import (
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    named_graph,
    star_of_paths,
    whisker_except_edge_ideal,
    whiskered_edge_ideal,
)
from ringlab.fields import GF2, QQ
from ringlab.graphs import Graph, enumerate_graphs, star_vertices
from ringlab.verify import (
    _socle_clique_mismatch,
    check_example_3_11,
    check_example_4x,
    check_example_5_4,
    check_gorenstein_exclusion,
    check_theorem_A_fields,
    check_theorem_B,
    run_gorenstein_corpus,
    run_socle_clique_corpus,
    run_star_split_corpus,
    run_theorem_A_corpus,
    run_theorem_B_corpus,
    starred_graphs,
)


def test_thmA_p3():
    r = check_theorem_A_fields(named_graph("p3"), (QQ,))[QQ]
    assert r.passed and r.witness == {}


def test_thmA_k2_dimension_two():
    r = check_theorem_A_fields(named_graph("k2"), (GF2,))[GF2]
    assert r.passed


def test_thmA_c4_precondition():
    with pytest.raises(ValueError):
        check_theorem_A_fields(named_graph("c4"), (QQ,))


def test_thmA_fused_fields_match_single():
    g = named_graph("p3")
    both = check_theorem_A_fields(g, (QQ, GF2))
    assert both[QQ].passed == check_theorem_A_fields(g, (QQ,))[QQ].passed
    assert both[GF2].passed == check_theorem_A_fields(g, (GF2,))[GF2].passed


def test_thmB_k2():
    r = check_theorem_B(named_graph("k2"), 2, QQ)
    assert r.passed, r.witness


def test_thmB_p3():
    r = check_theorem_B(named_graph("p3"), 2, GF2)
    assert r.passed, r.witness


def test_thmB_k3_multiplication_facts():
    r = check_theorem_B(named_graph("k3"), 3, QQ)
    assert r.passed, r.witness


def test_thmB_rejects_non_star():
    with pytest.raises(ValueError):
        check_theorem_B(named_graph("p3"), 1, QQ)


def test_thmB_rejects_one_vertex():
    with pytest.raises(ValueError):
        check_theorem_B(Graph(1), 1, QQ)


def test_gorenstein_exclusion_small():
    from ringlab.graphs import enumerate_graphs

    r = check_gorenstein_exclusion(enumerate_graphs(3))
    assert r.passed
    assert r.witness["decomposable"] > 0


def test_gorenstein_exclusion_rings_are_full():
    # check_gorenstein_exclusion reads the socle of kprime(G) truncated at
    # n + 1 without the cut-ring check: every degree-(n + 1) monomial in n
    # variables has an exponent of at least 2, and each v_i^2 is a generator
    from ringlab.artin import _check_full_ring, truncate
    from ringlab.monomials import presentation_of

    for n in range(1, 6):
        for g in enumerate_graphs(n):
            _check_full_ring(truncate(presentation_of(edge_ideal_all_squares(g), GF2), n + 1))


def test_ex311_instances():
    for n in (1, 2, 3):
        r = check_example_3_11(n)
        assert r.passed, (n, r.witness)
    with pytest.raises(ValueError):
        check_example_3_11(4)


def test_ex311_graph_shape():
    g = star_of_paths(2)
    assert g.n == 5
    assert max(star_vertices(g)) == 5


def test_ex4x_cases():
    assert check_example_4x(5).passed
    assert check_example_4x(2).passed
    assert check_example_4x(3).passed
    with pytest.raises(ValueError):
        check_example_4x(11)


def test_ex54_degenerate_bound_zero():
    r = check_example_5_4(0)
    assert r.passed, r.witness


def test_ex54_small_bound():
    r = check_example_5_4(2)
    assert r.passed, r.witness


def test_reports_deterministic():
    g = named_graph("p3")
    r1 = check_theorem_A_fields(g, (GF2,))[GF2]
    r2 = check_theorem_A_fields(g, (GF2,))[GF2]
    assert (r1.check, r1.instance, r1.passed, r1.witness) == (
        r2.check,
        r2.instance,
        r2.passed,
        r2.witness,
    )


def test_small_corpora_pass():
    assert all(r.passed for r in run_theorem_A_corpus(3))
    assert all(r.passed for r in run_theorem_B_corpus(3))
    assert run_gorenstein_corpus(3).passed
    assert run_socle_clique_corpus(3).passed
    assert run_star_split_corpus(3).passed


def test_corpus_parallel_matches_serial():
    for runner in (run_theorem_A_corpus, run_theorem_B_corpus):
        serial = runner(3, threads=1)
        parallel = runner(3, threads=min(2, os.cpu_count() or 1))
        assert [(r.instance, r.passed) for r in serial] == [(r.instance, r.passed) for r in parallel], runner


@pytest.mark.parametrize("runner", [run_theorem_A_corpus, run_theorem_B_corpus])
def test_corpus_with_no_fields_is_empty(runner):
    assert runner(3, fields=()) == []


@pytest.mark.parametrize(
    "runner",
    [
        run_theorem_A_corpus,
        run_theorem_B_corpus,
        run_gorenstein_corpus,
        run_socle_clique_corpus,
        run_star_split_corpus,
    ],
)
def test_corpus_size_refused_before_enumeration(runner, monkeypatch):
    import ringlab.verify

    def refuse(n):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    for n in (8, 9):
        with pytest.raises(ValueError, match="n <= 7"):
            runner(n)


@pytest.mark.parametrize("runner", [run_theorem_A_corpus, run_theorem_B_corpus])
@pytest.mark.parametrize("threads", [0, -4, 5])
def test_corpus_thread_count_refused_before_enumeration(runner, threads, monkeypatch):
    # 0 and -4 used to run serially without a word, and 5 went straight to
    # the pool on a 4-cpu host
    import ringlab.verify

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration or a worker pool started")

    monkeypatch.setattr(ringlab.verify.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    monkeypatch.setattr(ringlab.verify, "ProcessPoolExecutor", refuse)
    with pytest.raises(ValueError, match=f"threads must lie in 1..4, got {threads}"):
        runner(3, threads=threads)


def _counting(counts, key, real):
    def wrapper(*args):
        counts[key] += 1
        return real(*args)

    return wrapper


def test_rank_counts_fix_the_scan_order(monkeypatch):
    # the Hochster scan's order decides which subsets reach elimination; these
    # counts guard it, so the scan is called directly with the arguments the
    # thmA and thmB runners would give it (thmA is settled by the GF(2) screen
    # alone)
    import ringlab.sr_invariants as sr

    counts = {"gf2": 0, "q": 0}
    monkeypatch.setattr(sr, "gf2_rank", _counting(counts, "gf2", sr.gf2_rank))
    monkeypatch.setattr(sr, "rational_rank", _counting(counts, "q", sr.rational_rank))
    for g in starred_graphs(4):
        scan = sr._Scan(whiskered_edge_ideal(g))
        scan.top_hochster((QQ, GF2), scan.n - scan.max_face_size())
    assert counts == {"gf2": 261, "q": 0}
    counts.update(gf2=0, q=0)
    for n in range(2, 5):
        for g in enumerate_graphs(n):
            for star in star_vertices(g):
                for f in (QQ, GF2):
                    for ideal in (whisker_except_edge_ideal(g, star), edge_ideal_squares_except(g, star)):
                        scan = sr._Scan(ideal)
                        scan.top_hochster((f,), 0)
    assert counts == {"gf2": 568, "q": 76}


def test_certificates_settle_the_small_corpora(monkeypatch):
    # every whiskered and partly whiskered ideal of the n <= 4 corpora is
    # certified vertex-decomposable, so no Hochster scan runs; each pure
    # certificate of a CM check pays one GF(2) rank for its audit.  The
    # dimension and the depth of a ring share its one shedding search, so
    # runs of the cached search are counted, not calls of its accessor
    from functools import cached_property

    import ringlab.sr_invariants as sr

    counts = {"scan": 0, "gf2": 0, "q": 0, "certified": 0}
    real_search = sr._Scan._vd_facet_sizes.func

    def certifying(scan):
        sizes = real_search(scan)
        counts["certified"] += sizes is not None
        return sizes

    probe = cached_property(certifying)
    probe.__set_name__(sr._Scan, "_vd_facet_sizes")
    monkeypatch.setattr(sr._Scan, "_vd_facet_sizes", probe)
    monkeypatch.setattr(sr._Scan, "top_hochster", _counting(counts, "scan", sr._Scan.top_hochster))
    monkeypatch.setattr(sr, "gf2_rank", _counting(counts, "gf2", sr.gf2_rank))
    monkeypatch.setattr(sr, "rational_rank", _counting(counts, "q", sr.rational_rank))
    # one fused (q, GF(2)) CM check per starred graph
    assert all(r.passed for r in run_theorem_A_corpus(4))
    assert counts == {"scan": 0, "gf2": 29, "q": 0, "certified": 29}
    counts.update(gf2=0, certified=0)
    # two depths per (graph, star, field), 80 reports, on one search each:
    # the square quotient reads the partly whiskered ring's scan
    assert all(r.passed for r in run_theorem_B_corpus(4))
    assert counts == {"scan": 0, "gf2": 0, "q": 0, "certified": 80}


def test_thmB_polarizes_each_square_quotient_once(monkeypatch):
    # the star's products are settled by ideal membership, so no truncation
    # runs; the dimension, the depth and the polarization check of a report
    # share one polarization of its square quotient
    from functools import cached_property

    import ringlab.verify
    from ringlab.monomials import MonomialIdeal

    kdps, polarized = [], []
    real_kdp = ringlab.verify.edge_ideal_squares_except
    real_body = MonomialIdeal._polarization.func

    def recording(g, star):
        kdps.append(real_kdp(g, star))
        return kdps[-1]

    def counting(ideal):
        polarized.append(ideal)
        return real_body(ideal)

    probe = cached_property(counting)
    probe.__set_name__(MonomialIdeal, "_polarization")
    monkeypatch.setattr(MonomialIdeal, "_polarization", probe)
    monkeypatch.setattr(ringlab.verify, "edge_ideal_squares_except", recording)
    counts = {"truncate": 0}
    monkeypatch.setattr(ringlab.verify, "truncate", _counting(counts, "truncate", ringlab.verify.truncate))
    reports = run_theorem_B_corpus(4)
    assert len(reports) == len(kdps) == 80 and all(r.passed for r in reports)
    assert counts == {"truncate": 0}
    assert [sum(p is k for p in polarized) for k in kdps] == [1] * 80


def test_theorem_runners_scan_each_ideal_once(monkeypatch):
    # dimension, depth and the CM check of one ideal share its scan, thmB's
    # square quotient holds a copy of the partly whiskered ring's scan, and
    # thmB's substitution w_u -> v_u builds no polynomial presentation
    import ringlab.monomials
    import ringlab.sr_invariants as sr
    import ringlab.verify

    scanned, built = [], []
    real_init = sr._Scan.__init__

    def scanning(scan, ideal):
        scanned.append(ideal)
        real_init(scan, ideal)

    def recording(real):
        def build(*args):
            built.append(real(*args))
            return built[-1]

        return build

    monkeypatch.setattr(sr._Scan, "__init__", scanning)
    for name in ("whisker_except_edge_ideal", "edge_ideal_squares_except", "whiskered_edge_ideal"):
        monkeypatch.setattr(ringlab.verify, name, recording(getattr(ringlab.verify, name)))
    counts = {"presentation_of": 0, "substitute": 0}
    for module in (ringlab.monomials, ringlab.verify):
        for name in counts:
            real = getattr(ringlab.monomials, name)
            monkeypatch.setattr(module, name, _counting(counts, name, real), raising=False)
    reports = run_theorem_B_corpus(4)
    assert len(reports) == 80 and all(r.passed for r in reports)
    assert len(built) == 160 and counts == {"presentation_of": 0, "substitute": 0}
    assert [sum(s is b for s in scanned) for b in built] == [1, 0] * 80
    assert all("_scan" in kdp.__dict__ for kdp in built[1::2])
    scanned.clear()
    built.clear()
    reports = run_theorem_A_corpus(4)
    assert len(reports) == 58 and all(r.passed for r in reports)
    assert len(built) == 29 and [sum(s is b for s in scanned) for b in built] == [1] * 29


THMB_COLLAPSED = ["v1^2", "v1*v2", "v1*v3", "v2^2", "v2*v3"]


@pytest.mark.parametrize("f", [QQ, GF2], ids=str)
def test_thmB_witnesses_on_broken_square_quotients(f, monkeypatch):
    # the star's product facts come from ideal membership; on a wrong square
    # quotient they must name what the truncated algebra's products named
    import ringlab.verify
    from ringlab.constructions import edge_ideal_all_squares

    g = named_graph("k3")
    monkeypatch.setattr(ringlab.verify, "edge_ideal_squares_except", lambda g, star: edge_ideal_all_squares(g))
    r = check_theorem_B(g, 3, f)
    assert not r.passed
    assert r.witness == {
        "square_quotient_dim": {"expected": 1, "got": 0},
        "substitution_mismatch": {"collapsed": THMB_COLLAPSED, "target": THMB_COLLAPSED + ["v3^2"]},
        "polarization_mismatch": {"pol_vars": ["v1", "v2", "v3", "v1'", "v2'", "v3'"]},
        "star_square_zero": {},
    }

    edgeless = edge_ideal_squares_except(Graph.from_edges(3, []), 3)
    monkeypatch.setattr(ringlab.verify, "edge_ideal_squares_except", lambda g, star: edgeless)
    r = check_theorem_B(g, 3, f)
    assert not r.passed
    assert r.witness == {
        "square_quotient_depth": {"expected": 0, "got": 1},
        "substitution_mismatch": {"collapsed": THMB_COLLAPSED, "target": ["v1^2", "v2^2"]},
        "polarization_mismatch": {
            "polarized": ["v1*v1'", "v2*v2'"],
            "whiskered": ["v1*v2", "v1*v3", "v1*v1'", "v2*v3", "v2*v2'"],
        },
        "star_product_nonzero": {"u": 2},
    }


def test_vertex_square_runners_make_no_divisibility_scans(monkeypatch):
    # socle, split and the cut-ring check of these rings are answered by
    # lookups; a monomial_divides call here means a generator scan came back
    import ringlab.artin
    import ringlab.monomials

    calls = []
    for module in (ringlab.monomials, ringlab.artin):
        if hasattr(module, "monomial_divides"):
            real = module.monomial_divides

            def counting(a, b, real=real):
                calls.append((a, b))
                return real(a, b)

            monkeypatch.setattr(module, "monomial_divides", counting)
    assert run_socle_clique_corpus(4).passed
    assert run_star_split_corpus(4).passed
    assert run_gorenstein_corpus(4).passed
    assert calls == []


@pytest.mark.parametrize(
    "runner",
    [
        run_theorem_A_corpus,
        run_theorem_B_corpus,
        run_gorenstein_corpus,
        run_socle_clique_corpus,
        run_star_split_corpus,
    ],
)
def test_empty_corpus_refused_before_enumeration(runner, monkeypatch):
    import ringlab.verify

    def refuse(n):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ringlab.verify, "enumerate_graphs", refuse)
    with pytest.raises(ValueError, match="empty corpus"):
        runner(0)


def test_square_items_make_no_coerce_and_no_poly_calls(monkeypatch):
    # presentation_of builds the one-term generators of a MonomialIdeal it
    # trusts, so the socle and Gorenstein items never validate a coefficient
    calls = {"coerce": 0, "Poly": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ringlab.fields.FieldSpec, "coerce", counted("coerce", ringlab.fields.FieldSpec.coerce))
    monkeypatch.setattr(ringlab.monomials.Poly, "__init__", counted("Poly", ringlab.monomials.Poly.__init__))
    ringlab.monomials.Poly(GF2, 1, {(1,): 1})
    assert calls == {"coerce": 1, "Poly": 1}  # the counters count
    calls.update(coerce=0, Poly=0)
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert _socle_clique_mismatch(g, edge_ideal_all_squares(g)) is None
            assert check_gorenstein_exclusion([g]).passed
    assert calls == {"coerce": 0, "Poly": 0}
