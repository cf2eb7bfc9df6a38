import pytest

from ringlab.constructions import named_graph, star_of_paths
from ringlab.fields import GF2, QQ
from ringlab.graphs import Graph, star_vertices
from ringlab.verify import (
    check_example_3_11,
    check_example_4x,
    check_example_5_4,
    check_gorenstein_exclusion,
    check_theorem_A,
    check_theorem_A_fields,
    check_theorem_B,
    run_gorenstein_corpus,
    run_socle_clique_corpus,
    run_star_split_corpus,
    run_theorem_A_corpus,
    run_theorem_B_corpus,
)


def test_thmA_p3():
    r = check_theorem_A(named_graph("p3"), QQ)
    assert r.passed and r.witness == {}


def test_thmA_k2_dimension_two():
    r = check_theorem_A(named_graph("k2"), GF2)
    assert r.passed


def test_thmA_c4_precondition():
    with pytest.raises(ValueError):
        check_theorem_A(named_graph("c4"), QQ)


def test_thmA_fused_fields_match_single():
    g = named_graph("p3")
    both = check_theorem_A_fields(g, (QQ, GF2))
    assert both[QQ].passed == check_theorem_A(g, QQ).passed
    assert both[GF2].passed == check_theorem_A(g, GF2).passed


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
        check_example_4x(3, parts=("i",))
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
    r1 = check_theorem_A(g, GF2)
    r2 = check_theorem_A(g, GF2)
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
    serial = run_theorem_A_corpus(3, threads=1)
    parallel = run_theorem_A_corpus(3, threads=2)
    assert [(r.instance, r.passed) for r in serial] == [(r.instance, r.passed) for r in parallel]


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
    with pytest.raises(ValueError, match="n <= 8"):
        runner(9)
