import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.constructions import named_graph
from ringlab.graphs import (
    Graph,
    complement,
    enumerate_graphs,
    from_edge_list,
    from_json,
    is_star_vertex,
    maximal_cliques,
    star_vertices,
    to_edge_list,
    to_json,
    whisker_all,
    whisker_except,
)


def test_complement_k3():
    g = named_graph("k3")
    assert complement(g).edges == frozenset()


def test_complement_p3():
    # the complement of the path is the edge v1-v3 plus the isolated v2
    assert sorted(complement(named_graph("p3")).edges) == [(1, 3)]


def test_complement_edgeless_is_complete():
    g = Graph(4)
    assert len(complement(g).edges) == 6


def test_star_vertex_p3():
    p3 = named_graph("p3")
    assert is_star_vertex(p3, 2)
    assert not is_star_vertex(p3, 1)
    assert star_vertices(p3) == [2]


def test_star_vertex_k1_vacuous():
    assert is_star_vertex(Graph(1), 1)


def test_star_vertex_out_of_range():
    with pytest.raises(ValueError):
        is_star_vertex(Graph(2), 3)


def test_whisker_k2_is_path():
    g = whisker_all(named_graph("k2"))
    assert g.n == 4
    assert sorted(g.edges) == [(1, 2), (1, 3), (2, 4)]  # w1-v1-v2-w2


def test_whisker_k3_six_edges():
    g = whisker_all(named_graph("k3"))
    assert g.n == 6
    assert len(g.edges) == 6


def test_whisker_k1():
    g = whisker_all(Graph(1))
    assert g.n == 2 and sorted(g.edges) == [(1, 2)]


def test_whisker_except_k2():
    g = whisker_except(named_graph("k2"), 2)
    assert g.n == 3
    assert sorted(g.edges) == [(1, 2), (1, 3)]  # w1-v1-v2


def test_whisker_except_k1_unchanged():
    g = whisker_except(Graph(1), 1)
    assert g.n == 1 and not g.edges


def test_whisker_except_p3():
    g = whisker_except(named_graph("p3"), 2)
    assert g.n == 5
    assert sorted(g.edges) == [(1, 2), (1, 4), (2, 3), (3, 5)]


def test_cliques_of_p3_complement():
    cliques = maximal_cliques(complement(named_graph("p3")))
    assert [sorted(c) for c in cliques] == [[1, 3], [2]]


def test_cliques_k3():
    assert [sorted(c) for c in maximal_cliques(named_graph("k3"))] == [[1, 2, 3]]


def test_cliques_edgeless():
    assert [sorted(c) for c in maximal_cliques(Graph(3))] == [[1], [2], [3]]


def test_cliques_cover_all_vertices():
    for g in enumerate_graphs(4):
        covered = set()
        for c in maximal_cliques(g):
            covered |= c
        assert covered == set(range(1, 5))


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumerate_distinct_and_capped():
    seen = {g.edges for g in enumerate_graphs(4)}
    assert len(seen) == 64
    with pytest.raises(ValueError):
        next(enumerate_graphs(9))


def test_no_loops():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(2, frozenset({(1, 1)})), "loop at vertex 1"),
        (lambda: Graph(3, frozenset({(1, 4)})), "out of range"),
        (lambda: Graph.from_edges(3, [(0, 1)]), "out of range"),
        (lambda: Graph.from_edges(2, [(3, 1)]), "out of range"),
        (lambda: Graph(-1), "negative vertex count"),
    ],
)
def test_public_constructors_refuse_bad_edges(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("n", range(7))
def test_enumerate_graphs_matches_the_validating_route(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    got = list(enumerate_graphs(n))
    assert len(got) == 1 << len(pairs)
    for mask, g in enumerate(got):
        assert g == Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
        assert type(g.edges) is frozenset
        assert all(1 <= i < j <= n for i, j in g.edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_star_vertices_match_the_definition(n):
    for g in enumerate_graphs(n):
        expected = [v for v in range(1, n + 1) if all((min(u, v), max(u, v)) in g.edges for u in range(1, n + 1) if u != v)]
        assert star_vertices(g) == expected
        assert [v for v in range(1, n + 1) if is_star_vertex(g, v)] == expected


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_library_built_graphs_match_the_validating_constructor(g):
    for h in [complement(g), whisker_all(g)] + [whisker_except(g, v) for v in range(1, g.n + 1)]:
        rebuilt = Graph(h.n, h.edges)
        assert h == rebuilt and hash(h) == hash(rebuilt)
        assert type(h.edges) is frozenset


@given(graphs())
@settings(max_examples=50, deadline=None)
def test_whisker_restriction_and_degrees(g):
    w = whisker_all(g)
    # restriction to the original vertices is g
    original = frozenset(e for e in w.edges if max(e) <= g.n)
    assert original == g.edges
    adj = w.adjacency_masks()
    for i in range(1, g.n + 1):
        assert adj[g.n + i - 1].bit_count() == 1
        assert adj[i - 1].bit_count() >= 1


@given(graphs(max_n=5))
@settings(max_examples=50, deadline=None)
def test_star_vertex_isolated_in_complement(g):
    comp = complement(g)
    for v in star_vertices(g):
        assert not any((min(u, v), max(u, v)) in comp.edges for u in range(1, g.n + 1) if u != v)
        assert frozenset({v}) in maximal_cliques(comp)


def test_edge_list_round_trip():
    g = named_graph("c4")
    assert from_edge_list(to_edge_list(g)) == g


def test_json_round_trip():
    g = whisker_all(named_graph("p3"))
    assert from_json(to_json(g)) == g
