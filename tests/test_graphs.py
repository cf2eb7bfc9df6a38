import ast
import pickle
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab
from ringlab.constructions import edge_ideal_all_squares, edge_ideal_squares_except, named_graph
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
from ringlab.monomials import edge_ideal


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
    # 2.5 passed the range test, and whisker_except(p3, 2.5) built a graph on
    # 5 vertices with the edge (3, 6)
    p3 = named_graph("p3")
    for v in (2.5, 2.0, True):
        for op in (is_star_vertex, whisker_except):
            with pytest.raises(ValueError, match="not an integer"):
                op(p3, v)


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


def brute_force_cliques(g: Graph) -> list[list[int]]:
    """The maximal cliques of g from a scan of every vertex subset, as
    ascending vertex lists, sorted."""
    edges = g.edges
    subsets = [[v for v in range(1, g.n + 1) if mask >> (v - 1) & 1] for mask in range(1, 1 << g.n)]
    cliques = [c for c in subsets if all((u, v) in edges for i, u in enumerate(c) for v in c[i + 1 :])]
    sets = [set(c) for c in cliques]
    return sorted(c for c in cliques if not any(s > set(c) for s in sets))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_clique_order_against_a_subset_scan(n):
    for g in enumerate_graphs(n):
        assert [sorted(c) for c in maximal_cliques(g)] == brute_force_cliques(g)


def test_clique_order_of_a_matching_complement():
    # one vertex from each of the six matched pairs: 64 maximal cliques
    g = complement(Graph.from_edges(12, [(i, i + 1) for i in range(1, 12, 2)]))
    expected = brute_force_cliques(g)
    assert len(expected) == 64
    assert [sorted(c) for c in maximal_cliques(g)] == expected


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
    for n in (8, 9):
        with pytest.raises(ValueError, match="n <= 7"):
            next(enumerate_graphs(n))


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
        (lambda: Graph(2.5), "not an integer"),
        (lambda: Graph(True), "not an integer"),
        (lambda: Graph("3"), "not an integer"),
        (lambda: Graph(3, [(1.0, 2)]), "not an integer"),
        (lambda: Graph(3, [(1, True)]), "not an integer"),
        (lambda: Graph.from_edges(3, [(1, 2), (2, "3")]), "not an integer"),
        (lambda: Graph(3, [1]), r"edge 1 is not a pair"),
        (lambda: Graph(3, 5), "edges 5 is not an iterable of pairs"),
        (lambda: Graph(3, [(1, 2, 3)]), r"edge \(1, 2, 3\) is not a pair"),
        (lambda: Graph(3, [(1, 2), (2,)]), r"edge \(2,\) is not a pair"),
        (lambda: Graph.from_edges(3, 5), "edges 5 is not an iterable of pairs"),
        (lambda: Graph.from_edges(3, [(1, 2), None]), "edge None is not a pair"),
    ],
)
def test_public_constructors_refuse_bad_edges(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_graph_is_slotted_and_frozen():
    g = Graph.from_edges(3, [(1, 2)])
    assert not hasattr(g, "__dict__")
    for name, value in (("n", 4), ("edges", frozenset())):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, value)
    assert g == Graph(3, frozenset({(1, 2)})) and Graph(2) == Graph(2, frozenset())
    assert repr(g) == "Graph(n=3, edges=frozenset({(1, 2)}))"


def test_graph_is_one_tuple_that_equals_only_graphs():
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    masks = tuple(g)
    assert type(masks) is tuple and masks == (2, 5, 2, 0)
    # no second object holds the masks
    assert sys.getsizeof(g) == sys.getsizeof(masks)
    # tuple's own == would match the plain tuple from either side
    assert g != masks and masks != g and not g == masks and not masks == g
    assert Graph(2) != (0, 0) and (0, 0) != Graph(2) and not (0, 0) == Graph(2)
    assert len({g: "graph", masks: "masks"}) == 2
    assert Graph(0) and Graph(0) == Graph(0) and Graph(0) != ()
    for left, right in ((g, g), (g, masks), (masks, g)):
        with pytest.raises(TypeError):
            left < right
        with pytest.raises(TypeError):
            left >= right
    with pytest.raises(FrozenInstanceError):
        g.n = 5
    with pytest.raises(FrozenInstanceError):
        del g.n


def test_library_built_graphs_pickle_round_trip():
    # verify --threads sends graphs to its worker processes by pickle
    built = list(enumerate_graphs(4))
    built += [whisker_all(g) for g in built[::7]] + [complement(g) for g in built[::5]]
    built += [whisker_except(g, v) for g in built[::9] for v in range(1, g.n + 1)]
    for g in built:
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and hash(back) == hash(g)
        assert type(back.edges) is frozenset


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
    for i in range(1, g.n + 1):
        assert w[g.n + i - 1].bit_count() == 1
        assert w[i - 1].bit_count() >= 1


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 3\n1 2\n1 2 3\n", r"line 3 \('1 2 3'\) is not an edge 'i j' of two integers"),
        ("n 3\n\n2 x\n", r"line 3 \('2 x'\) is not an edge 'i j' of two integers"),
        ("n 2.5\n1 2\n", r"line 1 \('n 2.5'\) is not 'n <count>' with an integer count"),
        ("\nn 3 4\n", r"line 2 \('n 3 4'\) is not 'n <count>'"),
    ],
    ids=["three-numbers", "non-integer-vertex", "fractional-count", "two-counts"],
)
def test_edge_list_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        from_edge_list(text)


def test_maximal_cliques_of_a_large_clique_need_no_recursion():
    # one stack frame per clique vertex used to exceed the recursion limit
    assert maximal_cliques(named_graph("k1100")) == [frozenset(range(1, 1101))]


# the frozenset definitions the neighbour masks must agree with


def _pair(u, v):
    return (min(u, v), max(u, v))


def _quadric(n, i, j):
    e = [0] * n
    e[i - 1] += 1
    e[j - 1] += 1
    return tuple(e)


@pytest.mark.parametrize("n", range(6))
def test_mask_operations_match_the_pair_sets(n):
    vertices = range(1, n + 1)
    for g in enumerate_graphs(n):
        edges = g.edges
        assert g.sorted_edges() == sorted(edges)
        for i in vertices:
            for j in vertices:
                assert g[i - 1] >> (j - 1) & 1 == g[j - 1] >> (i - 1) & 1 == (_pair(i, j) in edges)
        assert complement(g) == Graph(n, {(i, j) for i in vertices for j in vertices if i < j} - edges)
        assert whisker_all(g) == Graph(2 * n, edges | {(v, n + v) for v in vertices})
        for v in vertices:
            others = [u for u in vertices if u != v]
            assert whisker_except(g, v) == Graph(2 * n - 1, edges | {(u, n + k) for k, u in enumerate(others, 1)})
        squares = {_quadric(n, v, v) for v in vertices}
        quadrics = {_quadric(n, i, j) for i, j in edges}
        assert edge_ideal(g).gens == quadrics
        assert edge_ideal_all_squares(g).gens == quadrics | squares
        for v in vertices:
            assert edge_ideal_squares_except(g, v).gens == quadrics | (squares - {_quadric(n, v, v)})


def test_large_graph_operations_are_linear_in_the_masks():
    g = Graph(1000)
    start = time.perf_counter()
    assert len(complement(g)) == 1000
    assert whisker_all(g).n == 2000
    assert time.perf_counter() - start < 1.0


def test_six_vertex_corpus_footprint():
    # one tuple of neighbour masks per graph, the graph itself: 3.3 MB for
    # the 32,768 graphs, against 4.5 MB when a slotted object held the tuple
    # and 19.7 MB when each graph held a frozenset of pairs
    tracemalloc.start()
    try:
        corpus = list(enumerate_graphs(6))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 1 << 15
    assert held <= 4 * 2**20


def _edges_readers(sources: dict[str, str]) -> list[str]:
    """``file:line`` of each ``.edges`` read in ``sources`` (file name to
    source text) outside ``graphs.py``."""
    return [
        f"{path}:{node.lineno}"
        for path, source in sources.items()
        if path != "graphs.py"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]


def test_only_graphs_reads_the_edge_frozenset():
    # every other module reads the neighbour masks or sorted_edges, so no
    # library path builds the frozenset of pairs
    sources = {p.name: p.read_text() for p in Path(ringlab.__file__).parent.glob("*.py")}
    assert _edges_readers(sources) == []


def test_the_edges_guard_sees_a_read():
    sources = {"graphs.py": "g.edges\n", "m.py": "x = 1\ny = sorted(g.edges)\n"}
    assert _edges_readers(sources) == ["m.py:2"]
