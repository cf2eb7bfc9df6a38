"""The three users of the bitmask component routine, against a plain BFS.

``variable_partition_decomposable``, ``verify._is_disconnected`` and
``_Scan.n_components`` share one component routine, so comparing them with
each other proves nothing about it.  Here each is checked, over every labeled
graph on at most five vertices, against a set-based breadth-first search that
shares no code with ringlab.
"""

from ringlab.constructions import edge_ideal_all_squares
from ringlab.graphs import enumerate_graphs
from ringlab.monomials import edge_ideal, variable_partition_decomposable
from ringlab.sr_invariants import _Scan
from ringlab.verify import _is_disconnected


def edge(g, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in g.edges


def bfs_components(vertices, adjacent) -> list[frozenset]:
    """Connected components of the graph on ``vertices`` with edge test ``adjacent``."""
    left = set(vertices)
    out = []
    while left:
        start = min(left)
        seen = {start}
        todo = [start]
        while todo:
            u = todo.pop()
            for v in left - seen:
                if adjacent(u, v):
                    seen.add(v)
                    todo.append(v)
        out.append(frozenset(seen))
        left -= seen
    return out


def all_graphs(max_n: int = 5):
    for n in range(1, max_n + 1):
        yield from enumerate_graphs(n)


def test_star_split_matches_bfs_of_complement():
    checked = 0
    for g in all_graphs():
        # x_u x_v survives in the vertex-square quotient iff uv is not an edge
        comps = bfs_components(range(1, g.n + 1), lambda u, v: not edge(g, u, v))
        split = variable_partition_decomposable(edge_ideal_all_squares(g))
        if g.n <= 1 or len(comps) == 1:
            assert split is None, g
            continue
        last = next(c for c in comps if g.n in c)
        rest = frozenset(range(1, g.n + 1)) - last
        assert split == (frozenset(f"v{v}" for v in last), frozenset(f"v{v}" for v in rest)), g
        checked += 1
    assert checked > 0


def test_is_disconnected_matches_bfs():
    for g in all_graphs():
        comps = bfs_components(range(1, g.n + 1), lambda u, v: edge(g, u, v))
        assert _is_disconnected(g) == (len(comps) > 1), g


def test_n_components_matches_bfs_on_induced_one_skeleton():
    for g in all_graphs():
        # faces of the edge ideal's complex are independent sets: its
        # 1-skeleton is the complement of g
        scan = _Scan(edge_ideal(g))
        for w in range(1, 1 << g.n):
            verts = [v + 1 for v in range(g.n) if w >> v & 1]
            comps = bfs_components(verts, lambda u, v: not edge(g, u, v))
            assert scan.n_components(w) == len(comps), (g, verts)
