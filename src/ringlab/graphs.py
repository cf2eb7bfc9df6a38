"""Finite simple graphs and the operations the ring constructions consume.

Vertices are labeled 1..n.  Graphs are immutable; every operation returns a
new value.  Whiskering conventions: ``whisker_all`` puts the pendant vertex
for v_i at label n+i, ``whisker_except`` numbers the pendants n+1, n+2, ...
in increasing order of the vertex they hang from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

_MAX_ENUM_N = 8


def _norm_edge(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"loop at vertex {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        norm = frozenset(_norm_edge(i, j) for i, j in self.edges)
        for i, j in norm:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")
        object.__setattr__(self, "edges", norm)

    @classmethod
    def _trusted(cls, n: int, edges: frozenset) -> "Graph":
        """A graph whose edges are normalized (i < j) and within 1..n by
        construction, built without ``__post_init__``."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges)  # past the frozen __setattr__
        return g

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        return Graph(n, frozenset(_norm_edge(i, j) for i, j in pairs))

    def adjacency_masks(self) -> list[int]:
        """Bitmask adjacency, index and bit positions both 0-based."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return adj

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def complement(g: Graph) -> Graph:
    edges = {
        (i, j)
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
        if (i, j) not in g.edges
    }
    return Graph._trusted(g.n, frozenset(edges))


def is_star_vertex(g: Graph, v: int) -> bool:
    """True iff v is adjacent to every other vertex (vacuously true on K1)."""
    g._check_vertex(v)
    return sum(v in e for e in g.edges) == g.n - 1


def star_vertices(g: Graph) -> list[int]:
    degree = [0] * (g.n + 1)
    for i, j in g.edges:
        degree[i] += 1
        degree[j] += 1
    return [v for v in range(1, g.n + 1) if degree[v] == g.n - 1]


def whisker_all(g: Graph) -> Graph:
    """Attach a pendant vertex w_i = n+i to every vertex v_i."""
    n = g.n
    return Graph._trusted(2 * n, g.edges.union((i, n + i) for i in range(1, n + 1)))


def whisker_except(g: Graph, v: int) -> Graph:
    """Attach pendants to every vertex but v; result has 2n-1 vertices."""
    g._check_vertex(v)
    others = [u for u in range(1, g.n + 1) if u != v]
    return Graph._trusted(2 * g.n - 1, g.edges.union((u, g.n + k) for k, u in enumerate(others, 1)))


def maximal_cliques(g: Graph) -> list[frozenset]:
    """All maximal cliques, sorted lexicographically by sorted vertex list.

    Bron-Kerbosch with pivoting on bitmasks; n stays small here so no degree
    ordering is needed.
    """
    if g.n == 0:
        return []
    adj = g.adjacency_masks()
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        # pick the pivot covering the most candidates
        u = _low_vertex(pool)
        best_count = (p & adj[u]).bit_count()
        scan = pool
        while scan:
            w = _low_vertex(scan)
            scan &= scan - 1
            c = (p & adj[w]).bit_count()
            if c > best_count:
                best_count, u = c, w
        cand = p & ~adj[u]
        while cand:
            v = _low_vertex(cand)
            bit = 1 << v
            cand &= cand - 1
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << g.n) - 1, 0)
    cliques = [frozenset(_mask_vertices(m)) for m in out]
    return sorted(cliques, key=lambda c: sorted(c))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices, in edge-mask order."""
    if n > _MAX_ENUM_N:
        raise ValueError(f"corpus enumeration is capped at n <= {_MAX_ENUM_N}")
    if n < 0:
        raise ValueError("negative vertex count")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    half = len(pairs) // 2
    low = _subsets(pairs[:half])
    # edges | high has mask (index of high) << half | (index of edges)
    for high in _subsets(pairs[half:]):
        for edges in low:
            yield Graph._trusted(n, edges | high)


def _subsets(items: list) -> list[frozenset]:
    """Every subset of items, the k-th holding the items at the set bits of k."""
    return [frozenset(p for k, p in enumerate(items) if mask >> k & 1) for mask in range(1 << len(items))]


def _low_vertex(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _component_mask(adj: list[int], seed: int, within: int) -> int:
    """The connected component of the vertex mask ``seed`` inside the vertex
    mask ``within``; ``adj[v]`` is the neighbour mask of vertex v (0-based)."""
    comp = frontier = seed
    while frontier:
        nxt = 0
        scan = frontier
        while scan:
            bit = scan & -scan
            scan ^= bit
            nxt |= adj[bit.bit_length() - 1]
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def _mask_vertices(mask: int) -> list[int]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


# ---------------------------------------------------------------------------
# text / JSON interchange
# ---------------------------------------------------------------------------


def to_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise ValueError("edge list must start with 'n <count>'")
    n = int(lines[0].split()[1])
    pairs = []
    for ln in lines[1:]:
        a, b = ln.split()
        pairs.append((int(a), int(b)))
    return Graph.from_edges(n, pairs)


def to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def from_json(text: str) -> Graph:
    obj = json.loads(text)
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or not isinstance(obj.get("edges"), list):
        raise ValueError('a graph needs a JSON object with an integer "n" and an "edges" list')
    if not all(isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in obj["edges"]):
        raise ValueError("each edge must be a pair of integer vertices")
    return Graph.from_edges(obj["n"], [tuple(e) for e in obj["edges"]])
