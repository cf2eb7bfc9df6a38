"""Finite simple graphs and the operations the ring constructions consume.

Vertices are labeled 1..n.  Graphs are immutable; every operation returns a
new value.  Whiskering conventions: ``whisker_all`` puts the pendant vertex
for v_i at label n+i, ``whisker_except`` numbers the pendants n+1, n+2, ...
in increasing order of the vertex they hang from.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError
from typing import Iterator, Sequence

_MAX_ENUM_N = 7


def _norm_edge(edge) -> tuple[int, int]:
    try:
        i, j = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"edge ({i!r},{j!r}) has a vertex that is not an integer")
    if i == j:
        raise ValueError(f"loop at vertex {i}")
    return (i, j) if i < j else (j, i)


class Graph(tuple):
    """A simple graph on 1..n as the tuple of its neighbour masks: bit u-1 of
    ``g[v-1]`` is set iff {u, v} is an edge, and ``n`` is the length.  The
    masks are canonical, so tuple hashing serves; ``edges``, the frozenset of
    pairs i < j, is built from them when read.  One object per graph: the
    library builds one from masks it knows are good by ``tuple.__new__``.  A
    Graph equals only a Graph, is always truthy, and is frozen by hand."""

    __slots__ = ()
    n = property(len)
    __hash__ = tuple.__hash__

    def __new__(cls, n: int, edges=()):
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise ValueError("negative vertex count")
        try:
            edges = iter(edges)
        except TypeError:
            raise ValueError(f"edges {edges!r} is not an iterable of pairs") from None
        pairs = list(map(_norm_edge, edges))
        adj = [0] * n
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return _new(cls, adj)

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        return Graph(n, pairs)

    @property
    def edges(self) -> frozenset:
        return frozenset(self.sorted_edges())

    # answered here, not NotImplemented: tuple's reflected == would match a plain tuple
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __bool__(self):
        return True

    def _unordered(self, other):
        raise TypeError("graphs are not ordered")

    # tuple's order would rank a Graph against plain tuples it never equals
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_new, (Graph, tuple(self)))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise ValueError(f"vertex {v!r} is not an integer")
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges (i, j), i < j, in lexicographic order: the set bits
        above i of mask i-1, for i = 1..n."""
        out = []
        for i, mask in enumerate(self, 1):
            mask >>= i
            while mask:
                low = mask & -mask
                mask ^= low
                out.append((i, i + low.bit_length()))
        return out


_new = tuple.__new__


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _new(Graph, [full ^ mask ^ 1 << v for v, mask in enumerate(g)])


def is_star_vertex(g: Graph, v: int) -> bool:
    """True iff v is adjacent to every other vertex (vacuously true on K1)."""
    g._check_vertex(v)
    return g[v - 1] | 1 << (v - 1) == (1 << g.n) - 1


def star_vertices(g: Graph) -> list[int]:
    full = (1 << g.n) - 1
    return [v for v, mask in enumerate(g, 1) if mask | 1 << (v - 1) == full]


def whisker_all(g: Graph) -> Graph:
    """Attach a pendant vertex w_i = n+i to every vertex v_i."""
    n = g.n
    core = [mask | 1 << (n + v) for v, mask in enumerate(g)]
    return _new(Graph, core + [1 << v for v in range(n)])


def whisker_except(g: Graph, v: int) -> Graph:
    """Attach pendants to every vertex but v; result has 2n-1 vertices."""
    g._check_vertex(v)
    n = g.n
    # the pendant of vertex u (0-based) is vertex n+u, or n+u-1 past the spared v
    core = [mask if u == v - 1 else mask | 1 << (n + u - (u >= v)) for u, mask in enumerate(g)]
    return _new(Graph, core + [1 << u for u in range(n) if u != v - 1])


def maximal_cliques(g: Graph) -> list[frozenset]:
    """All maximal cliques, sorted lexicographically by sorted vertex list.

    Bron-Kerbosch with pivoting on bitmasks, on an explicit stack so that a
    clique of any size fits; n stays small here so no degree ordering is
    needed.
    """
    if g.n == 0:
        return []
    full = (1 << g.n) - 1
    out: list[int] = []
    # each frame is [r, p, x, the candidates it has still to branch on]
    stack = [[0, full, 0, _pivot_candidates(g, full, 0)]]
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if not cand:
            stack.pop()
            continue
        v = _low_vertex(cand)
        bit = 1 << v
        frame[1:] = p & ~bit, x | bit, cand & (cand - 1)
        r, p, x = r | bit, p & g[v], x & g[v]
        if p or x:
            stack.append([r, p, x, _pivot_candidates(g, p, x)])
        else:
            out.append(r)
    cliques = [frozenset(_mask_vertices(m)) for m in out]
    return sorted(cliques, key=lambda c: sorted(c))


def _pivot_candidates(adj, p: int, x: int) -> int:
    """The vertices of p outside the pivot's neighbourhood; the pivot is the
    lowest vertex of p | x with the most neighbours in p."""
    pool = p | x
    u = _low_vertex(pool)
    best_count = (p & adj[u]).bit_count()
    scan = pool
    while scan:
        w = _low_vertex(scan)
        scan &= scan - 1
        c = (p & adj[w]).bit_count()
        if c > best_count:
            best_count, u = c, w
    return p & ~adj[u]


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled simple graphs on n vertices, in edge-mask order."""
    if n > _MAX_ENUM_N:
        raise ValueError(f"corpus enumeration is capped at n <= {_MAX_ENUM_N}")
    if n < 0:
        raise ValueError("negative vertex count")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    half = len(pairs) // 2
    low = _packed_masks(pairs[:half])
    # the graph of low[a] | high[b] has edge mask b << half | a
    for high in _packed_masks(pairs[half:]):
        for packed in low:
            yield _new(Graph, (packed | high).to_bytes(n, "little"))


def _packed_masks(pairs: list) -> list[int]:
    """The neighbour masks of every subset of the 0-based vertex pairs, packed
    one byte per vertex (a byte holds a mask while n <= 8), the k-th holding
    the pairs at the set bits of k."""
    out = [0]
    for i, j in pairs:
        bits = 1 << (8 * i + j) | 1 << (8 * j + i)
        out += [packed | bits for packed in out]
    return out


def _low_vertex(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _component_mask(adj: Sequence[int], seed: int, within: int) -> int:
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
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("n "):
        raise ValueError("edge list must start with 'n <count>'")
    k, header = lines[0]
    (n,) = _line_ints(k, header, header.split()[1:], 1, "'n <count>' with an integer count")
    pairs = [tuple(_line_ints(k, ln, ln.split(), 2, "an edge 'i j' of two integers")) for k, ln in lines[1:]]
    return Graph.from_edges(n, pairs)


def _line_ints(k: int, line: str, words: list[str], count: int, shape: str) -> list[int]:
    """The ``words`` of edge-list line k as ``count`` integers."""
    if len(words) == count:
        try:
            return [int(w) for w in words]
        except ValueError:
            pass
    raise ValueError(f"line {k} ({line!r}) is not {shape}")


def to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def from_json(text: str) -> Graph:
    obj = json.loads(text)
    if not isinstance(obj, dict) or type(obj.get("n")) is not int or not isinstance(obj.get("edges"), list):
        raise ValueError('a graph needs a JSON object with an integer "n" and an "edges" list')
    if not all(isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in obj["edges"]):
        raise ValueError("each edge must be a pair of integer vertices")
    return Graph.from_edges(obj["n"], [tuple(e) for e in obj["edges"]])
