"""Named ring constructions used by the verification harness and the CLI.

All the standard shapes live here: whiskered edge rings, the artinian
quotients obtained by killing vertex squares, the star-of-paths ring, and the
handful of fixed fixture presentations.
"""

from __future__ import annotations

import re

from .fields import FieldSpec
from .graphs import Graph, whisker_all, whisker_except
from .monomials import (
    MonomialIdeal,
    Presentation,
    _quadrics,
    edge_ideal,
    parse_poly,
    presentation_of,
)


def whisker_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)] + [f"w{i}" for i in range(1, n + 1)]


def whiskered_edge_ideal(g: Graph) -> MonomialIdeal:
    """I(Sigma G) on variables v1..vn, w1..wn."""
    return edge_ideal(whisker_all(g), whisker_names(g.n))


def whisker_except_names(g: Graph, v: int) -> list[str]:
    names = [f"v{i}" for i in range(1, g.n + 1)]
    names.extend(f"w{u}" for u in range(1, g.n + 1) if u != v)
    return names


def whisker_except_edge_ideal(g: Graph, v: int) -> MonomialIdeal:
    """The edge ideal of the graph whiskered everywhere except at v."""
    return edge_ideal(whisker_except(g, v), whisker_except_names(g, v))


def edge_ideal_all_squares(g: Graph) -> MonomialIdeal:
    """I(G) + (v_i^2 for every i): the artinian vertex-square quotient."""
    return _edge_ideal_with_squares(g, None)


def edge_ideal_squares_except(g: Graph, v: int) -> MonomialIdeal:
    """I(G) + (v_u^2 for u != v): squares at all vertices but one."""
    g._check_vertex(v)
    return _edge_ideal_with_squares(g, v)


def _edge_ideal_with_squares(g: Graph, skip: int | None) -> MonomialIdeal:
    """I(G) + (v_u^2 for u != skip)."""
    squares = (1 << g.n) - 1
    if skip is not None:
        squares ^= 1 << (skip - 1)
    return MonomialIdeal._trusted(tuple(f"v{k}" for k in range(1, g.n + 1)), _quadrics(g, squares))


def star_of_paths(n: int) -> Graph:
    """n disjoint edges all of whose endpoints are joined to one extra vertex.

    Vertices: pairs (2j-1, 2j) for j = 1..n carry the edges, vertex 2n+1 is
    the center (a star vertex).
    """
    if n < 1:
        raise ValueError("need at least one path")
    center = 2 * n + 1
    edges = []
    for j in range(1, n + 1):
        a, b = 2 * j - 1, 2 * j
        edges.append((a, b))
        edges.append((a, center))
        edges.append((b, center))
    return Graph.from_edges(center, edges)


def star_of_paths_names(n: int) -> list[str]:
    names = []
    for j in range(1, n + 1):
        names.extend([f"v1,{j}", f"v2,{j}"])
    names.append("v")
    return names


def star_of_paths_target_ideal(n: int) -> MonomialIdeal:
    """The displayed one-dimensional fiber product ring for the star of paths:
    squares and mixed products within each X-pair, Z against everything."""
    names = []
    for j in range(1, n + 1):
        names.extend([f"X1,{j}", f"X2,{j}"])
    names.extend(["Z", "Y"])
    nv = len(names)
    idx = {name: k for k, name in enumerate(names)}

    def mono(*pairs):
        e = [0] * nv
        for name, p in pairs:
            e[idx[name]] += p
        return tuple(e)

    gens = []
    for j in range(1, n + 1):
        a, b = f"X1,{j}", f"X2,{j}"
        gens.append(mono((a, 2)))
        gens.append(mono((a, 1), (b, 1)))
        gens.append(mono((b, 2)))
        gens.append(mono(("Z", 1), (a, 1)))
        gens.append(mono(("Z", 1), (b, 1)))
    gens.append(mono(("Z", 1), ("Y", 1)))
    return MonomialIdeal(names, gens)


# ---------------------------------------------------------------------------
# fixed fixture presentations
# ---------------------------------------------------------------------------


def _fixture(ambient: list[str], gens: tuple[str, ...], field: FieldSpec) -> Presentation:
    return Presentation(ambient, [parse_poly(ambient, g, field) for g in gens], field)


def plane_conic_presentation(field: FieldSpec) -> Presentation:
    """k[x,y]/(x^2 + y^2), the rank-two quadric in two variables."""
    return _fixture(["x", "y"], ("x^2 + y^2",), field)


def cusp_square_presentation(field: FieldSpec) -> Presentation:
    """k[x,y,z]/(x^2): the case-1 truncation target."""
    return _fixture(["x", "y", "z"], ("x^2",), field)


def cusp_square_two_var_presentation(field: FieldSpec) -> Presentation:
    """k[x,u]/(x^2): the case-2 truncation target."""
    return _fixture(["x", "u"], ("x^2",), field)


def stanley_example_big_ring(field: FieldSpec) -> Presentation:
    """k[x,y,z]/(x^2, xy, y^2, z^2): artinian, not Gorenstein."""
    return _fixture(["x", "y", "z"], ("x^2", "x*y", "y^2", "z^2"), field)


def stanley_example_base_ring(field: FieldSpec) -> Presentation:
    """k[x,y,z]/(x^2, xy, y^2): one-dimensional with a regular element z."""
    return _fixture(["x", "y", "z"], ("x^2", "x*y", "y^2"), field)


# ---------------------------------------------------------------------------
# named graphs and ring tokens (CLI surface)
# ---------------------------------------------------------------------------

_GRAPH_RE = re.compile(r"^([kpce])(\d+)$")


def named_graph(token: str) -> Graph:
    """k<n> complete, p<n> path, c<n> cycle, e<n> edgeless."""
    m = _GRAPH_RE.match(token.strip().lower())
    if not m:
        raise ValueError(f"unknown graph name {token!r} (try k3, p4, c5, e2)")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise ValueError("graphs need at least one vertex")
    if kind == "k":
        return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    if kind == "p":
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    if kind == "c":
        if n < 3:
            raise ValueError("cycles need at least three vertices")
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    return Graph(n, frozenset())


_FIXTURES = {
    "ex45": plane_conic_presentation,
    "ex46a": cusp_square_presentation,
    "ex46b": cusp_square_two_var_presentation,
    "ex54r": stanley_example_big_ring,
    "ex54s": stanley_example_base_ring,
}


def named_ring(token: str, field: FieldSpec) -> Presentation:
    """Resolve a ring shortcut into a presentation.

    Tokens: sigma:<graph>, kprime:<graph>, kdprime:<graph>:<vertex>,
    ex311:<n>, ex45, ex46a, ex46b, ex54R, ex54S.
    """
    token = token.strip()
    lowered = token.lower()
    if lowered.startswith("sigma:"):
        return presentation_of(whiskered_edge_ideal(named_graph(token[6:])), field)
    if lowered.startswith("kprime:"):
        return presentation_of(edge_ideal_all_squares(named_graph(token[7:])), field)
    if lowered.startswith("kdprime:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError("kdprime takes kdprime:<graph>:<vertex>")
        g = named_graph(parts[1])
        return presentation_of(edge_ideal_squares_except(g, int(parts[2])), field)
    if lowered.startswith("ex311:"):
        n = int(token[6:])
        g = star_of_paths(n)
        return presentation_of(edge_ideal(g, star_of_paths_names(n)), field)
    if lowered in _FIXTURES:
        return _FIXTURES[lowered](field)
    raise ValueError(f"unknown ring token {token!r}")
