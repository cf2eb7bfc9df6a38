"""The three benchmark workloads: their inputs, their items and the oracle
each item's answer is checked against.

An item is one checked instance, run in a closed loop: the next item starts
when the previous one has finished.  ``Item.run`` builds every ideal, algebra
and module it needs, so a repetition never reuses library state (and with it
the result caches inside ``LocalAlgebra`` and ``FPModule``).  ``Item.check``
runs outside the timed region.

Every workload reaches the library through ``rl``, a namespace holding the
``ringlab`` modules of the latest import, so that the set-up can import the
package afresh on each repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

# Sample sizes keep one pass of each workload near 10 s on one core of a
# 2-core x86 VM, so that a 30 s run holds three to five passes.  Each workload
# states that nominal pass time (``pass_seconds``, which sets how many passes a
# run makes) and how many items apart its speed probes are (``probe_every``,
# about 0.1 s of items).
THMA_SAMPLE = 100  # of the 5,319 starred six-vertex graphs
SQUARE_SAMPLE = 800  # of the 32,768 labeled six-vertex graphs
SEMIDUALIZING_BOUND = 2  # criterion 10 uses 6, which takes about a minute
POINCARE_DEGREE = 8
CLI_BOUND = 5
CLI_ARGS = ["resolve", "--name", "ex54R", "--field", "fp:2", "--trunc", "3", "--module", "cyclic:z"]


class Item(NamedTuple):
    kind: str  # the check kind, e.g. "thmA"; item spans are named after it
    group: str  # the slice of the corpus that a guard count may refer to
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# oracles that use no ringlab code
# ---------------------------------------------------------------------------


def max_independent_sets(n: int, edges) -> list[list[int]]:
    """Maximal independent sets of a graph on 1..n, by brute force."""
    edge_masks = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in edges]
    independent = {s for s in range(1 << n) if all(s & e != e for e in edge_masks)}
    maximal = [
        s for s in independent if all(s | 1 << v not in independent for v in range(n) if not s >> v & 1)
    ]
    return sorted([v + 1 for v in range(n) if s >> v & 1] for s in maximal)


def complement_disconnected(n: int, edges) -> bool:
    """Is the complement of a graph on 1..n disconnected?"""
    adjacent = set(edges)
    seen = {1}
    todo = [1]
    while todo:
        u = todo.pop()
        for v in range(1, n + 1):
            if v not in seen and (min(u, v), max(u, v)) not in adjacent:
                seen.add(v)
                todo.append(v)
    return len(seen) < n


def labeled_graphs(rl, max_n: int, checks: list) -> dict:
    """Every labeled graph with n <= max_n; the count per n must be 2^C(n,2)."""
    out = {}
    for n in range(1, max_n + 1):
        out[n] = list(rl.graphs.enumerate_graphs(n))
        checks.append((f"labeled graphs n={n}", len(out[n]) == 2 ** comb(n, 2)))
    return out


def _presentation(rl, names, gens, field):
    m = rl.monomials
    return m.Presentation(names, [m.parse_poly(names, g, field) for g in gens], field)


# ---------------------------------------------------------------------------
# sr-corpus: theorems A and B, the Stanley-Reisner side
# ---------------------------------------------------------------------------


class SrCorpus:
    """Theorems A and B: the Hochster subset scan with GF(2) and rational
    ranks, and no Matrix or Subspace calls."""

    pass_seconds = 9.0
    probe_every = 12

    def prepare(self, rl, seed: int):
        checks: list = []
        graphs = labeled_graphs(rl, 6, checks)
        star_vertices = rl.graphs.star_vertices
        starred = {n: [g for g in graphs[n] if star_vertices(g)] for n in graphs}
        thm_a = [("thmA n<=5", g) for n in range(1, 6) for g in starred[n]]
        thm_a += [("thmA n=6", g) for g in random.Random(seed).sample(starred[6], THMA_SAMPLE)]
        thm_b = [(g, s) for n in range(2, 6) for g in graphs[n] for s in star_vertices(g)]
        return (thm_a, thm_b), checks

    def items(self, rl, inputs) -> list[Item]:
        thm_a, thm_b = inputs
        verify = rl.verify
        fields = (rl.fields.QQ, rl.fields.GF2)
        out = [
            Item(
                "thmA",
                group,
                lambda g=g: verify.check_theorem_A_fields(g, fields),
                lambda reports: len(reports) == 2 and all(r.passed for r in reports.values()),
            )
            for group, g in thm_a
        ]
        out += [
            Item("thmB", "thmB n<=5", lambda g=g, s=s, f=f: verify.check_theorem_B(g, s, f), lambda r: r.passed)
            for g, s in thm_b
            for f in fields
        ]
        return out

    @staticmethod
    def guard_probes(guard) -> None:
        guard.count("linalg", "Matrix.__init__", "matrix_new")
        guard.count("linalg", "gf2_rank", "gf2_rank")
        guard.count("linalg", "rational_rank", "rational_rank")

    guards = [
        # (group or None for the whole pass, counter, expected calls per pass)
        (None, "matrix_new", 0),
        ("thmA n<=5", "gf2_rank", 12805),
        ("thmA n<=5", "rational_rank", 0),
        ("thmB n<=5", "rational_rank", 896),
    ]


# ---------------------------------------------------------------------------
# square-corpus: vertex-square quotients (criteria 2, 4 and 9)
# ---------------------------------------------------------------------------


class SquareCorpus:
    """truncate, socle and the split test on vertex-square quotients, and no
    linalg calls."""

    pass_seconds = 7.5
    probe_every = 64

    def prepare(self, rl, seed: int):
        checks: list = []
        graphs = labeled_graphs(rl, 6, checks)
        small = [g for n in range(1, 6) for g in graphs[n]]
        sample = random.Random(seed).sample(graphs[6], SQUARE_SAMPLE)
        return (small, small + sample), checks

    def items(self, rl, inputs) -> list[Item]:
        small, socle_split = inputs
        c, a, m, gr = rl.constructions, rl.artin, rl.monomials, rl.graphs
        gf2 = rl.fields.GF2

        def socle_clique(g):
            algebra = a.truncate(m.presentation_of(c.edge_ideal_all_squares(g), gf2), g.n + 1)
            socle = sorted(sorted(i + 1 for i, e in enumerate(mono) if e) for mono in a.socle_monomials(algebra))
            cliques = sorted(sorted(q) for q in gr.maximal_cliques(gr.complement(g)))
            return socle, cliques

        def socle_ok(g):
            def check(got):
                expected = max_independent_sets(g.n, g.edges)
                return got[0] == expected and got[1] == expected

            return check

        def split_ok(g):
            def check(split):
                if not complement_disconnected(g.n, g.edges):
                    return split is None
                if split is None:
                    return False
                star = all((u, g.n) in g.edges for u in range(1, g.n))
                return not star or split[0] == frozenset({f"v{g.n}"})

            return check

        def gorenstein_ok(g):
            return lambda r: r.passed and r.witness["decomposable"] == complement_disconnected(g.n, g.edges)

        out = [Item("socle", "all", lambda g=g: socle_clique(g), socle_ok(g)) for g in socle_split]
        out += [
            Item(
                "split",
                "all",
                lambda g=g: m.variable_partition_decomposable(c.edge_ideal_all_squares(g)),
                split_ok(g),
            )
            for g in socle_split
        ]
        out += [
            Item("gorenstein", "all", lambda g=g: rl.verify.check_gorenstein_exclusion([g]), gorenstein_ok(g))
            for g in small
        ]
        return out

    @staticmethod
    def guard_probes(guard) -> None:
        guard.count_module("linalg", "linalg")

    guards = [(None, "linalg", 0)]


# ---------------------------------------------------------------------------
# module-engine: resolutions, semidualizing checks and the resolve verb
# ---------------------------------------------------------------------------


def _fixtures(rl, field, p3):
    """The criterion-10 fixture algebras."""
    c = rl.constructions
    return [
        lambda: rl.artin.truncate(_presentation(rl, ["x"], ["x^2"], field), 2),
        lambda: rl.artin.truncate(_presentation(rl, ["x", "y"], ["x^2", "y^2"], field), 3),
        lambda: rl.artin.truncate(_presentation(rl, ["x", "y"], ["x^2", "x*y", "y^2"], field), 2),
        lambda: rl.artin.truncate(rl.monomials.presentation_of(c.edge_ideal_all_squares(p3), field), 4),
        lambda: rl.artin.truncate(c.stanley_example_big_ring(field), 3),
    ]


class ModuleEngine:
    """Matrix construction, dense rref/kernel in all three fields and the
    Hom/Ext ranks, and no sr_invariants or graphs calls."""

    pass_seconds = 11.5
    probe_every = 1

    def prepare(self, rl, seed: int):
        # the path P3 is an input like the corpus graphs, so it is built here
        return rl.constructions.named_graph("p3"), []

    def items(self, rl, inputs) -> list[Item]:
        mod = rl.modules
        fields = rl.fields
        out = []
        # k over k[x,y]/m^2: the Poincare series is 1/(1-2t), so betti_t = 2^t.
        # One item per homological degree: each raises the resolution bound by one.
        for field in (fields.GF2, fields.FieldSpec.prime(3), fields.QQ):
            state = {}

            def start(field=field, state=state):
                algebra = rl.artin.truncate(_presentation(rl, ["x", "y"], ["x^2", "x*y", "y^2"], field), 2)
                state["k"] = mod.residue_field(algebra)
                return mod.minimal_resolution(state["k"], 0).betti

            out.append(Item("poincare", str(field), start, lambda b: b == (1,)))
            for t in range(1, POINCARE_DEGREE + 1):
                out.append(
                    Item(
                        "poincare",
                        str(field),
                        lambda t=t, state=state: mod.minimal_resolution(state["k"], t).betti,
                        lambda b, t=t: b == tuple(2**i for i in range(t + 1)),
                    )
                )
        for field in (fields.GF2, fields.QQ):
            for build in _fixtures(rl, field, inputs):
                for make in (mod.free_module, rl.artin.canonical_module):
                    out.append(
                        Item(
                            "semidualizing",
                            str(field),
                            lambda build=build, make=make: mod.is_semidualizing_up_to(
                                make(build()), SEMIDUALIZING_BOUND
                            ),
                            lambda ok: ok is True,
                        )
                    )

        def resolve():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = rl.cli.main(CLI_ARGS + ["--bound", str(CLI_BOUND)])
            return status, buf.getvalue()

        def resolve_ok(got):
            # ex54R is A = k[x,y]/(x,y)^2 (x) k[z]/(z^2): z is an exact zero-divisor, so A/(z)
            # has the periodic resolution ... -> A -z-> A -z-> A with every Betti
            # number 1; it is totally reflexive, and Hom(A/(z), A/(z)) = A/(z)
            # has dimension 3, not dim A = 6, so it is not semidualizing.
            status, text = got
            if status != 0:
                return False
            payload = json.loads(text)
            return (
                payload["betti"] == [1] * (CLI_BOUND + 1)
                and payload["totally_reflexive_up_to"] == CLI_BOUND
                and payload["semidualizing_up_to"] is False
            )

        out.append(Item("cli", "all", resolve, resolve_ok))
        return out

    @staticmethod
    def guard_probes(guard) -> None:
        guard.count_module("sr_invariants", "sr_invariants")
        guard.count_module("graphs", "graphs")

    guards = [(None, "sr_invariants", 0), (None, "graphs", 0)]


WORKLOADS = {
    "sr-corpus": SrCorpus(),
    "square-corpus": SquareCorpus(),
    "module-engine": ModuleEngine(),
}
