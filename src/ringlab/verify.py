"""Corpus-level reproductions of the structural theorems and worked examples.

Each check returns a Report carrying a pass flag and, on failure, a concrete
counterexample witness.  Checks are deterministic: fixed iteration orders,
fixed tie-breaking, no randomness.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field

from .artin import (
    is_gorenstein_artinian,
    pair_decomposition_search,
    socle,
    socle_monomials,
    truncate,
)
from .constructions import (
    cusp_square_presentation,
    cusp_square_two_var_presentation,
    edge_ideal_all_squares,
    edge_ideal_squares_except,
    plane_conic_presentation,
    stanley_example_base_ring,
    stanley_example_big_ring,
    star_of_paths,
    star_of_paths_names,
    star_of_paths_target_ideal,
    whisker_except_edge_ideal,
    whiskered_edge_ideal,
)
from .fields import GF2, QQ, FieldSpec
from .graphs import (
    _MAX_ENUM_N,
    Graph,
    _component_mask,
    complement,
    enumerate_graphs,
    is_star_vertex,
    maximal_cliques,
    star_vertices,
    whisker_all,
)
from .modules import _check_bound, biduality_is_iso, cyclic_module, is_totally_reflexive_up_to, poincare_truncation
from .monomials import (
    _pair_mask,
    edge_ideal,
    eliminate_variables,
    polarize,
    presentation_of,
    rename_ideal,
    substitute_ideal,
    to_monomial_ideal,
    variable_partition_decomposable,
)
from .sr_invariants import _adopt_scan, cohen_macaulay_witness_fields, depth, krull_dim


@dataclass
class Report:
    check: str
    instance: str
    passed: bool
    witness: dict = dc_field(default_factory=dict)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {**vars(self), "seconds": round(self.seconds, 4)}


def _graph_tag(g: Graph) -> str:
    return f"n={g.n} edges={g.sorted_edges()}"


# ---------------------------------------------------------------------------
# Theorem on fully whiskered graphs
# ---------------------------------------------------------------------------


def check_theorem_A_fields(g: Graph, fields) -> dict:
    """One report per field for a graph with a star vertex: the whiskered
    ring is Cohen-Macaulay of dimension n; the vertex-square quotient splits
    off the star vertex and its socle monomials match the maximal cliques of
    the complement.  The homology scan and the combinatorial sub-checks are
    shared between the fields (same verdicts, shared timing)."""
    stars = star_vertices(g)
    if not stars:
        raise ValueError("graph has no star vertex")
    start = time.perf_counter()
    star = max(stars)
    n = g.n
    shared: dict = {}

    sigma = whiskered_edge_ideal(g)
    dim = krull_dim(sigma)
    if dim != n:
        shared["dim"] = {"expected": n, "got": dim}
    cm_wits = cohen_macaulay_witness_fields(sigma, tuple(fields))

    kprime = edge_ideal_all_squares(g)
    if n >= 2:
        split = variable_partition_decomposable(kprime)
        if split is None:
            shared["no_split"] = {}
        # the star times every other vertex lies in kprime (on v1..vn)
        if _pair_mask(kprime, star - 1) | 1 << (star - 1) != (1 << n) - 1:
            shared["star_not_isolated"] = {"star": f"v{star}"}

    mismatch = _socle_clique_mismatch(g, kprime)
    if mismatch:
        shared["socle_clique_mismatch"] = mismatch

    elapsed = time.perf_counter() - start
    tag = _graph_tag(g)
    out = {}
    for f in fields:
        problems = dict(shared)
        if cm_wits[f] is not None:
            problems["not_cohen_macaulay"] = cm_wits[f]
        out[f] = Report(
            "thmA",
            f"{tag} field={f}",
            not problems,
            problems,
            elapsed / len(fields),
        )
    return out


def _socle_clique_mismatch(g: Graph, kprime) -> dict | None:
    """The socle monomials of k[V]/kprime against the maximal cliques of the
    complement of g; None when they match."""
    algebra = truncate(presentation_of(kprime, GF2), g.n + 1)
    soc_sets = sorted(
        sorted(i + 1 for i, e in enumerate(mono) if e) for mono in socle_monomials(algebra)
    )
    cliques = [sorted(c) for c in maximal_cliques(complement(g))]
    return None if soc_sets == cliques else {"socle": soc_sets, "cliques": cliques}


def check_theorem_B(g: Graph, star: int, f: FieldSpec) -> Report:
    """The report of ``check_theorem_B_fields`` over the one field f."""
    return check_theorem_B_fields(g, star, (f,))[f]


def check_theorem_B_fields(g: Graph, star: int, fields) -> dict:
    """One report per field for whiskering everywhere except at a star
    vertex: dimension n, depth n-1; the intermediate square quotient has
    dimension 1 and depth 0 and is reached from the whiskered ring by the
    substitution w_u -> v_u.  Only the depths read the field; the ideals and
    the other sub-checks are shared between the fields (shared timing)."""
    if not is_star_vertex(g, star):
        raise ValueError(f"vertex {star} is not a star vertex")
    if g.n < 2:
        raise ValueError("the one-vertex case is degenerate (no whiskers are added)")
    start = time.perf_counter()
    n = g.n
    shared: dict = {}

    tilde = whisker_except_edge_ideal(g, star)
    dim = krull_dim(tilde)
    deps = [depth(tilde, f) for f in fields]

    # polarizing kdp should give tilde up to names; then kdp reads tilde's scan
    kdp = edge_ideal_squares_except(g, star)
    polarizes_to_tilde = _adopt_scan(kdp, tilde)
    kdp_dim = krull_dim(kdp)
    kdp_deps = [depth(kdp, f) for f in fields]

    # killing v_u - w_u in the partially whiskered ring maps monomials to
    # monomials, so the substitution runs on exponent tuples
    mapping = {f"w{u}": f"v{u}" for u in range(1, n + 1) if u != star}
    collapsed = substitute_ideal(tilde, mapping)
    if collapsed != kdp:
        shared["substitution_mismatch"] = {
            "collapsed": collapsed.gen_strings(),
            "target": kdp.gen_strings(),
        }
    # and back up by polarization
    if not polarizes_to_tilde:
        repolarized = polarize(kdp)
        if repolarized.nvars != tilde.nvars:
            shared["polarization_mismatch"] = {"pol_vars": list(repolarized.ambient)}
        else:
            shared["polarization_mismatch"] = {
                "polarized": repolarized.gen_strings(),
                "whiskered": rename_ideal(tilde, repolarized.ambient).gen_strings(),
            }

    # multiplication facts in the square quotient: star kills every other
    # vertex but its own square survives (in k[V]/I with I monomial, v_a v_b
    # is zero iff the monomial v_a v_b lies in I; kdp is on v1..vn)
    zero = _pair_mask(kdp, star - 1)
    for u in range(1, n + 1):
        if u != star and not zero >> (u - 1) & 1:
            shared["star_product_nonzero"] = {"u": u}
    if zero >> (star - 1) & 1:
        shared["star_square_zero"] = {}

    elapsed = time.perf_counter() - start
    tag = f"{_graph_tag(g)} star={star}"
    out = {}
    for f, dep, kdp_depth in zip(fields, deps, kdp_deps):
        problems: dict = {}
        if dim != n:
            problems["tilde_dim"] = {"expected": n, "got": dim}
        if dep != n - 1:
            problems["tilde_depth"] = {"expected": n - 1, "got": dep}
        if kdp_dim != 1:
            problems["square_quotient_dim"] = {"expected": 1, "got": kdp_dim}
        if kdp_depth != 0:
            problems["square_quotient_depth"] = {"expected": 0, "got": kdp_depth}
        problems.update(shared)
        out[f] = Report("thmB", f"{tag} field={f}", not problems, problems, elapsed / len(fields))
    return out


# ---------------------------------------------------------------------------
# Gorenstein exclusion for decomposable artinian vertex-square quotients
# ---------------------------------------------------------------------------


def check_gorenstein_exclusion(corpus) -> Report:
    start = time.perf_counter()
    total = 0
    decomposable = 0
    violations = []
    for g in corpus:
        total += 1
        if g.n <= 1:
            continue
        kprime = edge_ideal_all_squares(g)
        split = variable_partition_decomposable(kprime)
        if split is None:
            continue
        decomposable += 1
        algebra = truncate(presentation_of(kprime, GF2), g.n + 1)
        socle_dim = len(socle_monomials(algebra))
        # Gorenstein is socle dimension one
        if socle_dim < 2:
            violations.append({"graph": _graph_tag(g), "socle_dim": socle_dim})
    return Report(
        "gorenstein-exclusion",
        f"graphs={total}",
        not violations,
        {"decomposable": decomposable, "violations": violations},
        time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def check_example_3_11(n: int) -> Report:
    """The star-of-paths ring: whisker, collapse the path whiskers, compare
    with the displayed presentation, and confirm dimension one."""
    if not 1 <= n <= 3:
        raise ValueError("the star-of-paths check runs for 1 <= n <= 3")
    start = time.perf_counter()
    problems: dict = {}
    g = star_of_paths(n)
    names = star_of_paths_names(n)
    if max(star_vertices(g)) != g.n:
        problems["center_not_star"] = {}
    whisker_names_full = names + [f"w{nm}" for nm in names]
    sigma = edge_ideal(whisker_all(g), whisker_names_full)
    mapping = {f"w{nm}": nm for nm in names if nm != "v"}
    got = substitute_ideal(sigma, mapping)
    target = star_of_paths_target_ideal(n)
    renamed = rename_ideal(got, target.ambient)
    if renamed != target:
        problems["presentation_mismatch"] = {
            "got": renamed.gen_strings(),
            "target": target.gen_strings(),
        }
    dim = krull_dim(got)
    if dim != 1:
        problems["dim"] = {"expected": 1, "got": dim}
    return Report("ex311", f"n={n}", not problems, problems, time.perf_counter() - start)


def check_example_4x(p: int) -> Report:
    """Finite-field desk checks for the quadric decomposition (part (i), run
    when p = 1 mod 4 gives a square root of -1) and the two indecomposable
    truncations (parts (ii) and (iii), always run)."""
    if p not in (2, 3, 5, 7):
        raise ValueError("p must be one of 2, 3, 5, 7")
    parts = ("i", "ii", "iii") if p % 4 == 1 else ("ii", "iii")
    start = time.perf_counter()
    f = FieldSpec.prime(p)
    problems: dict = {}
    results: dict = {}
    if "i" in parts:
        a = truncate(plane_conic_presentation(f), 4)
        pair = pair_decomposition_search(a, mode="full")
        if pair is None:
            problems["quadric_split_missing"] = {}
        else:
            alpha, beta = pair
            if any(a.multiply(alpha.vector, beta.vector)):
                problems["witness_product_nonzero"] = {}
            results["i"] = {
                "witness": [dict(alpha.coeffs), dict(beta.coeffs)],
            }
    a = truncate(cusp_square_presentation(f), 3)
    if pair_decomposition_search(a, mode="necessary") is not None:
        problems["case1_unexpected_pair"] = {}
    results["ii"] = {"pair": None}
    a = truncate(cusp_square_two_var_presentation(f), 3)
    if pair_decomposition_search(a, mode="necessary") is not None:
        problems["case2_unexpected_pair"] = {}
    results["iii"] = {"pair": None}
    witness = dict(results)
    witness.update(problems)
    return Report("ex4x", f"p={p} parts={','.join(parts)}", not problems, witness, time.perf_counter() - start)


def check_example_5_4(b: int) -> Report:
    """The totally reflexive module of infinite projective dimension."""
    _check_bound(b, "bound")
    start = time.perf_counter()
    problems: dict = {}
    for f in (GF2, QQ):
        base = stanley_example_base_ring(f)
        collapsed = eliminate_variables(base, ["z"])
        split = variable_partition_decomposable(to_monomial_ideal(collapsed))
        if split is None or {frozenset({"x"}), frozenset({"y"})} != {split[0], split[1]}:
            problems[f"{f}:base_split"] = {"got": None if split is None else [sorted(split[0]), sorted(split[1])]}
        big = stanley_example_big_ring(f)
        algebra = truncate(big, 3)
        soc = len(socle(algebra))
        if soc != 2:
            problems[f"{f}:socle"] = {"expected": 2, "got": soc}
        if is_gorenstein_artinian(algebra):
            problems[f"{f}:gorenstein"] = {}
        module = cyclic_module(algebra, [algebra.element_from_linear({"z": 1})])
        if not biduality_is_iso(module):
            problems[f"{f}:biduality"] = {}
        if b >= 1:
            if not is_totally_reflexive_up_to(module, b):
                problems[f"{f}:totally_reflexive"] = {}
            betti = poincare_truncation(module, b)
            if any(x <= 0 for x in betti):
                problems[f"{f}:betti"] = {"betti": betti}
    return Report("ex54", f"bound={b}", not problems, problems, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


def _check_range(first: int, max_n: int) -> None:
    """Refuse an oversized or empty corpus range before any enumeration."""
    if max_n > _MAX_ENUM_N:
        raise ValueError(f"corpus enumeration is capped at n <= {_MAX_ENUM_N}")
    if max_n < first:
        raise ValueError(f"empty corpus: max_n = {max_n} < {first}")


def _labeled_graphs(first: int, max_n: int):
    """Every labeled graph on first..max_n vertices, the range refused first."""
    _check_range(first, max_n)
    return (g for n in range(first, max_n + 1) for g in enumerate_graphs(n))


def starred_graphs(max_n: int):
    return (g for g in _labeled_graphs(1, max_n) if star_vertices(g))


def _check_threads(threads: int, name: str) -> None:
    """Refuse a worker count outside 1..os.cpu_count() before any work starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"{name} must lie in 1..{cpus}, got {threads}")


def _map(fn, jobs: list, threads: int, chunksize: int):
    """fn(*job) for each job in order, yielded one at a time so a caller
    that keeps only part of each result never holds them all; in threads
    processes when threads > 1."""
    if not jobs:
        return
    if threads == 1:
        yield from map(fn, *zip(*jobs))
        return
    # imported here: the pool's multiprocessing stack costs every other run about 2.3 MB resident
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, *zip(*jobs), chunksize=chunksize)


def run_theorem_A_corpus(max_n: int, fields=(QQ, GF2), threads: int = 1) -> list[Report]:
    _check_threads(threads, "threads")
    fields = tuple(fields)
    graphs = starred_graphs(max_n)  # the range is refused even with no fields
    jobs = [(g, fields) for g in graphs] if fields else []
    return [reports[f] for reports in _map(check_theorem_A_fields, jobs, threads, 64) for f in fields]


def run_theorem_B_corpus(max_n: int, fields=(QQ, GF2), threads: int = 1) -> list[Report]:
    _check_threads(threads, "threads")
    fields = tuple(fields)
    graphs = _labeled_graphs(2, max_n)  # the range is refused even with no fields
    jobs = [(g, star, fields) for g in graphs for star in star_vertices(g)] if fields else []
    return [reports[f] for reports in _map(check_theorem_B_fields, jobs, threads, 16) for f in fields]


def run_gorenstein_corpus(max_n: int) -> Report:
    return check_gorenstein_exclusion(_labeled_graphs(1, max_n))


def _graph_walk(check: str, max_n: int, problem) -> Report:
    """One report over every labeled graph with n <= max_n: problem(g) is a
    dict describing a violation at g, or None."""
    start = time.perf_counter()
    total = 0
    violations = []
    for g in _labeled_graphs(1, max_n):
        total += 1
        found = problem(g)
        if found:
            violations.append({"graph": _graph_tag(g), **found})
    return Report(
        check,
        f"graphs with n<={max_n}",
        not violations,
        {"graphs": total, "violations": violations},
        time.perf_counter() - start,
    )


def run_socle_clique_corpus(max_n: int) -> Report:
    """The socle <-> maximal clique bijection over every labeled graph."""
    return _graph_walk("socle-clique", max_n, lambda g: _socle_clique_mismatch(g, edge_ideal_all_squares(g)))


def run_star_split_corpus(max_n: int) -> Report:
    """Decomposability of the vertex-square quotient is exactly
    disconnectedness of the complement, and a star last vertex is isolated."""
    return _graph_walk("star-split", max_n, _star_split_problem)


def _star_split_problem(g: Graph) -> dict | None:
    split = variable_partition_decomposable(edge_ideal_all_squares(g))
    if (split is not None) != _is_disconnected(complement(g)):
        return {"split": split is not None}
    if split is not None and is_star_vertex(g, g.n) and split[0] != frozenset({f"v{g.n}"}):
        return {"first_part": sorted(split[0])}
    return None


def _is_disconnected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return g.n > 1 and _component_mask(g, 1, full) != full


# ---------------------------------------------------------------------------
# the suite table behind `ringlab verify`
# ---------------------------------------------------------------------------

# name -> (first n of the suite's corpus, None for the fixed examples;
# run(max_n, fields, threads, bound) giving its reports), in `verify all`
# order.  A row looks its runner up on this module when it runs, so a runner
# patched here is the one the row calls.
SUITES = {
    "thmA": (1, lambda n, fields, threads, b: run_theorem_A_corpus(n, fields, threads)),
    "thmB": (2, lambda n, fields, threads, b: run_theorem_B_corpus(n, fields, threads)),
    "gorenstein": (1, lambda n, fields, threads, b: [run_gorenstein_corpus(n)]),
    "socle-clique": (1, lambda n, fields, threads, b: [run_socle_clique_corpus(n)]),
    "star-split": (1, lambda n, fields, threads, b: [run_star_split_corpus(n)]),
    "ex311": (None, lambda n, fields, threads, b: [check_example_3_11(k) for k in range(1, 4)]),
    "ex4x": (None, lambda n, fields, threads, b: [check_example_4x(p) for p in (2, 3, 5, 7)]),
    "ex54": (None, lambda n, fields, threads, b: [check_example_5_4(b)]),
}
