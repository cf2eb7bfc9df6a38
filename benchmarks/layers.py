"""Where the traced run puts its probes, and how spans become per-layer metrics.

Each span is named after the layer metric it feeds.  Times are self times:
the span's duration minus the time covered by wrapped calls inside it, so a
rank computed inside a Hochster scan counts for ``linalg``, not for
``sr_invariants``.  The exceptions are ``modules.resolution_deg<t>_s``, the
whole time of one resolution degree step, and the ``verify.*``/``cli.*``
item times per check kind.
"""

from __future__ import annotations

from collections import Counter

from tracer import self_times


def _field_kind(args) -> str:
    p = args[0].field.p
    return "q" if p is None else ("fp2" if p == 2 else "fpp")


def _matrix_cells(counts, args, result) -> None:
    counts["linalg.matrix_cells"] += args[0].nrows * args[0].ncols


def _basis_dim(counts, args, algebra) -> None:
    counts["artin.basis_dim"] += algebra.dim_k


def _decomposable_hit(counts, args, split) -> None:
    counts["monomials.decomposable_hits"] += split is not None


def _betti_top(counts, args, resolution) -> None:
    counts["modules.betti_top"] += resolution.betti[-1]


# (module, attribute, span name, tag, observe)
SPANS = [
    ("linalg", "Matrix.__init__", "linalg.matrix_new", None, _matrix_cells),
    ("linalg", "Matrix.apply", "linalg.apply", None, None),
    ("linalg", "Matrix.rref", "linalg.elim", _field_kind, None),
    ("linalg", "Matrix.rank", "linalg.elim", _field_kind, None),
    ("linalg", "Matrix.kernel_basis", "linalg.elim", _field_kind, None),
    ("linalg", "Matrix.solve", "linalg.elim", _field_kind, None),
    ("linalg", "Subspace.add", "linalg.subspace_add", None, None),
    ("linalg", "gf2_rank", "linalg.gf2_rank", None, None),
    ("linalg", "rational_rank", "linalg.rational_rank", None, None),
    ("linalg", "modp_rank", "linalg.modp_rank", None, None),
    ("graphs", "enumerate_graphs", "graphs.enumerate", None, None),
    ("graphs", "maximal_cliques", "graphs.maximal_cliques", None, None),
    ("graphs", "complement", "graphs.complement", None, None),
    ("constructions", "whiskered_edge_ideal", "monomials.ideal_build", None, None),
    ("constructions", "whisker_except_edge_ideal", "monomials.ideal_build", None, None),
    ("constructions", "edge_ideal_all_squares", "monomials.ideal_build", None, None),
    ("constructions", "edge_ideal_squares_except", "monomials.ideal_build", None, None),
    ("monomials", "variable_partition_decomposable", "monomials.decomposable", None, _decomposable_hit),
    ("monomials", "polarize", "monomials.polarize", None, None),
    ("monomials", "substitute", "monomials.substitute", None, None),
    ("monomials", "presentation_of", "monomials.presentation_of", None, None),
    ("sr_invariants", "krull_dim", "sr_invariants.krull_dim", None, None),
    ("sr_invariants", "depth", "sr_invariants.depth", None, None),
    ("sr_invariants", "cohen_macaulay_witness_fields", "sr_invariants.cm_scan", None, None),
    ("artin", "truncate", "artin.truncate", None, _basis_dim),
    ("artin", "socle", "artin.socle", None, None),
    ("artin", "is_gorenstein_artinian", "artin.gorenstein", None, None),
    ("artin", "canonical_module", "artin.canonical", None, None),
    ("modules", "minimal_resolution", "modules.minimal_resolution", lambda args: args[1], _betti_top),
    ("modules", "hom_module", "modules.hom_module", None, None),
    ("modules", "ext", "modules.ext", None, None),
]

# counted, not timed: these run far too often for a span each
COUNTS = [
    ("fields", "FieldSpec.coerce", "fields.coerce"),
    ("artin", "LocalAlgebra.multiply", "artin.multiply"),
]

# item time per check kind, from the untraced passes
ITEM_KINDS = {
    "verify.thmA_s": "thmA",
    "verify.thmB_s": "thmB",
    "verify.socle_s": "socle",
    "verify.split_s": "split",
    "verify.gorenstein_s": "gorenstein",
    "cli.resolve_s": "cli",
}

RESOLUTION_DEGREES = range(1, 9)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "fields.coerce_calls": "count",
    "linalg.matrix_new_calls": "count",
    "linalg.matrix_new_s": "s",
    "linalg.matrix_cells": "count",
    "linalg.apply_calls": "count",
    "linalg.apply_s": "s",
    "linalg.elim_calls": "count",
    "linalg.elim_s.fp2": "s",
    "linalg.elim_s.fpp": "s",
    "linalg.elim_s.q": "s",
    "linalg.subspace_add_calls": "count",
    "linalg.subspace_add_s": "s",
    "linalg.gf2_rank_calls": "count",
    "linalg.gf2_rank_s": "s",
    "linalg.rational_rank_calls": "count",
    "linalg.rational_rank_s": "s",
    "linalg.modp_rank_calls": "count",
    "graphs.enumerate_s": "s",
    "graphs.maximal_cliques_s": "s",
    "graphs.complement_s": "s",
    "monomials.ideal_build_calls": "count",
    "monomials.ideal_build_s": "s",
    "monomials.decomposable_calls": "count",
    "monomials.decomposable_s": "s",
    "monomials.decomposable_hit_frac": "fraction",
    "monomials.polarize_s": "s",
    "monomials.substitute_s": "s",
    "monomials.presentation_of_s": "s",
    "sr_invariants.krull_dim_s": "s",
    "sr_invariants.depth_calls": "count",
    "sr_invariants.depth_s": "s",
    "sr_invariants.cm_scan_calls": "count",
    "sr_invariants.cm_scan_s": "s",
    "sr_invariants.q_rank_share": "fraction",
    "artin.truncate_calls": "count",
    "artin.truncate_s": "s",
    "artin.basis_dim_sum": "count",
    "artin.multiply_calls": "count",
    "artin.socle_s": "s",
    "artin.gorenstein_s": "s",
    "artin.canonical_s": "s",
    **{f"modules.resolution_deg{t}_s": "s" for t in RESOLUTION_DEGREES},
    "modules.betti_sum": "count",
    "modules.hom_module_calls": "count",
    "modules.hom_module_s": "s",
    "modules.ext_calls": "count",
    "modules.ext_s": "s",
    **{name: "s" for name in ITEM_KINDS},
    "trace.overhead_frac": "fraction",
}


def install(tracer) -> None:
    for module, attr, name, tag, observe in SPANS:
        tracer.trace(module, attr, name, tag=tag, observe=observe)
    for module, attr, name in COUNTS:
        tracer.count(module, attr, name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, counts) -> dict[str, float]:
    """The span- and count-based per-layer metrics of one traced pass."""
    calls: Counter = Counter()
    secs: Counter = Counter()
    for (name, tag, parent, start, end), own in zip(spans, self_times(spans)):
        calls[name] += 1
        secs[name] += own
        if name == "linalg.elim":
            secs[f"linalg.elim_s.{tag}"] += own
        elif name == "modules.minimal_resolution" and parent >= 0 and spans[parent][0] == "item.poincare":
            # the poincare items raise the bound one degree at a time; a degree
            # step is reported whole, since most of it is spent in linalg
            secs[f"modules.resolution_deg{tag}_s"] += end - start
    out = {
        "fields.coerce_calls": counts["fields.coerce"],
        "linalg.matrix_cells": counts["linalg.matrix_cells"],
        "linalg.elim_s.fp2": secs["linalg.elim_s.fp2"],
        "linalg.elim_s.fpp": secs["linalg.elim_s.fpp"],
        "linalg.elim_s.q": secs["linalg.elim_s.q"],
        "monomials.decomposable_hit_frac": _ratio(counts["monomials.decomposable_hits"], calls["monomials.decomposable"]),
        "sr_invariants.q_rank_share": _ratio(calls["linalg.rational_rank"], calls["linalg.gf2_rank"]),
        "artin.basis_dim_sum": counts["artin.basis_dim"],
        "artin.multiply_calls": counts["artin.multiply"],
        "modules.betti_sum": counts["modules.betti_top"],
    }
    for t in RESOLUTION_DEGREES:
        out[f"modules.resolution_deg{t}_s"] = secs[f"modules.resolution_deg{t}_s"]
    for metric in PER_LAYER:
        if metric in out or metric in ITEM_KINDS or metric == "trace.overhead_frac":
            continue
        span, _, kind = metric.rpartition("_")
        out[metric] = calls[span] if kind == "calls" else secs[span]
    return out
