"""Command line entry point.

Verbs: ``graph`` (build/complement/whisker/cliques), ``ring`` (dimension,
depth, Hilbert data), ``artin`` (truncation, socle, decomposability),
``resolve`` (Betti/Bass numbers, reflexivity, semidualizing), ``verify``
(theorem suites).  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

from . import constructions, verify
from .artin import (
    canonical_module,
    hilbert_function,
    is_gorenstein_artinian,
    pair_decomposition_search,
    socle,
    truncate,
)
from .fields import GF2, QQ, FieldSpec
from .graphs import (
    Graph,
    complement,
    from_edge_list,
    from_json,
    maximal_cliques,
    to_edge_list,
    to_json,
    whisker_all,
    whisker_except,
)
from .modules import (
    _check_bound,
    bass_truncation,
    cyclic_module,
    free_module,
    is_semidualizing_up_to,
    is_totally_reflexive_up_to,
    poincare_truncation,
    residue_field,
)
from .monomials import (
    Presentation,
    presentation_from_json,
    to_monomial_ideal,
)
from .sr_invariants import depth, f_vector, hilbert_series, krull_dim, multiplicity


class UsageError(ValueError):
    pass


def _load_graph(args) -> Graph:
    if getattr(args, "name", None):
        return constructions.named_graph(args.name)
    if not getattr(args, "input", None):
        raise UsageError("need --input or --name")
    text = Path(args.input).read_text()
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_edge_list(text)


def _load_presentation(args) -> Presentation:
    """The ring of --name (over q unless --field is given) or of --input (over
    --field if given, else over the file's own field)."""
    field = FieldSpec.parse(args.field) if args.field else None
    if args.name:
        return constructions.named_ring(args.name, field or QQ)
    if args.input:
        return presentation_from_json(Path(args.input).read_text(), field)
    raise UsageError("need --input or --name")


def _module_from_token(algebra, token: str):
    token = token.strip()
    if token == "k":
        return residue_field(algebra)
    if token in ("free", "A"):
        return free_module(algebra)
    if token == "canonical":
        return canonical_module(algebra)
    if token.startswith("cyclic:"):
        names = [t for t in token[7:].split(",") if t]
        if not names:
            raise UsageError(f"module token {token!r} names no variable: use cyclic:<var,var,...>")
        gens = [algebra.element_from_linear({name: 1}) for name in names]
        return cyclic_module(algebra, gens)
    raise UsageError(f"unknown module token {token!r}")


def _emit(args, payload) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_table(payload)


def _print_table(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, dict) and value:
                print(f"{indent}{key}:")
                _print_table(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    else:
        print(f"{indent}{payload}")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_graph(args) -> int:
    g = _load_graph(args)
    if args.action == "cliques":
        cliques = [sorted(c) for c in maximal_cliques(g)]
        _emit(args, {"n": g.n, "maximal_cliques": str(cliques)})
        return 0
    if args.action == "build":
        out = g
    elif args.action == "complement":
        out = complement(g)
    elif args.action == "whisker":
        out = whisker_all(g)
    else:  # whisker-except
        if args.vertex is None:
            raise UsageError("whisker-except needs --vertex")
        out = whisker_except(g, args.vertex)
    if args.output == "json":
        print(to_json(out))
    else:
        print(to_edge_list(out), end="")
    return 0


def _cmd_ring(args) -> int:
    pres = _load_presentation(args)
    ideal = to_monomial_ideal(pres)
    fields = [FieldSpec.parse(args.field)] if args.field else [QQ, GF2]
    # depth refuses an oversized ring before krull_dim's face search runs
    depths = {str(f): depth(ideal, f) for f in fields}
    dim = krull_dim(ideal)
    cm = all(v == dim for v in depths.values())
    numerator, _ = hilbert_series(ideal)
    payload = {
        "dim": dim,
        "depth": depths,
        "cm": cm,
        "hilbert_numerator": list(numerator),
        "multiplicity": multiplicity(ideal),
    }
    if ideal.is_squarefree():
        payload["f_vector"] = list(f_vector(ideal))
    _emit(args, payload)
    return 0


def _cmd_artin(args) -> int:
    pres = _load_presentation(args)
    algebra = truncate(pres, args.trunc)
    soc = socle(algebra)
    payload = {
        "dim_k": algebra.dim_k,
        "hilbert": hilbert_function(algebra),
        "socle_dim": len(soc),
        "order": args.trunc,
    }
    if pres.is_monomial():
        try:
            payload["gorenstein"] = is_gorenstein_artinian(algebra)
        except ValueError:
            payload["gorenstein"] = None  # truncation cuts the ring
    else:
        payload["gorenstein"] = None  # full-ring precondition not checkable
    if algebra.field.is_rational:
        payload["decomposition"] = {
            "found": None,
            "reason": "exhaustive linear-form search requires a finite field",
            "order": args.trunc,
        }
    else:
        pair = pair_decomposition_search(algebra, mode=args.mode)
        payload["decomposition"] = {
            "found": pair is not None,
            "witness": None
            if pair is None
            else [{k: str(v) for k, v in p.coeffs} for p in pair],
            "mode": args.mode,
            "order": args.trunc,
        }
    _emit(args, payload)
    return 0


def _cmd_resolve(args) -> int:
    pres = _load_presentation(args)
    algebra = truncate(pres, args.trunc)
    module = _module_from_token(algebra, args.module)
    b = args.bound
    # reflexivity first: its hom_module refuses an oversized Hom before any elimination
    payload = {
        "module": args.module,
        "totally_reflexive_up_to": b if is_totally_reflexive_up_to(module, b) else False,
        "betti": poincare_truncation(module, b),
        "bass": bass_truncation(algebra, module, b),
        "semidualizing_up_to": b if is_semidualizing_up_to(module, b) else False,
    }
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    suites = [row for name, row in verify.SUITES.items() if args.suite in (name, "all")]
    # refused before the first suite runs: check_example_5_4 reads the bound
    # after every corpus suite, a pool starts at its first job, and a later
    # suite's corpus range would be refused only once the earlier ones ran
    _check_bound(args.bound, "bound")
    verify._check_threads(args.threads, "--threads")
    fields = [FieldSpec.parse(args.field)] if args.field else [QQ, GF2]
    for first, _ in suites:
        if first is not None:
            verify._check_range(first, args.max_n)
    total, failed = Counter(), Counter()
    for _, run in suites:
        _print_reports(run(args.max_n, fields, args.threads, args.bound), args.output, total, failed)
    if args.output == "json":
        print("\n]" if total else "[]")
    else:
        for check, count in sorted(total.items()):
            print(f"{check:<22} {count - failed[check]}/{count} passed")
        print(f"total: {total.total() - failed.total()}/{total.total()} passed")
    return 1 if failed else 0


def _print_reports(reports, output: str, total: Counter, failed: Counter) -> None:
    """Print one suite's reports as they are read and count them by check.

    In JSON each report is one element of the list the whole run prints, so
    the bytes match json.dumps of every report at once; only one suite's
    reports are held at a time."""
    for r in reports:
        if output == "json":
            body = json.dumps(r.as_dict(), indent=2, sort_keys=True).replace("\n", "\n  ")
            print("," if total else "[", "  " + body, sep="\n", end="")
        elif not r.passed:
            print(f"FAIL {r.check} {r.instance} witness={r.witness}")
        total[r.check] += 1
        if not r.passed:
            failed[r.check] += 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_graph = sub.add_parser("graph", help="graph constructions")
    p_graph.add_argument("action", choices=["build", "complement", "whisker", "whisker-except", "cliques"])
    p_graph.add_argument("--input", help="edge list or graph JSON file")
    p_graph.add_argument("--name", help="named graph (k3, p4, c5, e2)")
    p_graph.add_argument("--vertex", type=int, help="vertex spared by whisker-except")
    p_graph.add_argument("--output", choices=["json", "table"], default="table")

    p_ring = sub.add_parser("ring", help="Stanley-Reisner invariants")
    p_ring.add_argument("action", choices=["invariants"])
    p_ring.add_argument("--input", help="presentation JSON file")
    p_ring.add_argument("--name", help="ring shortcut (sigma:k3, kprime:p3, ex54R, ...)")
    p_ring.add_argument("--field", help="q or fp:<p>; default evaluates both q and fp:2")
    p_ring.add_argument("--output", choices=["json", "table"], default="json")

    p_artin = sub.add_parser("artin", help="truncated local algebra analysis")
    p_artin.add_argument("--input", help="presentation JSON file")
    p_artin.add_argument("--name", help="ring shortcut")
    p_artin.add_argument("--field", help="q or fp:<p>; default: the file's field, q for --name")
    p_artin.add_argument("--trunc", type=int, default=3)
    p_artin.add_argument("--mode", choices=["necessary", "full"], default="necessary")
    p_artin.add_argument("--output", choices=["json", "table"], default="json")

    p_res = sub.add_parser("resolve", help="homological invariants of a module")
    p_res.add_argument("--input", help="presentation JSON file")
    p_res.add_argument("--name", help="ring shortcut")
    p_res.add_argument("--field", help="q or fp:<p>; default: the file's field, q for --name")
    p_res.add_argument("--trunc", type=int, default=6)
    p_res.add_argument("--module", default="k", help="k | free | canonical | cyclic:<var,var,...>")
    p_res.add_argument("--bound", type=int, default=6)
    p_res.add_argument("--output", choices=["json", "table"], default="json")

    p_ver = sub.add_parser("verify", help="theorem suites")
    p_ver.add_argument("suite", choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--max-n", type=int, default=5, dest="max_n")
    p_ver.add_argument("--field", help="q or fp:<p>; default runs both")
    p_ver.add_argument("--bound", type=int, default=6)
    p_ver.add_argument("--threads", type=int, default=1)
    p_ver.add_argument("--output", choices=["json", "table"], default="table")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "graph": _cmd_graph,
        "ring": _cmd_ring,
        "artin": _cmd_artin,
        "resolve": _cmd_resolve,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
