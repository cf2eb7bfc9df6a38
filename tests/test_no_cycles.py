"""The theorem checks and the module engine leave no reference cycle behind.

Garbage in a cycle lives until the cyclic collector runs, and a collection
lands on whichever item happens to allocate next.  Each check below runs
with the collector off and ``gc.DEBUG_SAVEALL`` on, so a final collection
keeps every object it would have freed in ``gc.garbage``, which must stay
empty.  The library is called directly: the CLI's ``json.dumps(indent=2)``
makes cycles of its own.
"""

import gc

import pytest

from ringlab.artin import canonical_module, truncate
from ringlab.constructions import edge_ideal_all_squares, named_graph, stanley_example_big_ring
from ringlab.fields import GF2, QQ
from ringlab.graphs import enumerate_graphs
from ringlab.modules import (
    bass_truncation,
    free_module,
    is_semidualizing_up_to,
    is_totally_reflexive_up_to,
    minimal_resolution,
    residue_field,
)
from ringlab.monomials import MonomialIdeal, Presentation, edge_ideal, parse_poly, presentation_of
from ringlab.sr_invariants import depth
from ringlab.verify import (
    check_gorenstein_exclusion,
    run_socle_clique_corpus,
    run_theorem_A_corpus,
    run_theorem_B_corpus,
)


def _pres(vars_, gens, field=GF2):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


def criterion_10_fixtures():
    return [
        truncate(_pres(["x"], ["x^2"]), 2),
        truncate(_pres(["x", "y"], ["x^2", "y^2"]), 3),
        truncate(_pres(["x", "y"], ["x^2", "x*y", "y^2"]), 2),
        truncate(presentation_of(edge_ideal_all_squares(named_graph("p3")), GF2), 4),
        truncate(stanley_example_big_ring(GF2), 3),
    ]


def _c5_and_twin():
    c5 = edge_ideal(named_graph("c5"))
    return c5, MonomialIdeal(c5.ambient, c5.gens)


def _semidualizing(a):
    return is_semidualizing_up_to(free_module(a), 4) and is_semidualizing_up_to(canonical_module(a), 4)


CHECKS = {
    "thmA": lambda: run_theorem_A_corpus(4),
    "thmB": lambda: run_theorem_B_corpus(4),
    "socle-clique": lambda: run_socle_clique_corpus(4),
    "gorenstein": lambda: check_gorenstein_exclusion([g for n in range(1, 5) for g in enumerate_graphs(n)]),
    # C5's flag complex has no shedding certificate, so depth runs the Hochster
    # scan; the twin built from the generators polarizes through the body
    "hochster-c5": lambda: [depth(i, f) for i in _c5_and_twin() for f in (QQ, GF2)],
    "minimal_resolution": lambda: [minimal_resolution(residue_field(a), 6) for a in criterion_10_fixtures()],
    "bass_truncation": lambda: [bass_truncation(a, residue_field(a), 4) for a in criterion_10_fixtures()],
    "is_semidualizing_up_to": lambda: [_semidualizing(a) for a in criterion_10_fixtures()],
    "is_totally_reflexive_up_to": lambda: [
        is_totally_reflexive_up_to(m, 3) for a in criterion_10_fixtures() for m in (residue_field(a), free_module(a))
    ],
}


@pytest.mark.parametrize("name", CHECKS)
def test_a_check_leaves_nothing_for_the_collector(name):
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        CHECKS[name]()
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert left == []
