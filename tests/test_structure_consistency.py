"""Cross-module consistency slices on concrete rings.

Desk-scale spot checks that the separately computed invariants tell one
coherent story: the decomposable-ring Ext-vanishing exclusions, the
hypersurface/multiplicity facts, and the indecomposability evidence for the
ring carrying the totally reflexive module.
"""

from ringlab.artin import canonical_module, pair_decomposition_search, socle, truncate
from ringlab.constructions import (
    edge_ideal_all_squares,
    named_graph,
    stanley_example_big_ring,
)
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.graphs import Graph
from ringlab.modules import ext, free_module, poincare_truncation, residue_field
from ringlab.monomials import (
    MonomialIdeal,
    edge_ideal,
    presentation_of,
    variable_partition_decomposable,
)
from ringlab.sr_invariants import cohen_macaulay_witness_fields, depth, krull_dim, multiplicity

GF3 = FieldSpec.prime(3)


def test_decomposable_ring_blocks_consecutive_ext_vanishing():
    """Over a ring with decomposable maximal ideal that is not Gorenstein,
    no module of infinite projective dimension (nor one of finite injective
    dimension, e.g. the canonical module) can have two consecutive
    Ext-i-into-the-ring vanishings at i >= 5."""
    a = truncate(presentation_of(edge_ideal_all_squares(Graph.from_edges(2, [(1, 2)])), GF2), 3)
    # this is k[v1,v2]/(v1 v2, v1^2, v2^2): decomposable, socle dim 2
    assert variable_partition_decomposable(edge_ideal_all_squares(Graph.from_edges(2, [(1, 2)]))) is not None
    assert len(socle(a)) == 2
    free = free_module(a)
    for module in (residue_field(a), canonical_module(a)):
        betti = poincare_truncation(module, 7)
        assert all(b > 0 for b in betti)  # no finite free resolution in range
        assert not (ext(module, free, 5) == 0 and ext(module, free, 6) == 0)


def test_quasi_decomposable_instance_same_exclusion():
    """The vertex-square quotient of the path is a fiber product ring (for an
    artinian ring quasi-decomposable and decomposable coincide: there are no
    regular elements); the same Ext-vanishing exclusion holds on a window."""
    kp = edge_ideal_all_squares(named_graph("p3"))
    assert variable_partition_decomposable(kp) is not None
    a = truncate(presentation_of(kp, GF2), 4)
    assert len(socle(a)) == 2
    free = free_module(a)
    k = residue_field(a)
    assert all(b > 0 for b in poincare_truncation(k, 5))
    assert not (ext(k, free, 3) == 0 and ext(k, free, 4) == 0)


def test_one_dimensional_hypersurface_fiber_product():
    """k[x,y]/(xy): the decomposable Gorenstein shape - dimension one,
    Cohen-Macaulay, multiplicity exactly two, variables split the ideal."""
    i = edge_ideal(Graph.from_edges(2, [(1, 2)]), ["x", "y"])
    assert krull_dim(i) == 1
    assert depth(i, QQ) == 1 and depth(i, GF2) == 1
    assert cohen_macaulay_witness_fields(i, (QQ,))[QQ] is None
    assert multiplicity(i) == 2
    split = variable_partition_decomposable(i)
    assert {split[0], split[1]} == {frozenset({"x"}), frozenset({"y"})}


def test_regular_ring_quotient_mechanism():
    """The regular 2-dimensional ring modulo the product of its parameters is
    a fiber product; with extra variables the same quotient is not."""
    two = MonomialIdeal(["x", "y"], [(1, 1)])
    assert variable_partition_decomposable(two) is not None
    three = MonomialIdeal(["x", "y", "z"], [(1, 1, 0)])
    assert variable_partition_decomposable(three) is None


def test_multiplicity_of_regular_ring_is_one():
    assert multiplicity(MonomialIdeal(["x", "y", "z"], [])) == 1


def test_reflexive_example_ring_shows_no_decomposition():
    """The ring carrying the periodic totally reflexive module: no variable
    partition splits it and the exhaustive principal-pair search fails in
    full mode, consistent with its maximal ideal being indecomposable."""
    from ringlab.monomials import to_monomial_ideal

    big = stanley_example_big_ring(GF3)
    assert variable_partition_decomposable(to_monomial_ideal(big)) is None
    a = truncate(big, 3)
    assert pair_decomposition_search(a, mode="full") is None
    # the necessary condition alone does hold (x*y = 0 with x, y independent),
    # which is exactly why it is only necessary
    assert pair_decomposition_search(a, mode="necessary") is not None
