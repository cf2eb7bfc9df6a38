"""Ideals with generators of every degree answer as brute force does.

Every ``MonomialIdeal`` keeps its squarefree quadrics as neighbour masks, its
squares as a mask and its other generators (degree 1 or >= 3) as exponent
tuples.  Seeded random ideals with generators of degree 1-4 in at most five
variables check each operation that reads that form against a brute force
on the generators: membership by divisibility, the textbook polarization,
substitution followed by minimalization, the pair masks, the variable split,
the f-vector and the Krull dimension by subset enumeration.
"""

import random
from itertools import combinations, product

import pytest
from test_graph_scan_oracle import random_map, reference_polarization, reference_substitution

from ringlab.monomials import (
    MonomialIdeal,
    _pair_mask,
    contains,
    monomial_divides,
    polarize,
    substitute_ideal,
    variable_partition_decomposable,
)
from ringlab.sr_invariants import f_vector, krull_dim

IDEALS = 2000
# the f-vector is enumerated over the polarization's subsets up to this size
MAX_F_VARS = 12


def random_generators(rng: random.Random) -> tuple:
    """(names, exponent tuples): 0-6 generators of degree 1-4 in 1-5 variables."""
    n = rng.randint(1, 5)
    gens = []
    for _ in range(rng.randint(0, 6)):
        e = [0] * n
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(n)] += 1
        gens.append(tuple(e))
    return list("abcde"[:n]), gens


def minimal(gens) -> frozenset:
    gens = set(gens)
    return frozenset(g for g in gens if not any(h != g and monomial_divides(h, g) for h in gens))


def member(gens, m) -> bool:
    return any(monomial_divides(g, m) for g in gens)


def faces(nvars: int, gens):
    """Every subset of the variables that holds the support of no generator,
    as a tuple of variable indices."""
    supports = [frozenset(k for k, e in enumerate(g) if e) for g in gens]
    for size in range(nvars + 1):
        for face in combinations(range(nvars), size):
            if not any(s <= set(face) for s in supports):
                yield face


def pair_mask(ideal, k: int) -> int:
    mask = 0
    for j in range(ideal.nvars):
        e = [0] * ideal.nvars
        e[k] += 1
        e[j] += 1
        mask |= member(ideal.gens, e) << j
    return mask


def split(ideal):
    """The brute-force variable split: the component of the last variable in
    the graph joining a and b when x_a x_b lies outside the ideal."""
    n = ideal.nvars
    if n <= 1:
        return None
    masks = [pair_mask(ideal, a) for a in range(n)]
    comp, grow = set(), {n - 1}
    while grow:
        comp |= grow
        grow = {b for a in grow for b in range(n) if b not in comp and not masks[a] >> b & 1}
    if len(comp) == n:
        return None
    return frozenset(ideal.ambient[k] for k in comp), frozenset(ideal.ambient[k] for k in range(n) if k not in comp)


def check(ideal: MonomialIdeal, raw, rng: random.Random) -> None:
    n, gens = ideal.nvars, ideal.gens
    assert gens == minimal(raw)
    for m in product(range(3), repeat=n):
        assert contains(ideal, m) == member(gens, m), (ideal, m)
    pol = polarize(ideal)
    assert (pol.ambient, pol.gens) == reference_polarization(ideal), ideal
    assert ideal._polarized_nvars() == pol.nvars
    assert ideal.is_squarefree() == (pol is ideal) == all(e <= 1 for g in gens for e in g)
    assert ideal._max_degree() == max(map(sum, gens), default=0)
    for mapping in (random_map(ideal.ambient, rng), random_map(ideal.ambient, rng)):
        image = substitute_ideal(ideal, mapping)
        assert (image.ambient, image.gens) == reference_substitution(ideal, mapping), (ideal, mapping)
    for k in range(n):
        assert _pair_mask(ideal, k) == pair_mask(ideal, k), (ideal, k)
    if any(sum(g) == 1 for g in gens):
        with pytest.raises(ValueError, match="a variable generates"):
            variable_partition_decomposable(ideal)
    else:
        assert variable_partition_decomposable(ideal) == split(ideal), ideal
    # the dimension is the largest face of the radical's complex
    assert krull_dim(ideal) == max(map(len, faces(n, gens))), ideal
    if pol.nvars <= MAX_F_VARS:
        sizes = [len(face) for face in faces(pol.nvars, pol.gens)]
        assert f_vector(pol) == tuple(sizes.count(s) for s in range(max(sizes) + 1)), ideal


def test_mixed_degree_ideals_answer_as_brute_force():
    rng = random.Random(54)
    linear = big = squares = 0
    for _ in range(IDEALS):
        names, raw = random_generators(rng)
        ideal = MonomialIdeal(names, raw)
        check(ideal, raw, rng)
        linear += any(sum(g) == 1 for g in ideal.gens)
        big += any(sum(g) >= 3 for g in ideal.gens)
        squares += ideal._squares != 0
    # the sample reaches every part of the form
    assert min(linear, big, squares) > IDEALS // 10


def test_non_minimal_input_is_minimalized_before_the_split():
    # x*y divides x^2*y and x divides x*z: the split sees only x and y*z^3
    ideal = MonomialIdeal("xyz", [(1, 1, 0), (2, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 3)])
    check(ideal, [(1, 1, 0), (2, 1, 0), (1, 0, 0), (1, 0, 1), (0, 1, 3)], random.Random(0))
    assert ideal._rest == {(1, 0, 0), (0, 1, 3)} and not any(ideal._graph) and not ideal._squares
