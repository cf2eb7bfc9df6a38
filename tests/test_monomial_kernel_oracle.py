"""``monomial_divides``, ``contains`` and ``polarize`` against brute force.

The oracles below are written out by definition and call no ringlab code:
divisibility entry by entry, membership as "some generator divides m", and
the polarization as sets of variable names, x^e becoming x x' ... x^(e-1
primes).  They run on seeded random ideals with exponents up to 3 and on the
zero ideal; the input refusals of ``contains`` are pinned alongside.
"""

import random
from fractions import Fraction

import pytest

from ringlab.monomials import MonomialIdeal, contains, monomial_divides, polarize


def divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def member(gens, m) -> bool:
    return any(divides(g, m) for g in gens)


def polarization(ambient, gens):
    """(ambient, generators as sets of names) of the standard polarization."""
    mults = [max([g[k] for g in gens], default=0) for k in range(len(ambient))]
    fresh = [name + "'" * j for name, d in zip(ambient, mults) for j in range(1, d)]
    named = set()
    for g in gens:
        names = set()
        for name, e in zip(ambient, g):
            names.update(name + "'" * j for j in range(e))
        named.add(frozenset(names))
    return tuple(ambient) + tuple(fresh), named


def random_ideals(seed: int, trials: int):
    rng = random.Random(seed)
    for trial in range(trials):
        nv = rng.randint(1, 5)
        ambient = [f"x{k}" for k in range(1, nv + 1)]
        if trial % 10 == 0:
            yield MonomialIdeal(ambient, [])
            continue
        raw = [tuple(rng.randint(0, 3) for _ in range(nv)) for _ in range(rng.randint(1, 6))]
        yield MonomialIdeal(ambient, [g for g in raw if any(g)])


def test_kernels_against_brute_force():
    rng = random.Random(35)
    for ideal in random_ideals(35, 600):
        nv = ideal.nvars
        probes = [tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(8)]
        probes += [tuple(min(e + rng.randint(0, 1), 4) for e in g) for g in ideal.gens]
        probes += [tuple(max(e - 1, 0) for e in g) for g in ideal.gens]
        for m in probes:
            assert contains(ideal, m) == member(ideal.gens, m), (ideal, m)
            for g in ideal.gens:
                assert monomial_divides(g, m) == divides(g, m)
                assert monomial_divides(m, g) == divides(m, g)
        pol = polarize(ideal)
        ambient, named = polarization(ideal.ambient, ideal.gens)
        assert pol.ambient == ambient
        got = {frozenset(name for name, e in zip(pol.ambient, g) if e) for g in pol.gens}
        assert got == named and len(pol.gens) == len(ideal.gens)
        assert all(e in (0, 1) for g in pol.gens for e in g)
        # a minimal set polarizes to a minimal set
        assert not any(a < b for a in got for b in got)
        if all(e <= 1 for g in ideal.gens for e in g):
            assert pol == ideal


@pytest.mark.parametrize(
    "bad, message",
    [
        ((2.5, 1), "exponent 2.5 is not an integer"),
        ((Fraction(5, 2), 1), r"exponent Fraction\(5, 2\) is not an integer"),
        (("1", 1), "exponent '1' is not an integer"),
        ((-1, 2), "negative exponent"),
        ((1,), "monomial has wrong ambient"),
        ((1, 1, 0), "monomial has wrong ambient"),
    ],
    ids=["float", "fraction", "string", "negative", "short", "long"],
)
def test_contains_refusals_are_unchanged(bad, message):
    for ideal in (MonomialIdeal(["x", "y"], [(1, 1)]), MonomialIdeal(["x", "y"], [])):
        with pytest.raises(ValueError, match=message):
            contains(ideal, bad)
