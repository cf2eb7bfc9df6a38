"""Module/homology engine tests, with an independent Ext oracle.

The oracle builds a deliberately non-minimal two-step free presentation (free
covers on every k-basis vector, not on minimal generators) and takes the
homology of its Hom complex directly.  It shares only the Matrix core with the
production path.
"""

import itertools
import random

import pytest

from ringlab.artin import canonical_module, socle, truncate
from ringlab.constructions import stanley_example_big_ring
from ringlab.fields import GF2, QQ, FieldSpec
from ringlab.linalg import Matrix
from ringlab.modules import (
    FPModule,
    bass_truncation,
    biduality_is_iso,
    cyclic_module,
    dual_module,
    ext,
    free_module,
    hom_module,
    is_semidualizing_up_to,
    is_totally_reflexive_up_to,
    minimal_resolution,
    poincare_truncation,
    residue_field,
    tor,
)
from ringlab.monomials import Presentation, parse_poly

GF3 = FieldSpec.prime(3)


def pres(vars_, gens, field=QQ):
    return Presentation(vars_, [parse_poly(vars_, g, field) for g in gens], field)


def dual_numbers(field=QQ):
    return truncate(pres(["x"], ["x^2"], field), 2)


def fat_point(field=QQ):
    return truncate(pres(["x", "y"], ["x^2", "x*y", "y^2"], field), 2)


def ci_algebra(field=QQ):
    return truncate(pres(["x", "y"], ["x^2", "y^2"], field), 3)


def ex54_ring(field=QQ):
    return truncate(stanley_example_big_ring(field), 3)


# -- constructors ----------------------------------------------------------------


def test_residue_field_basic():
    a = dual_numbers()
    k = residue_field(a)
    assert k.dim == 1 and k.label == "k"
    assert all(not any(row) for m in k.var_actions for row in m.rows())


def test_free_module_is_regular_representation():
    a = dual_numbers()
    f = free_module(a)
    assert f.dim == a.dim_k
    x = f.var_actions[0]
    assert x.apply(a.unit_vector()) == a.element_from_linear({"x": 1})


def test_cyclic_module_examples():
    r = ex54_ring()
    z = r.element_from_linear({"z": 1})
    m = cyclic_module(r, [z])
    assert m.dim == 3
    assert cyclic_module(r, []).dim == r.dim_k
    mm = [r._basis_vec(i) for i in range(1, r.dim_k)]
    assert cyclic_module(r, mm).dim == 1


def test_action_respects_table_sampled():
    r = ex54_ring(GF2)
    m = cyclic_module(r, [r.element_from_linear({"z": 1})])
    assert m.action_respects_table()
    assert free_module(r).action_respects_table()
    assert canonical_module(r).action_respects_table()


# -- resolutions -------------------------------------------------------------------


def test_betti_dual_numbers():
    assert poincare_truncation(residue_field(dual_numbers()), 5) == [1, 1, 1, 1, 1, 1]


def test_betti_fat_point_doubles():
    assert poincare_truncation(residue_field(fat_point()), 5) == [1, 2, 4, 8, 16, 32]


def test_betti_complete_intersection_linear():
    assert poincare_truncation(residue_field(ci_algebra()), 5) == [1, 2, 3, 4, 5, 6]


def test_betti_free_module():
    a = fat_point()
    assert poincare_truncation(free_module(a), 4) == [1, 0, 0, 0, 0]


def test_resolution_minimality_and_exactness():
    a = fat_point(GF2)
    res = minimal_resolution(residue_field(a), 4)
    unit = a.index[(0, 0)]
    for diff in res.differentials:
        for col in diff:
            for entry in col:
                assert entry[unit] == 0
    # consecutive differentials compose to zero over the algebra
    for t in range(1, len(res.differentials)):
        left = res.differentials[t - 1]  # maps F_t -> F_{t-1}
        right = res.differentials[t]  # maps F_{t+1} -> F_t
        beta_prev = res.betti[t - 1]
        for col in right:
            # apply the previous differential to this column over A
            total = [a.zero_vector() for _ in range(beta_prev)]
            for r_mid, entry in enumerate(col):
                for r_prev in range(beta_prev):
                    prod = a.multiply(left[r_mid][r_prev], entry)
                    total[r_prev] = tuple(
                        a.field.add(u, v) for u, v in zip(total[r_prev], prod)
                    )
            assert all(not any(vec) for vec in total)


def test_betti_monotone_for_k_over_singular_algebras():
    for a in (dual_numbers(), fat_point(), ci_algebra(), ex54_ring()):
        betti = poincare_truncation(residue_field(a), 5)
        assert all(betti[i + 1] >= betti[i] for i in range(5))


def test_poincare_cross_check_tor_route():
    a = fat_point(GF2)
    m = cyclic_module(a, [a.element_from_linear({"x": 1})])
    assert poincare_truncation(m, 4, cross_check=True)


def test_resolution_bound_cap():
    with pytest.raises(ValueError):
        minimal_resolution(residue_field(dual_numbers()), 13)


def test_zero_module_resolution():
    a = dual_numbers()
    z = FPModule(a, 0, [Matrix(a.field, [], 0) for _ in range(a.nvars)], label="0")
    assert poincare_truncation(z, 3) == [0, 0, 0, 0]


# -- poincare / bass -----------------------------------------------------------------


def test_ex54_module_is_periodic():
    r = ex54_ring()
    m = cyclic_module(r, [r.element_from_linear({"z": 1})])
    assert poincare_truncation(m, 6) == [1] * 7


def test_bass_gorenstein_artinian():
    a = dual_numbers()
    assert bass_truncation(a, free_module(a), 4) == [1, 0, 0, 0, 0]


def test_bass_first_coefficient_is_socle_dim():
    a = fat_point()
    assert bass_truncation(a, free_module(a), 2)[0] == len(socle(a)) == 2


def test_bass_of_canonical_is_delta():
    a = fat_point()
    omega = canonical_module(a)
    assert bass_truncation(a, omega, 4) == [1, 0, 0, 0, 0]
    r = ex54_ring(GF2)
    assert bass_truncation(r, canonical_module(r), 3) == [1, 0, 0, 0]


# -- ext / tor -----------------------------------------------------------------------


def test_ext_degree_zero_of_free():
    a = fat_point()
    n = cyclic_module(a, [a.element_from_linear({"x": 1})])
    assert ext(free_module(a), n, 0) == n.dim


def test_ext_k_k_dual_numbers():
    a = dual_numbers()
    k = residue_field(a)
    assert ext(k, k, 1) == 1


def test_tor_degree_zero_of_free():
    a = fat_point()
    n = cyclic_module(a, [a.element_from_linear({"y": 1})])
    assert tor(free_module(a), n, 0) == n.dim


def test_tor_k_k_equals_betti():
    a = fat_point(GF2)
    k = residue_field(a)
    assert [tor(k, k, i) for i in range(5)] == [1, 2, 4, 8, 16]
    b = dual_numbers()
    kb = residue_field(b)
    assert tor(kb, kb, 1) == 1


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
@pytest.mark.parametrize("make", [fat_point, ci_algebra], ids=["fat_point", "ci"])
def test_tor_is_symmetric(make, field):
    # tor(M, N) tensors a resolution of M with N and tor(N, M) one of N with M:
    # the two sides resolve different modules and read the block grid of the
    # differentials in transposed order
    a = make(field)
    modules = [residue_field(a), cyclic_module(a, [a.element_from_linear({"x": 1})]), canonical_module(a)]
    for i in range(4):
        for m, n in itertools.combinations(modules, 2):
            assert tor(m, n, i) == tor(n, m, i), (m, n, i)


def test_ext_mismatched_algebras():
    with pytest.raises(ValueError):
        ext(residue_field(dual_numbers()), residue_field(fat_point()), 0)


# -- duality --------------------------------------------------------------------------


def test_dual_of_free_is_free():
    a = fat_point()
    f = free_module(a)
    assert dual_module(f).dim == a.dim_k
    assert biduality_is_iso(f)


def test_dual_of_k_is_socle_sized():
    a = dual_numbers()
    k = residue_field(a)
    assert dual_module(k).dim == 1
    assert biduality_is_iso(k)


def test_k_not_reflexive_over_fat_point():
    a = fat_point()
    k = residue_field(a)
    assert dual_module(k).dim == 2  # Hom(k, A) = socle
    assert not biduality_is_iso(k)
    assert not is_totally_reflexive_up_to(k, 3)
    fa = free_module(a)
    assert ext(k, fa, 1) > 0


def test_free_modules_totally_reflexive():
    for a in (dual_numbers(), fat_point()):
        assert is_totally_reflexive_up_to(free_module(a), 4)


def test_hom_module_variable_only_matches_full_basis():
    # commuting with the variables equals commuting with every basis element
    a = ex54_ring(GF2)
    m = cyclic_module(a, [a.element_from_linear({"z": 1})])
    n = cyclic_module(a, [a.element_from_linear({"x": 1})])
    h, maps = hom_module(m, n)
    for phi in maps:
        for b in range(a.dim_k):
            left = phi.mul(m.basis_action(b))
            right = n.basis_action(b).mul(phi)
            assert left == right


# -- semidualizing ---------------------------------------------------------------------


def test_free_rank_one_semidualizing():
    for a in (dual_numbers(), fat_point(), ci_algebra()):
        assert is_semidualizing_up_to(free_module(a), 4)


def test_canonical_semidualizing_small():
    for a in (dual_numbers(), fat_point(), ci_algebra()):
        assert is_semidualizing_up_to(canonical_module(a), 4)


def test_k_not_semidualizing():
    a = fat_point()
    assert not is_semidualizing_up_to(residue_field(a), 2)


# -- the independent Ext oracle ---------------------------------------------------------


def _module_pool(algebra, rng):
    """A deterministic grab-bag of small modules over one algebra."""
    pool = [residue_field(algebra), free_module(algebra), canonical_module(algebra)]
    names = list(algebra.var_names)
    for name in names[: rng.randint(1, len(names))]:
        pool.append(cyclic_module(algebra, [algebra.element_from_linear({name: 1})]))
    pool.append(dual_module(pool[-1]))
    return pool


def test_ext_oracle_equivalence_small():
    from ext_oracle import ext_oracle

    rng = random.Random(2024)
    algebras = [
        dual_numbers(GF2),
        fat_point(GF3),
        ci_algebra(GF2),
        ex54_ring(GF2),
        dual_numbers(QQ),
    ]
    pairs = 0
    for a in algebras:
        pool = _module_pool(a, rng)
        for _ in range(3):
            m = pool[rng.randrange(len(pool))]
            n = pool[rng.randrange(len(pool))]
            for i in (0, 1):
                assert ext(m, n, i) == ext_oracle(m, n, i), (a, m.label, n.label, i)
            pairs += 1
    assert pairs >= 15


def test_ext_oracle_degree_two():
    from ext_oracle import ext_oracle

    a = fat_point(GF2)
    k = residue_field(a)
    f = free_module(a)
    assert ext_oracle(k, f, 2) == ext(k, f, 2)
    assert ext_oracle(k, k, 2) == ext(k, k, 2) == 4
