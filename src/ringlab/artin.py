"""Truncated local algebras A = k[x_1..x_n] / (I + m^N) with explicit basis
and multiplication, plus socle, Hilbert-function, Gorenstein and
decomposability analysis.

Monomial presentations take a fast path (the basis is the set of standard
monomials below the truncation order, found by breadth-first multiplication);
general presentations row-reduce the relation space and read the basis off
the non-pivot columns.  Standard monomials are taken against the graded
lexicographic order with the leading term the largest monomial, so the basis
is closed under division - several engines rely on that.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .linalg import Matrix, Subspace
from .monomials import (
    Monomial,
    Presentation,
    format_monomial,
    monomial_degree,
    monomial_divides,
    monomial_mul,
)

_FULL_VERIFY_DIM = 60


def _mono_key(m: Monomial):
    return (monomial_degree(m), tuple(-e for e in m))


class LocalAlgebra:
    """A finite-dimensional commutative local algebra over an exact field.

    Not constructed directly; use :func:`truncate`.
    """

    def __init__(self, field, names, trunc_order, basis, reductions, presentation, monomial_path):
        self.field = field
        self.var_names = tuple(names)
        self.trunc_order = trunc_order
        self.basis_monomials = tuple(basis)  # ascending (degree, -lex)
        self.index = {m: k for k, m in enumerate(basis)}
        self.dim_k = len(basis)
        self._reductions = reductions  # pivot monomial -> dense NF vector over the basis
        self.presentation = presentation
        self._monomial_path = monomial_path
        self._products: dict[tuple[int, int], tuple] = {}
        self._var_sparse: list[list[tuple[int, object]] | None] = [None] * len(names)
        self._var_matrices: list[Matrix | None] = [None] * len(names)
        self._powers: list[Subspace] | None = None
        self._parents: list[tuple[int, int] | None] | None = None
        self.var_images = tuple(self._normal_form_monomial(self._var_monomial(k)) for k in range(len(names)))
        self.filtration = self._compute_filtration()
        self._verify_structure()

    # -- basic element helpers ------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def zero_vector(self) -> tuple:
        return (self.field.zero(),) * self.dim_k

    def unit_vector(self) -> tuple:
        vec = [self.field.zero()] * self.dim_k
        vec[self.index[(0,) * self.nvars]] = self.field.one()
        return tuple(vec)

    def _var_monomial(self, k: int) -> Monomial:
        e = [0] * self.nvars
        e[k] = 1
        return tuple(e)

    def _normal_form_monomial(self, mono: Monomial) -> tuple:
        """NF of an ambient monomial as a dense vector over the basis."""
        vec = [self.field.zero()] * self.dim_k
        if monomial_degree(mono) >= self.trunc_order:
            return tuple(vec)
        if mono in self.index:
            vec[self.index[mono]] = self.field.one()
            return tuple(vec)
        red = self._reductions.get(mono)
        if red is None:
            return tuple(vec)  # monomial lies in the ideal
        return red

    def product_mono(self, i: int, j: int) -> tuple:
        """Sparse product of two basis elements: ((index, coeff), ...)."""
        if i > j:
            i, j = j, i
        cached = self._products.get((i, j))
        if cached is not None:
            return cached
        w = monomial_mul(self.basis_monomials[i], self.basis_monomials[j])
        nf = self._normal_form_monomial(w)
        sparse = tuple((k, c) for k, c in enumerate(nf) if c)
        self._products[(i, j)] = sparse
        return sparse

    def multiply(self, u, v) -> tuple:
        f = self.field
        out = [f.zero()] * self.dim_k
        nz_u = [(i, a) for i, a in enumerate(u) if a]
        nz_v = [(j, b) for j, b in enumerate(v) if b]
        for i, a in nz_u:
            for j, b in nz_v:
                ab = f.mul(a, b)
                for k, c in self.product_mono(i, j):
                    out[k] = f.add(out[k], f.mul(ab, c))
        return tuple(out)

    def var_sparse(self, k: int) -> list[tuple[int, object]]:
        """Multiplication by variable k as sparse columns: entry list per basis index."""
        if self._var_sparse[k] is None:
            img = self.var_images[k]
            cols = []
            for j in range(self.dim_k):
                acc = {}
                for i, a in enumerate(img):
                    if not a:
                        continue
                    for t, c in self.product_mono(i, j):
                        acc[t] = self.field.add(acc.get(t, self.field.zero()), self.field.mul(a, c))
                cols.append([(t, c) for t, c in sorted(acc.items()) if c])
            self._var_sparse[k] = cols
        return self._var_sparse[k]

    def var_multiply(self, k: int, vec) -> tuple:
        f = self.field
        out = [f.zero()] * self.dim_k
        cols = self.var_sparse(k)
        for j, b in enumerate(vec):
            if not b:
                continue
            for t, c in cols[j]:
                out[t] = f.add(out[t], f.mul(b, c))
        return tuple(out)

    def var_action_matrix(self, k: int) -> Matrix:
        if self._var_matrices[k] is None:
            cols = self.var_sparse(k)
            rows = [[self.field.zero()] * self.dim_k for _ in range(self.dim_k)]
            for j, col in enumerate(cols):
                for t, c in col:
                    rows[t][j] = c
            self._var_matrices[k] = Matrix(self.field, rows, self.dim_k)
        return self._var_matrices[k]

    def basis_parents(self) -> list[tuple[int, int] | None]:
        """For each basis monomial, a (variable, smaller basis index) factorization."""
        if self._parents is None:
            parents: list[tuple[int, int] | None] = []
            for m in self.basis_monomials:
                if monomial_degree(m) == 0:
                    parents.append(None)
                    continue
                k = next(idx for idx, e in enumerate(m) if e)
                reduced = list(m)
                reduced[k] -= 1
                parents.append((k, self.index[tuple(reduced)]))
            self._parents = parents
        return self._parents

    def element_from_linear(self, coeffs: dict[str, object]) -> tuple:
        f = self.field
        vec = [f.zero()] * self.dim_k
        for name, c in coeffs.items():
            k = self.var_names.index(name)
            c = f.coerce(c)
            for i, a in enumerate(self.var_images[k]):
                if a:
                    vec[i] = f.add(vec[i], f.mul(c, a))
        return tuple(vec)

    def format_element(self, vec) -> str:
        parts = []
        for i, c in enumerate(vec):
            if not c:
                continue
            mono = format_monomial(self.var_names, self.basis_monomials[i])
            parts.append(mono if c == self.field.one() else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"

    # -- filtration ------------------------------------------------------------

    def power_subspace(self, j: int) -> Subspace:
        self._ensure_powers()
        j = min(j, len(self._powers) - 1)
        return self._powers[j]

    def _ensure_powers(self) -> None:
        if self._powers is not None:
            return
        full = Subspace(self.field, self.dim_k)
        for t in range(self.dim_k):
            vec = [self.field.zero()] * self.dim_k
            vec[t] = self.field.one()
            full.add(vec)
        powers = [full]
        # m = sum of x_i * A, then m^(j+1) = sum of x_i * m^j
        current_rows = [self._basis_vec(t) for t in range(self.dim_k)]
        while True:
            nxt = Subspace(self.field, self.dim_k)
            for row in current_rows:
                for k in range(self.nvars):
                    nxt.add(self.var_multiply(k, row))
            powers.append(nxt)
            if nxt.dim == 0:
                break
            current_rows = nxt.basis_rows()
        self._powers = powers

    def _compute_filtration(self) -> tuple:
        if self._monomial_path:
            dims = []
            j = 0
            while True:
                dim = sum(1 for m in self.basis_monomials if monomial_degree(m) >= j)
                dims.append(dim)
                if dim == 0:
                    break
                j += 1
            return tuple(dims)
        self._ensure_powers()
        return tuple(s.dim for s in self._powers)

    # -- construction-time verification -----------------------------------------

    def _verify_structure(self) -> None:
        f = self.field
        unit = self.unit_vector()
        for j in range(min(self.dim_k, 20)):
            e = [f.zero()] * self.dim_k
            e[j] = f.one()
            if self.multiply(unit, tuple(e)) != tuple(e):
                raise AssertionError("unit law fails")
        d = self.dim_k
        if not self._monomial_path and d <= _FULL_VERIFY_DIM:
            triples = itertools.product(range(d), repeat=3)
        else:
            # monomial products are structurally associative and general tables
            # above the exhaustive bound are rare; sample as a guard
            rng = random.Random(0)
            count = 1000 if not self._monomial_path else 30
            triples = ((rng.randrange(d), rng.randrange(d), rng.randrange(d)) for _ in range(count))
        for i, j, k in triples:
            ei = self._basis_vec(i)
            ej = self._basis_vec(j)
            ek = self._basis_vec(k)
            left = self.multiply(self.multiply(ei, ej), ek)
            right = self.multiply(ei, self.multiply(ej, ek))
            if left != right:
                raise AssertionError(f"associativity fails at basis triple {(i, j, k)}")
        if not all(self.filtration[t] >= self.filtration[t + 1] for t in range(len(self.filtration) - 1)):
            raise AssertionError("filtration is not weakly decreasing")
        if self.filtration[-1] != 0:
            raise AssertionError("maximal ideal is not nilpotent at the truncation order")

    def _basis_vec(self, i: int) -> tuple:
        vec = [self.field.zero()] * self.dim_k
        vec[i] = self.field.one()
        return tuple(vec)

    def __repr__(self) -> str:
        gens = ", ".join(self.presentation.gen_strings()) or "0"
        return (
            f"LocalAlgebra({self.field}[{', '.join(self.var_names)}]/({gens}) "
            f"mod m^{self.trunc_order}, dim {self.dim_k})"
        )


@dataclass(frozen=True)
class LinearForm:
    """A degree-one element of a local algebra, kept with its coefficients."""

    coeffs: tuple  # ((variable name, scalar), ...)
    vector: tuple


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def truncate(p: Presentation, n: int) -> LocalAlgebra:
    """Build k[vars]/(gens + m^n) as an explicit algebra.

    Args:
        p: presentation with generators in the maximal ideal.
        n: truncation order, at least 1.
    """
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    if p.is_monomial():
        return _truncate_monomial(p, n)
    return _truncate_general(p, n)


def _truncate_monomial(p: Presentation, n: int) -> LocalAlgebra:
    gens = [next(iter(g.terms)) for g in p.gens]
    nv = p.nvars
    seen = {(0,) * nv}
    frontier = [(0,) * nv]
    while frontier:
        nxt = []
        for m in frontier:
            if monomial_degree(m) + 1 >= n:
                continue
            for k in range(nv):
                cand = list(m)
                cand[k] += 1
                cand = tuple(cand)
                if cand in seen:
                    continue
                if any(monomial_divides(g, cand) for g in gens):
                    continue
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
    basis = sorted(seen, key=_mono_key)
    return LocalAlgebra(p.field, p.ambient, n, basis, {}, p, True)


def _truncate_general(p: Presentation, n: int) -> LocalAlgebra:
    f = p.field
    nv = p.nvars
    monomials = sorted(_monomials_below(nv, n), key=_mono_key)
    pos = {m: i for i, m in enumerate(monomials)}
    count = len(monomials)
    # relation rows: every monomial multiple of every generator, truncated
    rows = []
    for g in p.gens:
        min_deg = g.min_degree()
        for u in monomials:
            if monomial_degree(u) + min_deg >= n:
                continue
            prod = g.mul_monomial(u).truncate_below(n)
            if prod.is_zero():
                continue
            row = [f.zero()] * count
            for mono, c in prod.terms.items():
                row[pos[mono]] = c
            rows.append(row)
    # pivot on the largest monomial: reverse the column order for the rref
    rev = [list(reversed(r)) for r in rows]
    reduced, pivots = Matrix(f, rev, count).rref()
    pivot_monos = [count - 1 - c for c in pivots]
    pivot_set = set(pivot_monos)
    basis = [m for i, m in enumerate(monomials) if i not in pivot_set]
    basis_pos = {m: i for i, m in enumerate(basis)}
    reductions = {}
    for r, c in enumerate(pivots):
        mono = monomials[count - 1 - c]
        vec = [f.zero()] * len(basis)
        row = reduced.row(r)
        for cc in range(c + 1, count):
            coeff = row[cc]
            if coeff:
                other = monomials[count - 1 - cc]
                vec[basis_pos[other]] = f.neg(coeff)
        reductions[mono] = tuple(vec)
    return LocalAlgebra(f, p.ambient, n, basis, reductions, p, False)


def _monomials_below(nv: int, n: int):
    """All exponent tuples of total degree < n."""
    if nv == 0:
        yield ()
        return

    def rec(prefix, remaining, budget):
        if remaining == 1:
            for e in range(budget + 1):
                yield tuple(prefix + [e])
            return
        for e in range(budget + 1):
            yield from rec(prefix + [e], remaining - 1, budget - e)

    yield from rec([], nv, n - 1)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def socle(a: LocalAlgebra) -> list[tuple]:
    """Basis of { z : x z = 0 for every variable x }.

    For a monomial algebra the answer is a set of basis monomials; in general
    it is the kernel of the stacked variable actions.
    """
    if a._monomial_path:
        out = []
        for j in range(a.dim_k):
            vec = a._basis_vec(j)
            if all(not any(a.var_multiply(k, vec)) for k in range(a.nvars)):
                out.append(vec)
        return out
    stacked_rows = []
    for k in range(a.nvars):
        stacked_rows.extend(a.var_action_matrix(k).rows())
    stacked = Matrix(a.field, stacked_rows, a.dim_k)
    return [tuple(v) for v in stacked.kernel_basis()]


def socle_monomials(a: LocalAlgebra) -> list[Monomial]:
    """The socle basis as monomials (monomial algebras only)."""
    if not a._monomial_path:
        raise ValueError("socle monomials are only defined for monomial algebras")
    out = []
    for vec in socle(a):
        idx = next(i for i, c in enumerate(vec) if c)
        out.append(a.basis_monomials[idx])
    return out


def hilbert_function(a: LocalAlgebra) -> list[int]:
    """Dimensions of m^j / m^(j+1); the entries sum to dim_k."""
    filt = a.filtration
    return [filt[j] - filt[j + 1] for j in range(len(filt) - 1)]


def is_gorenstein_artinian(a: LocalAlgebra) -> bool:
    """Socle dimension one, for an algebra that is the full (untruncated) ring.

    For monomial presentations we verify that precondition exactly: every
    monomial of degree equal to the truncation order must lie in the ideal.
    Non-monomial callers assert it themselves.
    """
    if a.presentation.is_monomial():
        gens = [next(iter(g.terms)) for g in a.presentation.gens]
        for m in _monomials_of_degree(a.nvars, a.trunc_order):
            if not any(monomial_divides(g, m) for g in gens):
                raise ValueError(
                    "truncation order cuts the ring: monomial "
                    f"{format_monomial(a.var_names, m)} survives; not a full artinian ring"
                )
    return len(socle(a)) == 1


def _monomials_of_degree(nv: int, deg: int):
    if nv == 1:
        yield (deg,)
        return
    for e in range(deg + 1):
        for rest in _monomials_of_degree(nv - 1, deg - e):
            yield (e,) + rest


def canonical_module(a: LocalAlgebra):
    """Hom_k(A, k) with the contragredient action: the dualizing module."""
    from .modules import FPModule

    actions = [a.var_action_matrix(k).transpose() for k in range(a.nvars)]
    return FPModule(a, a.dim_k, actions, label="canonical")


def ideal_direct_sum_check(a: LocalAlgebra, gens1, gens2) -> bool:
    """Do (gens1) and (gens2) decompose m as a direct sum of nonzero ideals?"""
    m_space = a.power_subspace(1)
    for vec in list(gens1) + list(gens2):
        if not m_space.contains(vec):
            raise ValueError("generators must lie in the maximal ideal")
    ideal1 = _ideal_span(a, gens1)
    ideal2 = _ideal_span(a, gens2)
    if ideal1.dim == 0 or ideal2.dim == 0:
        return False
    total = Subspace(a.field, a.dim_k)
    for row in ideal1.basis_rows():
        total.add(row)
    for row in ideal2.basis_rows():
        total.add(row)
    return ideal1.dim + ideal2.dim == m_space.dim and total.dim == m_space.dim


def _ideal_span(a: LocalAlgebra, gens) -> Subspace:
    span = Subspace(a.field, a.dim_k)
    for g in gens:
        span.add(g)
    # close under the variable actions until the dimension stabilizes
    while True:
        before = span.dim
        for row in span.basis_rows():
            for k in range(a.nvars):
                span.add(a.var_multiply(k, row))
        if span.dim == before:
            return span


def pair_decomposition_search(a: LocalAlgebra, mode: str = "necessary"):
    """Search for linear forms alpha, alpha' with alpha * alpha' = 0.

    mode="necessary" returns the first linearly independent pair with zero
    product; mode="full" additionally demands m = alpha A + alpha' A with zero
    intersection, which certifies that m is decomposable.  The search space is
    the projective line set of m/m^2, enumerated exhaustively, so the field
    must be finite.
    """
    if mode not in ("necessary", "full"):
        raise ValueError("mode must be 'necessary' or 'full'")
    if a.field.is_rational:
        raise ValueError("exhaustive search needs a finite field; over q it is unavailable")
    p = a.field.p
    hil = hilbert_function(a)
    e = hil[1] if len(hil) > 1 else 0
    if e == 0:
        return None
    if (p**e - 1) // (p - 1) > 400:
        raise ValueError("projective search space exceeds 400 lines")
    # pick variables whose images form a basis of m/m^2
    m2 = a.power_subspace(2)
    probe = Subspace(a.field, a.dim_k)
    for row in m2.basis_rows():
        probe.add(row)
    pivot_vars = []
    for k, name in enumerate(a.var_names):
        if probe.add(a.var_images[k]):
            pivot_vars.append(k)
    assert len(pivot_vars) == e
    lines = []
    for coeffs in itertools.product(range(p), repeat=e):
        nz = next((c for c in coeffs if c), None)
        if nz != 1:
            continue
        vec = a.zero_vector()
        named = []
        for c, k in zip(coeffs, pivot_vars):
            if c:
                named.append((a.var_names[k], c))
                vec = tuple(a.field.add(x, a.field.mul(c, y)) for x, y in zip(vec, a.var_images[k]))
        lines.append(LinearForm(tuple(named), vec))
    zero = a.zero_vector()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            alpha, beta = lines[i], lines[j]
            if a.multiply(alpha.vector, beta.vector) != zero:
                continue
            if mode == "necessary":
                return alpha, beta
            if ideal_direct_sum_check(a, [alpha.vector], [beta.vector]):
                return alpha, beta
    return None
