"""Truncated local algebras A = k[x_1..x_n] / (I + m^N) with explicit basis
and multiplication, plus socle, Hilbert-function, Gorenstein and
decomposability analysis.

Monomial presentations take a fast path, a walk on integer codes with one
base-(N + 1) digit per variable, so that m*x_k and c/x_j are one addition or
subtraction.  Degree by degree it forms each candidate c once, as m*x_k with
k at or after m's last variable, keeps it iff it is no generator and every
c/x_j is standard, and marks those c/x_j: the unmarked basis monomials are
the socle.  The filtration and the cut-ring check are read off the basis.
General presentations take every monomial below the order from the same
walk, run with no generator codes, put the sparse relation rows into
``null_space`` and read both the basis and the normal forms off it: each null
vector's free column is a basis monomial, and its entries at the pivot
columns are that monomial's coefficients in the pivot monomials' normal
forms.  Standard
monomials are taken against the graded lexicographic order with the leading
term the largest monomial, so the basis is closed under division - several
engines rely on that.  Normal forms are stored sparse, as ((basis index,
coeff), ...); dense vectors appear only at the public edges (``var_images``,
``multiply``, ``var_multiply`` and the rows of ``power_subspace``).

Algebras are trusted by construction and not re-checked when built: the
monomial path is k[x] modulo the complement of its standard monomials, and the
general normal form is a projection along the span of the relation rows
g*u mod m^N, which is (I + m^N)/m^N.  The test oracle
``tests/algebra_oracle.py`` proves A = k[x]/(I + m^N) for every fixture:
surjectivity from the variable images, the relations vanishing, the dimension
against a sympy Groebner count, unit, commutativity and associativity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .linalg import Subspace, _row_space, null_space
from .monomials import (
    Monomial,
    Presentation,
    format_monomial,
    monomial_degree,
    monomial_mul,
)

# Largest monomial count C(N - 1 + n, n) below the order that truncate builds.
# The labeled corpus stops at 7 vertices (order 8, C(14, 7) = 3,432), but named
# rings are not capped by it: kprime:e8 at order 9 needs C(16, 8) = 12,870.
_MAX_TRUNC_MONOMIALS = 20_000
# Largest relation matrix (rows x monomials below the order) that the general
# path eliminates over GF(p); the largest fixture needs 6,720 cells.  Its rows
# enter null_space sparse and stay sparse.  On one core of a 2-core x86 host
# under Python 3.11, k[a..e]/(a^2 + bc) takes 0.04 s at order 9 (5.9e5 cells)
# and 0.27 s at order 11 (3.9e6 cells) over GF(2), 0.10 s at order 11 over
# GF(3) and over q.  Three dense quadrics in a..e with coefficients in
# 1, -1, 2, 7, 1/2, 3/4, -5/4 take 0.38 s at order 8 (6.0e5 cells) over GF(3),
# 0.62 s over GF(101) and 1.1 s over q.  Over q the cap is a tenth.  Both caps
# sit well below what these times allow; raising them waits for a measured
# worst case.
_MAX_RELATION_CELLS = 1_000_000


class LocalAlgebra:
    """A finite-dimensional commutative local algebra over an exact field.

    Not constructed directly; use :func:`truncate`.  ``var_images``,
    ``filtration`` and ``index`` are computed on first read: the socle of a
    monomial algebra needs none of them.
    """

    def __init__(self, field, names, trunc_order, basis, reductions, presentation, socle):
        self.field = field
        self.var_names = tuple(names)
        self.trunc_order = trunc_order
        self.basis_monomials = tuple(basis)  # ascending (degree, -lex)
        self.dim_k = len(basis)
        self._reductions = reductions  # pivot monomial -> sparse NF, see _normal_form
        self.presentation = presentation
        self._socle = socle  # the socle monomials on the monomial path, else None
        self._monomial_path = socle is not None
        self._products: dict[tuple[int, int], tuple] = {}
        self._var_sparse: list[list[list[tuple[int, object]]] | None] = [None] * len(names)
        self._powers: list[Subspace] | None = None
        self._parents: list[tuple[int, int] | None] | None = None

    # -- basic element helpers ------------------------------------------------

    @cached_property
    def index(self) -> dict:
        return {m: k for k, m in enumerate(self.basis_monomials)}

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def _dense(self, sparse) -> tuple:
        """A sparse vector ((index, coeff), ...) as a dense tuple over the basis."""
        vec = [self.field.zero()] * self.dim_k
        for k, c in sparse:
            vec[k] = c
        return tuple(vec)

    @cached_property
    def var_images(self) -> tuple:
        """The image of each variable as a dense vector over the basis."""
        return tuple(self._dense(self._normal_form(self._var_monomial(k))) for k in range(self.nvars))

    def _var_monomial(self, k: int) -> Monomial:
        e = [0] * self.nvars
        e[k] = 1
        return tuple(e)

    def _normal_form(self, mono: Monomial) -> tuple:
        """NF of an ambient monomial as a sparse vector ((index, coeff), ...)
        over the basis, in index order; () for a monomial in I + m^N."""
        k = self.index.get(mono)
        if k is not None:
            return ((k, self.field.one()),)
        return self._reductions.get(mono, ())

    def product_mono(self, i: int, j: int) -> tuple:
        """Sparse product of two basis elements: ((index, coeff), ...)."""
        if i > j:
            i, j = j, i
        cached = self._products.get((i, j))
        if cached is None:
            cached = self._normal_form(monomial_mul(self.basis_monomials[i], self.basis_monomials[j]))
            self._products[(i, j)] = cached
        return cached

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

    def var_sparse(self, k: int) -> list[list[tuple[int, object]]]:
        """Multiplication by variable k as sparse columns: column j lists the
        nonzero (index, coefficient) pairs of the normal form of x_k * m_j."""
        if self._var_sparse[k] is None:
            x = self._var_monomial(k)
            self._var_sparse[k] = [list(self._normal_form(monomial_mul(x, m))) for m in self.basis_monomials]
        return self._var_sparse[k]

    def var_multiply(self, k: int, vec) -> tuple:
        f = self.field
        cols = self.var_sparse(k)
        out = [f.zero()] * self.dim_k
        for j, c in enumerate(vec):
            if c:
                for i, a in cols[j]:
                    out[i] = f.add(out[i], f.mul(c, a))
        return tuple(out)

    # -- grading ----------------------------------------------------------------

    @cached_property
    def degrees(self) -> tuple:
        """The degree of each basis element; see ``_grade``."""
        return tuple(self._grade(m) for m in self.basis_monomials)

    def _grade(self, mono: Monomial) -> tuple:
        """The degree of a monomial: its exponent tuple for a monomial
        presentation (Z^n-graded), (total degree,) for a homogeneous one
        (Z-graded), and the trivial degree () otherwise."""
        if self._monomial_path:
            return mono
        if self._homogeneous:
            return (monomial_degree(mono),)
        return ()

    @cached_property
    def _homogeneous(self) -> bool:
        return all(g.min_degree() == g.max_degree() for g in self.presentation.gens)

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
            if name not in self.var_names:
                raise ValueError(f"unknown variable {name!r}")
            k = self.var_names.index(name)
            c = f.coerce(c)
            for i, a in enumerate(self.var_images[k]):
                if a:
                    vec[i] = f.add(vec[i], f.mul(c, a))
        return tuple(vec)

    # -- filtration ------------------------------------------------------------

    def _in_maximal_ideal(self, vec) -> bool:
        """Whether an element vector lies in m.  The first basis monomial is 1
        and every other one lies in m, so that is iff its unit coordinate is
        0; dim m is dim_k - 1."""
        if len(vec) != self.dim_k:
            raise ValueError(f"vector of length {len(vec)} in a subspace of k^{self.dim_k}")
        return not self.field.coerce(vec[0])

    def power_subspace(self, j: int) -> Subspace:
        self._ensure_powers()
        j = min(j, len(self._powers) - 1)
        return self._powers[j]

    def _ensure_powers(self) -> None:
        if self._powers is not None:
            return
        f, d = self.field, self.dim_k
        # m^0 = A, then m^(j+1) is the span of x_k * (rows of m^j), down to the first zero
        powers = [_row_space(f, ({t: f.one()} for t in range(d)), d)]
        while powers[-1].dim:
            rows = powers[-1].basis_rows()
            powers.append(_row_space(f, (self.var_multiply(k, row) for row in rows for k in range(self.nvars)), d))
        self._powers = powers

    @cached_property
    def filtration(self) -> tuple:
        """dim m^j for j = 0, 1, ... up to the first zero."""
        if self._monomial_path:
            # dim m^j is the number of basis monomials of degree >= j
            counts = [0] * (monomial_degree(self.basis_monomials[-1]) + 1)
            for m in self.basis_monomials:
                counts[monomial_degree(m)] += 1
            return tuple(itertools.accumulate(reversed(counts), initial=0))[::-1]
        self._ensure_powers()
        return tuple(s.dim for s in self._powers)

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
    count = math.comb(n - 1 + p.nvars, p.nvars)
    if count > _MAX_TRUNC_MONOMIALS:
        raise ValueError(
            f"truncation order {n} in {p.nvars} variables exceeds {_MAX_TRUNC_MONOMIALS} monomials below the order"
        )
    if p.is_monomial():
        return _truncate_monomial(p, n)
    # one relation row per generator g and monomial u with deg(u) + mindeg(g) < n
    degrees = [g.min_degree() for g in p.gens]
    rows = sum(math.comb(n - 1 - d + p.nvars, p.nvars) for d in degrees if d < n)
    cap = _MAX_RELATION_CELLS if p.field.p is not None else _MAX_RELATION_CELLS // 10
    if rows * count > cap:
        raise ValueError(f"truncation order {n} needs a {rows} x {count} relation matrix, over {cap} cells")
    return _truncate_general(p, n)


def _truncate_monomial(p: Presentation, n: int) -> LocalAlgebra:
    w, gens = _coding(p, n)
    covered: set = set()
    walked = _walk(w, gens, covered, n)
    socle = [m for code, m, _ in walked if code not in covered]
    return LocalAlgebra(p.field, p.ambient, n, [m for _, m, _ in walked], {}, p, socle)


def _weights(nvars: int, n: int) -> list[int]:
    """Weights w, code(m) = sum m_k * w_k in base n + 1."""
    return [(n + 1) ** (nvars - 1 - k) for k in range(nvars)]


def _coding(p: Presentation, n: int):
    """The weights w and the codes of the generators of degree <= n (no
    higher one equals a monomial walked)."""
    w = _weights(p.nvars, n)
    return w, {sum(map(mul, m, w)) for g in p.gens for m in g.terms if sum(m) <= n}


def _walk(w, gens, covered: set, n: int) -> list:
    """The standard monomials of degree < n against the generator codes gens,
    as (code, exponents, support) entries, degree by degree; each level comes
    in descending codes, so the walk ascends in (degree, -lex), the basis
    order.  With no generator codes it is every monomial below n."""
    walked = level = [(0, (0,) * len(w), ())]
    for _ in range(1, n):
        level = _next_degree(level, gens, w, covered)
        walked = walked + level
    return walked


def _next_degree(level: list, gens, w, covered: set) -> list:
    """The standard monomials one degree above level (which holds every
    standard monomial of its degree) as (code, exponents, support) entries in
    descending codes.  A candidate c is formed once, as m*x_k with k at or
    after m's last variable.  A generator properly dividing c divides some
    c/x_j, so c is standard iff it is no generator and each c/x_j is
    standard; each c/x_j of a standard c then goes into covered."""
    below = {code for code, _, _ in level}
    out = []
    for code, m, support in level:
        last = support[-1] if support else 0
        for k in range(last, len(w)):
            c = code + w[k]
            if c in gens:
                continue
            for j in support:
                if c - w[j] not in below:
                    break
            else:
                sup = support if support and k == last else support + (k,)
                out.append((c, m[:k] + (m[k] + 1,) + m[k + 1 :], sup))
                for j in sup:
                    covered.add(c - w[j])
    out.sort(reverse=True)
    return out


def _truncate_general(p: Presentation, n: int) -> LocalAlgebra:
    f = p.field
    # every monomial below n: a walk with no generator codes to avoid
    monomials = [m for _, m, _ in _walk(_weights(p.nvars, n), set(), set(), n)]
    count = len(monomials)
    # columns in reverse, so that each relation pivots on its largest monomial
    column = {m: count - 1 - i for i, m in enumerate(monomials)}
    # relation rows: every monomial multiple of every generator, truncated
    rows = []
    for g in p.gens:
        min_deg = g.min_degree()
        for u in monomials:
            d = monomial_degree(u)
            if d + min_deg < n:
                rows.append({column[monomial_mul(t, u)]: c for t, c in g.terms.items() if monomial_degree(t) + d < n})
    # A null vector's last key is its free column, a basis monomial, and its
    # entry at a pivot column is that monomial's coefficient in the normal form
    # of the pivot monomial.  The free columns ascend, so the basis monomials
    # descend: reversed, the null vectors come in basis order.
    kernel = null_space(f, rows, count)[::-1]
    basis = []
    terms: dict = {}
    for b, vec in enumerate(kernel):
        free, _ = vec.popitem()
        basis.append(monomials[count - 1 - free])
        for c, coeff in vec.items():
            terms.setdefault(monomials[count - 1 - c], []).append((b, coeff))
    reductions = {mono: tuple(nf) for mono, nf in terms.items()}
    return LocalAlgebra(f, p.ambient, n, basis, reductions, p, None)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def socle(a: LocalAlgebra) -> list[tuple]:
    """Basis of { z : x z = 0 for every variable x }.

    For a monomial algebra the answer is a set of basis monomials; in general
    it is the kernel of the stacked variable actions.
    """
    if a._monomial_path:
        return [a._basis_vec(a.index[m]) for m in socle_monomials(a)]
    rows = [dict(row) for k in range(a.nvars) for row in _transpose(a.var_sparse(k), a.dim_k)]
    zero = a.field.zero()
    return [tuple(vec.get(j, zero) for j in range(a.dim_k)) for vec in null_space(a.field, rows, a.dim_k)]


def _transpose(cols, n: int) -> list[list[tuple[int, object]]]:
    """The sparse columns of the transpose of a matrix with n rows given by
    sparse columns, which are that matrix's sparse rows."""
    out: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i].append((j, x))
    return out


def socle_monomials(a: LocalAlgebra) -> list[Monomial]:
    """The socle basis as monomials (monomial algebras only): the basis
    monomials m with no m*x_k in the basis, recorded by truncate's walk."""
    if not a._monomial_path:
        raise ValueError("socle monomials are only defined for monomial algebras")
    return list(a._socle)


def hilbert_function(a: LocalAlgebra) -> list[int]:
    """Dimensions of m^j / m^(j+1); the entries sum to dim_k."""
    filt = a.filtration
    return [filt[j] - filt[j + 1] for j in range(len(filt) - 1)]


def is_gorenstein_artinian(a: LocalAlgebra) -> bool:
    """Socle dimension one, for the full (untruncated) ring; see ``_check_full_ring``."""
    _check_full_ring(a)
    return len(socle(a)) == 1


def _check_full_ring(a: LocalAlgebra) -> None:
    """Refuse a monomial algebra whose truncation order cuts the ring: every
    monomial of degree trunc_order must lie in the ideal.  Non-monomial
    callers assert it themselves."""
    if not a.presentation.is_monomial():
        return
    w, gens = _coding(a.presentation, a.trunc_order)
    top = [b for b in a.basis_monomials if monomial_degree(b) == a.trunc_order - 1]
    top = [(sum(map(mul, b, w)), b, tuple(k for k, e in enumerate(b) if e)) for b in top]
    survivors = [m for _, m, _ in _next_degree(top, gens, w, set())]
    if survivors:
        raise ValueError(
            "truncation order cuts the ring: monomial "
            f"{format_monomial(a.var_names, min(survivors))} survives; not a full artinian ring"
        )


def canonical_module(a: LocalAlgebra):
    """Hom_k(A, k) with the contragredient action: the dualizing module."""
    from .modules import _matlis_dual, free_module

    omega = _matlis_dual(free_module(a))
    omega.label = "canonical"
    return omega


def ideal_direct_sum_check(a: LocalAlgebra, gens1, gens2) -> bool:
    """Do (gens1) and (gens2) decompose m as a direct sum of nonzero ideals?"""
    for vec in list(gens1) + list(gens2):
        if not a._in_maximal_ideal(vec):
            raise ValueError("generators must lie in the maximal ideal")
    ideal1 = _ideal_span(a, gens1)
    ideal2 = _ideal_span(a, gens2)
    if ideal1.dim == 0 or ideal2.dim == 0:
        return False
    total = _row_space(a.field, ideal1.basis_rows() + ideal2.basis_rows(), a.dim_k)
    return ideal1.dim + ideal2.dim == a.dim_k - 1 and total.dim == a.dim_k - 1


def _ideal_span(a: LocalAlgebra, gens) -> Subspace:
    span = Subspace(a.field, a.dim_k)
    for g in gens:
        span.add(g)
    # close under the variable actions until the dimension stabilizes
    while True:
        before = span.dim
        for row in span.basis_rows():
            for k in range(a.nvars):
                span._add_row(a.var_multiply(k, row))
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
    # pick variables whose images form a basis of m/m^2: they generate m, so
    # e of them do
    m2 = a.power_subspace(2)
    probe = _row_space(a.field, m2.basis_rows(), a.dim_k)
    pivot_vars = [k for k in range(a.nvars) if probe._add_row(a.var_images[k])]
    lines = []
    for coeffs in itertools.product(range(p), repeat=e):
        nz = next((c for c in coeffs if c), None)
        if nz != 1:
            continue
        named = tuple((a.var_names[k], c) for c, k in zip(coeffs, pivot_vars) if c)
        lines.append(LinearForm(named, a.element_from_linear(dict(named))))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            alpha, beta = lines[i], lines[j]
            if any(a.multiply(alpha.vector, beta.vector)):
                continue
            if mode == "necessary":
                return alpha, beta
            if ideal_direct_sum_check(a, [alpha.vector], [beta.vector]):
                return alpha, beta
    return None
