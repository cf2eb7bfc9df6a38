"""Finitely generated modules over a truncated local algebra and their
homological invariants.

A module is a k-basis plus one exact action matrix per ambient variable;
everything else (action of arbitrary algebra elements, Hom, Ext, Tor,
syzygies) is plain exact linear algebra.  Minimal free resolutions are
computed by syzygy iteration: the kernel of each presentation map is taken as
a k-subspace of the ambient free module, and the next differential's columns
are kernel vectors chosen to span the kernel modulo its m-multiples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .artin import LocalAlgebra, _ideal_span, _sparse_apply
from .fields import FieldSpec
from .linalg import Matrix, Subspace

_MAX_BOUND = 12


class FPModule:
    """A finite-dimensional module over a LocalAlgebra."""

    def __init__(self, algebra: LocalAlgebra, dim: int, var_actions, label: str | None = None):
        if len(var_actions) != algebra.nvars:
            raise ValueError("need one action matrix per variable")
        for m in var_actions:
            if m.nrows != dim or m.ncols != dim:
                raise ValueError("action matrix has wrong shape")
            if m.field != algebra.field:
                raise ValueError("action matrix over the wrong field")
        self.algebra = algebra
        self.dim = dim
        self.var_actions = tuple(var_actions)
        self.label = label
        self._var_sparse: list[list[list[tuple[int, object]]] | None] = [None] * algebra.nvars
        self._basis_actions: list[Matrix | None] = [None] * algebra.dim_k
        self._res_state: dict | None = None
        self._validate()

    def _validate(self) -> None:
        for a in range(len(self.var_actions)):
            for b in range(a + 1, len(self.var_actions)):
                left = self.var_actions[a].mul(self.var_actions[b])
                if left != self.var_actions[b].mul(self.var_actions[a]):
                    raise AssertionError("variable actions do not commute")

    def var_sparse(self, k: int) -> list[list[tuple[int, object]]]:
        if self._var_sparse[k] is None:
            m = self.var_actions[k]
            cols = []
            for j in range(self.dim):
                col = [(i, m.entry(i, j)) for i in range(self.dim) if m.entry(i, j)]
                cols.append(col)
            self._var_sparse[k] = cols
        return self._var_sparse[k]

    def var_multiply(self, k: int, vec) -> tuple:
        return _sparse_apply(self.algebra.field, self.var_sparse(k), vec, self.dim)

    def basis_action(self, b: int) -> Matrix:
        """Action of the b-th algebra basis element, built along the division tree."""
        if self._basis_actions[b] is None:
            parents = self.algebra.basis_parents()
            if parents[b] is None:
                self._basis_actions[b] = Matrix.identity(self.algebra.field, self.dim)
            else:
                var, parent = parents[b]
                self._basis_actions[b] = self.var_actions[var].mul(self.basis_action(parent))
        return self._basis_actions[b]

    def element_action(self, coeffs) -> Matrix:
        """Action matrix of an algebra element given by its basis coefficients."""
        f = self.algebra.field
        rows = [[f.zero()] * self.dim for _ in range(self.dim)]
        for b, c in enumerate(coeffs):
            if not c:
                continue
            mat = self.basis_action(b)
            for i in range(self.dim):
                row = mat.row(i)
                for j in range(self.dim):
                    if row[j]:
                        rows[i][j] = f.add(rows[i][j], f.mul(c, row[j]))
        return Matrix(f, rows, self.dim)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"FPModule(dim {self.dim} over dim-{self.algebra.dim_k} algebra{tag})"


@dataclass(frozen=True)
class Resolution:
    """Betti numbers and differentials of a minimal free resolution.

    ``differentials[i]`` presents the map A^betti[i+1] -> A^betti[i] as a
    tuple of columns; each column is a tuple of algebra elements (coefficient
    tuples over the algebra basis).  Minimality means every entry lies in the
    maximal ideal, i.e. has zero unit coefficient.
    """

    betti: tuple
    differentials: tuple
    unit_index: int = 0

    def __post_init__(self):
        for diff in self.differentials:
            for col in diff:
                for entry in col:
                    if entry[self.unit_index]:
                        raise AssertionError("differential entry has a unit component")


# ---------------------------------------------------------------------------
# module constructors
# ---------------------------------------------------------------------------


def residue_field(a: LocalAlgebra) -> FPModule:
    zero = Matrix.zeros(a.field, 1, 1)
    return FPModule(a, 1, [zero] * a.nvars, label="k")


def free_module(a: LocalAlgebra) -> FPModule:
    actions = [a.var_action_matrix(k) for k in range(a.nvars)]
    return FPModule(a, a.dim_k, actions, label="A")


def cyclic_module(a: LocalAlgebra, gens) -> FPModule:
    """A/(gens) with the induced action; gens are element vectors in m."""
    gens = list(gens)
    m_space = a.power_subspace(1)
    for g in gens:
        if not m_space.contains(g):
            raise ValueError("cyclic quotient generators must lie in the maximal ideal")
    ideal = _ideal_span(a, gens)
    return _quotient_of_free(a, ideal, label=f"A/({len(gens)} gens)")


def _quotient_of_free(a: LocalAlgebra, sub: Subspace, label: str | None = None) -> FPModule:
    f = a.field
    pivots = set(sub.pivots())
    free_coords = [j for j in range(a.dim_k) if j not in pivots]
    actions = []
    for k in range(a.nvars):
        cols = []
        for j in free_coords:
            vec = [f.zero()] * a.dim_k
            vec[j] = f.one()
            image = sub.reduce(a.var_multiply(k, tuple(vec)))
            cols.append([image[t] for t in free_coords])
        actions.append(Matrix.from_columns(f, cols))
    return FPModule(a, len(free_coords), actions, label=label)


# ---------------------------------------------------------------------------
# minimal free resolutions
# ---------------------------------------------------------------------------


def minimal_resolution(m: FPModule, bound: int) -> Resolution:
    """Betti numbers beta_0..beta_bound and the differentials d_1..d_bound."""
    if bound < 0:
        raise ValueError("negative resolution bound")
    if bound > _MAX_BOUND:
        raise ValueError(f"resolution bound capped at {_MAX_BOUND}")
    state = _resolution_state(m, bound)
    unit = m.algebra.index[(0,) * m.algebra.nvars]
    return Resolution(tuple(state["betti"][: bound + 1]), tuple(state["diffs"][:bound]), unit)


def _resolution_state(m: FPModule, bound: int) -> dict:
    if m._res_state is None:
        f = m.algebra.field
        units = [tuple(f.one() if i == j else f.zero() for i in range(m.dim)) for j in range(m.dim)]
        m._res_state = {"betti": [], "diffs": [], "span": units, "width": m.dim, "mult": m.var_multiply}
    state = m._res_state
    while len(state["betti"]) <= bound:
        _resolution_step(m.algebra, state)
    return state


def _resolution_step(a: LocalAlgebra, state: dict) -> None:
    """One homological degree: the span's generators modulo its m-multiples
    cover it by a free module, and the cover's kernel is the next span.

    Degree 0 starts from the unit vectors of M under M's own action; every
    later span lives in the previous free module, under the ambient action."""
    f = a.field
    d = a.dim_k
    span, width, mult = state["span"], state["width"], state["mult"]
    m_span = Subspace(f, width)
    for w in span:
        for k in range(a.nvars):
            m_span.add(mult(k, w))
    gens = [w for w in span if m_span.add(w)]
    if state["betti"]:
        state["diffs"].append(tuple(tuple(w[r * d : (r + 1) * d] for r in range(width // d)) for w in gens))
    state["betti"].append(len(gens))
    state["span"] = _kernel_of_columns(f, _map_columns(a, gens, mult))
    state["width"] = len(gens) * d
    state["mult"] = partial(_ambient_var_mult, a)


def _map_columns(a: LocalAlgebra, gens, mult) -> list[tuple]:
    """Columns b * g_j in basis-major order inside each generator block,
    built along the division tree with ``mult(var, vec)``."""
    parents = a.basis_parents()
    columns = []
    for g in gens:
        per_basis: list[tuple] = [None] * a.dim_k
        for b in range(a.dim_k):
            if parents[b] is None:
                per_basis[b] = tuple(g)
            else:
                var, parent = parents[b]
                per_basis[b] = mult(var, per_basis[parent])
        columns.extend(per_basis)
    return columns


def _ambient_var_mult(a: LocalAlgebra, k: int, vec) -> tuple:
    f = a.field
    d = a.dim_k
    cols = a.var_sparse(k)
    out = [f.zero()] * len(vec)
    for pos, c in enumerate(vec):
        if c:
            base = pos - pos % d
            for t, cf in cols[pos % d]:
                out[base + t] = f.add(out[base + t], f.mul(c, cf))
    return tuple(out)


def _kernel_of_columns(f: FieldSpec, columns) -> list[tuple]:
    if not columns:
        return []
    matrix = Matrix.from_columns(f, columns)
    kernel = matrix.kernel_basis()
    if matrix.nrows <= 200 and matrix.ncols <= 400:
        # Exact check of matrix @ w == 0, summed over the nonzero entries only.
        p = f.p
        sparse = [[(i, c) for i, c in enumerate(col) if c] for col in zip(*matrix.rows())]
        for w in kernel:
            acc = [0] * matrix.nrows
            for wj, col in zip(w, sparse):
                if wj:
                    for i, c in col:
                        acc[i] += wj * c
            if any(acc) if p is None else any(v % p for v in acc):
                raise AssertionError("kernel vector fails exact verification")
    return kernel


# ---------------------------------------------------------------------------
# Ext / Tor and series truncations
# ---------------------------------------------------------------------------


def _check_same_algebra(m: FPModule, n: FPModule) -> None:
    am, an = m.algebra, n.algebra
    if am is an:
        return
    if (
        am.field == an.field
        and am.var_names == an.var_names
        and am.basis_monomials == an.basis_monomials
        and am.trunc_order == an.trunc_order
    ):
        return
    raise ValueError("modules live over different algebras")


def _entry_action(n: FPModule, entry, cache: dict) -> Matrix:
    key = tuple(entry)
    got = cache.get(key)
    if got is None:
        got = n.element_action(entry)
        cache[key] = got
    return got


def _hom_blocks(res: Resolution, t: int) -> tuple:
    """d_t as the block grid of Hom(F_{t-1}, N) -> Hom(F_t, N): block (c, r)
    is the action of d_t's entry in column c, row r; empty past the end."""
    return res.differentials[t - 1] if 1 <= t <= len(res.differentials) else ()


def _tensor_blocks(res: Resolution, t: int) -> tuple:
    """d_t as the block grid of F_t (x) N -> F_{t-1} (x) N, the transpose."""
    return tuple(zip(*_hom_blocks(res, t)))


def _block_rank(n: FPModule, grid, cache: dict) -> int:
    """Rank of the matrix whose (i, j) block is the action on N of grid[i][j]."""
    if not grid or not grid[0] or n.dim == 0:
        return 0
    f = n.algebra.field
    nd = n.dim
    width = len(grid[0]) * nd
    rows = []
    for line in grid:
        mats = [_entry_action(n, entry, cache) for entry in line]
        for s in range(nd):
            row = [f.zero()] * width
            for j, mat in enumerate(mats):
                mrow = mat.row(s)
                for s2 in range(nd):
                    if mrow[s2]:
                        row[j * nd + s2] = mrow[s2]
            rows.append(row)
    return Matrix(f, rows, width).rank()


def ext(m: FPModule, n: FPModule, i: int) -> int:
    """dim_k Ext^i(M, N), from a minimal resolution of M."""
    _check_same_algebra(m, n)
    if i < 0:
        raise ValueError("negative cohomological degree")
    if i > _MAX_BOUND:
        raise ValueError(f"ext degree capped at {_MAX_BOUND}")
    res = minimal_resolution(m, i + 1)
    cache: dict = {}
    beta_i = res.betti[i]
    r_in = _block_rank(n, _hom_blocks(res, i), cache)
    r_out = _block_rank(n, _hom_blocks(res, i + 1), cache)
    return beta_i * n.dim - r_in - r_out


def tor(m: FPModule, n: FPModule, i: int) -> int:
    """dim_k Tor_i(M, N), by tensoring a minimal resolution of M with N."""
    _check_same_algebra(m, n)
    if i < 0:
        raise ValueError("negative homological degree")
    if i > _MAX_BOUND:
        raise ValueError(f"tor degree capped at {_MAX_BOUND}")
    res = minimal_resolution(m, i + 1)
    cache: dict = {}
    beta_i = res.betti[i]
    r_in = _block_rank(n, _tensor_blocks(res, i + 1), cache)
    r_out = _block_rank(n, _tensor_blocks(res, i), cache)
    return beta_i * n.dim - r_in - r_out


def poincare_truncation(m: FPModule, b: int) -> list[int]:
    """Coefficients of the Poincare series up to degree b (the Betti numbers)."""
    return list(minimal_resolution(m, b).betti)


def bass_truncation(a: LocalAlgebra, m: FPModule, b: int) -> list[int]:
    """dims of Ext^i(k, M) for i = 0..b, via the resolution of k."""
    if b < 0:
        raise ValueError("negative resolution bound")
    k = residue_field(a)
    res = minimal_resolution(k, b + 1)
    cache: dict = {}
    out = []
    for i in range(b + 1):
        r_in = _block_rank(m, _hom_blocks(res, i), cache)
        r_out = _block_rank(m, _hom_blocks(res, i + 1), cache)
        out.append(res.betti[i] * m.dim - r_in - r_out)
    return out


# ---------------------------------------------------------------------------
# Hom, duality, reflexivity, semidualizing
# ---------------------------------------------------------------------------


def hom_module(m: FPModule, n: FPModule):
    """Hom_A(M, N) as a module, plus its basis of homomorphism matrices.

    The Hom space is cut out by commutation with the variable actions only;
    variables generate the algebra, so this equals full A-linearity (tested
    against all-basis commutation on small instances).
    """
    _check_same_algebra(m, n)
    f = m.algebra.field
    dm, dn = m.dim, n.dim
    unknowns = dn * dm  # Phi[s][t], flat index s * dm + t
    rows = []
    for k in range(m.algebra.nvars):
        rm = m.var_actions[k]
        rn = n.var_actions[k]
        for a_ in range(dn):
            for b_ in range(dm):
                row = [f.zero()] * unknowns
                for t in range(dm):
                    v = rm.entry(t, b_)
                    if v:
                        row[a_ * dm + t] = f.add(row[a_ * dm + t], v)
                for s in range(dn):
                    v = rn.entry(a_, s)
                    if v:
                        row[s * dm + b_] = f.sub(row[s * dm + b_], v)
                rows.append(row)
    if rows:
        kern = Matrix(f, rows, unknowns).kernel_basis()
    else:
        kern = [tuple(f.one() if i == j else f.zero() for i in range(unknowns)) for j in range(unknowns)]
    maps = [Matrix(f, [vec[s * dm : (s + 1) * dm] for s in range(dn)], dm) for vec in kern]
    h = len(maps)
    basis_matrix = Matrix.from_columns(f, [vec for vec in kern])
    actions = []
    for k in range(m.algebra.nvars):
        rn = n.var_actions[k]
        cols = []
        for phi in maps:
            target = rn.mul(phi)
            flat = [target.entry(s, t) for s in range(dn) for t in range(dm)]
            sol = basis_matrix.solve(flat)
            if sol is None:
                raise AssertionError("Hom space is not closed under the action")
            cols.append(list(sol))
        actions.append(Matrix.from_columns(f, cols) if h else Matrix(f, [], 0))
    label = f"Hom({m.label or '?'},{n.label or '?'})"
    return FPModule(m.algebra, h, actions, label=label), maps


def dual_module(m: FPModule) -> FPModule:
    """M* = Hom_A(M, A) with its natural action."""
    mod, _ = hom_module(m, free_module(m.algebra))
    mod.label = f"({m.label or '?'})*"
    return mod


def biduality_is_iso(m: FPModule) -> bool:
    """Is the evaluation map M -> M** bijective?"""
    a = m.algebra
    f = a.field
    free = free_module(a)
    dual, phis = hom_module(m, free)
    double, psis = hom_module(dual, free)
    if double.dim != m.dim:
        return False
    if m.dim == 0:
        return True
    psi_flat = Matrix.from_columns(
        f, [[p.entry(s, t) for s in range(a.dim_k) for t in range(dual.dim)] for p in psis]
    )
    coords = []
    for j in range(m.dim):
        # ev(e_j): Phi |-> Phi(e_j), a map from M* to A
        flat = [phis[t].entry(s, j) for s in range(a.dim_k) for t in range(dual.dim)]
        sol = psi_flat.solve(flat)
        if sol is None:
            raise AssertionError("evaluation map left the double-dual span")
        coords.append(list(sol))
    ev = Matrix.from_columns(f, coords)
    return ev.rank() == m.dim


def is_totally_reflexive_up_to(m: FPModule, b: int) -> bool:
    """Biduality plus Ext^i(M, A) = 0 = Ext^i(M*, A) for 1 <= i <= b.

    A bounded proxy for Gorenstein dimension zero; callers must report the
    bound, never an unconditional certificate.
    """
    if b > _MAX_BOUND:
        raise ValueError(f"bound capped at {_MAX_BOUND}")
    if not biduality_is_iso(m):
        return False
    free = free_module(m.algebra)
    dual = dual_module(m)
    for i in range(1, b + 1):
        if ext(m, free, i) != 0 or ext(dual, free, i) != 0:
            return False
    return True


def is_semidualizing_up_to(c: FPModule, b: int) -> bool:
    """Homothety A -> Hom(C, C) bijective and Ext^i(C, C) = 0 for 1 <= i <= b."""
    if b > _MAX_BOUND:
        raise ValueError(f"bound capped at {_MAX_BOUND}")
    a = c.algebra
    f = a.field
    hom, maps = hom_module(c, c)
    if hom.dim != a.dim_k:
        return False
    if a.dim_k:
        flat_basis = Matrix.from_columns(
            f, [[p.entry(s, t) for s in range(c.dim) for t in range(c.dim)] for p in maps]
        )
        cols = []
        for bidx in range(a.dim_k):
            mat = c.basis_action(bidx)
            flat = [mat.entry(s, t) for s in range(c.dim) for t in range(c.dim)]
            sol = flat_basis.solve(flat)
            if sol is None:
                return False
            cols.append(list(sol))
        if Matrix.from_columns(f, cols).rank() != a.dim_k:
            return False
    for i in range(1, b + 1):
        if ext(c, c, i) != 0:
            return False
    return True
