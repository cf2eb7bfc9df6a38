"""Independent Ext oracle for the test suite.

Computes dim Ext^i(M, N) for i <= 2 from a deliberately NON-minimal two-step
free presentation: every free module covers the whole k-basis of the previous
kernel, and the Hom complex is assembled from scratch with repeated
variable-action products.  Only the algebra's multiplication table and the
modules' variable actions (made dense by ``algebra_oracle.dense_action``)
are shared with production; ranks and kernels come from the Gauss-Jordan of
``gauss_oracle``, not from ringlab's.
"""

from __future__ import annotations

from algebra_oracle import dense_action
from gauss_oracle import apply, identity, kernel, mat_mul, rank


def _module_mono_action(module, mono) -> list[list]:
    p = module.algebra.field.p
    mat = identity(p, module.dim)
    for var, e in enumerate(mono):
        for _ in range(e):
            mat = mat_mul(p, dense_action(module, var), mat)
    return mat


def _ambient_mono_mult(algebra, nfree, vec, mono):
    d = algebra.dim_k
    for var, e in enumerate(mono):
        for _ in range(e):
            out = []
            for r in range(nfree):
                out.extend(algebra.multiply(algebra.var_images[var], vec[r * d : (r + 1) * d]))
            vec = tuple(out)
    return vec


def _cover_kernel_module(module, gens) -> list[list]:
    """Kernel of the k-matrix of A^len(gens) -> M, e_c -> gens[c]."""
    a = module.algebra
    p = a.field.p
    cols = []
    for g in gens:
        for b in range(a.dim_k):
            cols.append(apply(p, _module_mono_action(module, a.basis_monomials[b]), g))
    return kernel(p, [list(row) for row in zip(*cols)], len(cols))


def _cover_kernel_ambient(algebra, rank_prev, gens) -> list[list]:
    """Kernel of the k-matrix of A^len(gens) -> A^rank_prev, e_c -> gens[c]."""
    cols = []
    for g in gens:
        for b in range(algebra.dim_k):
            cols.append(_ambient_mono_mult(algebra, rank_prev, g, algebra.basis_monomials[b]))
    return kernel(algebra.field.p, [list(row) for row in zip(*cols)], len(cols))


def _hom_rank(algebra, n_module, gens, rank_prev) -> int:
    """Rank of Hom(A^rank_prev, N) -> Hom(A^len(gens), N)."""
    if not gens or rank_prev == 0 or n_module.dim == 0:
        return 0
    f = algebra.field
    d = algebra.dim_k
    nd = n_module.dim
    rows = []
    for g in gens:
        blocks = []
        for r in range(rank_prev):
            coeffs = g[r * d : (r + 1) * d]
            acc = [[f.zero()] * nd for _ in range(nd)]
            for b, cb in enumerate(coeffs):
                if not cb:
                    continue
                mat = _module_mono_action(n_module, algebra.basis_monomials[b])
                for s in range(nd):
                    row = mat[s]
                    for t in range(nd):
                        if row[t]:
                            acc[s][t] = f.add(acc[s][t], f.mul(cb, row[t]))
            blocks.append(acc)
        for s in range(nd):
            row = [f.zero()] * (rank_prev * nd)
            for r in range(rank_prev):
                for t in range(nd):
                    v = blocks[r][s][t]
                    if v:
                        row[r * nd + t] = v
            rows.append(row)
    return rank(f.p, rows, rank_prev * nd)


def ext_oracle(m_module, n_module, i: int) -> int:
    """dim Ext^i(M, N), 0 <= i <= 2, via full-basis free covers."""
    if not 0 <= i <= 2:
        raise ValueError("oracle handles i <= 2")
    a = m_module.algebra
    f = a.field
    nd = n_module.dim
    g0 = [
        tuple(f.one() if t == j else f.zero() for t in range(m_module.dim))
        for j in range(m_module.dim)
    ]
    r0 = len(g0)
    if r0 == 0:
        return 0
    k0 = _cover_kernel_module(m_module, g0)
    h1 = _hom_rank(a, n_module, k0, r0)
    if i == 0:
        return r0 * nd - h1
    r1 = len(k0)
    k1 = _cover_kernel_ambient(a, r0, k0) if k0 else []
    h2 = _hom_rank(a, n_module, k1, r1)
    if i == 1:
        return r1 * nd - h2 - h1
    r2 = len(k1)
    k2 = _cover_kernel_ambient(a, r1, k1) if k1 else []
    h3 = _hom_rank(a, n_module, k2, r2)
    return r2 * nd - h3 - h2
