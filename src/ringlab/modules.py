"""Finitely generated modules over a truncated local algebra and their
homological invariants.

A module is a k-basis plus the action of each ambient variable as sparse
columns: column j lists the nonzero (row, entry) pairs of x_k times basis
element j.  Everything else (the action of the algebra's basis elements,
built along the division tree, Hom, Ext, Tor, syzygies) is plain exact linear
algebra on sparse vectors {index: entry}, which enter ``linalg``'s
Gauss-Jordan with no dense row in between.  The public edges keep that
form: a hand-built ``FPModule`` turns its rows of field elements into sparse
columns, and ``hom_module`` returns each basis map as its sparse
``null_space`` vector, so the engine builds no dense matrix at all.  Only a
hand-built ``FPModule`` has its actions checked to commute; the constructors
here trust what they build, and no kernel, Hom coordinate or differential is
re-checked at run time (``tests/algebra_oracle.check_resolution`` and the
solve route of ``tests/test_graded_modules.py`` prove them).  Hom(C, C) is
never built: ``is_semidualizing_up_to`` reads its dimension as Ext^0(C, C)
and the homothety's injectivity as C's faithfulness; total reflexivity builds
Hom(M, A) once and Hom(M*, A) for dim M**.

Matlis duality skips resolutions.  M^v = Hom_k(M, k) with the transposed
action (``_matlis_dual``) is Hom_A(M, E), so dim Ext^i(k, M) = beta_i(M^v)
and Ext^i(C, C) = Ext^i(C^v, C^v).  ``bass_truncation`` resolves M^v and
ranks nothing; a trivially graded M gives a trivially graded M^v, resolved
as one block even over a graded algebra.  ``is_semidualizing_up_to`` runs
on whichever of C and C^v has fewer generators, building C^v only when C
is not cyclic: the canonical module of a non-Gorenstein algebra runs as its
dual, A.

Minimal free resolutions are computed by syzygy iteration: the kernel of each
presentation map, sparse from ``linalg.null_space``, spans a k-subspace of
the ambient free module, and the next differential's columns are kernel
vectors chosen to span the kernel modulo its m-multiples.  Each step first
counts the kernel's basis vectors by degree; that count decides, with no
elimination, every degree that is all m-multiples or has none, every
kernel of a degree block that the count already fixes, and which products
are formed at all (see ``_resolution_step``).  It is exact only for a
homogeneous action, so a hand-built ``FPModule`` has its degrees checked
against its action too.  The kernel of a cover is taken only when the next
degree is asked for: the state keeps the last cover as plain data, so a
resolution to degree b stops after beta_b and d_b, a later call resumes it,
and a resolved module still pickles.  Only the degree blocks that are
eliminated get a row index, read off the previous kernel step's column
groups.

The work is split by degree.  ``residue_field``, ``free_module``,
``canonical_module`` and ``cyclic_module`` on homogeneous generators give
every basis element a degree in the algebra's grading (``LocalAlgebra.degrees``:
multidegrees for monomial presentations, total degrees for homogeneous ones),
so the syzygies are homogeneous: minimal generators, kernels and the Hom and
tensor ranks behind Ext and Tor are computed one degree block at a time, on
sparse vectors.  The differentials keep that form: each column is a sparse
vector {row * dim_k + basis index: coefficient}, and one homology routine
reads them to give Ext and Tor.  Every other module (hand-built ones
without degrees, ``hom_module``, ``dual_module``, quotients by
inhomogeneous elements) and every module over an inhomogeneous
presentation is trivially graded: each degree is (), and the whole
computation is one block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .artin import LocalAlgebra, _act, _ideal_span, _transpose
from .fields import FieldSpec
from .linalg import Subspace, _rank, null_space

_MAX_BOUND = 12
# Largest Hom system, in cells of its dense shape (nvars * dim M * dim N sparse
# rows by dim M * dim N unknowns), that hom_module builds.  On one core of a
# 2-core Xeon host under Python 3.11, Hom(A, A) for sigma(P3) at order 3 (dim
# 23, 1.7e6 cells) takes 0.12 s over GF(2), 0.03 s over GF(3) and 0.06 s over
# q; for sigma(P2) at order 5 (dim 35, 6.0e6 cells) 0.52, 0.10 and 0.17 s, with
# a traced peak under 2.5 MB.  sigma(P3) at order 4 (dim 54) needs 5.1e7 cells.
_MAX_HOM_CELLS = 4_000_000


class FPModule:
    """A finite-dimensional module over a LocalAlgebra.

    ``FPModule(algebra, dim, actions)`` builds a module by hand: ``actions``
    holds one action per variable, each ``dim`` rows of field elements (nested
    lists or tuples; row i, column j is the coefficient of basis element i in
    x_k times basis element j), and the actions must commute.  ``degrees``
    gives each basis element a degree in the algebra's grading (see
    ``LocalAlgebra.degrees``), under which x_k must send degree d only to
    degree d + deg(x_k); without it, or with every degree (), the module is
    trivially graded.  The action is kept as sparse columns: column j of
    ``var_sparse[k]`` lists the nonzero (row, entry) pairs of x_k times basis
    element j.
    """

    def __init__(self, algebra: LocalAlgebra, dim: int, actions, label: str | None = None, degrees=None):
        if len(actions) != algebra.nvars:
            raise ValueError("need one action per variable")
        if degrees is not None and len(degrees) != dim:
            raise ValueError("need one degree per basis element")
        f = algebra.field
        cols = []
        for rows in actions:
            if len(rows) != dim or any(len(row) != dim for row in rows):
                raise ValueError("action has wrong shape")
            entries = [[f.coerce(x) for x in row] for row in rows]
            cols.append([[(i, x) for i, x in enumerate(col) if x] for col in zip(*entries)])
        for i, x in enumerate(cols):
            for y in cols[i + 1 :]:
                if any(_act(f, x, dict(yj), dim) != _act(f, y, dict(xj), dim) for xj, yj in zip(x, y)):
                    raise AssertionError("variable actions do not commute")
        if degrees is not None:
            degrees = _check_degrees(algebra, cols, degrees)
        self._build(algebra, dim, cols, label, degrees)

    @classmethod
    def _trusted(cls, *args, **kwargs) -> "FPModule":
        """A module given by the sparse columns of its variable actions, whose
        actions commute by construction, built unchecked;
        ``tests/algebra_oracle.check_module_action`` covers its callers."""
        m = cls.__new__(cls)
        m._build(*args, **kwargs)
        return m

    def _build(self, algebra: LocalAlgebra, dim: int, var_sparse, label: str | None = None, degrees=None) -> None:
        self.algebra = algebra
        self.dim = dim
        self.label = label
        self.degrees = ((),) * dim if degrees is None else tuple(degrees)
        self.var_sparse = var_sparse
        self._basis_actions: list[list[dict] | None] = [None] * algebra.dim_k
        self._res_state: dict | None = None

    def _basis_action(self, b: int) -> list[dict]:
        """Action of the b-th algebra basis element as sparse columns
        {row: entry}, built along the division tree."""
        if self._basis_actions[b] is None:
            parent = self.algebra.basis_parents[b]
            if parent is None:
                one = self.algebra.field.one()
                self._basis_actions[b] = [{j: one} for j in range(self.dim)]
            else:
                cols = self.var_sparse[parent[0]]
                below = self._basis_action(parent[1])
                self._basis_actions[b] = [_act(self.algebra.field, cols, col, self.dim) for col in below]
        return self._basis_actions[b]

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"FPModule(dim {self.dim} over dim-{self.algebra.dim_k} algebra{tag})"


def _check_degrees(algebra: LocalAlgebra, cols, degrees) -> list:
    """A hand-built grading as tuples of ints.  Like ``monomials._exponents``
    it refuses an entry that is not an integer value (0.5, "a"), and a bool;
    negative entries are legal, as in canonical degrees.  Every variable
    action must be homogeneous, for the resolution counts each degree
    block's dimension and trusts the count.  An all-() grading is trivial."""
    ints = []
    for deg in degrees:
        try:
            deg = tuple(deg)
            ints.append(tuple(map(int, deg)))
        except (TypeError, ValueError, OverflowError):
            ints.append(None)
        if ints[-1] != deg or any(isinstance(e, bool) for e in deg):
            raise ValueError(f"degree {deg!r} is not a tuple of integers")
    degrees = ints
    if not any(degrees):
        return degrees
    width = len(algebra.degrees[0])
    for deg in degrees:
        if len(deg) != width:
            raise ValueError(f"degree {deg} has length {len(deg)}, but the algebra's degrees have length {width}")
    for k, name in enumerate(algebra.var_names):
        shift = algebra._grade(algebra._var_monomial(k))
        for j, col in enumerate(cols[k]):
            target = _deg_sum(degrees[j], shift)
            for i, _ in col:
                if degrees[i] != target:
                    raise ValueError(f"{name} sends degree {degrees[j]} to {degrees[i]}, not {target}")
    return degrees


@dataclass(frozen=True)
class Resolution:
    """Betti numbers and differentials of a minimal free resolution.

    ``differentials[i]`` presents the map A^betti[i+1] -> A^betti[i] as a
    tuple of columns; each column is a sparse vector of A^betti[i], a dict
    {r * dim_k + b: c} holding only the nonzero coefficients c of basis
    element b in row r.  The resolution is minimal: no column has a unit
    component, since ``_resolution_step`` takes the generators modulo the
    m-multiples.
    ``degrees[i]`` holds the degrees of the basis of F_i, under which every
    differential is homogeneous of degree zero.
    """

    betti: tuple
    differentials: tuple
    degrees: tuple = ()


# ---------------------------------------------------------------------------
# module constructors
# ---------------------------------------------------------------------------


def residue_field(a: LocalAlgebra) -> FPModule:
    return FPModule._trusted(a, 1, [[[]]] * a.nvars, label="k", degrees=[a.degrees[0]])


def free_module(a: LocalAlgebra) -> FPModule:
    return FPModule._trusted(a, a.dim_k, a.var_sparse, label="A", degrees=a.degrees)


def cyclic_module(a: LocalAlgebra, gens) -> FPModule:
    """A/(gens) with the induced action; gens are element vectors in m.

    Homogeneous generators span a graded ideal, whose reduced echelon rows
    are homogeneous too, so the quotient keeps the degrees of its basis."""
    gens = list(gens)
    for g in gens:
        if not a._in_maximal_ideal(g):
            raise ValueError("cyclic quotient generators must lie in the maximal ideal")
    ideal = _ideal_span(a, gens)
    pivots = set(ideal.pivots())
    free_coords = [j for j in range(a.dim_k) if j not in pivots]
    # a residual has no entry at a pivot, so each of its columns is free
    index = {j: i for i, j in enumerate(free_coords)}
    actions = [
        [[(index[t], x) for t, x in ideal._residual(dict(a.var_sparse[k][j]))] for j in free_coords]
        for k in range(a.nvars)
    ]
    graded = all(len({a.degrees[i] for i, c in enumerate(g) if c}) <= 1 for g in gens)
    degrees = [a.degrees[j] for j in free_coords] if graded else None
    return FPModule._trusted(a, len(free_coords), actions, label=f"A/({len(gens)} gens)", degrees=degrees)


# ---------------------------------------------------------------------------
# minimal free resolutions
# ---------------------------------------------------------------------------


def minimal_resolution(m: FPModule, bound: int) -> Resolution:
    """Betti numbers beta_0..beta_bound and the differentials d_1..d_bound."""
    _check_bound(bound, "resolution bound")
    state = _resolution_state(m, bound)
    return Resolution(
        tuple(state["betti"][: bound + 1]), tuple(state["diffs"][:bound]), tuple(state["degrees"][: bound + 1])
    )


def _check_bound(b: int, name: str) -> None:
    if b < 0:
        raise ValueError(f"negative {name}")
    if b > _MAX_BOUND:
        raise ValueError(f"{name} capped at {_MAX_BOUND}")


def _resolution_state(m: FPModule, bound: int) -> dict:
    if m._res_state is None:
        one = m.algebra.field.one()
        rows: dict = {}
        for j, deg in enumerate(m.degrees):
            rows.setdefault(deg, []).append(j)
        m._res_state = {
            "betti": [],
            "diffs": [],
            "degrees": [],
            "span": [{j: one} for j in range(m.dim)],
            "span_degrees": m.degrees,
            "rows": rows,
            "index": {},
            "action": (m.var_sparse, m.dim),
        }
    state = m._res_state
    while len(state["betti"]) <= bound:
        _resolution_step(m.algebra, state)
    return state


def _resolution_step(a: LocalAlgebra, state: dict) -> None:
    """One homological degree: the span's generators modulo its m-multiples
    cover it by a free module F_t, whose kernel is the next span.  The kernel
    is taken by the next step (``_cover_kernel``), so a resolution to degree
    b stops after beta_b and d_b and never takes the kernel of F_b.

    The state holds plain data: the span as homogeneous sparse vectors
    ({position: coefficient}) with their degrees, the ambient positions of
    each degree in ascending order (``rows``), and the variable action on the
    ambient space as sparse columns on one block of positions: M's own
    action at degree 0, A's on every copy of A after.  After a step it also
    holds the cover F_t pending its kernel: the generator ids (``gens``),
    the span's count per degree and the products formed.  All linear
    algebra runs per degree: the m-multiples and the generators g in one
    ``Subspace`` per degree, and the columns b * g grouped by their degree
    deg(g) + deg(b), each group's kernel taken on the rows of that degree.
    Only a block that is eliminated gets a row index ({position: row}),
    read off ``rows`` and kept for the kernel step.  Under the trivial
    grading every degree is () and there is one block.  From degree 1 on
    the generators are the columns of the next differential; taken modulo
    the m-multiples, they have no unit component.

    The span is a basis of the kernel Z, so counting its vectors by degree
    gives count[deg] = dim Z_deg, which settles much of the work without
    elimination.  Z is a submodule and the action is homogeneous, so x_k * w
    lies in Z at degree deg(w) + deg(x_k): it is not formed when the count
    misses that degree (it is zero) or that degree's ``Subspace`` of
    m-multiples is full (dimension count[deg], so (mZ)_deg = Z_deg and the
    degree has no generator).  In a degree with no m-multiple every span
    vector is a generator; only the degrees in between insert span vectors,
    in span order.  The products are formed along the division tree, once
    per step, and the kernel step reuses them."""
    if state["betti"]:
        _cover_kernel(a, state)
    f = a.field
    span, span_degrees = state["span"], state["span_degrees"]
    count: dict = {}
    for deg in span_degrees:
        count[deg] = count.get(deg, 0) + 1
    state["count"], state["formed"] = count, {}
    spaces: dict = {}

    def absorb(vec, deg) -> bool:
        # True when vec grows its degree's Subspace; a full one takes nothing
        index = _row_index(state, deg)
        if deg not in spaces:
            spaces[deg] = Subspace(f, len(index))
        space = spaces[deg]
        return space.dim < count[deg] and space._add_row({index[pos]: c for pos, c in vec.items()})

    root = a.basis_parents.index(None)
    shifts = [a._grade(a._var_monomial(k)) for k in range(a.nvars)]
    targets: dict = {}
    for i, deg in enumerate(span_degrees):
        if deg not in targets:
            targets[deg] = [(k, t) for k, s in enumerate(shifts) if (t := _deg_sum(deg, s)) in count]
        for k, t in targets[deg]:
            if (t not in spaces or spaces[t].dim < count[t]) and (v := _times(a, state, k, i, root)):
                absorb(v, t)
    gen_ids = [i for i, deg in enumerate(span_degrees) if deg not in spaces or absorb(span[i], deg)]
    if state["betti"]:
        state["diffs"].append(tuple(span[i] for i in gen_ids))
    state["betti"].append(len(gen_ids))
    state["degrees"].append(tuple(span_degrees[i] for i in gen_ids))
    state["gens"] = gen_ids


def _cover_kernel(a: LocalAlgebra, state: dict) -> None:
    """The kernel of the pending cover F_t -> span becomes the span.

    The columns b * g of F_t are grouped by degree, each group listing its
    positions in ascending order; the groups are the next step's ``rows``.
    The columns of degree deg span Z_deg, so their kernel has dimension
    len(group) - count[deg]: a group with count[deg] columns has none, and
    a group over a degree the span misses has each column {pos: 1} in its
    kernel, as ``null_space`` gives for zero rows.  So the groups come from
    degrees alone, and only the other groups form their columns (reusing
    the cover's products) and go through ``null_space``.  Kernel vectors
    come out in the order elimination would give them."""
    f, d = a.field, a.dim_k
    gen_ids, count = state["gens"], state["count"]
    shifted: dict = {}
    groups: dict = {}
    for j, gdeg in enumerate(state["degrees"][-1]):
        if gdeg not in shifted:
            shifted[gdeg] = [_deg_sum(gdeg, bdeg) for bdeg in a.degrees]
        for b, deg in enumerate(shifted[gdeg]):
            groups.setdefault(deg, []).append(j * d + b)
    one = f.one()
    kernel: list = []
    degrees: list = []
    for deg, members in groups.items():
        rank = count.get(deg, 0)  # the rank of the group's columns
        if not rank:
            found = [{pos: one} for pos in members]
        elif rank < len(members):
            columns = [(pos, _product(a, state, gen_ids[pos // d], pos % d)) for pos in members]
            index = _row_index(state, deg)
            found = _kernel_of_columns(f, columns, index, len(index))
        else:
            continue
        kernel.extend(found)
        degrees.extend([deg] * len(found))
    state["span"], state["span_degrees"], state["rows"], state["index"] = kernel, degrees, groups, {}
    state["action"] = (a.var_sparse, d)


def _times(a: LocalAlgebra, state: dict, k: int, i: int, b: int) -> dict:
    """x_k * (b * span[i]), formed along the division tree: b * span[i] is
    span[i] at the root, else x_j * (c * span[i]) for parents[b] = (j, c).
    Each x_k * (...) is kept in state["formed"], so it is formed once per
    step; the walk down the tree is a loop, so no closure holds the cache
    and the step's products are freed with the state's."""
    formed, parents = state["formed"], a.basis_parents
    chain = []
    while (k, i, b) not in formed:
        chain.append((k, b))
        if parents[b] is None:
            vec = state["span"][i]
            break
        k, b = parents[b]
    else:
        vec = formed[k, i, b]
    cols, block = state["action"]
    for k, b in reversed(chain):
        vec = formed[k, i, b] = _act(a.field, cols[k], vec, block)
    return vec


def _product(a: LocalAlgebra, state: dict, i: int, b: int) -> dict:
    """b * span[i], read off ``_times`` below the root."""
    parent = a.basis_parents[b]
    return state["span"][i] if parent is None else _times(a, state, parent[0], i, parent[1])


def _row_index(state: dict, deg) -> dict:
    """Each ambient position of degree deg to its row in the degree's block,
    built once per span, and only for the blocks that are eliminated."""
    index = state["index"]
    if deg not in index:
        index[deg] = {pos: r for r, pos in enumerate(state["rows"][deg])}
    return index[deg]


def _slots(degrees) -> tuple[list, dict]:
    """Each position's index inside the block of its degree, and the block sizes."""
    sizes: dict = {}
    slot = []
    for deg in degrees:
        slot.append(sizes.get(deg, 0))
        sizes[deg] = slot[-1] + 1
    return slot, sizes


def _deg_sum(u: tuple, v: tuple) -> tuple:
    # zip semantics: the trivial degree () absorbs every other degree
    return tuple(map(operator.add, u, v))


def _kernel_of_columns(f: FieldSpec, columns, slot, size: int) -> list[dict]:
    """The kernel, keyed by the columns' positions, of a degree block with size
    rows (slot[pos] is the row of position pos) and (position, vector) columns."""
    rows: list[dict] = [{} for _ in range(size)]
    for c, (_, vec) in enumerate(columns):
        for pos, x in vec.items():
            rows[slot[pos]][c] = x
    return [{columns[c][0]: x for c, x in w.items()} for w in null_space(f, rows, len(columns))]


# ---------------------------------------------------------------------------
# Ext / Tor and series truncations
# ---------------------------------------------------------------------------


def _check_same_algebra(am: LocalAlgebra, an: LocalAlgebra) -> None:
    if am is an:
        return
    # one basis with the same normal forms is one multiplication
    if (
        am.field == an.field
        and am.var_names == an.var_names
        and am.basis_monomials == an.basis_monomials
        and am.trunc_order == an.trunc_order
        and am._reductions == an._reductions
    ):
        return
    raise ValueError("modules live over different algebras")


def _hom_degree(e: tuple, n: tuple) -> tuple:
    return tuple(map(operator.sub, n, e))


def _block_rank(n: FPModule, state: dict, t: int, tensor: bool) -> int:
    """Rank of d_t on the Hom side, Hom(F_{t-1}, N) -> Hom(F_t, N), or with
    ``tensor`` on the tensor side, F_t (x) N -> F_{t-1} (x) N, summed over
    degree blocks.  Block (c, r) of the Hom-side matrix is the action on N of
    d_t's entry in column c, row r; the tensor side is the transposed grid.
    Each side is ranked as its transpose, one row per column of a block's
    action: row (line, s) has degree deg(e_line) + deg n_s (tensor) or
    deg n_s - deg(e_line) (Hom, the degree of e* (x) n), and so do the
    columns; the grid is homogeneous, so every nonzero entry joins a row and a
    column of one degree.  A trivially graded side makes every degree (), one
    block."""
    f = n.algebra.field
    d, nd = n.algebra.dim_k, n.dim
    terms: dict = {}
    for c, col in enumerate(state["diffs"][t - 1]):
        for pos, x in col.items():
            r, b = divmod(pos, d)
            line, cell = (c, r) if tensor else (r, c)
            terms.setdefault(line, []).append((cell * nd, x, n._basis_action(b)))
    src, dst = state["degrees"][t], state["degrees"][t - 1]
    line_degrees, cell_degrees, degree = (src, dst, _deg_sum) if tensor else (dst, src, _hom_degree)
    slot, sizes = _slots(degree(cell, dn) for cell in cell_degrees for dn in n.degrees)
    rows: dict = {}
    for line, line_terms in terms.items():
        for s, dn in enumerate(n.degrees):
            # column s of the entry's action, sum of its basis terms' columns
            row: dict = {}
            for base, c, action in line_terms:
                for i, x in action[s].items():
                    key = slot[base + i]
                    prod = f.mul(c, x)
                    row[key] = f.add(row[key], prod) if key in row else prod
            if row:
                rows.setdefault(degree(line_degrees[line], dn), []).append(row)
    return sum(_rank(f, block, sizes[key]) for key, block in rows.items())


def _homology(m: FPModule, n: FPModule, lo: int, hi: int, tensor: bool = False):
    """dim_k Ext^i(M, N), or with ``tensor`` dim_k Tor_i(M, N), for
    i = lo..hi: beta_i dim N - rank d_i - rank d_{i+1} on Hom(F, N) or
    F (x) N, F the minimal resolution of M (d_0 = 0).  Each value extends F
    only to beta_{i+1} and d_{i+1}, with the kernel of F_{i+1} left pending,
    so a caller that stops early resolves no further, and each d_t is ranked
    once per call."""
    _check_same_algebra(m.algebra, n.algebra)
    r_in = _block_rank(n, _resolution_state(m, lo), lo, tensor) if lo else 0
    for i in range(lo, hi + 1):
        state = _resolution_state(m, i + 1)
        r_out = _block_rank(n, state, i + 1, tensor)
        yield state["betti"][i] * n.dim - r_in - r_out
        r_in = r_out


def ext(m: FPModule, n: FPModule, i: int) -> int:
    """dim_k Ext^i(M, N), from a minimal resolution of M."""
    _check_bound(i, "cohomological degree")
    return next(_homology(m, n, i, i))


def tor(m: FPModule, n: FPModule, i: int) -> int:
    """dim_k Tor_i(M, N), by tensoring a minimal resolution of M with N."""
    _check_bound(i, "homological degree")
    return next(_homology(m, n, i, i, tensor=True))


def poincare_truncation(m: FPModule, b: int) -> list[int]:
    """Coefficients of the Poincare series up to degree b (the Betti numbers)."""
    return list(minimal_resolution(m, b).betti)


def bass_truncation(a: LocalAlgebra, m: FPModule, b: int) -> list[int]:
    """dims of Ext^i(k, M) for i = 0..b.

    Matlis duality gives dim Ext^i(k, M) = dim Tor_i(k, M^v) = beta_i(M^v),
    so the Bass numbers are the Betti numbers of ``_matlis_dual(m)``: one
    resolution to degree b and no rank."""
    _check_bound(b, "resolution bound")
    _check_same_algebra(a, m.algebra)
    return poincare_truncation(_matlis_dual(m), b)


# ---------------------------------------------------------------------------
# Hom, duality, reflexivity, semidualizing
# ---------------------------------------------------------------------------


def _matlis_dual(m: FPModule) -> FPModule:
    """M^v = Hom_k(M, k), which is Hom_A(M, E) for a finite-length M: x_k acts
    on the dual basis by the transpose of its action on M, and the dual of a
    basis element of degree d has degree -d (the trivial degree () stays ())."""
    actions = [_transpose(cols, m.dim) for cols in m.var_sparse]
    degrees = [tuple(-e for e in deg) for deg in m.degrees]
    return FPModule._trusted(m.algebra, m.dim, actions, label=f"({m.label or '?'})^v", degrees=degrees)


def hom_module(m: FPModule, n: FPModule):
    """Hom_A(M, N) as a module, plus its basis of homomorphisms.

    Each basis map Phi: M -> N is its ``null_space`` vector, a sparse dict
    {s * dim M + t: Phi[s][t]} holding the nonzero entries of the dim N x
    dim M matrix of Phi; its last key is its free column, where it has a 1
    and every other basis map a 0.  The Hom space is cut out by commutation
    with the variable actions only; variables generate the algebra, so this
    equals full A-linearity (tested against all-basis commutation on small
    instances).
    """
    _check_same_algebra(m.algebra, n.algebra)
    _check_hom_cells(m, n)
    f = m.algebra.field
    p = f.p
    dm, dn = m.dim, n.dim
    unknowns = dn * dm  # Phi[s][t], flat index s * dm + t
    rows = []
    for k in range(m.algebra.nvars):
        rm_cols = m.var_sparse[k]
        for a_, rn_row in enumerate(_transpose(n.var_sparse[k], dn)):
            for b_ in range(dm):
                row = {a_ * dm + t: v for t, v in rm_cols[b_]}
                for s, v in rn_row:
                    row[s * dm + b_] = f.sub(row.get(s * dm + b_, 0), v)
                rows.append(row)
    basis = null_space(f, rows, unknowns)
    # each basis map has a 1 at its own free column and a 0 at every other
    # one's, so a map of the span has its entries there as its coordinates;
    # x_k Phi is A-linear, so it lies in the span
    frees = [next(reversed(vec)) for vec in basis]
    actions = []
    for k in range(m.algebra.nvars):
        rn_cols = n.var_sparse[k]
        cols = []
        for vec in basis:
            # (rn Phi)[s][t] = sum over u of rn[s][u] Phi[u][t]
            target: dict = {}
            for pos, x in vec.items():
                u, t = divmod(pos, dm)
                for s, v in rn_cols[u]:
                    key = s * dm + t
                    target[key] = target.get(key, 0) + v * x
            coords = [target.get(j, 0) for j in frees]
            cols.append([(i, y) for i, c in enumerate(coords) if (y := c if p is None else c % p)])
        actions.append(cols)
    label = f"Hom({m.label or '?'},{n.label or '?'})"
    return FPModule._trusted(m.algebra, len(basis), actions, label=label), basis


def _check_hom_cells(m: FPModule, n: FPModule) -> None:
    unknowns = m.dim * n.dim
    rows = m.algebra.nvars * unknowns
    if rows * unknowns > _MAX_HOM_CELLS:
        raise ValueError(
            f"Hom({m.label or '?'},{n.label or '?'}) needs a {rows} x {unknowns} system, over {_MAX_HOM_CELLS} cells"
        )


def dual_module(m: FPModule) -> FPModule:
    """M* = Hom_A(M, A) with its natural action."""
    mod, _ = hom_module(m, free_module(m.algebra))
    mod.label = f"({m.label or '?'})*"
    return mod


def biduality_is_iso(m: FPModule) -> bool:
    """Is the evaluation map M -> M** bijective?"""
    return _is_bidual(m, *hom_module(m, free_module(m.algebra)))


def _is_bidual(m: FPModule, dual: FPModule, phis) -> bool:
    """``biduality_is_iso`` given M* = Hom(M, A) and its basis maps phis.

    The Hom(M*, A) system gives dim M**.  ev(e_j): Phi |-> Phi(e_j) is the
    map M* -> A with entry s of phi_t(e_j) at position s * dim M* + t, so ev
    is injective when these dim M vectors, read straight off the phis, are
    independent."""
    double, _ = hom_module(dual, free_module(m.algebra))
    if double.dim != m.dim:
        return False
    evs: list[dict] = [{} for _ in range(m.dim)]
    for t, phi in enumerate(phis):
        for pos, x in phi.items():
            s, j = divmod(pos, m.dim)
            evs[j][s * dual.dim + t] = x
    return _rank(m.algebra.field, evs, m.algebra.dim_k * dual.dim) == m.dim


def is_totally_reflexive_up_to(m: FPModule, b: int) -> bool:
    """Biduality plus Ext^i(M, A) = 0 = Ext^i(M*, A) for 1 <= i <= b.

    A bounded proxy for Gorenstein dimension zero; callers must report the
    bound, never an unconditional certificate.
    """
    _check_bound(b, "bound")
    free = free_module(m.algebra)
    dual, phis = hom_module(m, free)
    if not _is_bidual(m, dual, phis):
        return False
    duals = _homology(dual, free, 1, b)
    return all(x == 0 and next(duals) == 0 for x in _homology(m, free, 1, b))


def is_semidualizing_up_to(c: FPModule, b: int) -> bool:
    """Homothety A -> Hom(C, C) bijective and Ext^i(C, C) = 0 for 1 <= i <= b.

    No Hom system is built: dim Hom(C, C) is Ext^0(C, C), and the homothety
    is injective when C is faithful, that is when the actions of A's basis
    elements are independent.  Matlis duality is exact and contravariant on
    finite-length modules, so Ext^i(C, C) = Ext^i(C^v, C^v), the homotheties
    correspond and C^v is faithful with C: the check runs on whichever of C
    and C^v has fewer generators (ties keep C).  C^v is built only when C
    needs more than one generator, so a cyclic C builds no dual; the
    canonical module of a non-Gorenstein algebra runs as its dual, A, and is
    resolved to degree 0 only."""
    _check_bound(b, "bound")
    gens = _resolution_state(c, 0)["betti"][0]
    if gens > 1:
        dual = _matlis_dual(c)
        if _resolution_state(dual, 0)["betti"][0] < gens:
            c = dual
    a = c.algebra
    exts = _homology(c, c, 0, b)
    if next(exts) != a.dim_k:
        return False
    # the action of basis element e has entry s of e * c_t at position s * dim C + t
    actions = [
        {s * c.dim + t: x for t, col in enumerate(c._basis_action(e)) for s, x in col.items()} for e in range(a.dim_k)
    ]
    return _rank(a.field, actions, c.dim * c.dim) == a.dim_k and all(x == 0 for x in exts)
