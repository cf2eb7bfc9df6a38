"""Stanley-Reisner machinery: dimension, depth, Cohen-Macaulay witnesses,
f-vectors, Hilbert series and multiplicity of monomial quotients.

Depth is computed from the squarefree graded Betti numbers: beta_{j,W} equals
the dimension of the reduced homology of the induced subcomplex on W in
degree |W|-j-1, and the depth is the variable count minus the top nonzero j.
Non-squarefree ideals are polarized by the scan (``_Scan``); dimension and
depth drop by the number of added variables.  Every invariant below reads the
ideal's one scan (``_scan_of``), built at most once per ideal object, as its
polarization is; Theorem B's square quotient reads the scan of the partly
whiskered ring its polarization equals (``_adopt_scan``, which compares the
two polarizations as ``MonomialIdeal.__eq__`` does). A scan takes its
1-skeleton from the polarization's neighbour masks, which are its non-face
pairs, and reads its face vertices and its larger non-faces off the
polarization's other generators (``_rest``): the linear ones are the
variables that are no face vertex. The f-vector,
Hilbert series and multiplicity read one count of the full complex's faces
(``_Scan.f_counts``); ``f_vector`` takes the squarefree ideal itself, not a
complex, and the series and the multiplicity are those of the polarization.
Depth and the CM check refuse a ring whose polarization has more than
``_MAX_VARS`` variables, counted from the exponents before it polarizes
(``_limited_scan``). The dimension, the Hilbert series and the multiplicity
refuse above it only a non-squarefree ring, whose polarization grows with its
exponents (``_face_scan``); ``krull_dim`` answers a certified ring at any size.

Dimension, depth and Cohen-Macaulayness try a certificate first. For a flag
complex a shedding order (``_Scan.vd_facet_sizes``) proves it
vertex-decomposable, hence shellable and sequentially Cohen-Macaulay over
every field (Bjorner-Wachs), so its depth is its smallest facet size, its
dimension its largest facet size (the largest face of any complex is a facet),
and it is Cohen-Macaulay iff pure. The shedding search strips cone apexes
before it looks for a shedding vertex, and settles in one step a base that is
a whiskered graph, or one with a single vertex beside its whiskers: such a
graph is vertex-decomposable (Dochtermann-Engstrom, Electron. J. Combin. 16,
2009, Thm 4.4, and Woodroofe's shedding lemma), and each facet holds one
vertex of each whisker. So Sigma_G is certified at its root, and so is a
partly whiskered ring whose unwhiskered vertex is no leaf of G, which holds for
every Theorem B ring with n >= 3. Only an uncertified ring runs the max-face
search. A pure
certificate is audited before it answers the CM check, as a wedge of
top-dimensional spheres: its reduced mod-2 Betti numbers must vanish below
the top degree and equal its reduced Euler characteristic, up to sign, there
(``_Scan.is_sphere_wedge_shaped``). They are read on the complex folded to a
core of the same homotopy type, by deleting every vertex whose non-face
neighbourhood contains another vertex's (Engstrom's fold lemma,
``_Scan._folded_core``); Sigma_G folds to one vertex whenever G has an edge,
so its audit costs one 1 x 1 GF(2) rank. Every other complex, and every
non-CM witness, goes through the scan below.

Depth and Cohen-Macaulayness share one exact, pruned subset scan: degrees -1
and 0 are field-independent and settled for every W in one pass (degree 0 by
bitmask BFS, ``graphs._component_mask``); cones are contractible and skipped;
and over the rationals a GF(2) rank screen settles vanishing (an r x r minor
that is nonzero mod 2 is nonzero over the integers, so rational Betti numbers
are bounded above by the mod-2 ones); only subsets that survive the screen
pay for exact rational elimination.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import comb

from .fields import GF2, FieldSpec
from .graphs import _component_mask
from .linalg import gf2_rank, modp_rank, rational_rank
from .monomials import MonomialIdeal, _same_generators, polarize

_MAX_VARS = 14


def f_vector(ideal: MonomialIdeal) -> tuple:
    """(f_-1, f_0, ..., f_{d-1}) of the Stanley-Reisner complex of a
    squarefree ideal: f_{i-1} counts the squarefree monomials of degree i
    outside the ideal."""
    if not ideal.is_squarefree():
        raise ValueError("ideal is not squarefree; polarize first")
    return _scan_of(ideal).f_counts


def krull_dim(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient ring (polarizing internally if needed).

    A ring with generators of degree <= 2 polarizes to a flag complex, with
    at most twice its variables, and a certified one reads its dimension off
    the shedding certificate at any size.  Every other ring runs the
    max-face search, which ``_face_scan`` refuses for a non-squarefree ring
    above the size limit."""
    if ideal._max_degree() <= 2:
        scan = _scan_of(ideal)
        sizes = scan.vd_facet_sizes
        if sizes is not None:
            return sizes[1] - scan.added
    scan = _face_scan(ideal)
    return scan.max_face_size - scan.added


def depth(ideal: MonomialIdeal, field: FieldSpec) -> int:
    """Depth of the quotient over the given field."""
    scan = _limited_scan(ideal)
    sizes = scan.vd_facet_sizes
    if sizes is not None:
        return sizes[0] - scan.added
    top = scan.top_hochster((field,), 0)[field]
    pd = 0 if top is None else top[0].bit_count() - 1 - top[1]
    return scan.n - pd - scan.added


def cohen_macaulay_witness_fields(ideal: MonomialIdeal, fields) -> dict:
    """Each field's Cohen-Macaulay witness, from one subset scan: None when
    the quotient is Cohen-Macaulay over the field, otherwise
    {"subset": W, "homology_degree": i, "dim": d}, a nonzero reduced homology
    H_i of the subcomplex induced on W (variable names, sorted) that puts
    the depth below the dimension d.

    The scan shares its combinatorics and GF(2) ranks between the fields (over
    the rationals vanishing is settled by the mod-2 screen), so checking q and
    fp:2 together costs about as much as one of them.
    """
    scan = _limited_scan(ideal)
    sizes = scan.vd_facet_sizes
    if sizes is not None and sizes[0] == sizes[1] and scan.is_sphere_wedge_shaped(sizes[1]):
        return dict.fromkeys(fields)
    d = scan.max_face_size if sizes is None else sizes[1]
    found = scan.top_hochster(tuple(fields), scan.n - d)
    out = {}
    for f, witness in found.items():
        if witness is None:
            out[f] = None
        else:
            w_mask, i = witness
            out[f] = {
                "subset": sorted(scan.ambient[k] for k in range(scan.n) if w_mask >> k & 1),
                "homology_degree": i,
                "dim": d - scan.added,
            }
    return out


def hilbert_series(ideal: MonomialIdeal) -> tuple[tuple, int]:
    """The Hilbert series as (numerator coefficients, d) with denominator (1-t)^d.

    Non-squarefree input is polarized first and the series refers to the
    polarized ring.
    """
    fv = _face_scan(ideal).f_counts
    d = len(fv) - 1
    num = [0] * (d + 1)
    for i, fi in enumerate(fv):
        # f_{i-1} t^i (1-t)^(d-i)
        for k in range(d - i + 1):
            num[i + k] += fi * comb(d - i, k) * (-1) ** k
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num), d


def multiplicity(ideal: MonomialIdeal) -> int:
    """Number of top-dimensional facets of the polarization's complex, the
    numerator of ``hilbert_series`` at t=1; refused as that series is."""
    return _face_scan(ideal).f_counts[-1]


# ---------------------------------------------------------------------------
# the subset-homology scanner
# ---------------------------------------------------------------------------


def _scan_of(ideal: MonomialIdeal) -> "_Scan":
    """The ideal's scan, built on first use and kept on the ideal object (never
    looked up by value, so equal ideals built apart share nothing)."""
    scan = ideal.__dict__.get("_scan")
    if scan is None:
        scan = _Scan(ideal)
        object.__setattr__(ideal, "_scan", scan)
    return scan


def _adopt_scan(ideal: MonomialIdeal, twin: MonomialIdeal) -> bool:
    """Whether the polarizations of ``ideal`` and ``twin`` agree up to names
    (same variable count and generators); if so ``ideal`` gets a copy of
    ``twin``'s scan with its own names and ``added``.  The copy shares the
    masks and the cached searches, which nothing rewrites."""
    pol, twin_pol = polarize(ideal), polarize(twin)
    same = _same_generators(pol, twin_pol)
    if same:
        scan = object.__new__(_Scan)
        scan.__dict__.update(_scan_of(twin).__dict__, ambient=pol.ambient, added=pol.nvars - ideal.nvars)
        object.__setattr__(ideal, "_scan", scan)
    return same


def _limited_scan(ideal: MonomialIdeal) -> "_Scan":
    """The ideal's scan, or a refusal when the ring is too large for the
    subset scan; called by depth and the CM check before either scans.  A new
    scan is refused before it polarizes, on the polarization's variable count
    (``MonomialIdeal._polarized_nvars``)."""
    scan = ideal.__dict__.get("_scan")
    n = scan.n if scan is not None else ideal._polarized_nvars()
    if n > _MAX_VARS:
        raise ValueError(f"size limit exceeded: {n} variables after polarization")
    return _scan_of(ideal)


def _face_scan(ideal: MonomialIdeal) -> "_Scan":
    """The ideal's scan for the face enumeration and the max-face search.  A
    squarefree ring is taken at any size, as given; a non-squarefree one goes
    through ``_limited_scan``, since x^k polarizes to k variables (the search
    on x^2000 recursed past Python's limit, and x^k has 2^k - 1 faces)."""
    return _scan_of(ideal) if ideal.is_squarefree() else _limited_scan(ideal)


class _Scan:
    """Face combinatorics of the polarization of one monomial ideal, on
    bitmasks; ``added`` counts the variables the polarization added."""

    def __init__(self, ideal: MonomialIdeal):
        work = polarize(ideal)
        self.ambient = work.ambient
        n = self.n = work.nvars
        self.added = n - ideal.nvars
        bits = [1 << k for k in range(n)]
        # a linear generator removes a face vertex, and a larger one is a non-face
        face_verts, big = (1 << n) - 1, []
        for g in work._rest:
            mask = sum(compress(bits, g))
            if mask & (mask - 1):
                big.append(mask)
            else:
                face_verts ^= mask
        self.face_verts = face_verts
        # bit b of compat[a] iff {a,b} is a face: the masks are the non-face pairs
        self.compat = [face_verts & ~(bit | nbrs) if face_verts & bit else 0 for bit, nbrs in zip(bits, work._graph)]
        self.flag = not big
        self.gens_by_vertex = [[m for m in big if m & bit] for bit in bits]

    # -- faces ---------------------------------------------------------------

    def _extend_ok(self, mask: int, v: int) -> bool:
        """Does adding vertex v to the face ``mask`` avoid every generator of
        degree >= 3 (the quadratic ones are handled by ``compat``)?"""
        cand = mask | (1 << v)
        for g in self.gens_by_vertex[v]:
            if g & ~cand == 0:
                return False
        return True

    def faces_by_size(self, wfv: int, smax: int) -> list[list[int]]:
        """Face masks inside wfv grouped by size 0..smax (wfv: face vertices
        only), built level by level: each face keeps the vertices above its
        last one that may still extend it.  So each size lists its faces in
        lexicographic order of their ascending vertex tuples, which fixes the
        signs of ``_signed``."""
        out: list[list[int]] = [[0]]
        level, allowed = [0], [wfv]
        compat = self.compat
        flag = self.flag
        extend_ok = self._extend_ok
        for _ in range(smax):
            faces, nxt = [], []
            for mask, free in zip(level, allowed):
                while free:
                    bit = free & -free
                    v = bit.bit_length() - 1
                    free ^= bit
                    if flag or extend_ok(mask, v):
                        faces.append(mask | bit)
                        nxt.append(free & compat[v])
            out.append(faces)
            level, allowed = faces, nxt
        return out

    @cached_property
    def f_counts(self) -> tuple[int, ...]:
        """Faces of the full complex counted by size, enumerated once per scan."""
        by_size = self.faces_by_size(self.face_verts, self.n)
        while len(by_size) > 1 and not by_size[-1]:
            by_size.pop()
        return tuple(len(s) for s in by_size)

    @cached_property
    def max_face_size(self) -> int:
        """Size of a largest face, by branch and bound over faces, depth first
        with the vertices in ascending order; a branch stops once its face
        plus every candidate left cannot beat the best size, which is
        re-checked whenever a branch is resumed after its child.  The branches
        wait on an explicit stack, so the search has no recursion depth to
        exceed."""
        best = 0
        # (face, its size, candidates above its last vertex)
        stack = [(0, 0, self.face_verts)]
        while stack:
            mask, size, scan = stack.pop()
            best = max(best, size)
            while scan and size + scan.bit_count() > best:
                bit = scan & -scan
                v = bit.bit_length() - 1
                scan ^= bit
                if self.flag or self._extend_ok(mask, v):
                    # finish the branch through v, then come back for the rest
                    stack.append((mask, size, scan))
                    stack.append((mask | bit, size + 1, scan & self.compat[v]))
                    break
        return best

    @cached_property
    def vd_facet_sizes(self) -> tuple[int, int] | None:
        """(smallest, largest) facet size of a flag complex certified
        vertex-decomposable, or None (non-flag, or no certificate found).

        The graph has the non-faces {a, b} as edges. Its isolated vertices
        are cone apexes: they are stripped first, the base is certified, and
        every facet gains the apexes. A base whose leaves and their one
        neighbours (hubs) form p pairs that are pairwise equal or disjoint
        settles at once when the pairs cover it, a whiskered graph, or cover
        all of it but one vertex s:

        - every facet holds exactly one vertex of each pair: at most one,
          since the two are adjacent, and at least one, since a facet
          missing both could take the leaf;
        - a whiskered graph is vertex-decomposable (Dochtermann-Engstrom,
          Electron. J. Combin. 16, 2009, Thm 4.4), and its facet sizes are
          (p, p);
        - when s is left over, it is no leaf, and each leaf is adjacent only
          to its hub, so s touches only hubs. Call a graph that is p such
          pairs plus at most one vertex touching only hubs a one-short
          graph. Each hub h is a shedding vertex, since N[leaf] lies in N[h]
          (Woodroofe). If s is an apex, the complex is a cone over a
          whiskered one. Otherwise shed a hub h next to s: its link
          G - N[h] loses s and is a whiskered graph beside apexes, and its
          deletion G - h is a one-short graph with one pair fewer beside
          the apex its leaf became (its s may now be a leaf, which the class
          allows). So the complex is vertex-decomposable by induction on p;
        - a facet through s holds s and one vertex of each pair, size
          p + 1 (s and every leaf is one), and a facet avoiding s holds one
          vertex of each pair, size p. One exists, since s is no apex and
          so has a hub neighbour h: h and every other leaf. The facet sizes
          are (p, p + 1).

        Otherwise a vertex v with a neighbour w such that N[w] lies in N[v]
        is a shedding vertex (Woodroofe), so the complex is
        vertex-decomposable when both its deletion G - v and its link
        G - N[v] are; its facets are those of the deletion and those of the
        link coned by v. Only the first such v is tried at each step, so
        None proves nothing about the complex. The steps run on an explicit
        stack, so the search has no recursion depth to exceed, and each
        step strips only the vertices whose neighbourhood it changed."""
        if not self.flag:
            return None
        fv = self.face_verts
        closed = [fv & ~c for c in self.compat]  # read only at face vertices

        def strip(mask: int, touched: int) -> tuple[int, int]:
            """(mask without its cone apexes, how many were stripped), where
            only the vertices of ``touched`` can be apexes of the mask."""
            base = mask
            scan = mask & touched
            while scan:
                bit = scan & -scan
                scan ^= bit
                if closed[bit.bit_length() - 1] & mask == bit:
                    base ^= bit
            return base, mask.bit_count() - base.bit_count()

        def whisker_pairs(base: int) -> tuple[int, int] | None:
            """The facet sizes (p, p) of an apex-free base whose p pairs
            (leaf, its one neighbour) are pairwise equal or disjoint and
            cover it, (p, p + 1) when they cover all of it but one vertex,
            else None.  A K2 is one pair, seen from both ends."""
            covered = pairs = 0
            scan = base
            while scan:
                bit = scan & -scan
                scan ^= bit
                near = closed[bit.bit_length() - 1] & base
                nbrs = near ^ bit
                if nbrs & (nbrs - 1) == 0:  # one neighbour: a leaf
                    if not near & covered:
                        covered |= near
                        pairs += 1
                    elif not bit & covered:  # its neighbour is in another pair
                        return None
            rest = base ^ covered
            if rest & (rest - 1):
                return None
            return pairs, pairs + (rest != 0)

        def shedding(base: int) -> tuple[int, int] | None:
            """(first shedding vertex v, N[v]) of an apex-free base, or None."""
            scan = base
            while scan:
                bit = scan & -scan
                scan ^= bit
                near = closed[bit.bit_length() - 1] & base
                nbrs = near ^ bit
                while nbrs:
                    w = nbrs & -nbrs
                    nbrs ^= w
                    if closed[w.bit_length() - 1] & base & ~near == 0:
                        return bit, near
            return None

        # facet sizes of each apex-free base; a base's deletion and link,
        # each stripped, are settled before it
        memo: dict[int, tuple[int, int] | None] = {0: (0, 0)}
        parts: dict[int, tuple] = {}
        root, apexes = strip(fv, fv)
        stack = [root]
        while stack:
            base = stack[-1]
            if base in memo:
                stack.pop()
                continue
            if base not in parts:
                sizes = whisker_pairs(base)
                shed = sizes is None and shedding(base)
                if not shed:  # settled by the whisker rule, or no shedding vertex
                    memo[base] = sizes
                    stack.pop()
                    continue
                bit, near = shed
                # the deletion changes N[v]'s neighbourhoods, the link those
                # of every vertex next to N[v]
                reach = 0
                scan = near
                while scan:
                    w = scan & -scan
                    scan ^= w
                    reach |= closed[w.bit_length() - 1]
                parts[base] = (strip(base ^ bit, near), strip(base & ~near, reach))
            (dele, d_apexes), (link, l_apexes) = parts[base]
            waiting = [b for b in (dele, link) if b not in memo]
            if waiting:
                stack += waiting
                continue
            stack.pop()
            ds, ls = memo[dele], memo[link]
            memo[base] = ds and ls and (
                min(ds[0] + d_apexes, ls[0] + l_apexes + 1),
                max(ds[1] + d_apexes, ls[1] + l_apexes + 1),
            )
        out = memo[root]
        return out and (out[0] + apexes, out[1] + apexes)

    def _folded_core(self) -> int:
        """The face vertices left after deleting, one at a time and until
        none qualifies, a vertex w whose neighbourhood in the graph of
        non-faces contains some other vertex u's.  Such a u is no neighbour
        of w, and the flag complex keeps its homotopy type (the fold lemma:
        Engstrom, Europ. J. Combin. 29, 2008), so a cone folds to one vertex.
        A non-flag scan keeps every face vertex."""
        core = self.face_verts
        if not self.flag:
            return core
        apart = [core & ~c ^ (1 << v) for v, c in enumerate(self.compat)]  # read only at face vertices
        scan = core
        while scan:
            bit = scan & -scan
            scan ^= bit
            outside = ~apart[bit.bit_length() - 1]
            others = core ^ bit
            while others:
                u = others & -others
                others ^= u
                if apart[u.bit_length() - 1] & core & outside == 0:
                    core ^= bit
                    scan = core  # a deletion can free a vertex passed over before
                    break
        return core

    def is_sphere_wedge_shaped(self, d: int) -> bool:
        """Audit of a pure certificate, for d the top face size of a pure flag
        complex: a pure vertex-decomposable complex is a wedge of
        (d-1)-spheres, so its reduced mod-2 Betti numbers in degrees 0..d-1
        are (0, ..., 0, (-1)^(d-1) times its reduced Euler characteristic).
        They are read on the folded core (``_folded_core``), which has the
        complex's homotopy type; a core of one vertex costs one 1 x 1 GF(2)
        rank. False means the certificate is wrong."""
        if d == 0:
            return True
        cache = _SubsetHomology(self, self._folded_core(), d - 1)
        chi = sum((-1) ** (s - 1) * len(faces) for s, faces in enumerate(cache.faces))
        want = [0] * (d - 1) + [(-1) ** (d - 1) * chi]
        return [cache.betti(i, GF2) for i in range(d)] == want

    # -- cheap topology ------------------------------------------------------

    def n_components(self, wfv: int) -> int:
        count = 0
        rem = wfv
        while rem:
            rem &= ~_component_mask(self.compat, rem & -rem, wfv)
            count += 1
        return count

    def is_cone(self, w_mask: int, wfv: int) -> bool:
        """True when some vertex of wfv extends every face of the induced
        subcomplex (which is then contractible)."""
        scan = wfv
        while scan:
            bit = scan & -scan
            u = bit.bit_length() - 1
            scan ^= bit
            if self.compat[u] & wfv != wfv & ~bit:
                continue
            if all(g & ~w_mask for g in self.gens_by_vertex[u]):
                return True
        return False

    # -- exact homology ------------------------------------------------------

    def reduced_betti(self, w_mask: int, i: int, field: FieldSpec) -> int:
        """dim of reduced homology of the induced subcomplex in degree i >= -1."""
        return _SubsetHomology(self, w_mask & self.face_verts, i).betti(i, field)

    # -- the Hochster scan -----------------------------------------------------

    def top_hochster(self, fields, floor: int) -> dict:
        """Per field, a witness (W, i) of the largest j = |W|-1-i > floor with
        H~_i(Delta_W) != 0, or None; the largest j is the projective dimension.

        Connected subsets that could beat the best j of degrees -1 and 0 are
        walked in descending (size, mask) order, each with one _SubsetHomology
        shared by all fields, so q reuses the GF(2) ranks."""
        face_verts = self.face_verts
        best, top = floor, None
        queue: list[tuple[int, int]] = []
        for w in range(1, 1 << self.n):
            size = w.bit_count()
            wfv = w & face_verts
            if wfv == 0:
                if size > best:
                    best, top = size, (w, -1)
                continue
            if size - 1 <= best:
                continue
            if self.n_components(wfv) > 1:
                best, top = size - 1, (w, 0)
            elif size - 2 > best:
                queue.append((size, w))
        queue.sort(reverse=True)
        best_of = dict.fromkeys(fields, best)
        top_of = dict.fromkeys(fields, top)
        for size, w in queue:
            low = min(best_of.values())
            if size - 2 <= low:
                break
            wfv = w & face_verts
            if self.is_cone(w, wfv):
                continue
            cache = _SubsetHomology(self, wfv, size - 2 - low)
            for f in fields:
                for i in range(1, size - 1 - best_of[f]):
                    if cache.betti_positive(i, f):
                        best_of[f], top_of[f] = size - 1 - i, (w, i)
                        break
        return top_of


class _SubsetHomology:
    """Face lists and boundary ranks of one induced subcomplex, cached so that
    consecutive homology degrees share their boundary computations."""

    __slots__ = ("faces", "_ranks")

    def __init__(self, scan: "_Scan", wfv: int, max_degree: int):
        # faces of size s have dimension s-1; degree i needs sizes i..i+2
        self.faces = scan.faces_by_size(wfv, min(max_degree + 2, wfv.bit_count()))
        self._ranks: dict[tuple[int, int | None], int] = {}

    def _faces_at(self, size: int) -> list[int]:
        """The faces of one size; [] for any size outside 0..top."""
        return self.faces[size] if 0 <= size < len(self.faces) else []

    def rank(self, t: int, p: int | None) -> int:
        """Rank of the boundary map from size t + 1 to size t over GF(p), or
        over q when p is None; an empty map makes no kernel call."""
        got = self._ranks.get((t, p))
        if got is None:
            faces, subfaces = self._faces_at(t + 1), self._faces_at(t)
            if not faces or not subfaces:
                got = 0
            elif p == 2:
                got = gf2_rank(_boundary(faces, subfaces))
            else:
                rows = [_signed(row, len(subfaces)) for row in _boundary(faces, subfaces)]
                got = rational_rank(rows) if p is None else modp_rank(rows, p)
            self._ranks[(t, p)] = got
        return got

    def betti(self, i: int, field: FieldSpec) -> int:
        return len(self._faces_at(i + 1)) - self.rank(i, field.p) - self.rank(i + 1, field.p)

    def betti_positive(self, i: int, field: FieldSpec) -> bool:
        """Exact test H~_i != 0; over q the mod-2 betti screens first (a rank
        is never smaller over q than mod 2, so betti_q <= betti_2)."""
        if field.is_rational and self.betti(i, GF2) == 0:
            return False
        return self.betti(i, field) > 0


def _boundary(faces: list[int], subfaces: list[int]) -> list[int]:
    """The boundary map from faces to subfaces, one packed row per face: bit j
    is set when ``subfaces[j]`` is a facet of the face."""
    index = {m: pos for pos, m in enumerate(subfaces)}
    rows = []
    for m in faces:
        row = 0
        scan = m
        while scan:
            bit = scan & -scan
            scan ^= bit
            row |= 1 << index[m ^ bit]
        rows.append(row)
    return rows


def _signed(row: int, width: int) -> list[int]:
    """A packed ``_boundary`` row, dense and signed: subfaces come in
    lexicographic order (``faces_by_size``), so the facet at the k-th highest
    set bit drops the face's k-th lowest vertex and gets sign (-1)^k."""
    out, sign = [0] * width, 1
    while row:
        j = row.bit_length() - 1
        row ^= 1 << j
        out[j], sign = sign, -sign
    return out
