"""Stanley-Reisner machinery: dimension, depth, Cohen-Macaulayness,
f-vectors, Hilbert series and multiplicity of squarefree monomial quotients.

Depth is computed from the squarefree graded Betti numbers: beta_{j,W} equals
the dimension of the reduced homology of the induced subcomplex on W in
degree |W|-j-1, and the depth is the variable count minus the top nonzero j.
Non-squarefree ideals are polarized first; dimension and depth drop by the
number of added variables.

The subset scan is exact but aggressively pruned: induced subcomplexes that
are cones are contractible and contribute nothing, connectivity in degree
zero is a union-find on bitmasks, and over the rationals a GF(2) rank screen
settles vanishing (an r x r minor that is nonzero mod 2 is nonzero over the
integers, so rational Betti numbers are bounded above by the mod-2 ones);
only subsets that survive the screen pay for exact rational elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .fields import FieldSpec
from .graphs import _component_mask, _mask_vertices
from .linalg import gf2_rank, modp_rank, rational_rank
from .monomials import MonomialIdeal, polarize

_MAX_VARS = 14


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets; () is void, (frozenset(),) is {∅}."""

    n: int
    facets: tuple

    def __init__(self, n: int, facets: Iterable[frozenset]):
        facets = [frozenset(f) for f in facets]
        for f in facets:
            for v in f:
                if not (1 <= v <= n):
                    raise ValueError(f"vertex {v} out of range")
        for f in facets:
            if any(f < g for g in facets):
                raise ValueError("facet contained in another facet")
        if len(set(facets)) != len(facets):
            raise ValueError("duplicate facets")
        ordered = tuple(sorted(facets, key=lambda f: (len(f), sorted(f))))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", ordered)

    def is_void(self) -> bool:
        return not self.facets

    def dim(self) -> int:
        """Dimension of the complex; -1 for {∅}, undefined (raises) for void."""
        if self.is_void():
            raise ValueError("void complex has no dimension")
        return max(len(f) for f in self.facets) - 1

    def faces(self) -> set[frozenset]:
        out: set[frozenset] = set()
        for f in self.facets:
            verts = sorted(f)
            for mask in range(1 << len(verts)):
                out.add(frozenset(verts[k] for k in range(len(verts)) if mask >> k & 1))
        return out


def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces are the squarefree monomials outside the ideal."""
    if not ideal.is_squarefree():
        raise ValueError("ideal is not squarefree; polarize first")
    scan = _Scan(ideal)
    by_size = scan.faces_by_size(scan.face_verts, scan.n)
    all_faces = [m for sub in by_size for m in sub]
    face_set = set(all_faces)
    facets = [m for m in all_faces if _is_maximal(m, scan, face_set)]
    return SimplicialComplex(scan.n, [frozenset(_mask_vertices(m)) for m in facets])


def _is_maximal(mask: int, scan: "_Scan", face_set: set[int]) -> bool:
    rest = scan.face_verts & ~mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        if (mask | bit) in face_set:
            return False
    return True


def f_vector(c: SimplicialComplex) -> tuple:
    """(f_-1, f_0, ..., f_{d-1}); the empty tuple for the void complex."""
    if c.is_void():
        return ()
    counts: dict[int, int] = {}
    for face in c.faces():
        counts[len(face)] = counts.get(len(face), 0) + 1
    d = max(counts)
    return tuple(counts.get(k, 0) for k in range(d + 1))


def krull_dim(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient ring (polarizing internally if needed)."""
    work, added = _polarized(ideal)
    return _Scan(work).max_face_size() - added


def depth(ideal: MonomialIdeal, field: FieldSpec) -> int:
    """Depth of the quotient over the given field."""
    work, added = _polarized(ideal)
    if work.nvars > _MAX_VARS:
        raise ValueError(f"size limit exceeded: {work.nvars} variables after polarization")
    pd = _Scan(work).max_hochster_j(field)
    return work.nvars - pd - added


def is_cohen_macaulay(ideal: MonomialIdeal, field: FieldSpec) -> bool:
    return cohen_macaulay_witness(ideal, field) is None


def cohen_macaulay_witness(ideal: MonomialIdeal, field: FieldSpec):
    """None when the quotient is Cohen-Macaulay over the field; otherwise a
    dict naming a subset W and homology degree witnessing depth < dim."""
    return cohen_macaulay_witness_fields(ideal, (field,))[field]


def cohen_macaulay_witness_fields(ideal: MonomialIdeal, fields) -> dict:
    """Cohen-Macaulay witnesses for several fields in one subset scan.

    The scan shares its combinatorics and GF(2) ranks between the fields (over
    the rationals vanishing is settled by the mod-2 screen), so checking q and
    fp:2 together costs about as much as one of them.
    """
    work, added = _polarized(ideal)
    if work.nvars > _MAX_VARS:
        raise ValueError(f"size limit exceeded: {work.nvars} variables after polarization")
    scan = _Scan(work)
    d = scan.max_face_size()
    found = scan.find_j_above(tuple(fields), work.nvars - d)
    out = {}
    for f, witness in found.items():
        if witness is None:
            out[f] = None
        else:
            w_mask, i = witness
            out[f] = {
                "subset": sorted(work.ambient[k] for k in range(work.nvars) if w_mask >> k & 1),
                "homology_degree": i,
                "dim": d - added,
            }
    return out


def hilbert_series(ideal: MonomialIdeal) -> tuple[tuple, int]:
    """The Hilbert series as (numerator coefficients, d) with denominator (1-t)^d.

    Non-squarefree input is polarized first and the series refers to the
    polarized ring.
    """
    work, _ = _polarized(ideal)
    scan = _Scan(work)
    fv = scan.f_counts()
    d = len(fv) - 1
    num = [0] * (d + 1)
    for i, fi in enumerate(fv):
        # f_{i-1} t^i (1-t)^(d-i)
        for k in range(d - i + 1):
            num[i + k] += fi * comb(d - i, k) * (-1) ** k
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num), d


def hilbert_coefficients(numerator: Iterable[int], d: int, count: int) -> list[int]:
    """The first ``count`` coefficients of numerator / (1-t)^d."""
    num = list(numerator)
    out = []
    for j in range(count):
        if d == 0:
            out.append(num[j] if j < len(num) else 0)
        else:
            out.append(sum(num[k] * comb(d - 1 + j - k, d - 1) for k in range(min(j, len(num) - 1) + 1)))
    return out


def multiplicity(ideal: MonomialIdeal) -> int:
    """Number of top-dimensional facets = numerator of the series at t=1."""
    if not ideal.is_squarefree():
        raise ValueError("multiplicity expects a squarefree ideal")
    fv = _Scan(ideal).f_counts()
    return fv[-1]


def _polarized(ideal: MonomialIdeal) -> tuple[MonomialIdeal, int]:
    work = polarize(ideal)
    return work, work.nvars - ideal.nvars


# ---------------------------------------------------------------------------
# the subset-homology scanner
# ---------------------------------------------------------------------------


class _Scan:
    """Face combinatorics of one squarefree ideal, on bitmasks."""

    def __init__(self, ideal: MonomialIdeal):
        if not ideal.is_squarefree():
            raise ValueError("internal scanner needs a squarefree ideal")
        self.ideal = ideal
        self.n = ideal.nvars
        self.gen_masks = []
        for g in ideal.gens:
            mask = 0
            for k, e in enumerate(g):
                if e:
                    mask |= 1 << k
            self.gen_masks.append(mask)
        self.gen_masks.sort()
        face_verts = (1 << self.n) - 1
        for m in self.gen_masks:
            if m.bit_count() == 1:
                face_verts &= ~m
        self.face_verts = face_verts
        # 1-skeleton compatibility: bit b of compat[a] iff {a,b} is a face
        compat = [face_verts & ~(1 << a) if face_verts >> a & 1 else 0 for a in range(self.n)]
        for m in self.gen_masks:
            if m.bit_count() == 2:
                a = (m & -m).bit_length() - 1
                b = m.bit_length() - 1
                compat[a] &= ~(1 << b)
                compat[b] &= ~(1 << a)
        self.compat = compat
        self.flag = all(m.bit_count() <= 2 for m in self.gen_masks)
        self.big_gens = [m for m in self.gen_masks if m.bit_count() >= 3]
        self.gens_by_vertex = [
            [m for m in self.big_gens if m >> v & 1] for v in range(self.n)
        ]

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
        """Face masks inside wfv grouped by size 0..smax (wfv: face vertices only)."""
        out: list[list[int]] = [[] for _ in range(smax + 1)]
        out[0].append(0)
        if smax == 0:
            return out
        compat = self.compat
        flag = self.flag
        extend_ok = self._extend_ok

        def rec(mask: int, size: int, allowed: int) -> None:
            scan = allowed
            while scan:
                bit = scan & -scan
                v = bit.bit_length() - 1
                scan ^= bit
                if not flag and not extend_ok(mask, v):
                    continue
                new = mask | bit
                out[size + 1].append(new)
                if size + 1 < smax:
                    rec(new, size + 1, allowed & compat[v] & ~((bit << 1) - 1))

        rec(0, 0, wfv)
        return out

    def f_counts(self) -> list[int]:
        full = self.face_verts
        by_size = self.faces_by_size(full, self.n)
        while len(by_size) > 1 and not by_size[-1]:
            by_size.pop()
        return [len(s) for s in by_size]

    def max_face_size(self) -> int:
        best = 0

        def rec(mask: int, size: int, allowed: int) -> None:
            nonlocal best
            if size > best:
                best = size
            if size + allowed.bit_count() <= best:
                return
            scan = allowed
            while scan:
                bit = scan & -scan
                v = bit.bit_length() - 1
                scan ^= bit
                if self.flag or self._extend_ok(mask, v):
                    rec(mask | bit, size + 1, allowed & self.compat[v] & ~((bit << 1) - 1))
                else:
                    rec(mask, size, scan)
                    return

        rec(0, 0, self.face_verts)
        return best

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
            if all(g & ~(w_mask | bit) != 0 or not g >> u & 1 for g in self.gens_by_vertex[u]):
                return True
        return False

    # -- exact homology ------------------------------------------------------

    def reduced_betti(self, w_mask: int, i: int, field: FieldSpec) -> int:
        """dim of reduced homology of the induced subcomplex in degree i >= -1."""
        wfv = w_mask & self.face_verts
        if i == -1:
            return 1 if wfv == 0 else 0
        if wfv == 0:
            return 0
        if i == 0:
            return self.n_components(wfv) - 1
        cache = _SubsetHomology(self, wfv, i + 2)
        return cache.betti(i, field)

    # -- the Hochster scans ----------------------------------------------------

    def max_hochster_j(self, field: FieldSpec) -> int:
        """max { j : beta_{j,W} != 0 } = projective dimension of the quotient."""
        n = self.n
        best = 0
        deep: list[tuple[int, int]] = []
        for w in range(1, 1 << n):
            size = w.bit_count()
            wfv = w & self.face_verts
            if wfv == 0:
                if size > best:
                    best = size
                continue
            if size - 1 > best and self.n_components(wfv) > 1:
                best = size - 1
            if size >= 3:
                deep.append((size, w))
        deep.sort(reverse=True)
        for size, w in deep:
            if size - 2 <= best:
                break
            wfv = w & self.face_verts
            if self.n_components(wfv) != 1 or self.is_cone(w, wfv):
                continue
            cache = _SubsetHomology(self, wfv, size - 2 - best)
            i = 1
            while size - 1 - i > best:
                if cache.betti_positive(i, field):
                    best = size - 1 - i
                    break
                i += 1
        return best

    def find_j_above(self, fields, threshold: int) -> dict:
        """First witness (W, i) with |W|-1-i > threshold, per field.

        Scans only subsets large enough to matter, largest first, sharing face
        enumeration and GF(2) ranks between the requested fields.
        """
        n = self.n
        found = {f: None for f in fields}
        remaining = [f for f in fields]
        for size in range(n, max(threshold, 0), -1):
            if not remaining:
                break
            for w in _masks_of_size(n, size):
                wfv = w & self.face_verts
                if wfv == 0:
                    if size > threshold:
                        for f in remaining:
                            found[f] = (w, -1)
                        remaining = []
                        break
                    continue
                ncomp = self.n_components(wfv)
                if size - 1 > threshold and ncomp > 1:
                    for f in remaining:
                        found[f] = (w, 0)
                    remaining = []
                    break
                if size - 2 <= threshold:
                    continue
                if ncomp != 1 or self.is_cone(w, wfv):
                    continue
                max_i = size - 2 - threshold
                cache = _SubsetHomology(self, wfv, max_i)
                for i in range(1, max_i + 1):
                    for f in list(remaining):
                        if found[f] is None and cache.betti_positive(i, f):
                            found[f] = (w, i)
                            remaining.remove(f)
                    if not remaining:
                        break
                if not remaining:
                    break
        return found


class _SubsetHomology:
    """Face lists and boundary ranks of one induced subcomplex, cached so that
    consecutive homology degrees share their boundary computations."""

    __slots__ = ("faces", "_r2", "_r_exact")

    def __init__(self, scan: "_Scan", wfv: int, max_degree: int):
        # faces of size s have dimension s-1; degree i needs sizes i..i+2
        self.faces = scan.faces_by_size(wfv, min(max_degree + 2, wfv.bit_count()))
        self._r2: dict[int, int] = {}
        self._r_exact: dict[tuple[int, int | None], int] = {}

    def f(self, i: int) -> int:
        return len(self.faces[i + 1]) if i + 1 < len(self.faces) else 0

    def _faces_at(self, size: int) -> list[int]:
        return self.faces[size] if size < len(self.faces) else []

    def rank2(self, t: int) -> int:
        got = self._r2.get(t)
        if got is None:
            got = _rank2_unsigned(self._faces_at(t + 1), self._faces_at(t))
            self._r2[t] = got
        return got

    def rank_exact(self, t: int, p: int | None) -> int:
        """Rank of the signed boundary map over GF(p), or over q when p is None."""
        got = self._r_exact.get((t, p))
        if got is None:
            rows = _signed_rows(self._faces_at(t + 1), self._faces_at(t))
            got = rational_rank(rows) if p is None else modp_rank(rows, p)
            self._r_exact[(t, p)] = got
        return got

    def betti(self, i: int, field: FieldSpec) -> int:
        if self.f(i) == 0:
            return 0
        if field.p == 2:
            return self.f(i) - self.rank2(i) - self.rank2(i + 1)
        return self.f(i) - self.rank_exact(i, field.p) - self.rank_exact(i + 1, field.p)

    def betti_positive(self, i: int, field: FieldSpec) -> bool:
        """Exact test H~_i != 0; over q the mod-2 betti screens first (a rank
        is never smaller over q than mod 2, so betti_q <= betti_2)."""
        if self.f(i) == 0:
            return False
        if field.is_rational:
            if self.f(i) - self.rank2(i) - self.rank2(i + 1) == 0:
                return False
            return self.betti(i, field) > 0
        return self.betti(i, field) > 0


def _rank2_unsigned(faces: list[int], subfaces: list[int], ) -> int:
    if not faces or not subfaces:
        return 0
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
    return gf2_rank(rows)


def _signed_rows(faces: list[int], subfaces: list[int]) -> list[list[int]]:
    if not faces or not subfaces:
        return []
    index = {m: pos for pos, m in enumerate(subfaces)}
    width = len(subfaces)
    rows = []
    for m in faces:
        row = [0] * width
        verts = []
        scan = m
        while scan:
            bit = scan & -scan
            scan ^= bit
            verts.append(bit)
        for k, bit in enumerate(verts):  # verts ascend, so k is the drop position
            row[index[m ^ bit]] = -1 if k % 2 else 1
        rows.append(row)
    return rows


def _masks_of_size(n: int, size: int):
    # Gosper's hack, ascending order within fixed popcount
    if size == 0:
        yield 0
        return
    w = (1 << size) - 1
    top = 1 << n
    while w < top:
        yield w
        c = w & -w
        r = w + c
        w = (((r ^ w) >> 2) // c) | r
