"""Monomial ideals and polynomial presentations of quotient rings.

A monomial is an exponent tuple against an ordered list of variable names.
``MonomialIdeal`` has the unique minimal generating set as ``gens``, so ideal
equality is generator-set equality.  Every ideal holds that set in one form:
its squarefree quadrics as a ``Graph`` of neighbour masks (``_graph``), its
squares x_v^2 as a mask of variables (``_squares``), and its other generators,
of degree 1 or >= 3, as exponent tuples (``_rest``).  ``gens`` is built from
the three when first read.  Polarization, substitution, membership, equality,
the variable split, the scan and ``truncate``'s codes read the masks, then
loop over ``_rest``; an ideal built from a graph (``edge_ideal``, the
vertex-square quotients: ``_graph_ideal``) has an empty ``_rest`` and builds
no tuple.  ``Presentation`` holds general polynomial generators (exact
coefficients, zero constant term); it is the truncated-algebra engine's input.

Exponents must be integer values: ``MonomialIdeal``, ``contains`` and ``Poly``
refuse 2.5, Fraction(5, 2) or a string rather than truncate it.  The public
constructors check their input; ``presentation_of`` trusts the invariant of
the ``MonomialIdeal`` it is given, keeps the ideal and builds the one-term
``gens`` only when they are read (a monomial ``truncate`` never does).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import le, mul
from typing import Iterable, Mapping, Sequence

from .fields import FieldSpec
from .graphs import Graph, _component_mask

Monomial = tuple  # exponent tuple, one entry per ambient variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_,']*")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


def _exponents(m) -> Monomial:
    """m as a tuple of nonnegative ints.  Refuses a negative entry, and an
    entry that is not an integer value (2.5, Fraction(5, 2), any string)
    instead of truncating it; 2.0, True and Fraction(2) are accepted."""
    m = tuple(m)
    e = tuple(map(int, m))
    if e != m:
        bad = next(x for x, y in zip(m, e) if x != y)
        raise ValueError(f"exponent {bad!r} is not an integer")
    if e and min(e) < 0:
        raise ValueError(f"negative exponent in {e}")
    return e


def _minimalize(gens: Iterable[Monomial]) -> frozenset:
    gens = set(gens)
    # distinct monomials of one degree never divide each other
    if len({sum(g) for g in gens}) <= 1:
        return frozenset(gens)
    # a proper divisor has lower degree, and a non-minimal divisor has a
    # minimal one below it: test each generator against kept ones of lower degree
    kept: list = []
    for _, level in groupby(sorted(gens, key=sum), key=sum):
        below = tuple(kept)
        kept += [g for g in level if not any(monomial_divides(h, g) for h in below)]
    return frozenset(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    ambient: tuple
    gens: frozenset

    def __init__(self, ambient: Sequence[str], gens: Iterable[Monomial]):
        ambient = tuple(ambient)
        n = len(ambient)
        if len(set(ambient)) != n:
            raise ValueError("duplicate variable names")
        norm = set()
        for g in gens:
            g = _exponents(g)
            if len(g) != n:
                raise ValueError("exponent tuple has wrong length")
            if not any(g):
                raise ValueError("unit generator not allowed")
            norm.add(g)
        gens = _minimalize(norm)
        graph, squares, rest = _split(gens, n)  # stored below, past the frozen __setattr__
        self.__dict__.update(ambient=ambient, gens=gens, _graph=graph, _squares=squares, _rest=rest)

    def __getattr__(self, name: str):
        """``gens``, built from the masks and ``_rest`` on first read."""
        if name != "gens":
            raise AttributeError(name)
        self.__dict__["gens"] = gens = _quadrics(self._graph, self._squares) | self._rest
        return gens

    # the dataclass adds __hash__, the hash of (ambient, gens)
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient == other.ambient and _same_generators(self, other)

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    def is_squarefree(self) -> bool:
        if self._squares:
            return False
        for g in self._rest:
            if max(g) > 1:
                return False
        return True

    def _max_degree(self) -> int:
        """The largest generator degree, 0 for the zero ideal."""
        top = 2 if self._squares or any(self._graph) else 0
        for g in self._rest:
            top = max(top, sum(g))
        return top

    def _multiplicities(self) -> list[int]:
        """Per variable, its largest exponent in a generator, at least 1."""
        squares = self._squares
        mults = [1 + (squares >> k & 1) for k in range(self.nvars)]
        for g in self._rest:
            for k, e in enumerate(g):
                if e > mults[k]:
                    mults[k] = e
        return mults

    def _polarized_nvars(self) -> int:
        """The polarization's variable count, found without polarizing."""
        return sum(self._multiplicities()) if self._rest else self.nvars + self._squares.bit_count()

    def sorted_gens(self) -> list[Monomial]:
        # by degree, then descending tuples: (degree, -exponents) order
        return sorted(sorted(self.gens, reverse=True), key=sum)

    def gen_strings(self) -> list[str]:
        return [format_monomial(self.ambient, g) for g in self.sorted_gens()]

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.ambient)}, ({', '.join(self.gen_strings()) or '0'}))"

    @cached_property
    def _polarization(self) -> "MonomialIdeal | None":
        """See ``polarize``; computed at most once per ideal object.  None for
        a squarefree ideal, which is its own polarization: an ideal that kept
        itself here would be a reference cycle, freed only by the collector."""
        n, mults = self.nvars, self._multiplicities()
        if max(mults, default=0) <= 1:
            return None
        first: list[int] = []  # per variable, the column of its copy x'
        fresh: list[str] = []
        for name, mult in zip(self.ambient, mults):
            first.append(n + len(fresh))
            fresh += [name + "'" * j for j in range(1, mult)]
        ambient = self.ambient + tuple(fresh)
        if len(set(ambient)) != len(ambient):
            raise ValueError("duplicate variable names")
        masks = list(self._graph) + [0] * len(fresh)
        for k in range(n):
            if self._squares >> k & 1:
                masks[k] |= 1 << first[k]
                masks[first[k]] = 1 << k
        rest = []
        for g in self._rest:
            e = [0] * len(ambient)
            for k, exp in enumerate(g):
                if exp:
                    e[k] = 1
                    e[first[k] : first[k] + exp - 1] = [1] * (exp - 1)
            rest.append(tuple(e))
        # u | v iff pol(u) | pol(v), so a minimal set polarizes to a minimal set
        return _graph_ideal(ambient, tuple.__new__(Graph, masks), 0, frozenset(rest))


def _same_generators(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Whether two ideals have one variable count and one generator set, names
    aside: the same masks and the same ``_rest``."""
    return a._graph == b._graph and a._squares == b._squares and a._rest == b._rest


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership for a monomial: true iff some generator divides it, a
    quadric when a square vertex has exponent >= 2 in m or two vertices of
    m's support are adjacent, else one of ``_rest``."""
    m = _exponents(m)
    if len(m) != ideal.nvars:
        raise ValueError("monomial has wrong ambient")
    graph, squares, support = ideal._graph, ideal._squares, 0  # support: the vertices of m seen so far
    for k, e in enumerate(m):
        if e:
            if e > 1 and squares >> k & 1 or graph[k] & support:
                return True
            support |= 1 << k
    for g in ideal._rest:
        if monomial_divides(g, m):
            return True
    return False


def _pair_mask(ideal: MonomialIdeal, k: int) -> int:
    """The mask of the variables x_j (bit j) with x_k x_j in the ideal: off
    the masks, plus bit j for a linear generator x_j, and every bit when
    x_k itself generates."""
    mask = ideal._graph[k] | ideal._squares & 1 << k
    for g in ideal._rest:
        if sum(g) == 1:
            j = g.index(1)
            mask |= (1 << ideal.nvars) - 1 if j == k else 1 << j
    return mask


# ---------------------------------------------------------------------------
# constructions on ideals
# ---------------------------------------------------------------------------


def edge_ideal(g: Graph, names: Sequence[str] | None = None) -> MonomialIdeal:
    """The ideal generated by v_i v_j over the edges of g.

    The ideal keeps g's neighbour masks (``_graph_ideal``): its scan reads
    the 1-skeleton off them, and it is its own polarization, without a
    generator built."""
    if names is None:
        names = [f"v{i}" for i in range(1, g.n + 1)]
    names = tuple(names)
    if len(names) != g.n:
        raise ValueError("need one variable name per vertex")
    if len(set(names)) != g.n:
        raise ValueError("duplicate variable names")
    return _graph_ideal(names, g, 0)


def _graph_ideal(names: tuple, graph: Graph, squares: int, rest: frozenset = frozenset()) -> MonomialIdeal:
    """The ideal generated by x_i x_j over the edges of ``graph``, by x_v^2
    over the set bits v of ``squares`` and by ``rest``, kept as those three.
    Trusted: distinct names, one per vertex, and a minimal generating set
    with every quadric in the masks."""
    ideal = object.__new__(MonomialIdeal)
    ideal.__dict__.update(ambient=names, _graph=graph, _squares=squares, _rest=rest)  # past the frozen __setattr__
    return ideal


def _split(gens: frozenset, n: int) -> tuple[Graph, int, frozenset]:
    """A minimal generating set in n variables as the arguments of
    ``_graph_ideal``: the squarefree quadrics as neighbour masks, the
    squares as a mask, and the other generators as they are."""
    masks, squares, rest = [0] * n, 0, []
    for g in gens:
        if sum(g) != 2:
            rest.append(g)
        elif 2 in g:
            squares |= 1 << g.index(2)
        else:
            a = g.index(1)
            b = g.index(1, a + 1)
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return tuple.__new__(Graph, masks), squares, frozenset(rest)


def _pairs(graph, squares: int):
    """The quadrics of ``_graph_ideal(names, graph, squares)`` as 0-based
    pairs i <= j: (v, v) for x_v^2, and each edge once.  Makes no call into
    graphs, which module-engine's benchmark guard counts."""
    for i, mask in enumerate(graph):
        if squares >> i & 1:
            yield i, i
        mask >>= i + 1
        while mask:
            low = mask & -mask
            mask ^= low
            yield i, i + low.bit_length()


def _quadrics(graph: Graph, squares: int) -> frozenset:
    """The quadrics of ``_graph_ideal(names, graph, squares)`` as exponent
    tuples: distinct degree-2 monomials, a minimal generating set."""
    n = len(graph)
    gens = []
    for i, j in _pairs(graph, squares):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        gens.append(tuple(e))
    return frozenset(gens)


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """The standard squarefree polarization, memoized on the ideal.

    A variable x of multiplicity d spawns fresh copies x', x'', ..., appended
    after the original ambient list (grouped by original variable, in ambient
    order); x^j polarizes to x * x' * ... * x^(j-1 primes).  Squarefree input
    comes back unchanged, so an ``edge_ideal`` with no generator built.  The
    quadrics polarize off the masks: x_v^2 becomes the edge x_v x_v'.
    """
    return ideal._polarization or ideal


def rename_ideal(ideal: MonomialIdeal, names: Sequence[str]) -> MonomialIdeal:
    if len(names) != ideal.nvars:
        raise ValueError("need one name per variable")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _graph_ideal(tuple(names), ideal._graph, ideal._squares, ideal._rest)


def variable_partition_decomposable(ideal: MonomialIdeal):
    """Split the variables as V1 | V2 certifying m = (V1) + (V2) as a direct sum.

    The cross graph joins x-y whenever xy is not in the ideal: with no
    generator of degree one x_a x_b lies in the ideal iff it is a generator,
    so the cross graph is the complement of the masks.  Returns (component of the last
    variable, the rest) when that graph is disconnected, else None.  In a
    monomial quotient every mixed monomial is divisible by a mixed
    quadratic, so vanishing of the degree-2 cross products certifies the
    full direct-sum decomposition.
    """
    for g in ideal._rest:
        if sum(g) == 1:
            raise ValueError("presentation is not minimal: a variable generates")
    n = ideal.nvars
    full = (1 << n) - 1
    adj = [full ^ 1 << a ^ mask for a, mask in enumerate(ideal._graph)]
    if n <= 1:
        return None
    comp = _component_mask(adj, 1 << (n - 1), full)  # component of the last variable
    if comp == full:
        return None
    part1 = frozenset(ideal.ambient[k] for k in range(n) if comp >> k & 1)
    part2 = frozenset(ideal.ambient[k] for k in range(n) if not comp >> k & 1)
    return part1, part2


# ---------------------------------------------------------------------------
# polynomials and presentations
# ---------------------------------------------------------------------------


class Poly:
    """A polynomial with exact coefficients, stored as exponent -> scalar."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: FieldSpec, nvars: int, terms: Mapping[Monomial, object]):
        clean = {}
        for mono, c in terms.items():
            mono = _exponents(mono)
            if len(mono) != nvars:
                raise ValueError("wrong exponent length")
            c = field.coerce(c)
            if c:
                clean[mono] = c
        self.field = field
        self.nvars = nvars
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def min_degree(self) -> int:
        return min((monomial_degree(m) for m in self.terms), default=0)

    def max_degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.key() == other.key()

    def __hash__(self):
        return hash((self.field, self.key()))


@dataclass(frozen=True)
class Presentation:
    """Variables plus polynomial generators, all inside the maximal ideal."""

    ambient: tuple
    gens: tuple
    field: FieldSpec

    def __init__(self, ambient: Sequence[str], gens: Iterable[Poly], field: FieldSpec):
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise ValueError("duplicate variable names")
        out = []
        seen = set()
        for g in gens:
            if g.nvars != len(ambient) or g.field != field:
                raise ValueError("generator does not live in the ambient ring")
            if g.is_zero():
                continue
            if g.constant_term():
                raise ValueError("generator has a nonzero constant term")
            key = g.key()
            if key not in seen:
                seen.add(key)
                out.append(g)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gens", tuple(out))
        object.__setattr__(self, "field", field)

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    def __getattr__(self, name: str):
        """``gens`` of a ``presentation_of`` result, built on first read."""
        if name != "gens":
            raise AttributeError(name)
        one, nvars = self.field.one(), self.nvars
        gens = []
        for g in self._ideal.sorted_gens():
            poly = object.__new__(Poly)
            poly.field, poly.nvars, poly.terms = self.field, nvars, {g: one}
            gens.append(poly)
        self.__dict__["gens"] = gens = tuple(gens)
        return gens

    @cached_property
    def _ideal(self) -> MonomialIdeal | None:
        """The ideal of the generators when each has one term, else None; set
        by ``presentation_of``."""
        if all(g.is_monomial() for g in self.gens):
            return MonomialIdeal(self.ambient, (next(iter(g.terms)) for g in self.gens))
        return None

    def is_monomial(self) -> bool:
        return self._ideal is not None

    def gen_strings(self) -> list[str]:
        return [format_poly(self.ambient, g) for g in self.gens]


def presentation_of(ideal: MonomialIdeal, field: FieldSpec) -> Presentation:
    """The ideal's generators as one-term polynomials, in ``sorted_gens`` order.

    Holds the ideal as its ``_ideal`` and builds ``gens`` on first read; the
    monomial ``truncate`` reads only the generator codes (``_generator_codes``).
    Skips the checks that the ideal's invariant answers."""
    p = object.__new__(Presentation)
    p.__dict__.update(ambient=ideal.ambient, field=field, _ideal=ideal)  # past the frozen __setattr__
    return p


def _generator_codes(p: Presentation, w: Sequence[int], n: int) -> set:
    """The codes sum_k m_k w_k of the generators m of degree <= n of a
    monomial presentation's ideal: off the masks, x_i x_j has code
    w_i + w_j and x_v^2 has 2 w_v."""
    ideal = p._ideal
    codes = {w[i] + w[j] for i, j in _pairs(ideal._graph, ideal._squares)} if n >= 2 else set()
    for m in ideal._rest:
        if sum(m) <= n:
            codes.add(sum(map(mul, m, w)))
    return codes


def to_monomial_ideal(p: Presentation) -> MonomialIdeal:
    ideal = p._ideal
    if ideal is None:
        raise ValueError("presentation has non-monomial generators")
    return ideal


def _substitution_columns(ambient: Sequence[str], mapping: Mapping[str, str]) -> tuple[list, list]:
    """The kept variables of a variable-to-variable substitution and, per
    ambient variable, the column of its image among them.

    A substitution must stay inside the ambient ring and must not be chained:
    the image of a substituted variable is not itself substituted."""
    for src, dst in mapping.items():
        if src not in ambient or dst not in ambient:
            raise ValueError(f"substitution {src}->{dst} leaves the ambient ring")
        if mapping.get(dst, dst) != dst:
            raise ValueError(f"chained substitution {src}->{dst}->{mapping[dst]}")
    keep = [v for v in ambient if mapping.get(v, v) == v]
    index = {v: k for k, v in enumerate(keep)}
    return keep, [index[mapping.get(v, v)] for v in ambient]


def substitute_ideal(ideal: MonomialIdeal, mapping: Mapping[str, str]) -> MonomialIdeal:
    """The monomial ideal under a variable-to-variable substitution: each
    exponent is added into its image's column and the substituted variables
    leave the ambient list.  Equals ``to_monomial_ideal(substitute(p, mapping))``
    for ``p = presentation_of(ideal, field)``, with no polynomial built.  The
    quadrics map to the image graph, where an edge whose two ends merge
    becomes a square."""
    keep, column = _substitution_columns(ideal.ambient, mapping)
    masks, squares = [0] * len(keep), 0
    for i, j in _pairs(ideal._graph, ideal._squares):
        a, b = column[i], column[j]
        if a == b:  # a square, or an edge whose two ends merge
            squares |= 1 << a
        else:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    graph = tuple.__new__(Graph, masks)
    if not ideal._rest:  # distinct quadrics never divide each other
        return _graph_ideal(tuple(keep), graph, squares)
    gens = list(_quadrics(graph, squares))
    for g in ideal._rest:
        e = [0] * len(keep)
        for k, exp in enumerate(g):
            e[column[k]] += exp
        gens.append(tuple(e))
    # kept names are distinct ambient names, and each image keeps its degree
    return _graph_ideal(tuple(keep), *_split(_minimalize(gens), len(keep)))


def _rewrite(p: Poly, ambient: Sequence[str], column: Sequence[int | None]) -> Poly:
    """p in the ring on ``ambient``: variable k goes to variable ``column[k]``,
    and every term in variable k is killed where ``column[k]`` is None.  Terms
    that land on one monomial add up."""
    field, nv = p.field, len(ambient)
    terms: dict[Monomial, object] = {}
    for mono, c in p.terms.items():
        e = [0] * nv
        for k, exp in enumerate(mono):
            if exp:
                if column[k] is None:
                    break
                e[column[k]] += exp
        else:
            key = tuple(e)
            terms[key] = field.add(terms[key], c) if key in terms else c
    return Poly(field, nv, terms)


def substitute(p: Presentation, mapping: Mapping[str, str]) -> Presentation:
    """Rewrite generators under a variable-to-variable substitution.

    Eliminated variables are dropped from the ambient list; duplicate and zero
    generators are pruned, and an all-monomial result is divisibility
    minimalized.
    """
    keep, column = _substitution_columns(p.ambient, mapping)
    result = Presentation(keep, [_rewrite(g, keep, column) for g in p.gens], p.field)
    if result.is_monomial():
        return presentation_of(to_monomial_ideal(result), p.field)
    return result


def eliminate_variables(p: Presentation, variables: Iterable[str]) -> Presentation:
    """The quotient presentation with the given variables set to zero."""
    drop = set(variables)
    unknown = drop - set(p.ambient)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    keep = [v for v in p.ambient if v not in drop]
    index = {v: k for k, v in enumerate(keep)}
    column = [index.get(v) for v in p.ambient]
    return Presentation(keep, [_rewrite(g, keep, column) for g in p.gens], p.field)


def fiber_product_presentation(ps: Presentation, pt: Presentation) -> Presentation:
    """The presentation of the fiber product over the common residue field.

    Variables are concatenated (the right factor is renamed with a ``_``
    suffix on clashes, a name the presentation grammar reads and the
    polarization's ``'`` copies never make) and the generators are those of
    both factors together with every cross product x*y.
    """
    if ps.field != pt.field:
        raise ValueError("factors live over different fields")
    field = ps.field
    left = list(ps.ambient)
    taken = set(left)
    right = []
    for name in pt.ambient:
        while name in taken:
            name = name + "_"
        taken.add(name)
        right.append(name)
    ambient = left + right
    nv = len(ambient)
    ls, lt = len(left), len(right)
    gens = [_rewrite(g, ambient, range(ls)) for g in ps.gens]
    gens += [_rewrite(g, ambient, range(ls, nv)) for g in pt.gens]
    for i in range(ls):
        for j in range(lt):
            e = [0] * nv
            e[i] = 1
            e[ls + j] = 1
            gens.append(Poly(field, nv, {tuple(e): 1}))
    return Presentation(ambient, gens, field)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def parse_poly(ambient: Sequence[str], text: str, field: FieldSpec) -> Poly:
    """Parse the small polynomial grammar: terms joined by + and -,
    integer or a/b coefficients, powers with ^, factors joined by *."""
    ambient = list(ambient)
    index = {v: k for k, v in enumerate(ambient)}
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms: list[tuple[int, str]] = []
    sign, pos, start = 1, 0, 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        start = pos = 1
    while pos <= len(text):
        if pos == len(text) or text[pos] in "+-":
            chunk = text[start:pos]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            terms.append((sign, chunk))
            if pos < len(text):
                sign = -1 if text[pos] == "-" else 1
            start = pos + 1
        pos += 1
    acc: dict[Monomial, object] = {}
    for sgn, chunk in terms:
        coeff = Fraction(sgn)
        expo = [0] * len(ambient)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
                continue
            if "^" in factor:
                name, _, power = factor.partition("^")
                e = int(power)
            else:
                name, e = factor, 1
            if not _NAME_RE.fullmatch(name) or name not in index:
                raise ValueError(f"unknown variable {name!r}")
            expo[index[name]] += e
        key = tuple(expo)
        prev = acc.get(key, Fraction(0))
        acc[key] = prev + coeff
    try:
        terms = {m: field.coerce(c) for m, c in acc.items() if c}
    except ZeroDivisionError as exc:
        raise ValueError(f"{exc} in {text!r}") from None
    return Poly(field, len(ambient), terms)


def format_monomial(ambient: Sequence[str], mono: Monomial) -> str:
    parts = []
    for name, e in zip(ambient, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_poly(ambient: Sequence[str], poly: Poly) -> str:
    if poly.is_zero():
        return "0"
    items = sorted(poly.terms.items(), key=lambda kv: (monomial_degree(kv[0]), tuple(-e for e in kv[0])))
    out = ""
    for mono, c in items:
        frag = format_monomial(ambient, mono)
        neg = c < 0
        mag = -c if neg else c
        if frag == "1":
            body = str(mag)
        elif mag == 1:
            body = frag
        else:
            body = f"{mag}*{frag}"
        if not out:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


def presentation_from_json(text: str, field: FieldSpec | None = None) -> Presentation:
    """A presentation from its JSON object.  The generators are read in
    ``field`` when it is given, else in the object's own ``"field"``, which is
    checked either way."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "vars" not in obj or "gens" not in obj:
        raise ValueError('a presentation needs a JSON object with "vars" and "gens"')
    text_field, ambient, gen_texts = obj.get("field", "q"), obj["vars"], obj["gens"]
    if not all(isinstance(x, list) and all(isinstance(t, str) for t in x) for x in (ambient, gen_texts)):
        raise ValueError('"vars" and "gens" must be lists of strings')
    if not isinstance(text_field, str):
        raise ValueError('"field" must be a string such as "q" or "fp:5"')
    own = FieldSpec.parse(text_field)
    field = own if field is None else field
    return Presentation(ambient, [parse_poly(ambient, g, field) for g in gen_texts], field)
