"""Monomial ideals and polynomial presentations of quotient rings.

A monomial is an exponent tuple against an ordered list of variable names.
``MonomialIdeal`` always stores the unique minimal generating set, so ideal
equality is plain generator-set equality.  ``Presentation`` holds general
polynomial generators (exact coefficients, zero constant term) and is the
input format for the truncated-algebra engine.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fields import FieldSpec
from .graphs import Graph, _component_mask

Monomial = tuple  # exponent tuple, one entry per ambient variable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_,']*")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


def is_squarefree(a: Monomial) -> bool:
    return all(e <= 1 for e in a)


def _minimalize(gens: Iterable[Monomial]) -> frozenset:
    gens = set(gens)
    out = set()
    for g in gens:
        if any(h != g and monomial_divides(h, g) for h in gens):
            continue
        out.add(g)
    return frozenset(out)


@dataclass(frozen=True)
class MonomialIdeal:
    ambient: tuple
    gens: frozenset

    def __init__(self, ambient: Sequence[str], gens: Iterable[Monomial]):
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise ValueError("duplicate variable names")
        norm = set()
        for g in gens:
            g = tuple(int(e) for e in g)
            if len(g) != len(ambient):
                raise ValueError("exponent tuple has wrong length")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent")
            if monomial_degree(g) == 0:
                raise ValueError("unit generator not allowed")
            norm.add(g)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gens", _minimalize(norm))

    @property
    def nvars(self) -> int:
        return len(self.ambient)

    def is_zero(self) -> bool:
        return not self.gens

    def is_squarefree(self) -> bool:
        return all(is_squarefree(g) for g in self.gens)

    def sorted_gens(self) -> list[Monomial]:
        return sorted(self.gens, key=lambda g: (monomial_degree(g), tuple(-e for e in g)))

    def gen_strings(self) -> list[str]:
        return [format_monomial(self.ambient, g) for g in self.sorted_gens()]

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.ambient)}, ({', '.join(self.gen_strings()) or '0'}))"


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership for a monomial: true iff some generator divides it."""
    m = tuple(int(e) for e in m)
    if len(m) != ideal.nvars:
        raise ValueError("monomial has wrong ambient")
    return any(monomial_divides(g, m) for g in ideal.gens)


# ---------------------------------------------------------------------------
# constructions on ideals
# ---------------------------------------------------------------------------


def edge_ideal(g: Graph, names: Sequence[str] | None = None) -> MonomialIdeal:
    """The ideal generated by v_i v_j over the edges of g."""
    if names is None:
        names = [f"v{i}" for i in range(1, g.n + 1)]
    if len(names) != g.n:
        raise ValueError("need one variable name per vertex")
    gens = []
    for i, j in g.edges:
        e = [0] * g.n
        e[i - 1] += 1
        e[j - 1] += 1
        gens.append(tuple(e))
    return MonomialIdeal(names, gens)


def add_squares(ideal: MonomialIdeal, variables: Iterable[str]) -> MonomialIdeal:
    """Minimal generating set of ideal + (x^2 : x in variables)."""
    variables = list(variables)
    unknown = [v for v in variables if v not in ideal.ambient]
    if unknown:
        raise ValueError(f"unknown variables {unknown}")
    gens = set(ideal.gens)
    for v in variables:
        e = [0] * ideal.nvars
        e[ideal.ambient.index(v)] = 2
        gens.add(tuple(e))
    return MonomialIdeal(ideal.ambient, gens)


def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """The standard squarefree polarization.

    A variable x of multiplicity d spawns fresh copies x', x'', ..., appended
    after the original ambient list (grouped by original variable, in ambient
    order); x^j polarizes to x * x' * ... * x^(j-1 primes).  Squarefree input
    comes back unchanged.
    """
    if ideal.is_squarefree():
        return ideal
    mult = [max((g[k] for g in ideal.gens), default=0) for k in range(ideal.nvars)]
    fresh: list[str] = []
    slot: dict[tuple[int, int], int] = {}  # (var index, copy j>=1) -> new column
    for k, name in enumerate(ideal.ambient):
        for j in range(1, max(mult[k], 1)):
            slot[(k, j)] = ideal.nvars + len(fresh)
            fresh.append(name + "'" * j)
    ambient = ideal.ambient + tuple(fresh)
    gens = []
    for g in ideal.gens:
        e = [0] * len(ambient)
        for k, exp in enumerate(g):
            if exp >= 1:
                e[k] = 1
            for j in range(1, exp):
                e[slot[(k, j)]] = 1
        gens.append(tuple(e))
    return MonomialIdeal(ambient, gens)


def substitute_ideal(ideal: MonomialIdeal, mapping: Mapping[str, str]) -> MonomialIdeal:
    """Variable-to-variable substitution on a monomial ideal.

    Variables that are renamed away are dropped from the ambient list; the
    result is minimalized.
    """
    for src, dst in mapping.items():
        if src not in ideal.ambient or dst not in ideal.ambient:
            raise ValueError(f"substitution {src}->{dst} leaves the ambient ring")
    keep = [v for v in ideal.ambient if mapping.get(v, v) == v]
    index = {v: k for k, v in enumerate(keep)}
    gens = []
    for g in ideal.gens:
        e = [0] * len(keep)
        for k, exp in enumerate(g):
            if exp:
                target = mapping.get(ideal.ambient[k], ideal.ambient[k])
                e[index[target]] += exp
        gens.append(tuple(e))
    return MonomialIdeal(keep, gens)


def rename_ideal(ideal: MonomialIdeal, names: Sequence[str]) -> MonomialIdeal:
    if len(names) != ideal.nvars:
        raise ValueError("need one name per variable")
    return MonomialIdeal(names, ideal.gens)


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
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            e = [0] * n
            e[a] += 1
            e[b] += 1
            if not contains(ideal, tuple(e)):
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
            mono = tuple(int(e) for e in mono)
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

    def mul_monomial(self, mono: Monomial) -> "Poly":
        return Poly(self.field, self.nvars, {monomial_mul(m, mono): c for m, c in self.terms.items()})

    def truncate_below(self, bound: int) -> "Poly":
        """Drop every term of degree >= bound."""
        return Poly(self.field, self.nvars, {m: c for m, c in self.terms.items() if monomial_degree(m) < bound})

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
        for g in gens:
            if g.nvars != len(ambient) or g.field != field:
                raise ValueError("generator does not live in the ambient ring")
            if g.is_zero():
                continue
            if g.constant_term():
                raise ValueError("generator has a nonzero constant term")
            if g not in out:
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
    gens = [Poly(field, ideal.nvars, {g: 1}) for g in ideal.sorted_gens()]
    return Presentation(ideal.ambient, gens, field)


def to_monomial_ideal(p: Presentation) -> MonomialIdeal:
    if not p.is_monomial():
        raise ValueError("presentation has non-monomial generators")
    return MonomialIdeal(p.ambient, [next(iter(g.terms)) for g in p.gens])


def substitute(p: Presentation, mapping: Mapping[str, str]) -> Presentation:
    """Rewrite generators under a variable-to-variable substitution.

    Eliminated variables are dropped from the ambient list; duplicate and zero
    generators are pruned, and an all-monomial result is divisibility
    minimalized.
    """
    for src, dst in mapping.items():
        if src not in p.ambient or dst not in p.ambient:
            raise ValueError(f"substitution {src}->{dst} leaves the ambient ring")
    keep = [v for v in p.ambient if mapping.get(v, v) == v]
    index = {v: k for k, v in enumerate(keep)}
    gens = []
    for g in p.gens:
        terms: dict[Monomial, object] = {}
        for mono, c in g.terms.items():
            e = [0] * len(keep)
            for k, exp in enumerate(mono):
                if exp:
                    target = mapping.get(p.ambient[k], p.ambient[k])
                    e[index[target]] += exp
            key = tuple(e)
            prev = terms.get(key, p.field.zero())
            terms[key] = p.field.add(prev, c)
        poly = Poly(p.field, len(keep), terms)
        if not poly.is_zero():
            gens.append(poly)
    result = Presentation(keep, gens, p.field)
    if result.is_monomial():
        ideal = to_monomial_ideal(result)
        return presentation_of(ideal, p.field)
    return result


def eliminate_variables(p: Presentation, variables: Iterable[str]) -> Presentation:
    """The quotient presentation with the given variables set to zero."""
    drop = set(variables)
    unknown = drop - set(p.ambient)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)}")
    keep = [v for v in p.ambient if v not in drop]
    index = {v: k for k, v in enumerate(keep)}
    positions = [k for k, v in enumerate(p.ambient) if v in drop]
    gens = []
    for g in p.gens:
        terms = {}
        for mono, c in g.terms.items():
            if any(mono[k] for k in positions):
                continue
            e = tuple(mono[k] for k, v in enumerate(p.ambient) if v in index)
            terms[e] = c
        poly = Poly(p.field, len(keep), terms)
        if not poly.is_zero():
            gens.append(poly)
    return Presentation(keep, gens, p.field)


def fiber_product_presentation(ps: Presentation, pt: Presentation) -> Presentation:
    """The presentation of the fiber product over the common residue field.

    Variables are concatenated (the right factor is renamed with a ``~``
    suffix on clashes) and the generators are those of both factors together
    with every cross product x*y.
    """
    if ps.field != pt.field:
        raise ValueError("factors live over different fields")
    field = ps.field
    left = list(ps.ambient)
    taken = set(left)
    right = []
    rename: dict[str, str] = {}
    for name in pt.ambient:
        new = name
        while new in taken:
            new = new + "~"
        taken.add(new)
        right.append(new)
        rename[name] = new
    ambient = left + right
    nv = len(ambient)
    ls, lt = len(left), len(right)

    def lift_left(g: Poly) -> Poly:
        return Poly(field, nv, {m + (0,) * lt: c for m, c in g.terms.items()})

    def lift_right(g: Poly) -> Poly:
        return Poly(field, nv, {(0,) * ls + m: c for m, c in g.terms.items()})

    gens = [lift_left(g) for g in ps.gens] + [lift_right(g) for g in pt.gens]
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


def parse_monomial(ambient: Sequence[str], text: str) -> Monomial:
    poly = parse_poly(ambient, text, FieldSpec.rationals())
    if len(poly.terms) != 1:
        raise ValueError(f"{text!r} is not a monomial")
    ((mono, coeff),) = poly.terms.items()
    if coeff != 1:
        raise ValueError(f"{text!r} has a coefficient")
    return mono


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


def presentation_to_json(p: Presentation) -> str:
    return json.dumps({"vars": list(p.ambient), "gens": p.gen_strings(), "field": str(p.field)})


def presentation_from_json(text: str) -> Presentation:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "vars" not in obj or "gens" not in obj:
        raise ValueError('a presentation needs a JSON object with "vars" and "gens"')
    field = FieldSpec.parse(obj.get("field", "q"))
    ambient = [str(v) for v in obj["vars"]]
    gens = [parse_poly(ambient, g, field) for g in obj["gens"]]
    return Presentation(ambient, gens, field)
