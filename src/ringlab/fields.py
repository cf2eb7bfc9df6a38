"""Field specifications for exact scalar arithmetic.

Two families of coefficient fields are supported: the rationals (elements
are ``fractions.Fraction``) and the prime fields GF(p) (elements are ints
in ``range(p)``).  Everything is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_MAX_PRIME = 2**31

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not (2 <= self.p <= _MAX_PRIME):
                raise ValueError(f"characteristic out of range: {self.p}")
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse a CLI field string: ``"q"`` or ``"fp:5"``."""
        text = text.strip().lower()
        if text == "q":
            return FieldSpec(None)
        if text.startswith("fp:"):
            return FieldSpec(int(text[3:]))
        raise ValueError(f"unrecognized field {text!r} (expected 'q' or 'fp:<p>')")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "q" if self.p is None else f"fp:{self.p}"

    # -- element arithmetic -------------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, value):
        """Normalize ints, Fractions, or strings like ``"2/3"`` into the field.

        Floats are refused: 0.1 is not one tenth, and a float would be
        rounded (mod p) or turned into its binary expansion (over q)."""
        # Values that already are field elements come back as they are.
        if self.p is None:
            if type(value) is Fraction:
                return value
        elif type(value) is int and 0 <= value < self.p:
            return value
        if isinstance(value, float):
            raise TypeError(f"float {value!r} is not an exact field element")
        if isinstance(value, str):
            value = Fraction(value)
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)
