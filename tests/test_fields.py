from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.fields import FieldSpec

FIELDS = [FieldSpec.rationals(), FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(2**31 - 1)]


def reference_coerce(p, value):
    """FieldSpec.coerce without its pass-through of values that already are field elements."""
    if isinstance(value, str):
        value = Fraction(value)
    if p is None:
        return Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ZeroDivisionError(f"denominator not invertible mod {p}")
        return value.numerator * pow(value.denominator, -1, p) % p
    return int(value) % p


def outcome(fn, *args):
    try:
        v = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return ("raises", type(exc))
    return (v, type(v))


_ints = st.integers(-(2**40), 2**40) | st.sampled_from([0, 1, 2, 3, 2**31 - 2, 2**31 - 1, 2**31, -1, -3])
_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)) | st.sampled_from(
    [Fraction(1, 3), Fraction(5, 2), Fraction(7, 2**31 - 1), Fraction(2)]
)
_strings = st.sampled_from(["0", "2/3", "-5", "7", "1/2", "3/9", "abc", "", "1/0", str(2**31 - 1)])
_values = st.booleans() | _ints | _fractions | _strings


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(FIELDS), value=_values)
def test_coerce_matches_reference_in_value_and_type(field, value):
    assert outcome(field.coerce, value) == outcome(reference_coerce, field.p, value)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_coerce_refuses_denominator_divisible_by_p(p):
    f = FieldSpec.prime(p)
    for value in (Fraction(1, p), Fraction(1, 3 * p), Fraction(-5, p * p), f"1/{p}"):
        with pytest.raises(ZeroDivisionError):
            f.coerce(value)


def test_coerce_passes_field_elements_through():
    q, gf3 = FieldSpec.rationals(), FieldSpec.prime(3)
    x = Fraction(2, 3)
    assert q.coerce(x) is x
    assert gf3.coerce(2) == 2 and type(gf3.coerce(True)) is int
    assert gf3.coerce(-1) == 2 and gf3.coerce(5) == 2
