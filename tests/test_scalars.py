from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polymod import CoeffQ

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
scalars = st.builds(CoeffQ, rationals, rationals)


def test_construction_and_coercion():
    assert CoeffQ.of(3) == CoeffQ(3, 0)
    assert CoeffQ.of(Fraction(1, 2)).re == Fraction(1, 2)
    assert CoeffQ.of(CoeffQ(1, 2)) == CoeffQ(1, 2)
    assert CoeffQ(0, 0).is_zero()
    assert not CoeffQ(0, 1).is_zero()


def test_complex_division():
    a = CoeffQ(1, 1)
    b = CoeffQ(0, 1)
    assert a / b == CoeffQ(1, -1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / CoeffQ(0, 0)


def test_pow():
    i = CoeffQ(0, 1)
    assert i**2 == CoeffQ(-1, 0)
    assert i**0 == CoeffQ(1, 0)
    assert CoeffQ(2, 0) ** 10 == CoeffQ(1024, 0)
    with pytest.raises(ValueError):
        i ** (-1)


@pytest.mark.parametrize("exp", [True, False, 2.0])
def test_pow_refuses_a_bool_or_float_exponent(exp):
    with pytest.raises(ValueError, match="CoeffQ power needs a nonnegative int"):
        CoeffQ(2) ** exp


def test_int_comparison():
    assert CoeffQ(5, 0) == 5
    assert CoeffQ(1, 2) != 1


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == CoeffQ(0, 0)


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a


# ---------------------------------------------------------------------------
# fast-path contract: every operand type gives the slow construction's result
# ---------------------------------------------------------------------------

OPERANDS = [
    3, -2, 0, True, False, Fraction(-5, 7), Fraction(0),
    CoeffQ(Fraction(2, 3)), CoeffQ(0), CoeffQ(Fraction(1, 2), -3), CoeffQ(0, 2),
]


def _parts(v):
    if isinstance(v, CoeffQ):
        return v.re, v.im
    return Fraction(v), Fraction(0)


def _ref(op, x, y):
    """x op y on (re, im) Fraction pairs, written without CoeffQ."""
    (a, b), (c, d) = _parts(x), _parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    den = c * c + d * d
    if den == 0:
        raise ZeroDivisionError
    return (a * c + b * d) / den, (b * c - a * d) / den


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def _assert_like_slow(got, re, im):
    assert type(got) is CoeffQ
    assert type(got.re) is Fraction and type(got.im) is Fraction
    slow = CoeffQ(Fraction(re), Fraction(im))
    assert got == slow and slow == got
    assert hash(got) == hash(slow)


@pytest.mark.parametrize("op", sorted(OPS))
def test_operators_match_slow_construction(op):
    pairs = [(x, y) for x in OPERANDS for y in OPERANDS if isinstance(x, CoeffQ) or isinstance(y, CoeffQ)]
    for x, y in pairs:
        try:
            re, im = _ref(op, x, y)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="division by zero CoeffQ"):
                OPS[op](x, y)
            continue
        _assert_like_slow(OPS[op](x, y), re, im)


def test_unary_results_are_fractions():
    for x in OPERANDS:
        if isinstance(x, CoeffQ):
            _assert_like_slow(-x, -x.re, -x.im)
            _assert_like_slow(x**3, *_ref("*", x, x * x))
            _assert_like_slow(CoeffQ.of(x), x.re, x.im)
        else:
            _assert_like_slow(CoeffQ(x), x, 0)
            _assert_like_slow(CoeffQ.of(x), x, 0)


@pytest.mark.parametrize("op", sorted(OPS))
def test_float_operands_still_raise(op):
    for c in (CoeffQ(2), CoeffQ(Fraction(1, 2), -3)):
        with pytest.raises(TypeError):
            OPS[op](c, 0.5)
        with pytest.raises(TypeError):
            OPS[op](0.5, c)
    with pytest.raises(TypeError):
        CoeffQ(0.5)
