import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from polymod import (
    MODE_UPPER,
    LogNum,
    RangeExceeded,
    SLACK_LOG,
    TOWER_CAP,
    e_tower_log,
    log_add,
    log_mul,
    log_pow,
)

# rounding allowance next to the 2^-40 pads; the working precision is 128 bits
TINY = mpf(2) ** -100


def _true_log(value):
    q = abs(Fraction(value))
    with mp.workprec(160):
        return mp.log(mpf(q.numerator)) - mp.log(mpf(q.denominator))


def _bounds(x, value, pads):
    """x is an upper bound on |value| that overshoots by at most `pads` pads."""
    true = _true_log(value)
    with mp.workprec(160):
        return true <= x.log_mag <= true + pads * SLACK_LOG + TINY


nonzero_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
).filter(lambda q: q != 0)


def test_construction_and_validation():
    assert LogNum.zero().is_zero()
    assert LogNum.from_rational(0).is_zero()
    assert LogNum.mode == MODE_UPPER == "upper-bound"
    assert LogNum.zero().mode == LogNum(1, 3).mode == MODE_UPPER
    with pytest.raises(ValueError):
        LogNum(2, 0)


def test_from_rational_exact():
    a = LogNum.from_rational(Fraction(3, 4))
    assert a.sign == 1 and _bounds(a, Fraction(3, 4), 1)
    b = LogNum.from_rational(Fraction(-5, 2))
    assert b.sign == -1 and _bounds(b, Fraction(5, 2), 1)
    big = LogNum.from_rational(Fraction(10**60 + 7, 3))
    assert _bounds(big, Fraction(10**60 + 7, 3), 1)


def test_from_rational_upper_pads():
    # the pad is really added, not only covered by rounding
    q = Fraction(7, 3)
    upper = LogNum.from_rational(q)
    with mp.workprec(160):
        assert upper.log_mag >= _true_log(q) + SLACK_LOG - TINY
    assert _bounds(upper, q, 1)


def test_log_mul_exact():
    a = LogNum.from_rational(2)
    b = LogNum.from_rational(3)
    c = log_mul(a, b)
    assert c.sign == 1 and _bounds(c, 6, 3)
    # the product's own pad: e^0 * e^0 gives exactly e^(2^-40)
    assert log_mul(LogNum(1, 0), LogNum(1, 0)).log_mag == SLACK_LOG
    assert log_mul(a, LogNum.from_rational(-3)).sign == -1
    assert log_mul(a, LogNum.zero()).is_zero()
    assert log_mul(LogNum.zero(), b).is_zero()


def test_log_add_same_sign():
    one = LogNum.from_rational(1)
    two = log_add(one, one)
    assert two.sign == 1 and _bounds(two, 2, 2)
    both_neg = log_add(LogNum.from_rational(-2), LogNum.from_rational(-3))
    assert both_neg.sign == -1 and _bounds(both_neg, 5, 2)
    with mp.workprec(160):
        assert log_add(LogNum(1, 0), LogNum(1, 0)).log_mag >= mp.log(2) + SLACK_LOG - TINY
    three = LogNum.from_rational(3)
    assert log_add(three, LogNum.zero())._key() == three._key()
    assert log_add(LogNum.zero(), three)._key() == three._key()


def test_log_add_upper_dominates_signed_sum():
    # opposite signs bound |a| + |b|, never the cancelled difference
    for qa, qb in [(5, -3), (3, -5), (5, -5), (-3, 5)]:
        bound = log_add(LogNum.from_rational(qa), LogNum.from_rational(qb))
        assert bound.sign == 1
        assert _bounds(bound, abs(qa) + abs(qb), 2)


def test_log_pow():
    two = LogNum.from_rational(2)
    # the input's pad is scaled by the exponent, then one more pad
    assert _bounds(log_pow(two, 10), 1024, 11)
    neg = LogNum.from_rational(-2)
    assert log_pow(neg, 3).sign == -1
    assert log_pow(neg, 2).sign == 1
    assert _bounds(log_pow(neg, 3), 8, 4)
    assert log_pow(LogNum(1, 0), 3).log_mag == SLACK_LOG
    assert log_pow(LogNum.zero(), 3).is_zero()
    for k in (0, -1, Fraction(1, 2), Fraction(2), 2.0):
        with pytest.raises(ValueError):
            log_pow(two, k)
    with pytest.raises(ValueError):
        log_pow(LogNum.zero(), 0)


def test_unary_ops_and_log10():
    a = LogNum.from_rational(-1000)
    assert abs(a).sign == 1 and abs(a).log_mag == a.log_mag
    with mp.workprec(160):
        got = abs(a).log10()
        assert 3 <= got <= 3 + SLACK_LOG / mp.log(10) + TINY
    with pytest.raises(ValueError):
        a.log10()
    with pytest.raises(ValueError):
        LogNum.zero().log10()


def test_ordering():
    neg = LogNum.from_rational(-5)
    small = LogNum.from_rational(2)
    big = LogNum.from_rational(3)
    zero = LogNum.zero()
    assert neg < zero < small < big
    assert neg < big
    assert LogNum.from_rational(-2) > LogNum.from_rational(-3)
    assert small <= LogNum.from_rational(2)


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("call, message", [
    (lambda bad: log_pow(LogNum.from_rational(2), bad), "exponent must be an int >= 1, got {!r}"),
    (lambda bad: e_tower_log(bad, 3), "tower level k must be a positive int"),
], ids=["log_pow", "e_tower_log"])
def test_int_arguments_reject_bools_and_floats(call, message, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == message.format(bad)


def test_e_tower_levels():
    assert e_tower_log(1, 12) == 12
    assert e_tower_log(1, 10**9) == 10**9
    assert abs(e_tower_log(2, 4) - math.exp(4)) < 1e-12 * math.exp(4)
    want = math.exp(math.exp(3))
    assert abs(e_tower_log(3, 3) - want) < 1e-10 * want


def test_e_tower_caps():
    assert e_tower_log(2, TOWER_CAP) > 0
    with pytest.raises(RangeExceeded):
        e_tower_log(2, TOWER_CAP + 1)
    with pytest.raises(RangeExceeded):
        e_tower_log(3, TOWER_CAP + 1)
    with pytest.raises(RangeExceeded):
        e_tower_log(4, 1)
    with pytest.raises(ValueError):
        e_tower_log(0, 5)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_mul_then_add_is_a_tight_upper_bound(qa, qb, qc):
    got = log_add(
        log_mul(LogNum.from_rational(qa), LogNum.from_rational(qb)),
        LogNum.from_rational(qc),
    )
    # sign is positive unless both summands are negative
    assert got.sign == (-1 if qa * qb < 0 and qc < 0 else 1)
    # five padded steps: three conversions, the product and the sum
    assert _bounds(got, abs(qa * qb) + abs(qc), 5)


@given(
    st.lists(nonzero_rationals, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_upper_mode_is_sound(qs, power):
    # |q1 * ... * qk| ** power never exceeds the certified upper bound
    true_val = abs(math.prod(qs)) ** power
    acc = LogNum.from_rational(qs[0])
    for q in qs[1:]:
        acc = log_mul(acc, LogNum.from_rational(q))
    acc = log_pow(acc, power)
    # len(qs) conversions and len(qs) - 1 products, scaled by the power,
    # then the power's own pad
    assert _bounds(acc, true_val, power * (2 * len(qs) - 1) + 1)
