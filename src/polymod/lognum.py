"""Signed log-magnitude arithmetic with certified upward slack.

A LogNum stores sign and ln|value| as a high-precision real (128 working
bits, so at least 80 effective mantissa bits with over 20 guard bits). Every
LogNum is a certified upper bound on the magnitude of the value it stands
for: each operation pads the magnitude by a fixed relative slack of 2^-40,
far above the per-op rounding error of the working precision, and addition
dominates any signed sum by |a| + |b|. A type whose values are upper bounds
cannot divide soundly (an upper bound on |b| is a lower bound on 1/|b|), so
there is no division and powers take positive integer exponents only.

mpmath is imported inside the functions that use it, so it loads on the
first log-space call and not when the package is imported.

Tower exponentials: e_tower_log(k, n) returns ln(e_k(n)) where e_1 = exp and
e_{k+1} = exp o e_k. The representation holds ln e_3(n) = e_2(n) because the
mantissa type carries integer exponents; the documented cap n <= 700 keeps
the inner exponent e(n) inside the IEEE-double envelope so double-precision
oracles remain usable in cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RangeExceeded

PRECISION = 128
# per-op additive pad on ln|x|; ln(1+2^-40) < 2^-40 (a dyadic float, which
# mpmath converts exactly)
SLACK_LOG = 2.0 ** -40
TOWER_CAP = 700

MODE_UPPER = "upper-bound"


class LogNum:
    __slots__ = ("sign", "log_mag")
    mode = MODE_UPPER

    def __init__(self, sign: int, log_mag):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        from mpmath import mp, mpf

        self.sign = sign
        # convert at working precision: mpf() rounds to the ambient context,
        # which would silently truncate 128-bit results to double precision
        with mp.workprec(PRECISION):
            self.log_mag = mpf(0) if sign == 0 else mpf(log_mag)

    @classmethod
    def zero(cls) -> "LogNum":
        return cls(0, 0)

    @classmethod
    def from_rational(cls, value) -> "LogNum":
        value = Fraction(value)
        if value == 0:
            return cls.zero()
        from mpmath import log, mp, mpf

        sign = 1 if value > 0 else -1
        with mp.workprec(PRECISION):
            # conversion rounds; the pad keeps the bound sound
            lm = log(mpf(abs(value.numerator))) - log(mpf(value.denominator)) + SLACK_LOG
        return cls(sign, lm)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __abs__(self) -> "LogNum":
        return LogNum(abs(self.sign), self.log_mag)

    def log10(self):
        """log10 of the (positive) value."""
        if self.sign <= 0:
            raise ValueError("log10 needs a positive value")
        from mpmath import log, mp, mpf

        with mp.workprec(PRECISION):
            return self.log_mag / log(mpf(10))

    def _key(self):
        # orderable stand-in for the signed value; a zero's log_mag is 0
        return (self.sign, self.sign * self.log_mag)

    def __lt__(self, other: "LogNum"):
        a, b = self._key(), other._key()
        return a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])

    def __le__(self, other: "LogNum"):
        return self < other or self._key() == other._key()

    def __repr__(self):
        from mpmath import nstr

        if self.sign == 0:
            return "LogNum(0)"
        s = "-" if self.sign < 0 else "+"
        return f"LogNum({s}exp({nstr(self.log_mag, 10)}))"


def log_mul(a: LogNum, b: LogNum) -> LogNum:
    if a.sign == 0 or b.sign == 0:
        return LogNum.zero()
    from mpmath import mp

    with mp.workprec(PRECISION):
        lm = a.log_mag + b.log_mag + SLACK_LOG
    return LogNum(a.sign * b.sign, lm)


def log_add(a: LogNum, b: LogNum) -> LogNum:
    """Upper bound on |a + b|: |a| + |b|, positive unless both are negative."""
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    from mpmath import exp, log, mp

    with mp.workprec(PRECISION):
        hi = max(a.log_mag, b.log_mag)
        lo = min(a.log_mag, b.log_mag)
        lm = hi + log(1 + exp(lo - hi)) + SLACK_LOG
    return LogNum(a.sign if a.sign == b.sign else 1, lm)


def log_pow(a: LogNum, k: int) -> LogNum:
    """a ** k for an int k >= 1."""
    if type(k) is not int or k < 1:
        raise ValueError(f"exponent must be an int >= 1, got {k!r}")
    if a.sign == 0:
        return a
    from mpmath import mp

    with mp.workprec(PRECISION):
        lm = a.log_mag * k + SLACK_LOG
    return LogNum(-1 if a.sign < 0 and k % 2 else 1, lm)


def e_tower_log(k: int, n):
    """ln(e_k(n)) for tower levels k = 1, 2, 3."""
    if type(k) is not int or k < 1:
        raise ValueError("tower level k must be a positive int")
    if k > 3:
        raise RangeExceeded("tower levels above 3 are not representable here")
    if k >= 2 and n > TOWER_CAP:
        raise RangeExceeded(f"n = {n} exceeds the documented cap {TOWER_CAP} for level {k}")
    from mpmath import exp, mp, mpf

    with mp.workprec(PRECISION):
        v = mpf(n)
        for _ in range(k - 1):
            v = exp(v)
        return v
