"""Exact Gaussian-rational scalars.

Every coefficient in the library is a complex number with Fraction real and
imaginary parts, so all core algebra is exact. Division is total on nonzero
scalars (Gaussian rationals form a field).

Fast paths: arithmetic builds its results with ``_make``, which stores two
parts that are already ``Fraction`` without checking or re-wrapping them.
A plain ``int`` or ``Fraction`` operand is used as it is, without a CoeffQ
around it. ``*`` with a real factor (im == 0) on either side and ``/`` by a
real divisor take 2 ``Fraction`` products or quotients instead of 4. Floats
and other foreign operands still raise ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction

_Q = (int, Fraction)
_new = object.__new__


def _make(re: Fraction, im: Fraction) -> "CoeffQ":
    """A CoeffQ from two parts that are already Fraction; nothing is checked."""
    c = _new(CoeffQ)
    c.re = re
    c.im = im
    return c


def _operand(value):
    """(re, im) of an operand; a plain int or Fraction is its own real part."""
    if type(value) is int or type(value) is Fraction:
        return value, 0
    value = CoeffQ.of(value)
    return value.re, value.im


class CoeffQ:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not isinstance(re, _Q) or not isinstance(im, _Q):
            raise TypeError("CoeffQ parts must be int or Fraction")
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def of(cls, value) -> "CoeffQ":
        if isinstance(value, CoeffQ):
            return value
        if isinstance(value, _Q):
            return cls(value)
        raise TypeError(f"cannot coerce {value!r} to CoeffQ")

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        if type(other) is int or type(other) is Fraction:
            return _make(self.re + other, self.im)
        other = CoeffQ.of(other)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int or type(other) is Fraction:
            return _make(self.re - other, self.im)
        other = CoeffQ.of(other)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return CoeffQ.of(other) - self

    def __mul__(self, other):
        ore, oim = _operand(other)
        sre, sim = self.re, self.im
        if not oim:
            return _make(sre * ore, sim * ore)
        if not sim:
            return _make(sre * ore, sre * oim)
        return _make(sre * ore - sim * oim, sre * oim + sim * ore)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ore, oim = _operand(other)
        if not oim:
            if not ore:
                raise ZeroDivisionError("division by zero CoeffQ")
            return _make(self.re / ore, self.im / ore)
        den = ore * ore + oim * oim
        return _make(
            (self.re * ore + self.im * oim) / den,
            (self.im * ore - self.re * oim) / den,
        )

    def __rtruediv__(self, other):
        return CoeffQ.of(other) / self

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("CoeffQ power needs a nonnegative int")
        out = ONE
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, _Q):
            other = CoeffQ(other)
        if not isinstance(other, CoeffQ):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"CoeffQ({self.re})"
        return f"CoeffQ({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


ZERO = CoeffQ(0)
ONE = CoeffQ(1)
