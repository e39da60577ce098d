"""Polynomials in one and two variables over exact Gaussian rationals.

A bivariate polynomial is stored through its y-coordinates with a factorial
convention:

    F(x, y) = sum_n  f_n(x) * y^n / n!

so coords[n] is f_n. Under this convention d/dy is a pure index shift
(coords drop by one slot) and the x-derivative acts coordinate-wise, which is
what makes differentiation-closed subspaces cheap to manipulate.

Degrees of the zero polynomial are NEG_INF, which orders below every int.

Taylor shifts work on raw values. UniPoly.shift copies the coefficients into
two lists of Fraction parts (re, im) and runs the Horner kernel
``_taylor_shift``, c[j] += a * c[j + 1], which makes n(n-1)/2 products by a
and skips zero parts. BiPoly.shift x-shifts every coordinate with that
kernel, builds the y-weights w_j = b^j / j! once and accumulates each
G_k = sum_j f_{k+j} * w_j on the same raw parts; CoeffQ and UniPoly objects
are made only for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .scalars import ONE, ZERO, CoeffQ, _make

NEG_INF = float("-inf")
_F0 = Fraction(0)
_new = object.__new__


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _unipoly(coeffs: list) -> "UniPoly":
    """UniPoly from a list of CoeffQ (consumed); trims trailing zeros, coerces nothing."""
    f = _new(UniPoly)
    f.coeffs = _trim(coeffs)
    return f


def _from_parts(re: list, im: list) -> "UniPoly":
    return _unipoly([_make(r, i) for r, i in zip(re, im)])


def _parts(f: "UniPoly"):
    """Fresh (re, im) lists of f's coefficient parts, for the raw kernels."""
    return [c.re for c in f.coeffs], [c.im for c in f.coeffs]


def _taylor_shift(re: list, im: list, a: CoeffQ) -> None:
    """In place: the parts of f become those of f(x + a) (Horner, c[j] += a*c[j+1])."""
    ar, ai = a.re, a.im
    has_r, has_i = bool(ar), bool(ai)
    n = len(re)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            r, m = re[j + 1], im[j + 1]
            if r:
                if has_r:
                    re[j] += ar * r
                if has_i:
                    im[j] += ai * r
            if m:
                if has_r:
                    im[j] += ar * m
                if has_i:
                    re[j] -= ai * m


class UniPoly:
    """Dense univariate polynomial; coeffs[k] multiplies x^k, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([CoeffQ.of(c) for c in coeffs])

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        return cls((0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> CoeffQ:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def lead(self) -> CoeffQ:
        return self.coeffs[-1] if self.coeffs else ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return _unipoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return _unipoly([-c for c in self.coeffs])

    def scale(self, c) -> "UniPoly":
        c = CoeffQ.of(c)
        if c.is_zero():
            return _ZERO_POLY
        return _unipoly([a * c for a in self.coeffs])

    def derivative(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise ValueError("negative derivative order")
        if order == 0:
            return self
        return _unipoly([self.coeffs[k] * perm(k, order) for k in range(order, len(self.coeffs))])

    def shift(self, a) -> "UniPoly":
        """Taylor shift: returns g with g(x) = f(x + a), exactly (Horner kernel)."""
        a = CoeffQ.of(a)
        if a.is_zero() or self.is_zero():
            return self
        re, im = _parts(self)
        _taylor_shift(re, im, a)
        return _from_parts(re, im)

    def evaluate(self, x0) -> CoeffQ:
        x0 = CoeffQ.of(x0)
        acc = CoeffQ(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != CoeffQ(1) else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != CoeffQ(1) else f"x^{k}")
        return " + ".join(parts)


class BiPoly:
    """Bivariate polynomial in coordinate form; coords[n] = f_n (see module doc)."""

    __slots__ = ("coords",)

    def __init__(self, coords=()):
        cs = [c if isinstance(c, UniPoly) else UniPoly(c) for c in coords]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coords = tuple(cs)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(())

    @classmethod
    def from_coords(cls, coords) -> "BiPoly":
        return cls(coords)

    @classmethod
    def embed(cls, f: UniPoly) -> "BiPoly":
        """The univariate f viewed as a y-free bivariate polynomial."""
        return cls((f,))

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BiPoly":
        """c * x^i * y^j; coordinate j holds c * j! * x^i under the convention."""
        if i < 0 or j < 0:
            raise ValueError("negative power")
        coeff = CoeffQ.of(c) * factorial(j)
        coords = [UniPoly.zero()] * j + [UniPoly.monomial(i, coeff)]
        return cls(coords)

    def coord(self, n: int) -> UniPoly:
        if 0 <= n < len(self.coords):
            return self.coords[n]
        return _ZERO_POLY

    @property
    def num_coords(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    @property
    def deg_x(self):
        if not self.coords:
            return NEG_INF
        return max(f.degree for f in self.coords)

    @property
    def deg_y(self):
        return len(self.coords) - 1 if self.coords else NEG_INF

    def d_dx(self, order: int = 1) -> "BiPoly":
        return BiPoly(tuple(f.derivative(order) for f in self.coords))

    def d_dy(self, order: int = 1) -> "BiPoly":
        """Index shift: the factorial convention absorbs all combinatorics."""
        if order < 0:
            raise ValueError("negative derivative order")
        return BiPoly(self.coords[order:])

    def shift(self, a, b) -> "BiPoly":
        """Returns G with G(x, y) = F(x + a, y + b), exactly.

        Coordinates of G are G_k = sum_j f_{k+j}(x + a) * w_j with weights
        w_j = b^j / j!, the y-direction Taylor expansion written in
        coordinate form.
        """
        a, b = CoeffQ.of(a), CoeffQ.of(b)
        cols = [_parts(f) for f in self.coords]
        if a:
            for re, im in cols:
                _taylor_shift(re, im, a)
        if not b:
            return BiPoly([_from_parts(re, im) for re, im in cols])
        n = len(cols)
        w = ONE
        weights = [w]
        for j in range(1, n):
            w = w * b / j
            weights.append(w)
        width = max((len(re) for re, _ in cols), default=0)
        out = []
        for k in range(n):
            gr = [_F0] * width
            gi = [_F0] * width
            for j in range(n - k):
                wr, wi = weights[j].re, weights[j].im
                has_r, has_i = bool(wr), bool(wi)
                fr, fi = cols[k + j]
                for t in range(len(fr)):
                    r, m = fr[t], fi[t]
                    if r:
                        if has_r:
                            gr[t] += r * wr
                        if has_i:
                            gi[t] += r * wi
                    if m:
                        if has_r:
                            gi[t] += m * wr
                        if has_i:
                            gr[t] -= m * wi
            out.append(_from_parts(gr, gi))
        return BiPoly(out)

    def evaluate(self, x0, y0) -> CoeffQ:
        y0 = CoeffQ.of(y0)
        acc = CoeffQ(0)
        yp = CoeffQ(1)
        for n, f in enumerate(self.coords):
            acc = acc + f.evaluate(x0) * yp * Fraction(1, factorial(n))
            yp = yp * y0
        return acc

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coords, other.coords
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for n, f in enumerate(b):
            out[n] = out[n] + f
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple(-f for f in self.coords))

    def scale(self, c) -> "BiPoly":
        c = CoeffQ.of(c)
        if c.is_zero():
            return BiPoly.zero()
        return BiPoly(tuple(f.scale(c) for f in self.coords))

    def monomial_terms(self):
        """Yield ((i, j), c) with c the plain monomial coefficient of x^i y^j.

        Display/serialization helper only; internal state keeps the factorial
        convention.
        """
        for j, f in enumerate(self.coords):
            inv = Fraction(1, factorial(j))
            for i, c in enumerate(f.coeffs):
                if not c.is_zero():
                    yield (i, j), c * inv

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"BiPoly({[repr(f) for f in self.coords]})"

    def __str__(self):
        terms = []
        for (i, j), c in sorted(self.monomial_terms(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0])):
            xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            ys = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
            body = "*".join(p for p in (xs, ys) if p)
            if not body:
                terms.append(str(c))
            elif c == CoeffQ(1):
                terms.append(body)
            else:
                terms.append(f"{c}*{body}")
        return " + ".join(terms) if terms else "0"


_ZERO_POLY = UniPoly.zero()
