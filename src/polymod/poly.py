"""Polynomials in one and two variables over exact Gaussian rationals.

A bivariate polynomial is stored through its y-coordinates with a factorial
convention:

    F(x, y) = sum_n  f_n(x) * y^n / n!

so coords[n] is f_n. Under this convention d/dy is a pure index shift
(coords drop by one slot) and the x-derivative acts coordinate-wise, which is
what makes differentiation-closed subspaces cheap to manipulate.

Degrees of the zero polynomial are NEG_INF, which orders below every int.

Both Taylor shifts run on one exact integer kernel, ``_shift``, in the
fraction-free manner of von zur Gathen and Gerhard (ISSAC 1997). Every input
part is put over one common denominator D, so the coefficients become
numerators in Z[i] (two int lists, re and im). For the x-shift, a = A/q with
A in Z[i]: c_j is scaled by q^(N-j), N the largest x-degree, the Horner loop
c[j] += A * c[j + 1] runs on integers, and output k is multiplied by q^k;
the denominator is now D * q^N. For the y-shift, b = B/q': the weights
w_j = b^j / j! are integers over W = q'^(n-1) * (n-1)!, and each
G_k = sum_j f_{k+j} * w_j is accumulated on integers. Zero parts are
skipped throughout. Each output part is built once with Fraction(num, den),
so it is normalised by one gcd, not by one per product and sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, perm

from .scalars import ZERO, CoeffQ, _make

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


def _bipoly(coords: list) -> "BiPoly":
    """BiPoly from a list of UniPoly (consumed); drops trailing zero coordinates, coerces nothing."""
    p = _new(BiPoly)
    p.coords = _trim(coords)
    return p


def _over(parts) -> tuple:
    """(integer numerators, common denominator) of some Fraction parts."""
    ratios = [p.as_integer_ratio() for p in parts]
    den = lcm(*[d for _n, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _shift(cols, a: CoeffQ, b: CoeffQ) -> list:
    """Coefficient lists of the coordinates of F(x + a, y + b), F given by its
    coordinates' coefficient tuples cols (see the module doc for the kernel)."""
    den = lcm(*(p.denominator for f in cols for c in f for p in (c.re, c.im)))
    re = [[c.re.numerator * (den // c.re.denominator) for c in f] for f in cols]
    im = [[c.im.numerator * (den // c.im.denominator) for c in f] for f in cols]
    width = max(map(len, cols), default=0)
    if a:
        # a = A/q: shift q^N f(z/q) by A on integers, then z^k carries q^k
        (ar, ai), q = _over((a.re, a.im))
        qk = [q**k for k in range(width)]
        for r, m in zip(re, im):
            n = len(r)
            if q != 1:
                r[:] = [c * k for c, k in zip(r, reversed(qk))]
                m[:] = [c * k for c, k in zip(m, reversed(qk))]
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    cr, cm = r[j + 1], m[j + 1]
                    if cr:
                        if ar:
                            r[j] += ar * cr
                        if ai:
                            m[j] += ai * cr
                    if cm:
                        if ar:
                            m[j] += ar * cm
                        if ai:
                            r[j] -= ai * cm
            if q != 1:
                r[:] = [c * k for c, k in zip(r, qk)]
                m[:] = [c * k for c, k in zip(m, qk)]
        den *= qk[-1]
    if b:
        # b = B/q: w_j = b^j / j! is B^j q^(n-1-j) (n-1)!/j! over W = q^(n-1) (n-1)!
        (br, bi), q = _over((b.re, b.im))
        n = len(cols)
        s = [1] * n
        for j in range(n - 2, -1, -1):
            s[j] = s[j + 1] * q * (j + 1)
        wr, wi = [], []
        pr, pi = 1, 0
        for sj in s:
            wr.append(pr * sj)
            wi.append(pi * sj)
            pr, pi = pr * br - pi * bi, pr * bi + pi * br
        den *= s[0]
        gre, gim = [], []
        for k in range(n):
            gr = [0] * width
            gi = [0] * width
            for j in range(n - k):
                vr, vi = wr[j], wi[j]
                for t, (cr, cm) in enumerate(zip(re[k + j], im[k + j])):
                    if cr:
                        if vr:
                            gr[t] += cr * vr
                        if vi:
                            gi[t] += cr * vi
                    if cm:
                        if vr:
                            gi[t] += cm * vr
                        if vi:
                            gr[t] -= cm * vi
            gre.append(gr)
            gim.append(gi)
        re, im = gre, gim
    return [
        [_make(Fraction(cr, den) if cr else _F0, Fraction(cm, den) if cm else _F0) for cr, cm in zip(r, m)]
        for r, m in zip(re, im)
    ]


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
        """Taylor shift: returns g with g(x) = f(x + a), exactly (integer Horner kernel)."""
        a = CoeffQ.of(a)
        if a.is_zero() or self.is_zero():
            return self
        return _unipoly(_shift([self.coeffs], a, ZERO)[0])

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
        self.coords = _trim([c if isinstance(c, UniPoly) else UniPoly(c) for c in coords])

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
        coordinate form; both directions run on the integer kernel.
        """
        a, b = CoeffQ.of(a), CoeffQ.of(b)
        if self.is_zero() or not (a or b):
            return self
        return _bipoly([_unipoly(f) for f in _shift([f.coeffs for f in self.coords], a, b)])

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
