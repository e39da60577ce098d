"""Polynomials in one and two variables over exact Gaussian rationals.

A univariate polynomial stores its canonical Z[i] triple (re, im, den):
coefficient k is (re[k] + im[k] * i) / den, re and im int tuples without a
trailing zero pair, gcd(den, *re, *im) = 1, zero exactly ((), (), 1). Equal
polynomials have equal triples, so equality, hashing and ``gamma``'s
recursion compare integers. Arithmetic works on the integers with one gcd
per result; ``coeffs``, ``coeff``, ``lead``, ``evaluate`` and the reprs
build CoeffQ values (one Fraction per nonzero part) only at the edge.

A bivariate polynomial is stored through its y-coordinates with a factorial
convention:

    F(x, y) = sum_n  f_n(x) * y^n / n!

so coords[n] is f_n. Under this convention d/dy is a pure index shift
(coords drop by one slot) and the x-derivative acts coordinate-wise, which is
what makes differentiation-closed subspaces cheap to manipulate.

Degrees of the zero polynomial are NEG_INF, which orders below every int.

Both Taylor shifts run on one exact integer kernel, ``_shift``, in the
fraction-free manner of von zur Gathen and Gerhard (ISSAC 1997). The
coordinates' triples are put over one common denominator D, so the
coefficients are numerators in Z[i]. The y-pass runs first: for b = B/q'
the weights w_j = b^j / j! are integers over W = q'^(n-1) * (n-1)!, each
f_i's nonzero cells are read once, scaled to D, and each G_k =
sum_j f_{k+j} * w_j, as long as the longest f_m with m >= k, is summed on
integers over those cells alone. The x-pass then shifts each G_k (each f_k
when b = 0) by a = A/q: c_j is scaled by q^(N-j), N the largest x-degree,
the Horner loop c[j] += A * c[j + 1] skips zero parts, and output k is
multiplied by q^k. Each pass polls cancel at each coordinate in turn, and
each output coordinate, over D * W * q^N, is made canonical with one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm, perm

from .errors import _natural, _polled
from .scalars import ONE, ZERO, CoeffQ, _entry, _operand

NEG_INF = float("-inf")
_new = object.__new__


def _canon(re: list, im: list, den: int) -> "UniPoly":
    """UniPoly of the Z[i] numerators re, im (int lists of one length, consumed)
    over a positive den: trailing zeros trimmed, the content divided out."""
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    if not n:
        return _ZERO_POLY
    del re[n:], im[n:]
    c = gcd(den, *re, *im)
    if c != 1:
        re, im, den = [r // c for r in re], [m // c for m in im], den // c
    f = _new(UniPoly)
    f._z = (tuple(re), tuple(im), den)
    return f


def _unipoly(coeffs) -> "UniPoly":
    """UniPoly of a sequence of CoeffQ, coercing nothing: the one way from
    CoeffQ values into the triple."""
    nums, den = _over([c.re for c in coeffs] + [c.im for c in coeffs])
    n = len(coeffs)
    return _canon(nums[:n], nums[n:], den)


def _bipoly(coords: list) -> "BiPoly":
    """BiPoly from a list of UniPoly (consumed); drops trailing zero coordinates, coerces nothing."""
    while coords and not coords[-1]._z[0]:
        coords.pop()
    p = _new(BiPoly)
    p.coords = tuple(coords)
    return p


def _over(parts) -> tuple:
    """(integer numerators, common denominator) of some int or Fraction parts."""
    ratios = [p.as_integer_ratio() for p in parts]
    den = lcm(*[d for _n, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _monomial(k: int, c, f: int = 1) -> "UniPoly":
    """c * f * x^k for an operand c and an int f >= 1: a plain int c gives
    its canonical triple directly, any other operand is coerced."""
    if type(c) is int:
        if not c:
            return _ZERO_POLY
        p = _new(UniPoly)
        p._z = ((0,) * k + (c * f,), (0,) * (k + 1), 1)
        return p
    (cr, ci), q = _over(_operand(c))
    return _canon([0] * k + [cr * f], [0] * k + [ci * f], q)


def _shift(cols, a: CoeffQ, b: CoeffQ, cancel=None) -> list:
    """The coordinates of F(x + a, y + b) as UniPoly, F given by its
    coordinates' triples cols (see the module doc for the kernel); polls
    cancel once per coordinate of each pass, the y-pass first."""
    den = lcm(*[d for _re, _im, d in cols])
    ks = [den // d for _re, _im, d in cols]
    if b:
        # b = B/q: w_j = b^j / j! is B^j q^(n-1-j) (n-1)!/j! over W = q^(n-1) (n-1)!
        (br, bi), q = _over((b.re, b.im))
        s = [1] * len(cols)
        for j in range(len(cols) - 2, -1, -1):
            s[j] = s[j + 1] * q * (j + 1)
        wr, wi = [], []
        pr, pi = 1, 0
        for sj in s:
            wr.append(pr * sj)
            wi.append(pi * sj)
            pr, pi = pr * br - pi * bi, pr * bi + pi * br
        den *= s[0]
        # each f_i's nonzero cells over the common denominator, read once
        cells = [([(t, c * k) for t, c in enumerate(r) if c], [(t, c * k) for t, c in enumerate(m) if c])
                 for (r, m, _d), k in zip(cols, ks)]
        # G_k = sum_j w_j f_(k+j) is as long as the longest f_m with m >= k
        widths = list(accumulate([len(r) for r, _m, _d in reversed(cols)], max))[::-1]
        re, im = [], []
        for k, width in enumerate(widths):
            if cancel is not None:
                cancel.check()
            gr, gi = [0] * width, [0] * width
            for (rc, mc), vr, vi in zip(cells[k:], wr, wi):
                if vr:
                    for t, c in rc:
                        gr[t] += c * vr
                    for t, c in mc:
                        gi[t] += c * vr
                if vi:
                    for t, c in rc:
                        gi[t] += c * vi
                    for t, c in mc:
                        gr[t] -= c * vi
            re.append(gr)
            im.append(gi)
    else:
        re = [[c * k for c in r] for (r, _m, _d), k in zip(cols, ks)]
        im = [[c * k for c in m] for (_r, m, _d), k in zip(cols, ks)]
    if a:
        # a = A/q: shift q^N f(z/q) by A on integers, then z^k carries q^k
        (ar, ai), q = _over((a.re, a.im))
        qk = [q**k for k in range(max(map(len, re)))]
        for r, m in zip(re, im):
            if cancel is not None:
                cancel.check()
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
    return [_canon(r, m, den) for r, m in zip(re, im)]


class UniPoly:
    """Dense univariate polynomial, stored as its canonical Z[i] triple (see the module doc)."""

    __slots__ = ("_z",)

    def __init__(self, coeffs=()):
        self._z = _unipoly([CoeffQ.of(c) for c in coeffs])._z

    @classmethod
    def zero(cls) -> "UniPoly":
        return _ZERO_POLY

    @classmethod
    def monomial(cls, k: int, c=1) -> "UniPoly":
        return _monomial(_natural(k, "power"), c)

    @property
    def coeffs(self) -> tuple:
        """coeffs[k] multiplies x^k, no trailing zeros; zero entries are ZERO."""
        re, im, den = self._z
        return tuple([_entry(r, m, den) for r, m in zip(re, im)])

    @property
    def degree(self):
        return len(self._z[0]) - 1 if self._z[0] else NEG_INF

    def is_zero(self) -> bool:
        return not self._z[0]

    def coeff(self, k: int) -> CoeffQ:
        re, im, den = self._z
        return _entry(re[k], im[k], den) if 0 <= k < len(re) else ZERO

    def lead(self) -> CoeffQ:
        re, im, den = self._z
        return _entry(re[-1], im[-1], den) if re else ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self._z, other._z
        if len(a[0]) < len(b[0]):
            a, b = b, a
        (ar, ai, ad), (br, bi, bd) = a, b
        den = lcm(ad, bd)
        fa, fb = den // ad, den // bd
        re, im = [r * fa for r in ar], [m * fa for m in ai]
        for k, (r, m) in enumerate(zip(br, bi)):
            re[k] += r * fb
            im[k] += m * fb
        return _canon(re, im, den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        re, im, den = self._z
        f = _new(UniPoly)
        f._z = (tuple([-r for r in re]), tuple([-m for m in im]), den)
        return f

    def scale(self, c) -> "UniPoly":
        (cr, ci), q = _over(_operand(c))
        re, im, den = self._z
        return _canon([r * cr - m * ci for r, m in zip(re, im)], [r * ci + m * cr for r, m in zip(re, im)], den * q)

    def derivative(self, order: int = 1) -> "UniPoly":
        if not _natural(order, "derivative order"):
            return self
        re, im, den = self._z
        ks = [perm(k, order) for k in range(order, len(re))]
        return _canon([r * k for r, k in zip(re[order:], ks)], [m * k for m, k in zip(im[order:], ks)], den)

    def shift(self, a) -> "UniPoly":
        """Taylor shift: returns g with g(x) = f(x + a), exactly (integer Horner kernel)."""
        a = CoeffQ.of(a)
        if a.is_zero() or self.is_zero():
            return self
        return _shift([self._z], a, ZERO)[0]

    def evaluate(self, x0, cancel=None) -> CoeffQ:
        x0 = CoeffQ.of(x0)
        acc = ZERO
        for c in _polled(reversed(self.coeffs), cancel):
            acc = acc * x0 + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._z == other._z

    def __hash__(self):
        return hash(self._z)

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        return str(_bipoly([self]))


class BiPoly:
    """Bivariate polynomial in coordinate form; coords[n] = f_n (see module doc)."""

    __slots__ = ("coords",)

    def __init__(self, coords=()):
        self.coords = _bipoly([c if isinstance(c, UniPoly) else UniPoly(c) for c in coords]).coords

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls(())

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BiPoly":
        """c * x^i * y^j; coordinate j holds c * j! * x^i under the convention."""
        _natural(i, "power")
        return _bipoly([_ZERO_POLY] * _natural(j, "power") + [_monomial(i, c, factorial(j))])

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
        _natural(order, "derivative order")
        return BiPoly(tuple(f.derivative(order) for f in self.coords))

    def d_dy(self, order: int = 1) -> "BiPoly":
        """Index shift: the factorial convention absorbs all combinatorics."""
        _natural(order, "derivative order")
        return BiPoly(self.coords[order:])

    def shift(self, a, b, cancel=None) -> "BiPoly":
        """Returns G with G(x, y) = F(x + a, y + b), exactly.

        Coordinates of G are G_k(x + a) with G_k = sum_j f_{k+j} * w_j and
        weights w_j = b^j / j!, the y-direction Taylor expansion written in
        coordinate form. The integer kernel forms every G_k first, then
        shifts each in x; it polls cancel once per coordinate of each pass.
        """
        a, b = CoeffQ.of(a), CoeffQ.of(b)
        if self.is_zero() or not (a or b):
            return self
        return _bipoly(_shift([f._z for f in self.coords], a, b, cancel))

    def evaluate(self, x0, y0, cancel=None) -> CoeffQ:
        """F(x0, y0); polls cancel once per coordinate, and once per coefficient within each."""
        y0 = CoeffQ.of(y0)
        acc = ZERO
        yp = ONE
        for n, f in enumerate(_polled(self.coords, cancel)):
            acc = acc + f.evaluate(x0, cancel) * yp * Fraction(1, factorial(n))
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
            elif c == ONE:
                terms.append(body)
            else:
                terms.append(f"{c}*{body}")
        return " + ".join(terms) if terms else "0"


_ZERO_POLY = _new(UniPoly)
_ZERO_POLY._z = ((), (), 1)
