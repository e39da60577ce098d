"""Tables of linear differential recursions and the spaces they generate.

A table g of width s encodes the operator

    L(f_1, ..., f_s) = sum_{i=1..s} sum_{j>=1} a_{i,j} * f_i^(j)

acting on windows of s univariate polynomials. The generated space M_g holds
every F whose coordinates obey f_n = L(f_{n-s}, ..., f_{n-1}) for n >= s; the
first s coordinates are free seeds. Because every term differentiates at
least once, each recursion step strictly lowers the window's top degree, so
generation always terminates: the window max drops by at least 1 every s
steps. Hence deg f_n <= max seed degree - floor(n / s), and f_n = 0 for all
n >= s * (1 + max seed degree). The bound is sharp. For s >= 2 it lies past
the naive cutoff s + max seed degree, because a width-s window can carry each
degree for s - 1 more steps.

apply_L, the one recursion step, is an integer kernel like poly._shift. The
slot coefficients that the terms with deg f_i >= j use go over one common
denominator D, as numerators N_i in Z[i], and the entries over their own, Q.
out_m = sum A_ij * perm(m + j, j) * N_i[m + j] is summed on integers, zero
parts skipped, and each part is built once as Fraction(num, Q * D): one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .errors import ArityMismatch
from .poly import _F0, _ZERO_POLY, BiPoly, UniPoly, _over, _unipoly
from .scalars import CoeffQ, _make


class GammaTable:
    """Immutable sparse table {(i, j): a_ij} with 1 <= i <= s and j >= 1."""

    __slots__ = ("s", "entries")

    def __init__(self, s: int, entries=None):
        if type(s) is not int or s < 1:
            raise ValueError("table width s must be a positive int")
        table = {}
        for (i, j), a in dict(entries or {}).items():
            if type(i) is not int or not 1 <= i <= s:
                raise ValueError(f"row index {i} outside 1..{s}")
            if type(j) is not int or j < 1:
                raise ValueError(f"derivative order {j} must be >= 1")
            a = CoeffQ.of(a)
            if not a.is_zero():
                table[(i, j)] = a
        self.s = s
        self.entries = dict(sorted(table.items()))

    @classmethod
    def zero(cls, s: int) -> "GammaTable":
        return cls(s, {})

    @property
    def max_j(self) -> int:
        return max((j for (_i, j) in self.entries), default=0)

    def items(self):
        return self.entries.items()

    def __eq__(self, other):
        if not isinstance(other, GammaTable):
            return NotImplemented
        return self.s == other.s and self.entries == other.entries

    def __hash__(self):
        return hash((self.s, tuple(self.entries.items())))

    def __repr__(self):
        body = ", ".join(f"a[{i},{j}]={a}" for (i, j), a in self.entries.items())
        return f"GammaTable(s={self.s}, {{{body}}})"


def shift_invariance_table() -> GammaTable:
    """Width-1 table of the pure shift family {f(x+y)}: f_n = f_{n-1}'."""
    return GammaTable(1, {(1, 1): 1})


def dilated_shift_table(a) -> GammaTable:
    """Width-1 table of {f(x + a*y)}: f_n = a * f_{n-1}'."""
    return GammaTable(1, {(1, 1): a})


def apply_L(g: GammaTable, window) -> UniPoly:
    """Apply the table's operator to a window of s univariate polynomials,
    on the integer recursion-step kernel (see the module doc)."""
    window = list(window)
    if len(window) != g.s:
        raise ArityMismatch(f"window has {len(window)} entries, table width is {g.s}")
    terms = [(i, j, a) for (i, j), a in g.items() if len(window[i - 1].coeffs) > j]
    if not terms:
        return _ZERO_POLY
    # each slot's coefficients from its lowest j on; x^k of slot i is cs[start[i] + k]
    start, cs = {}, []
    for i, j, _a in terms:
        if i not in start:
            start[i] = len(cs) - j
            cs.extend(window[i - 1].coeffs[j:])
    h = len(cs)
    nums, D = _over([c.re for c in cs] + [c.im for c in cs])
    avals, Q = _over([a.re for _i, _j, a in terms] + [a.im for _i, _j, a in terms])
    n = max(len(window[i - 1].coeffs) - j for i, j, _a in terms)
    re, im = [0] * n, [0] * n
    for (i, j, _a), ar, ai in zip(terms, avals, avals[len(terms) :]):
        o = start[i] + j
        for m in range(len(window[i - 1].coeffs) - j):
            cr, cm = nums[o + m], nums[h + o + m]
            if not (cr or cm):
                continue
            k = perm(m + j, j)
            pr, pi = ar * k, ai * k
            if cr:
                if pr:
                    re[m] += pr * cr
                if pi:
                    im[m] += pi * cr
            if cm:
                if pr:
                    im[m] += pr * cm
                if pi:
                    re[m] -= pi * cm
    den = Q * D
    return _unipoly([_make(Fraction(r, den) if r else _F0, Fraction(c, den) if c else _F0) for r, c in zip(re, im)])


def generate(g: GammaTable, seeds, cancel=None) -> BiPoly:
    """Run the recursion from s seed polynomials until it reaches zero.

    Termination is guaranteed: the max degree over the current window strictly
    drops at least once per s steps (every operator term differentiates), so
    f_n = 0 for all n >= s * (1 + max seed degree), and at most
    s * (2 + max seed degree) coordinates, the zero window included, are built.
    """
    seeds = [f if isinstance(f, UniPoly) else UniPoly(f) for f in seeds]
    if len(seeds) != g.s:
        raise ArityMismatch(f"{len(seeds)} seeds for a width-{g.s} table")
    coords = list(seeds)
    max_deg = max((int(f.degree) for f in seeds if not f.is_zero()), default=-1)
    guard = g.s * (2 + max(0, max_deg))
    while True:
        if cancel is not None:
            cancel.check()
        window = coords[-g.s:]
        if all(f.is_zero() for f in window):
            break
        coords.append(apply_L(g, window))
        if len(coords) > guard:  # unreachable; degree descent forbids it
            raise AssertionError("recursion failed to terminate within the proven bound")
    return BiPoly.from_coords(coords)


def monomial_seed_elements(g: GammaTable, bound: int, cancel=None) -> list:
    """generate(g, seeds) for each seed tuple with x^m in slot i and zero
    elsewhere, slot-major with m ascending, i = 1..s and m < bound. These span
    the elements of M_g whose seeds have degree < bound."""
    out = []
    for i in range(g.s):
        for m in range(bound):
            seeds = [UniPoly.zero()] * g.s
            seeds[i] = UniPoly.monomial(m)
            out.append(generate(g, seeds, cancel=cancel))
    return out


def mgamma_contains(g: GammaTable, F: BiPoly, cancel=None):
    """Exact membership of F in the generated space M_g.

    Checks f_n = L(window) for s <= n <= deg_y(F) + s; beyond that range the
    window consists of zero polynomials only, so the recursion holds
    automatically. Returns (bool, certificate dict).
    """
    top = (int(F.deg_y) if not F.is_zero() else -1) + g.s
    for n in range(g.s, top + 1):
        if cancel is not None:
            cancel.check()
        window = [F.coord(n - g.s + k) for k in range(g.s)]
        expected = apply_L(g, window)
        if F.coord(n) != expected:
            return False, {
                "reason": "recursion-mismatch",
                "n": n,
                "residual": F.coord(n) - expected,
            }
    return True, {"reason": "recursion-verified", "checked_upto": top}
