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

One generator, _recur, runs every recursion: generate, apply_L (one step),
mgamma_contains and the Md + M_g residual test. It converts the table once per
run and keeps the window as canonical Z[i] triples (re, im, den), trailing
zeros trimmed and gcd(den, *re, *im) = 1, so equal polynomials give equal
triples. A step sums out_m = sum A_ij * perm(m + j, j) * N_i[m + j] on
integers and divides out the content, so membership compares on integers and
Fractions are built only for generate's output and a mismatch's residual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm, perm

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


_ZERO_INTS = ((), (), 1)


def _ints(f: UniPoly) -> tuple:
    """The canonical Z[i] triple (re, im, den) of f (see the module doc)."""
    cs = f.coeffs
    if not cs:
        return _ZERO_INTS
    nums, den = _over([c.re for c in cs] + [c.im for c in cs])
    return nums[: len(cs)], nums[len(cs) :], den


def _poly(t) -> UniPoly:
    re, im, den = t
    return _unipoly([_make(Fraction(r, den) if r else _F0, Fraction(c, den) if c else _F0) for r, c in zip(re, im)])


def _recur(g: GammaTable, window, cancel=None):
    """Yield f_s, f_{s+1}, ... as canonical triples, from the window f_0..f_{s-1},
    until the window is all zero; polls cancel once per coordinate."""
    win = [_ints(f) for f in window]
    width = max(len(re) for re, _im, _den in win)
    entries = g.entries.items()
    avals, Q = _over([a.re for _k, a in entries] + [a.im for _k, a in entries])
    terms = []
    for ((i, j), _a), ar, ai in zip(entries, avals, avals[len(entries) :]):
        row = [perm(m + j, j) for m in range(width - j)]
        terms.append((i - 1, j, [ar * k for k in row], [ai * k for k in row] if ai else None))
    stop = [_ZERO_INTS] * len(win)
    while win != stop:
        if cancel is not None:
            cancel.check()
        live = [(win[i], j, prow, irow) for i, j, prow, irow in terms if len(win[i][0]) > j]
        out = _ZERO_INTS
        if live:
            D = lcm(*[w[2] for w, *_ in live])
            n = max([len(w[0]) - j for w, j, *_ in live])
            re, im = [0] * n, [0] * n
            for (cre, cim, den), j, prow, irow in live:
                if den != D:
                    cre, cim = [c * (D // den) for c in cre], [c * (D // den) for c in cim]
                for m in range(len(cre) - j):
                    cr, cm = cre[m + j], cim[m + j]
                    if cr:
                        re[m] += prow[m] * cr
                        if irow:
                            im[m] += irow[m] * cr
                    if cm:
                        im[m] += prow[m] * cm
                        if irow:
                            re[m] -= irow[m] * cm
            while n and not (re[n - 1] or im[n - 1]):
                n -= 1
            if n:
                del re[n:], im[n:]
                den = Q * D
                c = gcd(den, *re, *im)
                if c != 1:
                    re, im, den = [r // c for r in re], [r // c for r in im], den // c
                out = (re, im, den)
        yield out
        win.append(out)
        del win[0]


def apply_L(g: GammaTable, window) -> UniPoly:
    """Apply the table's operator to a window of s univariate polynomials."""
    window = list(window)
    if len(window) != g.s:
        raise ArityMismatch(f"window has {len(window)} entries, table width is {g.s}")
    return next(map(_poly, _recur(g, window)), _ZERO_POLY)


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
    return BiPoly(seeds + [_poly(t) for t in _recur(g, seeds, cancel)])


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
    automatically. Up to the first mismatch, the stream from F's seeds has F's
    window. Returns (bool, certificate dict).
    """
    top = (int(F.deg_y) if not F.is_zero() else -1) + g.s
    stream = chain(_recur(g, [F.coord(k) for k in range(g.s)], cancel), repeat(_ZERO_INTS))
    for n, t in zip(range(g.s, top + 1), stream):
        if _ints(F.coord(n)) != t:
            return False, {"reason": "recursion-mismatch", "n": n, "residual": F.coord(n) - _poly(t)}
    return True, {"reason": "recursion-verified", "checked_upto": top}
