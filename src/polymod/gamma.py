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
mgamma_contains and the Md + M_g residual test. It reads the window as the
canonical Z[i] triples (re, im, den) that UniPoly stores (see ``poly``), so
equal polynomials give equal triples, and the table as integer terms that
the table caches (see ``_terms``): the many runs of a monomial-seed basis
convert one table a few times, and ``infer_L`` converts the table it infers
once, at the widest window of its check. A step sums
out_m = sum A_ij * perm(m + j, j) * N_i[m + j] on integers and divides out
the content, and its output is a UniPoly on that triple: the recursion,
membership and generate's output build no Fraction.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import lcm, perm
from types import MappingProxyType

from .errors import ArityMismatch
from .poly import _ZERO_POLY, BiPoly, UniPoly, _bipoly, _canon, _over
from .scalars import CoeffQ


class GammaTable:
    """Immutable sparse table {(i, j): a_ij} with 1 <= i <= s and j >= 1;
    entries is a read-only view, because the private slot _terms caches the
    integer terms (see _terms). Equality, hash, repr and pickles ignore it."""

    __slots__ = ("s", "entries", "_terms")

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
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "entries", MappingProxyType(dict(sorted(table.items()))))
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GammaTable, (self.s, dict(self.entries))

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


def _terms(g: GammaTable, width: int):
    """(width', Q, terms) for windows of width' >= width coefficients:
    a_ij = A_ij / Q with A_ij in Z[i], and term (i - 1, j, prow, irow) holds
    A_ij * perm(m + j, j) for m < width' - j, real parts in prow, imaginary
    ones in irow (None for real A_ij). Cached on g; a wider window replaces
    the cache whole, at least doubling width', never changing it in place,
    so a run keeps the rows it read while another thread widens it."""
    cache = g._terms
    if cache is None or cache[0] < width:
        width = max(width, 2 * cache[0]) if cache else width
        entries = g.entries.items()
        avals, Q = _over([a.re for _k, a in entries] + [a.im for _k, a in entries])
        terms = []
        for ((i, j), _a), ar, ai in zip(entries, avals, avals[len(entries) :]):
            row = [perm(m + j, j) for m in range(width - j)]
            terms.append((i - 1, j, tuple([ar * k for k in row]), tuple([ai * k for k in row]) if ai else None))
        cache = (width, Q, tuple(terms))
        object.__setattr__(g, "_terms", cache)
    return cache


def _recur(g: GammaTable, window, cancel=None):
    """Yield f_s, f_{s+1}, ... as UniPoly, from the window f_0..f_{s-1},
    until the window is all zero; polls cancel once per coordinate. It
    reads the table's integer terms from _terms."""
    win = [f._z for f in window]
    _width, Q, terms = _terms(g, max(len(re) for re, _im, _den in win))
    stop = [_ZERO_POLY._z] * len(win)
    while win != stop:
        if cancel is not None:
            cancel.check()
        live = [(win[i], j, prow, irow) for i, j, prow, irow in terms if len(win[i][0]) > j]
        out = _ZERO_POLY
        if live:
            D = lcm(*[w[2] for w, _j, _prow, _irow in live])
            n = max([len(w[0]) - j for w, j, _prow, _irow in live])
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
            out = _canon(re, im, Q * D)
        yield out
        win.append(out._z)
        del win[0]


def apply_L(g: GammaTable, window) -> UniPoly:
    """Apply the table's operator to a window of s univariate polynomials."""
    window = list(window)
    if len(window) != g.s:
        raise ArityMismatch(f"window has {len(window)} entries, table width is {g.s}")
    return next(_recur(g, window), _ZERO_POLY)


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
    return _bipoly(seeds + list(_recur(g, seeds, cancel)))


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
    stream = chain(_recur(g, [F.coord(k) for k in range(g.s)], cancel), repeat(_ZERO_POLY))
    for n, f in zip(range(g.s, top + 1), stream):
        if F.coord(n) != f:
            return False, {"reason": "recursion-mismatch", "n": n, "residual": F.coord(n) - f}
    return True, {"reason": "recursion-verified", "checked_upto": top}
