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
"""

from __future__ import annotations

from .errors import ArityMismatch
from .poly import BiPoly, UniPoly
from .scalars import CoeffQ


class GammaTable:
    """Immutable sparse table {(i, j): a_ij} with 1 <= i <= s and j >= 1."""

    __slots__ = ("s", "entries")

    def __init__(self, s: int, entries=None):
        if not isinstance(s, int) or s < 1:
            raise ValueError("table width s must be a positive int")
        table = {}
        for (i, j), a in dict(entries or {}).items():
            if not isinstance(i, int) or not 1 <= i <= s:
                raise ValueError(f"row index {i} outside 1..{s}")
            if not isinstance(j, int) or j < 1:
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
    """Apply the table's operator to a window of s univariate polynomials."""
    window = list(window)
    if len(window) != g.s:
        raise ArityMismatch(f"window has {len(window)} entries, table width is {g.s}")
    out = UniPoly.zero()
    for (i, j), a in g.items():
        f = window[i - 1]
        if f.degree >= j:
            out = out + f.derivative(j).scale(a)
    return out


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


def mgamma_contains(g: GammaTable, F: BiPoly):
    """Exact membership of F in the generated space M_g.

    Checks f_n = L(window) for s <= n <= deg_y(F) + s; beyond that range the
    window consists of zero polynomials only, so the recursion holds
    automatically. Returns (bool, certificate dict).
    """
    top = (int(F.deg_y) if not F.is_zero() else -1) + g.s
    for n in range(g.s, top + 1):
        window = [F.coord(n - g.s + k) for k in range(g.s)]
        expected = apply_L(g, window)
        residual = F.coord(n) - expected
        if not residual.is_zero():
            return False, {
                "reason": "recursion-mismatch",
                "n": n,
                "residual": residual,
            }
    return True, {"reason": "recursion-verified", "checked_upto": top}
