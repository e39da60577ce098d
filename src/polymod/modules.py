"""Differentiation-closed subspaces of C[x,y] and membership probes.

A subspace is translation invariant iff it is closed under both partial
derivatives (characteristic zero), so "module" here always means a
differentiation-closed linear subspace. Module expressions:

    Md(d)         all F whose coordinates have x-degree < d
    MGamma(g)     the space generated by the recursion table g
    FiniteGen(..) span of finitely many polynomials, closed under partials
                  at construction time
    Sum(parts)    pointwise sum of spaces

Membership decisions are exact except where noted: sums that mix several
FiniteGen/MGamma parts are decided against seeds of degree < deg_bound and
the certificate records that truncation. The special shape Md + MGamma,
which _md_gamma recognizes in either part order for contains and
canonical_split, is exact both ways: any recursion tail grown from seeds of
degree < d stays of degree < d (each step strictly drops degree), so F lies
in the sum iff the residual F - generate(g, first s coords of F) lies in Md.
"""

from __future__ import annotations

from itertools import zip_longest

from .errors import CancelToken, UnsupportedExpr, _at_least, _polled
from .gamma import GammaTable, _Value, _recur, mgamma_contains, monomial_seed_elements
from .linalg import rref
from .poly import _ZERO_POLY, NEG_INF, BiPoly, UniPoly
from .spans import PolyFrame, in_span, span_reduce


def derivative_closure(gens, cancel: CancelToken | None = None):
    """Reduced basis of the smallest differentiation-closed space over gens:
    one reduction of every partial d_x^a d_y^b g of every generator g;
    polls cancel once per partial."""
    partials = []
    for g in gens:
        while not g.is_zero():
            f = g
            while not f.is_zero():
                if cancel is not None:
                    cancel.check()
                partials.append(f)
                f = f.d_dx()
            g = g.d_dy()
    return span_reduce(partials, cancel=cancel)


class Md(_Value):
    __slots__ = ("d",)

    def __init__(self, d):
        self._fill(_at_least(d, 0, "Md degree bound must be an int >= 0"))


class MGamma(_Value):
    __slots__ = ("gamma",)


class FiniteGen(_Value):
    __slots__ = ("gens", "basis")

    def __init__(self, gens, cancel: CancelToken | None = None):
        gens = tuple(gens)
        self._fill(gens, tuple(derivative_closure(gens, cancel)))

    def _key(self):
        # the basis follows from the generators
        return (self.gens,)


class Sum(_Value):
    __slots__ = ("parts",)

    def __init__(self, *parts):
        flat = []
        for p in parts:
            if isinstance(p, Sum):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if len(flat) < 2:
            raise ValueError("Sum needs at least two parts")
        self._fill(tuple(flat))


class MembershipResult(_Value):
    __slots__ = ("contains", "certificate")

    def __bool__(self):
        return self.contains


class VSpaceBasis(_Value):
    __slots__ = ("s", "deg_bound", "tuples")


def phi(F: BiPoly, s: int):
    """The first s coordinates of F, the seed prefix."""
    return tuple(F.coord(n) for n in range(s))


def default_deg_bound(M, F: BiPoly | None = None) -> int:
    vals = [1]
    for part in M.parts if isinstance(M, Sum) else (M,):
        if isinstance(part, Md):
            vals.append(part.d)
        elif isinstance(part, MGamma):
            vals.append(part.gamma.s)
        elif isinstance(part, FiniteGen):
            for b in part.basis:
                vals.append(int(b.deg_x) if b.deg_x != NEG_INF else 0)
                vals.append(int(b.deg_y) if b.deg_y != NEG_INF else 0)
    if F is not None and not F.is_zero():
        vals.append(int(F.deg_x))
        vals.append(int(F.deg_y))
    return 1 + max(vals)


def _contains_md(M: Md, F: BiPoly) -> MembershipResult:
    offending = [{"n": n, "deg_x": int(f.degree)} for n, f in enumerate(F.coords) if f.degree >= M.d]
    if offending:
        return MembershipResult(False, {"reason": "degree-bound-violated", "d": M.d, "offending": offending})
    return MembershipResult(True, {"reason": "degree-bound", "d": M.d})


def _contains_finite(M: FiniteGen, F: BiPoly, cancel) -> MembershipResult:
    ok, combo = in_span(F, list(M.basis), cancel)
    if ok:
        return MembershipResult(True, {"reason": "span-combination", "combination": combo})
    return MembershipResult(False, {"reason": "outside-span", "basis_dim": len(M.basis)})


def _md_gamma(M):
    """(d, g) when M is Sum(Md(d), MGamma(g)) in either part order, else None."""
    if isinstance(M, Sum) and len(M.parts) == 2:
        a, b = M.parts if isinstance(M.parts[0], Md) else M.parts[::-1]
        if isinstance(a, Md) and isinstance(b, MGamma):
            return a.d, b.gamma
    return None


def _contains_md_plus_gamma(d: int, g: GammaTable, F: BiPoly, cancel) -> MembershipResult:
    completion = _recur(g, phi(F, g.s), cancel)
    offending = []
    for n, (a, b) in enumerate(zip_longest(F.coords[g.s :], completion, fillvalue=_ZERO_POLY), g.s):
        top = (a - b).degree
        if top >= d:
            offending.append({"n": n, "deg_x": top})
    cert = {
        "reason": "sum-residual",
        "d": d,
        "s": g.s,
        "offending": offending,
        "note": "residual = F minus the recursion completion of F's seed prefix;"
        " seed corrections of x-degree < d only produce tails of x-degree < d",
    }
    return MembershipResult(not offending, cert)


def _sum_candidates(parts, s_probe: int | None, bound: int, cancel) -> tuple[list, bool]:
    """Finite element candidates of FiniteGen, MGamma and Md parts; both
    callers check the part types first.

    Returns (candidates, truncated). Md parts, which only v_space passes,
    are realized as single-coordinate elements for the first s_probe slots.
    """
    cands: list[BiPoly] = []
    truncated = False
    for part in _polled(parts, cancel):
        if isinstance(part, FiniteGen):
            cands.extend(part.basis)
        elif isinstance(part, MGamma):
            truncated = True
            cands.extend(monomial_seed_elements(part.gamma, bound, cancel))
        else:  # Md
            for n in range(s_probe):
                for m in range(min(part.d, bound)):
                    coords = [UniPoly.zero()] * n + [UniPoly.monomial(m)]
                    cands.append(BiPoly(coords))
    return cands, truncated


def contains(M, F: BiPoly, deg_bound: int | None = None, cancel: CancelToken | None = None) -> MembershipResult:
    """Decide F in M with a machine-checkable certificate.

    Exact for Md, MGamma, FiniteGen and Sum(Md, MGamma). Sums of several
    FiniteGen/MGamma parts are decided within a seed-degree truncation; a
    positive answer is exact, a negative one is relative to the recorded
    bound. Other shapes raise UnsupportedExpr.
    """
    if isinstance(M, Md):
        return _contains_md(M, F)
    if isinstance(M, MGamma):
        ok, cert = mgamma_contains(M.gamma, F, cancel)
        return MembershipResult(ok, cert)
    if isinstance(M, FiniteGen):
        return _contains_finite(M, F, cancel)
    if isinstance(M, Sum):
        shape = _md_gamma(M)
        if shape is not None:
            return _contains_md_plus_gamma(*shape, F, cancel)
        if all(isinstance(p, (FiniteGen, MGamma)) for p in M.parts):
            bound = default_deg_bound(M, F) if deg_bound is None else _at_least(deg_bound, 1, "deg_bound must be >= 1")
            cands, truncated = _sum_candidates(M.parts, None, bound, cancel)
            ok, combo = in_span(F, cands, cancel)
            cert = {
                "reason": "sum-span" if ok else "sum-span-infeasible",
                "deg_bound": bound,
                "truncated": truncated,
            }
            return MembershipResult(ok, cert)
        raise UnsupportedExpr(
            "supported sums: Sum(Md, MGamma) or sums of FiniteGen/MGamma parts"
        )
    raise UnsupportedExpr(f"unknown module expression {type(M).__name__}")


def v_space(M, s: int, deg_bound: int | None = None, cancel: CancelToken | None = None) -> VSpaceBasis:
    """Row-reduced basis of the seed prefixes {phi(F, s) : F in M, deg_x F < bound}."""
    _at_least(s, 1, "s must be a positive int")
    bound = default_deg_bound(M) if deg_bound is None else _at_least(deg_bound, 1, "deg_bound must be >= 1")
    parts = M.parts if isinstance(M, Sum) else (M,)
    if not all(isinstance(p, (Md, MGamma, FiniteGen)) for p in parts):
        raise UnsupportedExpr("v_space supports Md, MGamma, FiniteGen and their sums")
    cands, _ = _sum_candidates(parts, s, bound, cancel)
    # cells of x-degree >= bound, then the seed cells x-power descending and coordinate ascending, then the rest
    frame = PolyFrame(cands, lambda cell: (cell[0] < bound, cell[1] >= s, -cell[0], cell[1]))
    cells = list(frame.index)
    rows, pivots = rref([frame.to_vec(F) for F in cands], cancel)
    # the rows pivoted below the bound span the elements of x-degree < bound; one pivoted past the
    # seed cells has a zero seed prefix, so the seed parts of those pivoted in one are the prefixes' RREF
    seeds = [r for r, k in zip(rows, pivots) if cells[k][0] < bound and cells[k][1] < s]
    return VSpaceBasis(s=s, deg_bound=bound, tuples=tuple(phi(frame.from_vec(r), s) for r in seeds))
