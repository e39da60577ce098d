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
the certificate records that truncation. The special shape Md + MGamma is
exact both ways: any recursion tail grown from seeds of degree < d stays of
degree < d (each step strictly drops degree), so F lies in the sum iff the
residual F - generate(g, first s coords of F) lies in Md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

from .cancel import CancelToken
from .errors import UnsupportedExpr
from .gamma import _ZERO_INTS, GammaTable, _ints, _recur, mgamma_contains, monomial_seed_elements
from .linalg import rref
from .poly import NEG_INF, BiPoly, UniPoly
from .scalars import ZERO
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


@dataclass(frozen=True)
class Md:
    d: int

    def __post_init__(self):
        if type(self.d) is not int or self.d < 0:
            raise ValueError("Md degree bound must be an int >= 0")


@dataclass(frozen=True)
class MGamma:
    gamma: GammaTable


@dataclass(frozen=True, init=False)
class FiniteGen:
    gens: tuple
    basis: tuple = field(compare=False)

    def __init__(self, gens, cancel: CancelToken | None = None):
        gens = tuple(gens)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "basis", tuple(derivative_closure(gens, cancel)))


@dataclass(frozen=True, init=False)
class Sum:
    parts: tuple

    def __init__(self, *parts):
        flat = []
        for p in parts:
            if isinstance(p, Sum):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if len(flat) < 2:
            raise ValueError("Sum needs at least two parts")
        object.__setattr__(self, "parts", tuple(flat))


@dataclass(frozen=True)
class MembershipResult:
    contains: bool
    certificate: dict

    def __bool__(self):
        return self.contains


@dataclass(frozen=True)
class VSpaceBasis:
    s: int
    deg_bound: int
    tuples: tuple


def phi(F: BiPoly, s: int):
    """The first s coordinates of F, the seed prefix."""
    return tuple(F.coord(n) for n in range(s))


def _seed_order(cell):
    """The cell key of seed prefixes: higher x-power first, then lower
    coordinate. Every cell of x-degree >= bound comes before every cell of
    lower degree, so the rref rows pivoted below the bound span exactly the
    elements of x-degree < bound."""
    return -cell[0], cell[1]


def default_deg_bound(M, F: BiPoly | None = None) -> int:
    vals = [1]
    stack = [M]
    while stack:
        part = stack.pop()
        if isinstance(part, Md):
            vals.append(part.d)
        elif isinstance(part, MGamma):
            vals.append(part.gamma.s)
        elif isinstance(part, FiniteGen):
            for b in part.basis:
                vals.append(int(b.deg_x) if b.deg_x != NEG_INF else 0)
                vals.append(int(b.deg_y) if b.deg_y != NEG_INF else 0)
        elif isinstance(part, Sum):
            stack.extend(part.parts)
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


def _contains_md_plus_gamma(d: int, g: GammaTable, F: BiPoly, cancel) -> MembershipResult:
    completion = _recur(g, phi(F, g.s), cancel)
    offending = []
    for n, (a, b) in enumerate(zip_longest(map(_ints, F.coords[g.s :]), completion, fillvalue=_ZERO_INTS), g.s):
        if a == b:
            continue
        # the x-degree of the residual a - b: cross products scanned from the top down to d
        (ar, ai, ad), (br, bi, bd) = a, b
        top = max(len(ar), len(br)) - 1
        if len(ar) == len(br):
            diff = (m for m in range(top, d - 1, -1) if ar[m] * bd != br[m] * ad or ai[m] * bd != bi[m] * ad)
            top = next(diff, -1)
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
    """Finite element candidates for the supported sum shapes.

    Returns (candidates, truncated). s_probe, when given, also realizes Md
    parts as single-coordinate elements for the first s_probe slots.
    """
    cands: list[BiPoly] = []
    truncated = False
    for part in parts:
        if cancel is not None:
            cancel.check()
        if isinstance(part, FiniteGen):
            cands.extend(part.basis)
        elif isinstance(part, MGamma):
            truncated = True
            cands.extend(monomial_seed_elements(part.gamma, bound, cancel))
        elif isinstance(part, Md):
            if s_probe is None:
                raise UnsupportedExpr("Md parts are only supported in Sum(Md, MGamma)")
            for n in range(s_probe):
                for m in range(min(part.d, bound)):
                    coords = [UniPoly.zero()] * n + [UniPoly.monomial(m)]
                    cands.append(BiPoly(coords))
        else:
            raise UnsupportedExpr(f"unsupported sum part {type(part).__name__}")
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
        mds = [p for p in M.parts if isinstance(p, Md)]
        gammas = [p for p in M.parts if isinstance(p, MGamma)]
        if len(M.parts) == 2 and len(mds) == 1 and len(gammas) == 1:
            return _contains_md_plus_gamma(mds[0].d, gammas[0].gamma, F, cancel)
        if all(isinstance(p, (FiniteGen, MGamma)) for p in M.parts):
            bound = deg_bound if deg_bound is not None else default_deg_bound(M, F)
            if bound < 1:
                raise ValueError("deg_bound must be >= 1")
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
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be a positive int")
    bound = deg_bound if deg_bound is not None else default_deg_bound(M)
    if bound < 1:
        raise ValueError("deg_bound must be >= 1")
    parts = M.parts if isinstance(M, Sum) else (M,)
    if not all(isinstance(p, (Md, MGamma, FiniteGen)) for p in parts):
        raise UnsupportedExpr("v_space supports Md, MGamma, FiniteGen and their sums")
    cands, _ = _sum_candidates(parts, s, bound, cancel)
    frame = PolyFrame(cands, _seed_order)
    cells = list(frame.index)
    rows, pivots = rref([frame.to_vec(F) for F in cands], cancel)
    # the rows pivoted below the bound span the elements of x-degree < bound;
    # their seed prefixes reduce on the same frame with every later coordinate cut
    low = [r for r, k in zip(rows, pivots) if cells[k][0] < bound]
    seeds, _ = rref([[ZERO if n >= s else c for c, (_i, n) in zip(r, cells)] for r in low], cancel)
    return VSpaceBasis(s=s, deg_bound=bound, tuples=tuple(phi(frame.from_vec(r), s) for r in seeds))

