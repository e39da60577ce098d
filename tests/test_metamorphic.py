"""Metamorphic relations of membership, on seeded real and Gaussian corpora.

Every module the library decides is translation invariant and closed under
both partials, so membership must answer alike on related inputs:

- R1: ``contains(M, F) == contains(M, F.shift(a, b))`` for every F and (a, b);
- R2: F in M implies d/dx F in M and d/dy F in M.

The modules are MGamma, Sum(Md, MGamma), Sum(MGamma, MGamma),
Sum(FiniteGen, MGamma) and FiniteGen. Each draw tests one element built to lie
in the module and one that most often does not.

A span closed under both partials is translation invariant too, so a basis
and its translate span one space, and every question asked of the space
answers alike on both:

- R4: ``infer_L`` gives the same table, the same ``Underdetermined`` free
  slots, or ``NotAnLModule`` on both, with a witness on both or on neither,
  and ``order_of_module`` gives the same order.

``v_space(M, s)`` spans the seed prefixes of the members of M below its
x-degree bound, so each sampled member's prefix must lie in that span:

- R5: phi(F, s) is in the span of ``v_space(M, s).tuples`` for every member
  F with deg_x F below the bound.

R1-R4 need no oracle: each compares two answers of the library. R5 tests
span membership with the sympy oracle, which shares no code with
``polymod.linalg``.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from polymod import (
    BiPoly,
    CoeffQ,
    FiniteGen,
    Md,
    MGamma,
    NotAnLModule,
    Sum,
    Underdetermined,
    contains,
    derivative_closure,
    generate,
    infer_L,
    order_of_module,
    phi,
    v_space,
)

import sympy_oracle as sym
from conftest import rand_bipoly, rand_gamma, rand_scalar, rand_unipoly

KINDS = ("MGamma", "Sum(Md, MGamma)", "Sum(MGamma, MGamma)", "Sum(FiniteGen, MGamma)", "FiniteGen")
DRAWS = 15


def _generated(rng, g, gaussian):
    return generate(g, [rand_unipoly(rng, 3, gaussian) for _ in range(g.s)])


def _combination(rng, basis, gaussian):
    out = BiPoly.zero()
    for b in basis:
        out = out + b.scale(rand_scalar(rng, gaussian))
    return out


def _case(kind, gaussian, draw):
    """(M, [member, candidate]): the first lies in M by construction, the
    second is it plus a random BiPoly."""
    rng = random.Random(f"metamorphic-{kind}-{gaussian}-{draw}")
    g = rand_gamma(rng, max_s=2, max_j=3)
    if kind == "MGamma":
        M, F = MGamma(g), _generated(rng, g, gaussian)
    elif kind == "Sum(Md, MGamma)":
        d = rng.randint(1, 3)
        M = Sum(Md(d), MGamma(g)) if draw % 2 else Sum(MGamma(g), Md(d))
        F = _generated(rng, g, gaussian) + rand_bipoly(rng, d - 1, 3, gaussian)
    elif kind == "Sum(MGamma, MGamma)":
        h = rand_gamma(rng, max_s=2, max_j=3)
        M, F = Sum(MGamma(g), MGamma(h)), _generated(rng, g, gaussian) + _generated(rng, h, gaussian)
    else:
        fin = FiniteGen([rand_bipoly(rng, 2, 2, gaussian) for _ in range(rng.randint(1, 2))])
        if kind == "FiniteGen":
            M, F = fin, _combination(rng, fin.basis, gaussian)
        else:
            M, F = Sum(fin, MGamma(g)), _combination(rng, fin.basis, gaussian) + _generated(rng, g, gaussian)
    return M, [F, F + rand_bipoly(rng, 2, 3, gaussian)]


@cache
def _corpus():
    """(kind, gaussian, M, F, a, b, F in M) for every draw, with the shift (a, b)."""
    out = []
    for kind in KINDS:
        for gaussian in (False, True):
            for draw in range(DRAWS):
                M, polys = _case(kind, gaussian, draw)
                rng = random.Random(f"metamorphic-shift-{kind}-{gaussian}-{draw}")
                for F in polys:
                    a, b = rand_scalar(rng, gaussian), rand_scalar(rng, gaussian)
                    out.append((kind, gaussian, M, F, a, b, contains(M, F).contains))
    return tuple(out)


def test_the_corpus_has_members_and_non_members_of_every_kind():
    answers = {(kind, gaussian, ok) for kind, gaussian, _M, _F, _a, _b, ok in _corpus()}
    assert answers == {(kind, gaussian, ok) for kind in KINDS for gaussian in (False, True) for ok in (False, True)}
    # the element built to lie in M does
    assert all(ok for _kind, _g, _M, _F, _a, _b, ok in _corpus()[::2])


def test_r1_membership_is_translation_invariant():
    for kind, gaussian, M, F, a, b, ok in _corpus():
        assert contains(M, F.shift(a, b)).contains == ok, (kind, gaussian, F, a, b)


def test_r2_members_stay_members_under_both_partials():
    members = 0
    for kind, gaussian, M, F, _a, _b, ok in _corpus():
        if ok:
            members += 1
            assert contains(M, F.d_dx()).contains, (kind, gaussian, F, "d/dx")
            assert contains(M, F.d_dy()).contains, (kind, gaussian, F, "d/dy")
    assert members >= len(KINDS) * 2 * DRAWS


def _closed_span(rng, gaussian):
    """(basis, s): a seeded basis closed under both partials, the closure of
    one or two elements generated from a random table, with s its width half
    the time, or of one random BiPoly; s is 1 to 3 otherwise."""
    s = rng.randint(1, 3)
    if rng.random() < 0.5:
        g = rand_gamma(rng, max_s=3, max_j=3)
        basis = derivative_closure([_generated(rng, g, gaussian) for _ in range(rng.randint(1, 2))])
        return basis, g.s if rng.random() < 0.5 else s
    return derivative_closure([rand_bipoly(rng, 3, 3, gaussian)]), s


def _infer_outcome(basis, s, bound):
    """infer_L's answer up to the choice of basis: the table, the free slots,
    or whether a witness comes with NotAnLModule."""
    try:
        return "table", infer_L(basis, s, bound)
    except Underdetermined as exc:
        return "free", exc.free_slots
    except NotAnLModule as exc:
        return "not-an-L-module", str(exc), exc.witness is not None


@pytest.mark.parametrize("gaussian", (False, True))
def test_r4_a_translated_basis_answers_like_the_basis(gaussian):
    seen = set()
    for draw in range(150):
        rng = random.Random(f"metamorphic-r4-{gaussian}-{draw}")
        basis, s = _closed_span(rng, gaussian)
        a, b = rand_scalar(rng, gaussian), rand_scalar(rng, gaussian)
        moved = [F.shift(a, b) for F in basis]
        bound = rng.randint(1, 4)
        want = _infer_outcome(basis, s, bound)
        assert _infer_outcome(moved, s, bound) == want, (draw, s, bound, a, b)
        assert order_of_module(moved, bound) == order_of_module(basis, bound), (draw, bound, a, b)
        seen.add(want[0] if want[0] != "not-an-L-module" else want[2])
    # every outcome, and NotAnLModule with and without a witness
    assert seen == {"table", "free", True, False}


def _r5_case(kind, gaussian, draw):
    """(M, s, V, members): V = v_space(M, s), with its default bound half the
    time, and members of M of x-degree below V's bound. A FiniteGen basis
    holds P + Q and P; when the bound is drawn, deg_x P is at it or past
    it, so the member Q is reached only through a combination that cancels P."""
    rng = random.Random(f"metamorphic-r5-{kind}-{gaussian}-{draw}")
    s = rng.randint(1, 3)
    bound = rng.randint(1, 4) if draw % 2 else None
    g = rand_gamma(rng, max_s=2, max_j=3)
    if kind == "FiniteGen":
        cut = bound or 3
        P = rand_bipoly(rng, 2, 2, gaussian) + BiPoly.monomial(cut + rng.randint(0, 1), rng.randint(0, 2), rng.randint(1, 3))
        Q, R = rand_bipoly(rng, cut - 1, 2, gaussian), rand_bipoly(rng, 3, 2, gaussian)
        M = FiniteGen([P + Q, P, R])
    elif kind == "MGamma":
        M = MGamma(g)
    else:
        d = rng.randint(1, 3)
        M = Sum(Md(d), MGamma(g)) if draw % 4 < 2 else Sum(MGamma(g), Md(d))
    V = v_space(M, s, bound)
    cut = V.deg_bound
    if kind == "FiniteGen":
        low = [F for F in (Q, R, P + Q, P) if F.deg_x < cut]
        members = low + [_combination(rng, low, gaussian)]
    else:
        members = [generate(g, [rand_unipoly(rng, cut - 1, gaussian) for _ in range(g.s)]) for _ in range(2)]
        if kind != "MGamma":
            members.append(members[0] + rand_bipoly(rng, min(d, cut) - 1, 3, gaussian))
    assert all(F.deg_x < cut for F in members)
    return M, s, V, members


def _prefix_row(prefix, width):
    return [c for f in prefix for c in list(f.coeffs) + [CoeffQ(0)] * (width - len(f.coeffs))]


@pytest.mark.parametrize("gaussian", (False, True))
@pytest.mark.parametrize("kind", ("MGamma", "Sum(Md, MGamma)", "FiniteGen"))
def test_r5_v_space_holds_the_prefix_of_every_member_below_its_bound(kind, gaussian):
    nonzero = 0
    for draw in range(40):
        M, s, V, members = _r5_case(kind, gaussian, draw)
        prefixes = [phi(F, s) for F in members]
        width = max([1] + [len(f.coeffs) for t in list(V.tuples) + prefixes for f in t])
        rows = [_prefix_row(t, width) for t in V.tuples]
        rank = sym.rank(rows) if rows else 0
        for F, prefix in zip(members, prefixes):
            row = _prefix_row(prefix, width)
            assert sym.rank(rows + [row]) == rank if rows else not any(row), (draw, M, s, F)
            nonzero += any(row)
    # most sampled prefixes are nonzero, so the relation is not vacuous
    assert nonzero >= 60
