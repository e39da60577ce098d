"""Metamorphic relations of membership, on seeded real and Gaussian corpora.

Every module the library decides is translation invariant and closed under
both partials, so membership must answer alike on related inputs:

- R1: ``contains(M, F) == contains(M, F.shift(a, b))`` for every F and (a, b);
- R2: F in M implies d/dx F in M and d/dy F in M.

The modules are MGamma, Sum(Md, MGamma), Sum(MGamma, MGamma),
Sum(FiniteGen, MGamma) and FiniteGen. Each draw tests one element built to lie
in the module and one that most often does not. No relation here needs an
oracle: each compares two answers of ``contains``.
"""

from __future__ import annotations

import random
from functools import cache

from polymod import BiPoly, FiniteGen, Md, MGamma, Sum, contains, generate

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
