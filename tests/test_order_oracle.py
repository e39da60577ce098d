"""The L-module order against sympy ranks, and its cancellation.

The paper's order of a span is the smallest K such that an element whose
first K coordinates vanish is zero. For a generator list that is the smallest
K at which the generators' coefficients in coordinates 0..K-1 have the same
rank as all their coefficients. sympy's DomainMatrix computes those ranks
with no polymod elimination code. No timing is asserted.
"""

from __future__ import annotations

import random

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from polymod import BiPoly, Cancelled, CoeffQ, GammaTable, UniPoly, generate, operators, spans
from polymod.gamma import monomial_seed_elements
from polymod.modules import derivative_closure
from polymod.operators import order_of_module, order_of_sum_report

from conftest import rand_bipoly, rand_gamma, rand_unipoly
from test_linalg import _CountingToken


def _coeff_rows(polys):
    """One row per polynomial: its coefficients, coordinate by coordinate,
    and the number of columns per coordinate."""
    dx = max(int(p.deg_x) for p in polys if not p.is_zero())
    dy = max(int(p.deg_y) for p in polys if not p.is_zero())
    rows = [[p.coord(n).coeff(i) for n in range(dy + 1) for i in range(dx + 1)] for p in polys]
    return rows, dx + 1


def _prefix_order(polys):
    """The smallest K >= 1 at which coordinates 0..K-1 carry the full rank."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return 1
    rows, width = _coeff_rows(polys)
    full = _rank(rows)
    return next(K for K in range(1, len(rows[0]) // width + 1) if _rank(rows, K * width) == full)


def _rank(rows, ncols=None):
    ncols = len(rows[0]) if ncols is None else ncols
    q = lambda x: QQ(x.numerator, x.denominator)
    elems = [[QQ_I(q(c.re), q(c.im)) for c in r[:ncols]] for r in rows]
    return DomainMatrix(elems, (len(rows), ncols), QQ_I).rank()


def _table_pair(rng, draw):
    g1 = rand_gamma(rng, max_s=2, max_j=3)
    g2 = rand_gamma(rng, max_s=2, max_j=3)
    if draw % 2:  # every other pair has a Gaussian table
        g2 = GammaTable(g2.s, {k: a * CoeffQ(1, 1) for k, a in g2.entries.items()})
    return g1, g2


@pytest.mark.parametrize("draw", range(12))
def test_sum_order_matches_sympy_ranks(draw):
    rng = random.Random(f"pinning-order-{draw}")
    g1, g2 = _table_pair(rng, draw)
    deg_bound = 2 + draw % 2
    gens = monomial_seed_elements(g1, deg_bound) + monomial_seed_elements(g2, deg_bound)
    rows, width = _coeff_rows(gens)
    full = _rank(rows)
    top = max(int(p.deg_y) for p in gens)
    prefix_rank = {K: _rank(rows, K * width) for K in range(1, top + 2)}
    order = min(K for K, r in prefix_rank.items() if r == full)

    rep = order_of_sum_report(g1, g2, deg_bound)
    assert rep.order == order
    assert rep.kernel_dim == len(gens) - prefix_rank[order]
    assert [K for K, _ in rep.refuted] == list(range(1, order))
    for K, w in rep.refuted:
        assert not w.is_zero()
        assert all(w.coord(n).is_zero() for n in range(K))
        with_w, _ = _coeff_rows(gens + [w])
        assert _rank(with_w) == _rank(with_w[:-1])  # w lies in the span


def test_sum_order_oracle_sees_refutations():
    # the corpus is not vacuous: some draws are refuted at two K or more
    orders = []
    for draw in range(12):
        g1, g2 = _table_pair(random.Random(f"pinning-order-{draw}"), draw)
        orders.append(order_of_sum_report(g1, g2, 2 + draw % 2).order)
    assert max(orders) >= 3


MODULE_KINDS = ("monomial-seed", "closure", "non-closed", "dependent")


def _module_case(draw):
    """(kind, basis, deg_bound) of a seeded span, real on even draws and
    Gaussian on odd ones, with deg_bound 1..6."""
    rng = random.Random(f"module-order-{draw}")
    gaussian = draw % 2 == 1
    kind = MODULE_KINDS[draw // 2 % 4]
    if kind == "monomial-seed":
        g = rand_gamma(rng, max_s=3, max_j=3)
        if gaussian:
            g = GammaTable(g.s, {k: a * CoeffQ(1, 1) for k, a in g.entries.items()})
        basis = monomial_seed_elements(g, rng.randint(1, 3))
    elif kind == "closure":
        g = rand_gamma(rng, max_s=2, max_j=2)
        gens = [generate(g, [rand_unipoly(rng, 2, gaussian) for _ in range(g.s)]), rand_bipoly(rng, 2, 3, gaussian)]
        basis = derivative_closure(gens[: rng.randint(1, 2)])
    else:
        # up to two leading zero coordinates per element lift the order
        lift = lambda F: BiPoly([UniPoly.zero()] * rng.randint(0, 2) + list(F.coords))
        basis = [lift(rand_bipoly(rng, 3, 3, gaussian)) for _ in range(rng.randint(1, 4))]
        if kind == "dependent":
            basis += [basis[0] + basis[-1].scale(CoeffQ(2, 1 if gaussian else 0)), BiPoly([UniPoly.zero()]), basis[0]]
    return kind, basis, 1 + draw % 6


@pytest.mark.parametrize("draw", range(48))
def test_module_order_matches_sympy_prefix_ranks(draw):
    _kind, basis, deg_bound = _module_case(draw)
    K = _prefix_order(basis)
    assert order_of_module(basis, deg_bound) == (K if K <= deg_bound else None)


def test_module_order_oracle_covers_every_kind_and_none():
    # the corpus is not vacuous: every kind is drawn real and Gaussian, and
    # some answers are None while others are orders of 3 or more
    seen, answers = set(), []
    for draw in range(48):
        kind, basis, deg_bound = _module_case(draw)
        seen.add((kind, draw % 2))
        answers.append(order_of_module(basis, deg_bound))
    assert seen == {(kind, parity) for kind in MODULE_KINDS for parity in (0, 1)}
    assert None in answers and max(a for a in answers if a is not None) >= 3


def test_order_of_module_reads_one_reduction(monkeypatch):
    # no witness and no graded span: one reduction answers, on real and Gaussian spans
    def unreachable(*args, **kwargs):
        raise AssertionError("order_of_module searched the orders one by one")

    cases = [_module_case(draw) for draw in range(8)]
    want = [order_of_module(basis, deg_bound) for _kind, basis, deg_bound in cases]
    monkeypatch.setattr(operators, "vanishing_part", unreachable)
    monkeypatch.setattr(operators, "span_rows", unreachable)
    monkeypatch.setattr(spans, "span_rows", unreachable)
    assert [order_of_module(basis, deg_bound) for _kind, basis, deg_bound in cases] == want


MODULE_CASES = [
    ([BiPoly.monomial(2, 1)], 4, 2),
    ([BiPoly.monomial(a, b) for a in range(2) for b in range(3)], 4, 3),
    ([BiPoly.monomial(a, b) for a in range(2) for b in range(3)], 2, None),
]


@pytest.mark.parametrize("basis, deg_bound, order", MODULE_CASES)
def test_order_of_module_polls_once_per_K_and_cancels_cleanly(basis, deg_bound, order, monkeypatch):
    token = _CountingToken()
    before = []  # the polls made when the reduction starts
    eliminate = operators.eliminate
    with monkeypatch.context() as mp:
        mp.setattr(operators, "eliminate", lambda rows, cancel=None: before.append(token.calls) or eliminate(rows, cancel))
        assert order_of_module(basis, deg_bound, cancel=token) == order
    # at least one poll per nonzero basis vector before the reduction
    assert before and before[0] >= sum(not p.is_zero() for p in basis)
    for n in range(1, token.calls + 1):
        stub = _CountingToken(fire_at=n)
        with pytest.raises(Cancelled):
            order_of_module(basis, deg_bound, cancel=stub)
        assert stub.calls == n


def test_order_of_sum_report_polls_once_per_K_and_cancels_cleanly():
    g1 = GammaTable(2, {(1, 1): 1, (2, 1): 1})
    g2 = GammaTable(1, {(1, 2): 1})
    token = _CountingToken()
    rep = order_of_sum_report(g1, g2, 3, cancel=token)
    assert rep.order == 3
    generate_polls = _CountingToken()
    monomial_seed_elements(g1, 3, generate_polls)
    monomial_seed_elements(g2, 3, generate_polls)
    assert token.calls - generate_polls.calls >= rep.order
    for n in range(1, token.calls + 1):
        stub = _CountingToken(fire_at=n)
        with pytest.raises(Cancelled):
            order_of_sum_report(g1, g2, 3, cancel=stub)
        assert stub.calls == n
