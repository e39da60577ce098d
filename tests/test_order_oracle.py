"""The pinning order against sympy ranks, and its cancellation.

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

from polymod import BiPoly, Cancelled, CoeffQ, GammaTable
from polymod.gamma import monomial_seed_elements
from polymod.operators import order_of_module, order_of_sum_report
from polymod.spans import span_reduce

from conftest import rand_gamma
from test_linalg import _CountingToken


def _coeff_rows(polys):
    """One row per polynomial: its coefficients, coordinate by coordinate,
    and the number of columns per coordinate."""
    dx = max(int(p.deg_x) for p in polys if not p.is_zero())
    dy = max(int(p.deg_y) for p in polys if not p.is_zero())
    rows = [[p.coord(n).coeff(i) for n in range(dy + 1) for i in range(dx + 1)] for p in polys]
    return rows, dx + 1


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


MODULE_CASES = [
    ([BiPoly.monomial(2, 1)], 4, 2),
    ([BiPoly.monomial(a, b) for a in range(2) for b in range(3)], 4, 3),
    ([BiPoly.monomial(a, b) for a in range(2) for b in range(3)], 2, None),
]


@pytest.mark.parametrize("basis, deg_bound, order", MODULE_CASES)
def test_order_of_module_polls_once_per_K_and_cancels_cleanly(basis, deg_bound, order):
    token = _CountingToken()
    assert order_of_module(basis, deg_bound, cancel=token) == order
    reduce_polls = _CountingToken()
    span_reduce(list(basis), cancel=reduce_polls)
    tried = order if order is not None else deg_bound
    assert token.calls - reduce_polls.calls >= tried
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
