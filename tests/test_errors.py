"""The integer-argument rules: every check routed through `errors._at_least`,
and `errors._natural`, rejects a bool, a float and a value below its bound
with a ValueError carrying the same message it always had. And the one poll
helper, `errors._polled`, hands back its items themselves without a token."""

import pytest

from polymod import (
    BiPoly,
    FiniteGen,
    GammaTable,
    MGamma,
    Md,
    Sum,
    UniPoly,
    coeff_norm_chain,
    contains,
    e_tower_log,
    infer_L,
    order_of_module,
    order_of_sum_report,
    quotient_derivation,
    shift_invariance_table,
    side_conditions,
    v_space,
    verify_e14,
)
from polymod.errors import _polled

from test_linalg import _CountingToken

G = shift_invariance_table()
SUM = Sum(FiniteGen([BiPoly.monomial(1, 0)]), MGamma(G))
BASIS = [BiPoly.monomial(0, 0)]

ROUTED = [  # (call on the bad value, lowest value accepted, message)
    (lambda v: GammaTable(v), 1, "table width s must be a positive int"),
    (lambda v: Md(v), 0, "Md degree bound must be an int >= 0"),
    (lambda v: contains(SUM, BiPoly.monomial(0, 0), deg_bound=v), 1, "deg_bound must be >= 1"),
    (lambda v: v_space(Md(1), v), 1, "s must be a positive int"),
    (lambda v: v_space(Md(1), 1, deg_bound=v), 1, "deg_bound must be >= 1"),
    (lambda v: order_of_module(BASIS, v), 1, "deg_bound must be >= 1"),
    (lambda v: infer_L(BASIS, v, 3), 1, "s must be a positive int"),
    (lambda v: infer_L(BASIS, 1, v), 1, "deg_bound must be >= 1"),
    (lambda v: order_of_sum_report(G, G, v), 1, "deg_bound must be >= 1"),
    (lambda v: quotient_derivation(v, 3, 1), 1, "s must be a positive int"),
    (lambda v: verify_e14(v), 2, "n_max must be an int >= 2"),
    (lambda v: side_conditions(v), 1, "n must be a positive int"),
    (lambda v: coeff_norm_chain(v, 1), 2, "n must be an int >= 2"),
    (lambda v: e_tower_log(v, 3), 1, "tower level k must be a positive int"),
]
NATURAL = [  # _natural names the type it got, or says the value is negative
    (lambda v: UniPoly.monomial(v), "power"),
    (lambda v: BiPoly.monomial(0, v), "power"),
    (lambda v: UniPoly.monomial(2).derivative(v), "derivative order"),
    (lambda v: BiPoly.monomial(2, 2).d_dy(v), "derivative order"),
]
CASES = [
    (call, bad, message)
    for call, low, message in ROUTED
    for bad in (True, float(low), low - 1)
] + [
    (call, bad, message)
    for call, what in NATURAL
    for bad, message in ((True, f"{what} must be an int, not bool"),
                         (0.0, f"{what} must be an int, not float"),
                         (-1, f"negative {what}"))
]


@pytest.mark.parametrize("call, bad, message", CASES)
def test_bad_integer_argument_keeps_its_message(call, bad, message):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == message


def test_polled_hands_back_its_items_without_a_token():
    # without a token a loop runs on its items themselves; with one, each
    # item is taken after one poll of its own, falsy items included
    for items in ([1, 2], range(3), iter("ab"), {}.keys()):
        assert _polled(items, None) is items
    token = _CountingToken()
    it = _polled([0, None, ""], token)
    assert token.calls == 0 and next(it) == 0 and token.calls == 1
    assert list(it) == [None, ""] and token.calls == 3
