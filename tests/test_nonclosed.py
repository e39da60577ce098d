import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

from polymod import (
    CONDITION_MARGIN,
    SLACK_LOG,
    TOWER_CAP,
    RangeExceeded,
    ThresholdUnmet,
    UniPoly,
    coeff_norm_chain,
    poly_membership,
    side_conditions,
    sup_bound,
    surrogate_bridge,
    verify_e14,
    witness_x_not_in_M,
)


def test_witness_x_rejected_exactly():
    res = witness_x_not_in_M()
    assert not res.contains
    cert = res.certificate
    assert cert["reason"] == "forced-coordinate-nonzero"
    assert cert["n"] == 1 and cert["monomial_degree"] == 0
    assert cert["residual_coefficient"] == 1
    assert cert["exact"] is True


def test_poly_membership_constants_accepted():
    assert poly_membership(UniPoly.zero()).contains
    res = poly_membership(UniPoly([5]))
    assert res.contains and res.certificate["reason"] == "constant-seed"


def test_poly_membership_rejects_every_nonconstant():
    res = poly_membership(UniPoly.monomial(2))
    assert not res.contains
    assert res.certificate["monomial_degree"] == 1
    assert res.certificate["residual_coefficient"] == 2
    res = poly_membership(UniPoly.monomial(4, 3) + UniPoly.monomial(1))
    assert res.certificate["residual_coefficient"] == 12


def test_verify_e14_against_double_oracle():
    rows = verify_e14(3)
    assert [n for n, _ in rows] == [2, 3]
    want = math.exp(2) * math.exp(math.e) - math.exp(math.exp(2))
    got = float(rows[0][1])
    assert abs(got - want) <= 0.01 * abs(want)
    assert rows[1][1] < -1e8


def test_verify_e14_sweep_decreases():
    rows = verify_e14(20)
    vals = [v for _, v in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v < 0 for v in vals)
    assert vals[-1] < vals[0] - 1e6


def test_verify_e14_validation():
    with pytest.raises(ValueError):
        verify_e14(1)
    with pytest.raises(ValueError):
        verify_e14("3")
    with pytest.raises(RangeExceeded):
        verify_e14(TOWER_CAP + 1)


OPTIMIZED_PROBE = """
from mpmath import mpf
from polymod import MembershipResult, nonclosed
raised = []
nonclosed.e_tower_log = lambda base, n: mpf(base * n)  # log ratios 6, 27, 60, 105: rising
try:
    nonclosed.verify_e14(5)
except AssertionError as exc:
    raised.append(str(exc))
nonclosed.poly_membership = lambda f: MembershipResult(True, {"residual_coefficient": 1})
try:
    nonclosed.witness_x_not_in_M()
except AssertionError as exc:
    raised.append(str(exc))
print(raised)
"""


def test_postconditions_survive_python_O():
    # the certificate checks are not assert statements, which -O strips
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == str(
        ["log ratio failed to decrease at n = 3", "x must be excluded with residual coefficient 1"]
    )


def test_side_conditions_hold_in_range():
    for n in list(range(2, 31)) + [100, TOWER_CAP]:
        conds = side_conditions(n)
        assert len(conds) == 7
        assert all(c["holds"] for c in conds), (n, conds)


def test_side_conditions_fail_at_one():
    conds = side_conditions(1)
    failing = {c["name"] for c in conds if not c["holds"]}
    assert failing == {
        "double-exp-dominated",
        "perturbation-tiny",
        "coeff-max-dominated",
    }


def test_side_condition_records_carry_logs():
    for c in side_conditions(4):
        assert set(c) == {"name", "holds", "lhs_log", "rhs_log", "note"}
        if c["lhs_log"] is not None:
            float(c["lhs_log"])  # renders as a parseable number
    assert float(CONDITION_MARGIN) > 0
    with pytest.raises(ValueError):
        side_conditions(0)
    with pytest.raises(RangeExceeded):
        side_conditions(TOWER_CAP + 1)


def test_sup_bound_refuses_without_conditions():
    with pytest.raises(ThresholdUnmet) as exc:
        sup_bound(1)
    assert "perturbation-tiny" in exc.value.failures
    with pytest.raises(ValueError):
        sup_bound("6")


def test_sup_bound_frozen_reference_point():
    rep = sup_bound(6)
    assert rep.certified and rep.below_one
    assert rep.n == 6 and float(rep.box_radius_log) == 6
    log10_total = float(rep.log_total.log10())
    assert -7.1e174 < log10_total < -6.9e174
    assert rep.log_total.sign == 1
    assert rep.log_linear_term.log_mag < 0 and rep.log_tail_term.log_mag < 0
    assert len(rep.conditions) == 7


def test_sup_bound_sweep_shrinks():
    mags = []
    for n in range(5, 26):
        rep = sup_bound(n)
        assert rep.below_one
        mags.append(rep.log_total.log_mag)
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_sup_bound_tail_below_log_ratio():
    # the tail term is dominated by the raw ratio e_3(n-1)^e(n) / e_3(n);
    # the margin between them is far below working precision, so the check
    # is "never exceeds beyond representable rounding"
    ratios = dict(verify_e14(25))
    with mp.workprec(200):
        for n in range(5, 26):
            rep = sup_bound(n)
            pad = abs(ratios[n]) * mpf(2) ** -100
            assert rep.log_tail_term.log_mag <= ratios[n] + pad


def test_coeff_norm_chain_first_step():
    # sound from below exactly; from above up to additive slack plus the
    # 128-bit representable granularity at the result's magnitude
    with mp.workprec(160):
        for n in (3, 4, 6):
            got = coeff_norm_chain(n, 1).log_mag
            want = mp.exp(mp.exp(n - 1)) - mp.exp(mp.exp(n))
            pad = mpf(20) * SLACK_LOG + abs(want) * mpf(2) ** -120
            assert want <= got <= want + pad


def test_coeff_norm_chain_increments():
    # each extra application multiplies the bound by e_3(n-1)^2
    n = 3
    with mp.workprec(160):
        step = 2 * mp.exp(mp.exp(n - 1))
        prev = coeff_norm_chain(n, 1).log_mag
        for k in (2, 3):
            cur = coeff_norm_chain(n, k).log_mag
            assert step <= cur - prev <= step + mpf(20) * SLACK_LOG
            prev = cur


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("call, message", [
    (lambda bad: verify_e14(bad), "n_max must be an int >= 2"),
    (lambda bad: side_conditions(bad), "n must be a positive int"),
    (lambda bad: sup_bound(bad), "n must be an int"),
    (lambda bad: coeff_norm_chain(bad, 1), "n must be an int >= 2"),
    (lambda bad: coeff_norm_chain(4, bad), "k must be an int with 1 <= k <= n"),
], ids=["verify_e14", "side_conditions", "sup_bound", "coeff_norm_chain-n", "coeff_norm_chain-k"])
def test_int_arguments_reject_bools_and_floats(call, message, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == message


def test_coeff_norm_chain_validation():
    with pytest.raises(ValueError):
        coeff_norm_chain(1, 1)
    with pytest.raises(ValueError):
        coeff_norm_chain(4, 0)
    with pytest.raises(ValueError):
        coeff_norm_chain(4, 5)
    assert coeff_norm_chain(4, 4).sign == 1


def test_surrogate_bridge_two_coefficients():
    rows = surrogate_bridge({1: "1", 2: "-1000"})
    assert [r["k"] for r in rows] == [1, 2]
    assert [r["exact"] for r in rows] == [Fraction(1, 1000), Fraction(1, 1000)]
    assert all(r["within"] for r in rows)
    # k = 1 is the tight case: bound = eps * max|a_i| * n! = exact norm
    tight = rows[0]
    assert abs(float(tight["bound"].log_mag) - math.log(1 / 1000)) < 1e-9


def test_surrogate_bridge_three_coefficients():
    rows = surrogate_bridge({1: "1", 2: "-10", 3: "-1000"})
    assert [r["exact"] for r in rows] == [
        Fraction(1, 100),
        Fraction(1, 50),
        Fraction(1, 1000),
    ]
    assert all(r["within"] for r in rows)
    assert abs(float(rows[0]["bound"].log_mag) - math.log(1 / 100)) < 1e-9


def test_surrogate_bridge_bounds_are_sound(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        top = Fraction(rng.choice([-1, 1]) * rng.randint(100, 900))
        coeffs = {n: top, 1: Fraction(-1 if top > 0 else 1)}
        for i in range(2, n):
            if rng.random() < 0.7:
                coeffs[i] = Fraction(rng.randint(-9, 9))
        rows = surrogate_bridge(coeffs)
        for r in rows:
            assert r["within"]
            if r["exact"]:
                assert float(r["bound"].log_mag) >= math.log(abs(r["exact"])) - 1e-12


def test_surrogate_bridge_rejects_uncancelled_first_coefficient():
    with pytest.raises(ValueError):
        surrogate_bridge({1: "3", 2: "-1000"})
    with pytest.raises(ValueError):
        surrogate_bridge({1: "1", 2: "1000"})  # wrong sign to cancel
    assert surrogate_bridge({1: "-1", 2: "1000"})[0]["within"]


def test_surrogate_bridge_validation():
    with pytest.raises(ValueError):
        surrogate_bridge({})
    with pytest.raises(ValueError):
        surrogate_bridge({0: "1", 2: "5"})
    with pytest.raises(ValueError):
        surrogate_bridge({1: "3"})
    with pytest.raises(ValueError):
        surrogate_bridge({2: "7"})
    with pytest.raises(ValueError):
        surrogate_bridge({1: "0", 2: "3"})
