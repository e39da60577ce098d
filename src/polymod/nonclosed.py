"""Certification of the non-closed-submodule construction.

The module in question is generated by the recursion coefficients a_1 = 1
and a_n = -e_3(n) for n >= 2, where e_1 = exp and e_{k+1} = exp o e_k. Its
key properties split cleanly by arithmetic regime:

* x (and every nonconstant univariate polynomial) lies outside the module.
  This is a finite exact computation using only a_1 = 1 and is carried out
  over the rationals (`witness_x_not_in_M`, `poly_membership`).
* x lies in the closure: the approximants G_n built from the perturbed
  seeds g_n = x + eps_n x^n converge to x uniformly on boxes. The driving
  constants e_3(n) admit no direct representation, so the convergence bound
  chain is replayed in certified log-space arithmetic (`sup_bound`,
  `coeff_norm_chain`, `verify_e14`).
* The log engine itself is validated against fully exact arithmetic on a
  small surrogate coefficient table where both pipelines are feasible
  (`surrogate_bridge`).

Every inequality the bound chain relies on carries an unquantified "for n
large" threshold in its source form. Nothing here trusts those thresholds:
`side_conditions(n)` re-checks each inequality at the specific n, and
`sup_bound` refuses to emit a report when any of them fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import RangeExceeded, ThresholdUnmet, _at_least, _polled
from .gamma import GammaTable, _Value, apply_L
from .lognum import (
    LOG_DIGITS,
    PRECISION,
    SLACK_LOG,
    TOWER_CAP,
    LogNum,
    e_tower_log,
    log_add,
    log_mul,
    log_pow,
)
from .modules import MembershipResult
from .poly import UniPoly
from .scalars import CoeffQ

# comparison margin for the per-n inequality checks; generous next to the
# 128-bit working precision, tiny next to every gap actually observed (a
# dyadic float, which mpmath converts exactly)
CONDITION_MARGIN = 2.0 ** -20


def _up(log_mag) -> LogNum:
    """Positive upper-bound LogNum from a directly computed log value.

    One slack pad absorbs the placement rounding of the formula evaluation.
    """
    from mpmath import mpf

    return LogNum(1, mpf(log_mag) + SLACK_LOG)


# ---------------------------------------------------------------------------
# exact side: x is not a member
# ---------------------------------------------------------------------------

def poly_membership(f: UniPoly) -> MembershipResult:
    """Exact membership of the embedded univariate f in the demo module.

    Membership would force coordinate 1 to equal a_1 f' + a_2 f'' + ...
    while the embedding fixes it to zero. For deg f = d >= 1 the x^(d-1)
    coefficient of the forced value is d * lead(f) * a_1 = d * lead(f),
    nonzero regardless of the untouched giant coefficients a_2, a_3, ...
    Constants are genuine members (the recursion kills them).
    """
    d = f.degree
    if f.is_zero() or d == 0:
        return MembershipResult(
            True,
            {
                "reason": "constant-seed",
                "note": "the recursion annihilates constants, so the embedding has all higher coordinates zero",
            },
        )
    residual = CoeffQ.of(d) * f.lead()
    return MembershipResult(
        False,
        {
            "reason": "forced-coordinate-nonzero",
            "n": 1,
            "monomial_degree": d - 1,
            "residual_coefficient": residual,
            "uses_only": "the single first-derivative coefficient 1",
            "exact": True,
        },
    )


def witness_x_not_in_M() -> MembershipResult:
    """The classic rejection: for F = x, coordinate 1 is forced to 1 != 0."""
    result = poly_membership(UniPoly.monomial(1))
    if result.contains or result.certificate["residual_coefficient"] != 1:
        raise AssertionError("x must be excluded with residual coefficient 1")
    return result


# ---------------------------------------------------------------------------
# log side: the convergence bound chain
# ---------------------------------------------------------------------------

def verify_e14(n_max: int, cancel=None):
    """Log-scale ratio sequence driving the closure argument.

    Returns [(n, log_ratio)] for n = 2..n_max with
    log_ratio(n) = e(n) * e_2(n-1) - e_2(n), the natural log of
    e_3(n-1)^e(n) / e_3(n). Postconditions checked here: the sequence is
    strictly decreasing, and once negative it stays negative.
    """
    _at_least(n_max, 2, "n_max must be an int >= 2")
    if n_max > TOWER_CAP:
        raise RangeExceeded(f"n_max = {n_max} exceeds the tower cap {TOWER_CAP}")
    from mpmath import mp

    out = []
    with mp.workprec(PRECISION):
        for n in _polled(range(2, n_max + 1), cancel):
            en = e_tower_log(2, n)        # e(n)
            e2n = e_tower_log(3, n)       # e_2(n)
            e2nm1 = e_tower_log(3, n - 1)
            out.append((n, en * e2nm1 - e2n))
    gone_negative = False
    for idx, (n, v) in enumerate(out):
        if idx > 0 and not v < out[idx - 1][1]:
            raise AssertionError(f"log ratio failed to decrease at n = {n}")
        if gone_negative and not v < 0:
            raise AssertionError(f"log ratio returned to >= 0 at n = {n}")
        gone_negative = gone_negative or v < 0
    return out


def side_conditions(n: int):
    """Per-n re-verification of every inequality the bound chain uses.

    Each record carries the natural-log values compared (None for the exact
    integer checks). Comparisons demand a margin so a borderline pass within
    rounding distance is reported as a failure instead.
    """
    _at_least(n, 1, "n must be a positive int")
    if n > TOWER_CAP:
        raise RangeExceeded(f"n = {n} exceeds the tower cap {TOWER_CAP}")
    from mpmath import log, mp, mpf, nstr

    conds = []
    with mp.workprec(PRECISION):
        en = e_tower_log(2, n)
        nn = mpf(n)

        def log_cond(name, lhs, rhs, note):
            conds.append(
                {
                    "name": name,
                    "holds": bool(lhs + CONDITION_MARGIN < rhs),
                    "lhs_log": nstr(lhs, LOG_DIGITS),
                    "rhs_log": nstr(rhs, LOG_DIGITS),
                    "note": note,
                }
            )

        def exact_cond(name, holds, note):
            conds.append(
                {"name": name, "holds": bool(holds), "lhs_log": None, "rhs_log": None, "note": note}
            )

        # box evaluation: |f(x)| on |x| <= e(n) for deg f <= n; the geometric
        # sum 1 + e(n) + ... + e(n^2) has n+1 terms each at most e(n^2)
        log_cond(
            "box-eval-linear",
            log(nn + 1) + nn**2,
            en,
            "(n+1) e(n^2) < e_2(n)",
        )
        log_cond(
            "double-exp-dominated",
            en,
            e_tower_log(3, n - 1) if n >= 2 else mpf("-inf"),
            "e_2(n) < e_3(n-1)",
        )
        exact_cond(
            "factorial-crude",
            math.factorial(n) * n <= n**n,
            "n! n <= n^n (exact integers)",
        )
        log_cond(
            "power-vs-exp",
            nn * log(nn) if n > 1 else mpf(0),
            nn**2,
            "n^n < e(n^2)",
        )
        log_cond("square-vs-exp", nn**2, en, "e(n^2) < e_2(n)")
        exact_cond(
            "perturbation-tiny",
            math.factorial(n) > 1,
            "eps_n < 1/e_3(n), i.e. n! > 1",
        )
        exact_cond(
            "coeff-max-dominated",
            n >= 2,
            "max_{i<=n-1} |a_i| <= e_3(n-1) by tower monotonicity (needs n >= 2)",
        )
    return conds


class BoundReport(_Value):
    # the three log_ terms are LogNums; box_radius_log is ln of the box radius, = n
    __slots__ = ("n", "log_linear_term", "log_tail_term", "log_total", "box_radius_log", "below_one",
                 "certified", "conditions")


def sup_bound(n: int) -> BoundReport:
    """Certified upper bound on sup |G_n(x,y) - x| over |x|, |y| <= e(n).

    Assembled exactly as the two-term majorant
        e(n^2 - e_2(n))  +  n e(n^2) e_3(n-1)^(2n) / e_3(n)
    in upper-bound log arithmetic, after re-checking every inequality the
    derivation of those terms relies on at this specific n.
    """
    if type(n) is not int:
        raise ValueError("n must be an int")
    conds = side_conditions(n)
    failures = [c["name"] for c in conds if not c["holds"]]
    if failures:
        raise ThresholdUnmet(
            f"bound chain side conditions fail at n = {n}", failures=failures
        )
    from mpmath import log, mp, mpf

    with mp.workprec(PRECISION):
        e2n = e_tower_log(3, n)
        e2nm1 = e_tower_log(3, n - 1)
        nn = mpf(n)
        inv_e3n = _up(-e2n)                    # 1 / e_3(n)
        box_pow = _up(nn**2)                   # e(n^2), the |x|^n majorant
        linear = log_mul(box_pow, inv_e3n)     # eps_n e(n^2) < e(n^2 - e_2(n))
        count = _up(log(nn))                   # the n summands of the tail
        chain_pow = log_pow(_up(e2nm1), 2 * n)  # e_3(n-1)^(2n)
        tail = log_mul(log_mul(count, box_pow), log_mul(chain_pow, inv_e3n))
        total = log_add(linear, tail)
        below_one = total.sign > 0 and total.log_mag < 0
        return BoundReport(
            n=n,
            log_linear_term=linear,
            log_tail_term=tail,
            log_total=total,
            box_radius_log=nn,
            below_one=below_one,
            certified=True,
            conditions=tuple(conds),
        )


def coeff_norm_chain(n: int, k: int) -> LogNum:
    """Certified upper bound on the coefficient norm of the k-th iterate
    of the recursion operator on the perturbed seed g_n.

    Follows the chain: the first application lands at
    eps_n * e_3(n-1) * n! = e_3(n-1)/e_3(n), and each further application of
    the operator on a degree-< n polynomial multiplies the norm by at most
    e_3(n-1)^2, giving e_3(n-1)^(2k-1)/e_3(n) overall.
    """
    _at_least(n, 2, "n must be an int >= 2")
    if type(k) is not int or not 1 <= k <= n:
        raise ValueError("k must be an int with 1 <= k <= n")
    from mpmath import log, mp, mpf

    with mp.workprec(PRECISION):
        e2n = e_tower_log(3, n)
        e2nm1 = e_tower_log(3, n - 1)
        log_fact = log(mpf(math.factorial(n)))
        eps = _up(-(log_fact + e2n))           # eps_n = 1/(|a_n| n!)
        coeff_max = _up(e2nm1)                 # majorant of max_{i<=n-1}|a_i|
        bound = log_mul(log_mul(eps, coeff_max), _up(log_fact))
        step = log_pow(coeff_max, 2)
        for _ in range(k - 1):
            bound = log_mul(bound, step)
    return bound


# ---------------------------------------------------------------------------
# bridge: exact pipeline vs log pipeline on a feasible surrogate table
# ---------------------------------------------------------------------------

def _real_norm(f: UniPoly) -> Fraction:
    """Max absolute coefficient; the surrogate tables stay real-rational."""
    best = Fraction(0)
    for c in f.coeffs:
        if c.im != 0:
            raise ValueError("surrogate bridge expects real coefficients")
        best = max(best, abs(c.re))
    return best


def surrogate_bridge(coeffs) -> list:
    """Replay the norm-bound chain on a small table where exact arithmetic
    is feasible, and cross-check the log pipeline against it.

    `coeffs` maps derivative order i to the rational coefficient a_i; the
    top order n = max key plays the tower role. For each k = 1..n the row
    reports the exact coefficient norm of the k-th iterate of the operator
    applied to g = x + eps x^n (eps = 1/(|a_n| n!)) next to the log-space
    bound B_1 C^(k-1), with B_1 = eps * max_{i<n}|a_i| * n! and
    C = (n-1)! (n-1) max_{i<n}|a_i|.
    """
    table = {int(i): Fraction(v) for i, v in coeffs.items()}
    if not table or any(i < 1 for i in table):
        raise ValueError("coefficient orders must be positive ints")
    n = max(table)
    if n < 2 or table[n] == 0:
        raise ValueError("need a nonzero top coefficient of order >= 2")
    eps = Fraction(1, math.factorial(n)) / abs(table[n])
    below_max = max(
        (abs(v) for i, v in table.items() if i <= n - 1), default=Fraction(0)
    )
    if below_max == 0:
        raise ValueError("need a nonzero coefficient below the top order")
    # the first-step bound B_1 presumes the designed cancellation: applying
    # the operator to x + eps x^n must kill the constant a_1 * 1 against
    # eps * a_n * n! = sign(a_n); without it B_1 bounds nothing
    sign_top = 1 if table[n] > 0 else -1
    if table.get(1, Fraction(0)) != -sign_top:
        raise ValueError(
            "the first-order coefficient must cancel the top-order constant:"
            " a_1 = -sign(a_n)"
        )

    gamma = GammaTable(1, {(1, j): CoeffQ.of(v) for j, v in table.items()})
    g = UniPoly.monomial(1) + UniPoly.monomial(n, eps)

    b1 = log_mul(
        log_mul(
            LogNum.from_rational(eps),
            LogNum.from_rational(below_max),
        ),
        LogNum.from_rational(math.factorial(n)),
    )
    step = log_mul(
        log_mul(
            LogNum.from_rational(math.factorial(n - 1)),
            LogNum.from_rational(n - 1),
        ),
        LogNum.from_rational(below_max),
    )

    rows = []
    f = g
    bound = b1
    for k in range(1, n + 1):
        f = apply_L(gamma, [f])
        exact = _real_norm(f)
        # from_rational pads the exact side too, so `within` is conservative
        within = exact == 0 or LogNum.from_rational(exact) <= bound
        rows.append({"k": k, "exact": exact, "bound": bound, "within": bool(within)})
        bound = log_mul(bound, step)
    return rows
