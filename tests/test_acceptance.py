"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion prints `CRITERION k: PASS/FAIL — detail` directly to the
terminal (bypassing capture) before asserting, so the sweep is auditable
from the test log alone. Corpus draws are seeded and deterministic.
"""

import math
import random
from fractions import Fraction

from polymod import (
    BiPoly,
    CoeffQ,
    GammaTable,
    MGamma,
    Md,
    SLACK_LOG,
    Sum,
    UniPoly,
    apply_L,
    canonical_split,
    contains,
    dilated_shift_table,
    generate,
    infer_L,
    mgamma_contains,
    nilpotent_chains,
    order_of_sum_report,
    shift_invariance_table,
    sup_bound,
    surrogate_bridge,
    verify_e14,
    witness_x_not_in_M,
)
from polymod.linalg import kernel_basis, mat_mul, rank
from polymod.spans import PolyFrame

from conftest import identity, invert, rand_bipoly, rand_gamma, rand_nilpotent, rand_scalar, rand_unipoly


def _verdict(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {k}: {detail}"


# -- criterion 1: shift identities ------------------------------------------

def test_criterion_1_shift_identities(capsys):
    rng = random.Random(101)
    checked = 0
    for _ in range(200):
        F = rand_bipoly(rng, 8, 8)
        a, b = rand_scalar(rng), rand_scalar(rng)
        c, d = rand_scalar(rng), rand_scalar(rng)
        p, q = rand_scalar(rng), rand_scalar(rng)
        shifted = F.shift(a, b)
        if shifted.evaluate(p, q) != F.evaluate(p + a, q + b):
            _verdict(capsys, 1, False, f"evaluation after shift diverged on draw {checked}")
        if shifted.shift(c, d) != F.shift(a + c, b + d):
            _verdict(capsys, 1, False, f"shift composition diverged on draw {checked}")
        checked += 1
    _verdict(
        capsys, 1, checked == 200,
        f"{checked}/200 random translations: evaluation identity and composition law exact",
    )


# -- criteria 2 and 3 share one corpus ---------------------------------------

def _recursion_corpus(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = rand_gamma(rng)  # s <= 3, support j <= 4, small rational entries
        seeds = [rand_unipoly(rng, 6) for _ in range(g.s)]
        out.append((g, seeds, generate(g, seeds)))
    return out


def test_criterion_2_partial_closure(capsys):
    failures = 0
    for g, _seeds, F in _recursion_corpus(202, 100):
        ok_x, _ = mgamma_contains(g, F.d_dx())
        ok_y, _ = mgamma_contains(g, F.d_dy())
        if not (ok_x and ok_y):
            failures += 1
    _verdict(
        capsys, 2, failures == 0,
        f"100 random tables: both partials of every generated element satisfy the recursion "
        f"({failures} failures)",
    )


def test_criterion_3_termination_and_descent(capsys):
    # descent gives deg f_n <= d - floor(n/s), so f_n = 0 for n >= s*(1 + d),
    # and the bound is sharp: some draws keep a nonzero coordinate at s*(1 + d) - 1
    descent_bad = 0
    cutoff_bad = 0
    cutoff_reached = 0
    naive_outlived = 0
    total = 0
    example = None
    for g, seeds, F in _recursion_corpus(202, 100):
        total += 1
        max_deg = max((int(f.degree) for f in seeds if not f.is_zero()), default=-1)
        for k in range(g.s, F.num_coords):
            window_max = max(F.coord(k - g.s + t).degree for t in range(g.s))
            if not (F.coord(k).degree < window_max or F.coord(k).is_zero()):
                descent_bad += 1
                break
        nonzero = [n for n in range(F.num_coords) if not F.coord(n).is_zero()]
        cutoff = g.s * (1 + max_deg)
        if any(n >= cutoff for n in nonzero):
            cutoff_bad += 1
        if nonzero and nonzero[-1] == cutoff - 1:
            cutoff_reached += 1
        naive = [n for n in nonzero if n > g.s + max_deg]
        if naive:
            naive_outlived += 1
            if example is None:
                example = (g.s, max_deg, naive[0])
    ok = descent_bad == 0 and cutoff_bad == 0 and cutoff_reached > 0
    detail = (
        f"degree descent exact on all {total} draws ({descent_bad} violations); "
        f"f_n = 0 for n >= s*(1 + max seed degree) violated on {cutoff_bad}/{total} draws; "
        f"last nonzero coordinate exactly at s*(1 + max seed degree) - 1 on "
        f"{cutoff_reached}/{total} draws; "
        f"naive cutoff n > s + max seed degree outlived on {naive_outlived}/{total} draws"
    )
    if example:
        detail += (
            f" (first: s={example[0]}, max seed degree {example[1]}, nonzero coordinate at "
            f"n={example[2]}; width-s windows carry old degrees s-1 extra generations)"
        )
    _verdict(capsys, 3, ok, detail)


# -- criterion 4: inference round-trip + degree bound ------------------------

def test_criterion_4_inference_roundtrip(capsys):
    rng = random.Random(404)
    bound = 8
    recovered = 0
    for _ in range(50):
        s = rng.randint(1, 3)
        entries = {}
        while not entries:
            for i in range(1, s + 1):
                for j in range(1, bound + 1):
                    if rng.random() < 0.25:
                        entries[(i, j)] = CoeffQ(
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        )
        g = GammaTable(s, entries)
        basis = []
        for i in range(1, s + 1):
            for m in range(bound + 1):
                seeds = [UniPoly.zero()] * s
                seeds[i - 1] = UniPoly.monomial(m)
                basis.append(generate(g, seeds))
        if infer_L(basis, s, deg_bound=bound) == g:
            recovered += 1
    if recovered != 50:
        _verdict(capsys, 4, False, f"only {recovered}/50 tables recovered exactly")
    degree_ok = 0
    for _ in range(100):
        g = rand_gamma(rng)
        window = [rand_unipoly(rng, 6) for _ in range(g.s)]
        out = apply_L(g, window)
        max_deg = max(f.degree for f in window)
        if out.degree <= max_deg or out.is_zero():
            degree_ok += 1
    _verdict(
        capsys, 4, degree_ok == 100,
        f"50/50 generate→infer round-trips exact at deg_bound 8; "
        f"operator output degree <= window max degree on {degree_ok}/100 random tuples",
    )


# -- criterion 5: excluded monomial and split recovery -----------------------

def test_criterion_5_exclusion_and_split(capsys):
    rng = random.Random(505)
    excluded = 0
    splits = 0
    cases = 0
    for s in (1, 2, 3):
        for d in (0, 1, 2, 3):
            for _ in range(4):
                g = rand_gamma(rng, s_exact=s)
                M = Sum(Md(d), MGamma(g))
                cases += 1
                if not contains(M, BiPoly.monomial(d, s)):
                    excluded += 1
                if canonical_split(M) == (d, s):
                    splits += 1
    ok = excluded == cases and splits == cases
    _verdict(
        capsys, 5, ok,
        f"x^d y^s escapes Sum(Md(d), recursion space) in {excluded}/{cases} cases; "
        f"canonical_split recovered (d, s) in {splits}/{cases}",
    )


# -- criterion 6: order of a sum ---------------------------------------------

def _kernel_is_trivial(g1, g2, bound, K):
    gens = []
    for g in (g1, g2):
        for i in range(1, g.s + 1):
            for m in range(bound):
                seeds = [UniPoly.zero()] * g.s
                seeds[i - 1] = UniPoly.monomial(m)
                gens.append(generate(g, seeds))
    frame = PolyFrame(gens)
    vecs = [frame.to_vec(p) for p in gens]
    prefix_rows = [
        [v[k] for v in vecs]
        for (_i, n), k in frame.index.items()
        if n < K
    ]
    for combo in kernel_basis(prefix_rows, ncols=len(vecs)):
        elem = BiPoly.zero()
        for ci, p in zip(combo, gens):
            if not ci.is_zero():
                elem = elem + p.scale(ci)
        if not elem.is_zero():
            return False
    return True


def test_criterion_6_sum_order(capsys):
    rep = order_of_sum_report(shift_invariance_table(), dilated_shift_table(2), 4)
    if rep.order != 2:
        _verdict(capsys, 6, False, f"oracle pair returned order {rep.order}, expected 2")
    rng = random.Random(606)
    finite = 0
    trivial = 0
    for _ in range(30):
        g1 = rand_gamma(rng, s_exact=1)
        g2 = rand_gamma(rng, s_exact=1)
        r = order_of_sum_report(g1, g2, 4)
        if isinstance(r.order, int) and r.order >= 1:
            finite += 1
        if _kernel_is_trivial(g1, g2, 4, r.order):
            trivial += 1
    _verdict(
        capsys, 6, finite == 30 and trivial == 30,
        f"oracle pair has order 2; {finite}/30 random width-1 pairs returned a finite order, "
        f"{trivial}/30 have a trivial kernel at that order on independent recheck",
    )


# -- criterion 7: nilpotent chain decomposition ------------------------------

def _rank_lengths(D):
    n = len(D)
    counts = []
    prev, prev_rank = identity(n), n
    while prev_rank:
        cur = mat_mul(prev, D)
        cur_rank = rank(cur)
        counts.append(prev_rank - cur_rank)
        prev, prev_rank = cur, cur_rank
    lengths = []
    for length in range(len(counts), 0, -1):
        longer = counts[length] if length < len(counts) else 0
        lengths.extend([length] * (counts[length - 1] - longer))
    return sorted(lengths)


def _rebuild(dec):
    cols = [list(v) for v in dec.basis_vectors]
    images = []
    pos = 0
    for _u, length in dec.chains:
        for t in range(length):
            images.append(
                cols[pos + t + 1] if t + 1 < length else [CoeffQ(0)] * dec.dim
            )
        pos += length
    B = [[cols[c][r] for c in range(dec.dim)] for r in range(dec.dim)]
    S = [[images[c][r] for c in range(dec.dim)] for r in range(dec.dim)]
    return mat_mul(S, invert(B))


def test_criterion_7_nilpotent_chains(capsys):
    rng = random.Random(707)
    rebuilt = 0
    matched = 0
    for _ in range(50):
        n = rng.randint(1, 8)
        D = rand_nilpotent(rng, n)
        dec = nilpotent_chains(D)
        if _rebuild(dec) == D:
            rebuilt += 1
        if sorted(length for _u, length in dec.chains) == _rank_lengths(D):
            matched += 1
    _verdict(
        capsys, 7, rebuilt == 50 and matched == 50,
        f"{rebuilt}/50 decompositions reproduce the matrix exactly; "
        f"{matched}/50 chain-length multisets match the rank-sequence oracle",
    )


# -- criterion 8: the log-space certification -------------------------------

def test_criterion_8_certified_divergence(capsys):
    w = witness_x_not_in_M()
    if w.contains or w.certificate["residual_coefficient"] != 1:
        _verdict(capsys, 8, False, "the exact witness for x failed")
    rows = verify_e14(20)
    vals = [v for _, v in rows]
    oracle = math.exp(2) * math.exp(math.e) - math.exp(math.exp(2))
    within = abs(float(vals[0]) - oracle) <= 0.01 * abs(oracle)
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    sup_ok = True
    prev = None
    for n in range(5, 26):
        rep = sup_bound(n)
        if not rep.certified or not all(c["holds"] for c in rep.conditions):
            sup_ok = False
        if n >= 6 and not rep.below_one:
            sup_ok = False
        if prev is not None and not rep.log_total.log_mag < prev:
            sup_ok = False
        prev = rep.log_total.log_mag
    ok = within and decreasing and sup_ok
    _verdict(
        capsys, 8, ok,
        "witness exact; log ratio at n=2 within 1% of the double-precision oracle "
        f"({float(vals[0]):.1f} vs {oracle:.1f}); strictly decreasing over n=2..20; "
        "sup bound certified, strictly decreasing over n=5..25 and below one for n>=6 "
        "with all per-n side conditions re-verified",
    )


# -- criterion 9: exact vs log pipeline --------------------------------------

def test_criterion_9_exactness_bridge(capsys):
    budget = float(10 * SLACK_LOG)
    ok = True
    details = []
    for coeffs in ({1: "1", 2: "-1000"}, {1: "1", 2: "-10", 3: "-1000"}):
        rows = surrogate_bridge(coeffs)
        if not all(r["within"] for r in rows):
            ok = False
        first = rows[0]
        gap = float(first["bound"].log_mag) - math.log(abs(first["exact"]))
        if not 0 <= gap <= budget:
            ok = False
        details.append(f"k=1 log gap {gap:.2e}")
    _verdict(
        capsys, 9, ok,
        "exact iterate norms stay within the certified log bounds on both surrogate tables; "
        f"tight first step agrees within the documented slack ({', '.join(details)}, "
        f"budget {budget:.2e})",
    )
