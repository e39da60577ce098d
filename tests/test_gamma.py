import copy
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import repeat
from math import ceil, gcd, lcm, log2

import pytest
from sympy import QQ_I, diff, expand, symbols
from sympy.polys.rings import ring

from polymod import (
    ArityMismatch,
    BiPoly,
    CoeffQ,
    GammaTable,
    MGamma,
    Md,
    Sum,
    UniPoly,
    apply_L,
    canonical_split,
    contains,
    dilated_shift_table,
    generate,
    mgamma_contains,
    phi,
    shift_invariance_table,
)
from polymod import gamma
from polymod.gamma import _recur, monomial_seed_elements

import sympy_oracle as sym
from conftest import rand_gamma, rand_rational, rand_scalar, rand_unipoly
from test_poly import _qq_i


def _table(s, **entries):
    # entries as a11=..., a22=... keyword shorthand
    parsed = {}
    for key, val in entries.items():
        i, j = int(key[1]), int(key[2])
        parsed[(i, j)] = CoeffQ.of(val)
    return GammaTable(s, parsed)


def test_gamma_table_validation():
    with pytest.raises(ValueError):
        GammaTable(0)
    with pytest.raises(ValueError):
        GammaTable(1, {(2, 1): CoeffQ.of(1)})  # i out of range
    with pytest.raises(ValueError):
        GammaTable(1, {(1, 0): CoeffQ.of(1)})  # j must be >= 1
    for s, i, j in ((True, 1, 1), (1, True, 1), (1, 1, True)):  # bools are not ints
        with pytest.raises(ValueError):
            GammaTable(s, {(i, j): CoeffQ.of(1)})
    g = GammaTable(2, {(1, 1): CoeffQ.of(0), (2, 1): CoeffQ.of(1)})
    assert g.entries == {(2, 1): CoeffQ.of(1)}  # zero entries elided


def test_apply_l_examples():
    gS = shift_invariance_table()
    assert apply_L(gS, [UniPoly.monomial(2)]) == UniPoly([0, 2])
    g = _table(2, a11=1, a22=3)
    out = apply_L(g, [UniPoly.monomial(3), UniPoly.monomial(2)])
    assert out == UniPoly([6, 0, 3])  # 3x^2 + 6
    assert apply_L(GammaTable(2), [UniPoly.monomial(1), UniPoly.monomial(1)]).is_zero()


def test_apply_l_arity():
    with pytest.raises(ArityMismatch):
        apply_L(shift_invariance_table(), [UniPoly.monomial(1), UniPoly.monomial(1)])
    with pytest.raises(ArityMismatch):
        generate(_table(2, a11=1), [UniPoly.monomial(1)])


def test_generate_taylor_square():
    F = generate(shift_invariance_table(), [UniPoly.monomial(2)])
    assert F == BiPoly([UniPoly.monomial(2), UniPoly([0, 2]), UniPoly([2])])
    for p in (0, 1, 2):
        for q in (0, 1, 3):
            assert F.evaluate(p, q) == CoeffQ.of((p + q) ** 2)


def test_generate_dilated_is_substitution():
    F = generate(dilated_shift_table(2), [UniPoly.monomial(2)])
    # f(x + 2y) for f = x^2
    for p in (0, 1, 2):
        for q in (0, 1, 2):
            assert F.evaluate(p, q) == CoeffQ.of((p + 2 * q) ** 2)


def test_generate_constants_fixed():
    F = generate(_table(1, a13=5), [UniPoly([7])])
    assert F == BiPoly([UniPoly([7])])


def test_generate_zero_table_keeps_seeds():
    F = generate(GammaTable(2), [UniPoly.monomial(1), UniPoly.monomial(2)])
    assert F == BiPoly([UniPoly.monomial(1), UniPoly.monomial(2)])


def test_generate_linear_in_seeds(rng):
    for _ in range(20):
        g = rand_gamma(rng)
        seeds_a = [rand_unipoly(rng, 4) for _ in range(g.s)]
        seeds_b = [rand_unipoly(rng, 4) for _ in range(g.s)]
        c = CoeffQ.of(rng.randint(-3, 3))
        combined = [fa.scale(c) + fb for fa, fb in zip(seeds_a, seeds_b)]
        lhs = generate(g, combined)
        rhs = generate(g, seeds_a).scale(c) + generate(g, seeds_b)
        assert lhs == rhs


def test_generate_termination_with_window_bound(rng):
    # coordinates vanish from n = s * (1 + max seed degree) on: the window
    # max degree strictly drops at least once every s steps
    for _ in range(40):
        g = rand_gamma(rng)
        seeds = [rand_unipoly(rng, 5) for _ in range(g.s)]
        F = generate(g, seeds)
        max_deg = max(
            (int(f.degree) for f in seeds if not f.is_zero()), default=-1
        )
        cutoff = g.s * (1 + max(0, max_deg))
        for n in range(cutoff, F.num_coords):
            assert F.coord(n).is_zero()


def test_width_two_recursion_outlives_single_step_cutoff():
    # with s = 2 a coordinate can survive past s + max seed degree: the
    # window carries old degrees forward one extra generation
    g = _table(2, a11=1, a21=1)
    seeds = [UniPoly.monomial(2), UniPoly.monomial(2)]
    F = generate(g, seeds)
    assert F.coord(5) == UniPoly([2])  # past 2 + 2 = 4, yet nonzero
    assert F.coord(4) == UniPoly([6])
    assert F.coord(3) == UniPoly([4, 2])
    assert all(F.coord(n).is_zero() for n in range(7, 12))


def test_degree_descent_every_window(rng):
    for _ in range(30):
        g = rand_gamma(rng)
        seeds = [rand_unipoly(rng, 4) for _ in range(g.s)]
        F = generate(g, seeds)
        for k in range(g.s, F.num_coords):
            window_max = max(
                F.coord(k - g.s + t).degree for t in range(g.s)
            )
            assert F.coord(k).degree < window_max or (
                F.coord(k).is_zero() and window_max == float("-inf")
            )


def test_mgamma_contains_accepts_generated(rng):
    for _ in range(25):
        g = rand_gamma(rng)
        seeds = [rand_unipoly(rng, 4) for _ in range(g.s)]
        ok, cert = mgamma_contains(g, generate(g, seeds))
        assert ok and cert["reason"] == "recursion-verified"


def test_mgamma_contains_rejects_x_for_first_derivative_table():
    ok, cert = mgamma_contains(_table(1, a11=1), BiPoly([UniPoly.monomial(1)]))
    assert not ok
    assert cert["n"] == 1
    assert cert["residual"] == UniPoly([-1])  # coordinate 1 is 0, forced value 1


def test_mgamma_contains_zero_always():
    ok, _ = mgamma_contains(_table(2, a12=3), BiPoly.zero())
    assert ok


def test_mgamma_contains_checks_past_deg_y_window():
    # F = x y fails the width-2 recursion only at n = 3 = deg_y + s: the
    # probe range must extend s coordinates past the last nonzero one
    g = _table(2, a11=1)
    F = BiPoly([UniPoly.zero(), UniPoly.monomial(1)])
    ok, cert = mgamma_contains(g, F)
    assert not ok
    assert cert["n"] == 3


def test_shift_invariance_table_shape():
    g = shift_invariance_table()
    assert g.s == 1 and g.entries == {(1, 1): CoeffQ.of(1)}
    gd = dilated_shift_table(3)
    assert gd.entries == {(1, 1): CoeffQ.of(3)}


# ---------------------------------------------------------------------------
# the integer kernel of apply_L: numerators over Q * D, one gcd per part
# ---------------------------------------------------------------------------

P61 = 2**61 - 1


def ref_apply_l(g, window):
    """The operator as derivative, scale and sum, one table term at a time."""
    out = UniPoly.zero()
    for (i, j), a in g.entries.items():
        f = window[i - 1]
        if f.degree >= j:
            out = out + f.derivative(j).scale(a)
    return out


def _to_ring(f: UniPoly, R, x):
    return sum((_qq_i(c) * x**k for k, c in enumerate(f.coeffs)), R(0))


def _sympy_apply_l(g, window):
    """The operator applied by sympy's sparse polynomials over QQ_I."""
    R, x = ring("x", QQ_I)
    out = R(0)
    for (i, j), a in g.entries.items():
        d = _to_ring(window[i - 1], R, x)
        for _ in range(j):
            d = d.diff(x)
        out += _qq_i(a) * d
    return out, (R, x)


def _kernel_cases():
    q = Fraction
    c = CoeffQ(q(1, 6), q(5, 7))
    f = UniPoly([CoeffQ(q(3, 997), q(-1, P61)), q(-2, 7), 0, q(1, 6), CoeffQ(0, q(4, 5)), q(P61 - 2, 997)])
    yield "coprime-parts-w1", GammaTable(1, {(1, 1): c, (1, 3): CoeffQ(q(-2, 35), q(3, 11))}), [f], False
    g = GammaTable(2, {(1, 1): q(1, 997), (2, 2): CoeffQ(q(-3, P61), q(5, 997)), (1, 4): CoeffQ(0, q(1, P61))})
    yield "large-dens-w2", g, [
        UniPoly([q(5, P61), CoeffQ(q(-1, 3), 2), 0, 0, q(7, 997), CoeffQ(q(1, P61), q(-1, 997)), 1, q(11, 6)]),
        UniPoly([CoeffQ(0, q(2, 997)), q(1, 11), CoeffQ(q(-9, 4), q(1, P61)), q(P61, 997 * 3)]),
    ], False
    # slot 1 is zero and slot 2 has degree 1 < j = 2: only slot 3 contributes
    g = GammaTable(3, {(1, 1): c, (2, 2): q(-1, 997), (3, 1): CoeffQ(0, q(3, 4)), (3, 3): c})
    yield "zero-and-low-slots-w3", g, [
        UniPoly.zero(),
        UniPoly([q(1, 6), CoeffQ(q(2, 7), q(1, P61))]),
        UniPoly([1, CoeffQ(q(1, 997), q(-5, 7)), 0, q(4, 3), CoeffQ(0, q(1, 6)), q(-2, P61)]),
    ], False
    yield "all-below-order-w3", GammaTable(3, {(1, 3): c, (2, 3): 1, (3, 4): -c}), [
        UniPoly([q(1, 6), 1, CoeffQ(0, q(5, 7))]), UniPoly.monomial(1), UniPoly([q(1, P61)]),
    ], True
    # the terms cancel pairwise: a_{1,j} f^(j) + a_{2,j} f^(j) with a_{2,j} = -a_{1,j}
    d = CoeffQ(q(-3, 997), q(1, P61))
    yield "cancelling-w2", GammaTable(2, {(1, 1): c, (2, 1): -c, (1, 2): d, (2, 2): -d}), [f, f], True
    yield "zero-window-w2", GammaTable(2, {(1, 1): c, (2, 2): d}), [UniPoly.zero(), UniPoly.zero()], True
    rng = random.Random(0xA11)
    for s in (1, 2, 3):
        entries = {(i, j): rand_scalar(rng) for i in range(1, s + 1) for j in range(1, 5) if rng.random() < 0.6}
        entries[(s, 1)] = CoeffQ(q(rng.randint(1, 9), 997), q(-rng.randint(1, 9), 6))
        window = [rand_unipoly(rng, 7) for _ in range(s)]
        yield f"seeded-w{s}", GammaTable(s, entries), window, False


KERNEL_CASES = list(_kernel_cases())


def _lowest_terms(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("name, g, window, is_zero", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_apply_l_kernel_matches_reference_and_sympy(name, g, window, is_zero):
    out = apply_L(g, window)
    assert out == ref_apply_l(g, window)
    assert out.is_zero() == is_zero
    assert not out.coeffs or not out.coeffs[-1].is_zero()
    assert all(_lowest_terms(c.re) and _lowest_terms(c.im) for c in out.coeffs)
    want, ring_vars = _sympy_apply_l(g, window)
    assert _to_ring(out, *ring_vars) == want


# ---------------------------------------------------------------------------
# the recursion stream against the per-window algorithms it replaced
# ---------------------------------------------------------------------------


def _window_generate(g, seeds):
    """generate as it was: one operator application per window until the
    window is zero, on the derivative, scale and sum reference."""
    coords = list(seeds)
    while not all(f.is_zero() for f in coords[-g.s :]):
        coords.append(ref_apply_l(g, coords[-g.s :]))
    return BiPoly(coords)


def _window_mgamma_contains(g, F):
    """mgamma_contains as it was: apply the operator to each of F's windows,
    then compare with F's next coordinate."""
    top = (int(F.deg_y) if not F.is_zero() else -1) + g.s
    for n in range(g.s, top + 1):
        expected = ref_apply_l(g, [F.coord(n - g.s + k) for k in range(g.s)])
        if F.coord(n) != expected:
            return False, {"reason": "recursion-mismatch", "n": n, "residual": F.coord(n) - expected}
    return True, {"reason": "recursion-verified", "checked_upto": top}


def _residual_offenders(d, g, F):
    """The Md + M_g residual test as it was: F minus the completion of its
    seed prefix as a BiPoly, then every coordinate of x-degree >= d."""
    residual = F - _window_generate(g, phi(F, g.s))
    return [
        {"n": n, "deg_x": int(f.degree)} for n, f in enumerate(residual.coords) if not f.is_zero() and f.degree >= d
    ]


def _residual_split(d, g):
    for e in range(d + 1):
        for t in range(g.s + 2):
            if _residual_offenders(d, g, BiPoly.monomial(e, t)):
                return (e, t)
    raise AssertionError("no excluded monomial")


def _stream_cases():
    """320 seeded (g, F, d, perturbed) cases over widths 1-3: Gaussian tables
    with small seeds, and every fourth one a kernel-case table and window
    (denominators 997 and 2^61 - 1); every odd case adds one monomial past
    the seeds to F, which takes it out of M_g."""
    rng = random.Random(0x5EED)
    kernel = [(g, window) for _name, g, window, _zero in KERNEL_CASES]
    for k in range(320):
        if k % 4 == 3:
            g, seeds = kernel[(k // 4) % len(kernel)]
        else:
            s = 1 + k % 3
            entries = {(i, j): rand_scalar(rng) for i in range(1, s + 1) for j in range(1, 4) if rng.random() < 0.5}
            g = GammaTable(s, entries or {(s, 1): CoeffQ(Fraction(1, 3), Fraction(-2, 5))})
            seeds = [rand_unipoly(rng, 4) for _ in range(s)]
        F = generate(g, seeds)
        if k % 2:
            c = rand_scalar(rng)
            n = rng.randint(g.s, max(g.s, F.num_coords) + 1)
            F = F + BiPoly.monomial(rng.randint(0, 5), n, c if not c.is_zero() else 1)
        yield g, F, rng.randint(0, 4), bool(k % 2)


STREAM_CASES = list(_stream_cases())


def test_stream_membership_matches_the_window_algorithms():
    outside = 0
    for g, F, d, _perturbed in STREAM_CASES:
        got, want = mgamma_contains(g, F), _window_mgamma_contains(g, F)
        assert got == want and repr(got) == repr(want)
        outside += not got[0]
        res = contains(Sum(Md(d), MGamma(g)), F)
        offending = _residual_offenders(d, g, F)
        assert res.contains == (not offending)
        assert res.certificate["offending"] == offending
        assert repr(res.certificate["offending"]) == repr(offending)
    assert outside == 160


def test_stream_generate_and_split_match_the_window_algorithms():
    splits = {}
    for g, F, d, perturbed in STREAM_CASES:
        if not perturbed:
            seeds = phi(F, g.s)
            assert repr(generate(g, seeds)) == repr(_window_generate(g, seeds))
        if (d, g) not in splits:
            splits[(d, g)] = canonical_split(Sum(Md(d), MGamma(g)))
            assert splits[(d, g)] == _residual_split(d, g)
            assert canonical_split(Sum(MGamma(g), Md(d))) == splits[(d, g)]
    assert len(splits) >= 100


def _canonical(t) -> bool:
    re, im, den = t
    return (
        type(re) is tuple and type(im) is tuple and len(re) == len(im)
        and (not re or re[-1] or im[-1]) and den > 0 and gcd(den, *re, *im) == 1
    )


def test_ints_is_canonical():
    rng = random.Random(0xCA)
    polys = [UniPoly.zero(), UniPoly([Fraction(2, 4)]), UniPoly([0, 0, CoeffQ(0, Fraction(-3, 6))])]
    polys += [f for _name, _g, window, _zero in KERNEL_CASES for f in window]
    polys += [rand_unipoly(rng, 6) for _ in range(60)]
    for f in polys:
        t = f._z
        re, im, den = t
        assert _canonical(t) and len(re) == len(f.coeffs)
        assert den == lcm(*(p.denominator for c in f.coeffs for p in (c.re, c.im)))
        assert UniPoly(f.coeffs)._z == t
        # the same polynomial built another way gives the same triple
        assert UniPoly(list(f.coeffs) + [0, CoeffQ(0, 0)])._z == t
        assert (f + f).scale(Fraction(1, 2))._z == t
        assert (f + UniPoly.monomial(len(f.coeffs)))._z != t
    assert UniPoly([Fraction(6, 4), Fraction(1, 3)])._z == ((9, 2), (0, 0), 6)


def test_stream_yields_canonical_triples():
    for g, F, _d, _perturbed in STREAM_CASES[:80]:
        for f in _recur(g, phi(F, g.s)):
            assert _canonical(f._z)
            assert UniPoly(f.coeffs)._z == f._z


def test_recursion_path_builds_no_fraction(monkeypatch):
    """generate, the shift, membership, the Md + M_g test and canonical_split
    hand canonical Z[i] triples to each other: once the inputs exist, not one
    Fraction is built on that path."""
    rng = random.Random(0xF4AC)
    cases = []
    for _ in range(24):
        g = rand_gamma(rng)
        d = rng.randint(1, 4)
        seeds = [rand_unipoly(rng, 5) for _ in range(g.s)]
        cases.append((g, d, seeds, rand_scalar(rng), rand_scalar(rng), Sum(Md(d), MGamma(g))))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results bypass __new__ from Python 3.12 on
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
    answers = []
    for g, d, seeds, a, b, M in cases:
        F = generate(g, seeds)
        G = F.shift(a, b)
        member, _cert = mgamma_contains(g, G)
        probe = BiPoly.monomial(d, g.s)
        answers.append((F, G, member, contains(M, probe).contains, canonical_split(M)))
    assert built == []
    assert answers[0][0].coord(0).coeffs and built  # the API edge builds Fraction parts, and the counter sees them
    monkeypatch.undo()
    assert sum(F.num_coords for F, *_ in answers) > 100
    zero = CoeffQ(0)
    for (g, d, seeds, a, b, _M), (F, G, member, excluded, split) in zip(cases, answers):
        assert phi(F, g.s) == tuple(seeds) and mgamma_contains(g, F)[0]
        assert G == F.shift(a, zero).shift(zero, b)
        assert member and not excluded and split[0] == d


def _cache_cases():
    """30 seeded (s, entries, narrow, wide) cases over widths 1-3: each table
    has a Gaussian entry of order j >= 2, the width of its narrow window
    (seeds of degree <= 1), and its wide window has seeds of degree 6-8."""
    rng = random.Random(0xCAC4E)
    cases = []
    for k in range(30):
        s = 1 + k % 3
        entries = {(i, j): rand_scalar(rng) for i in range(1, s + 1) for j in range(1, 4) if rng.random() < 0.5}
        entries[(rng.randint(1, s), rng.randint(2, 6))] = CoeffQ(rand_rational(rng), rng.choice([-1, 1]))
        narrow = [rand_unipoly(rng, 1) for _ in range(s)]
        wide = [UniPoly.monomial(rng.randint(6, 8)) + rand_unipoly(rng, 5) for _ in range(s)]
        cases.append((s, entries, narrow, wide))
    return cases


CACHE_CASES = _cache_cases()


def _answers(tables, seeds):
    """The triples of generate, apply_L and mgamma_contains (on the generated
    element, and on it plus x y^(s+1), which is outside M_g), each call made
    on the next table of tables."""
    g = next(tables)
    F = generate(g, seeds)
    out = [tuple(f._z for f in F.coords), apply_L(next(tables), seeds)._z]
    for P in (F, F + BiPoly.monomial(1, g.s + 1)):
        member, cert = mgamma_contains(next(tables), P)
        out.append((member, {k: getattr(v, "_z", v) for k, v in cert.items()}))
    return out


def _fresh(s, entries):
    return iter(lambda: GammaTable(s, entries), None)


def test_cached_terms_give_the_answers_of_fresh_tables():
    outside = 0
    for s, entries, narrow, wide in CACHE_CASES:
        want = [_answers(_fresh(s, entries), w) for w in (narrow, wide)]
        outside += not want[1][3][0]
        cold = GammaTable(s, entries)
        assert _answers(repeat(cold), wide) == want[1]
        g = GammaTable(s, entries)
        assert [_answers(repeat(g), w) for w in (narrow, wide)] == want
        g = GammaTable(s, entries)
        assert [_answers(repeat(g), w) for w in (wide, narrow)] == want[::-1]
    assert outside == len(CACHE_CASES)


def test_terms_are_built_a_few_times_per_monomial_basis(monkeypatch):
    rng = random.Random(0xB1D)
    for s in (1, 2, 3):
        g = rand_gamma(rng, s_exact=s)
        builds = []
        with monkeypatch.context() as mp:
            over = gamma._over  # called once per build of the table's terms
            mp.setattr(gamma, "_over", lambda parts: builds.append(len(parts)) or over(parts))
            basis = monomial_seed_elements(g, 9)
        assert 0 < len(builds) <= ceil(log2(9)) + 1
        assert basis == monomial_seed_elements(GammaTable(g.s, g.entries), 9)
        assert basis == [generate(GammaTable(g.s, g.entries), phi(F, s)) for F in basis]


def test_threads_sharing_a_fresh_table_get_the_single_thread_answers():
    rng = random.Random(0x7EAD)
    s, entries, _narrow, _wide = CACHE_CASES[1]
    windows = [[UniPoly.monomial(d) + rand_unipoly(rng, d - 1) for _ in range(s)] for d in (1, 3, 5, 8)]
    want = [_answers(_fresh(s, entries), w) for w in windows]
    g = GammaTable(s, entries)
    got = [[] for _ in windows]

    def work(k):
        for _ in range(15):
            got[k].append(_answers(repeat(g), windows[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(windows))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 15 for w in want]


def test_gamma_table_is_immutable_and_its_cache_invisible():
    s, entries, _narrow, wide = CACHE_CASES[2]
    want = _answers(_fresh(s, entries), wide)
    warm, fresh = GammaTable(s, entries), GammaTable(s, entries)
    _answers(repeat(warm), wide)
    assert warm._terms is not None and fresh._terms is None
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    for name in ("s", "entries", "_terms"):
        with pytest.raises(AttributeError):
            setattr(warm, name, None)
        with pytest.raises(AttributeError):
            delattr(warm, name)
    with pytest.raises(TypeError):
        warm.entries[(1, 1)] = CoeffQ(1)
    copies = [copy.copy(warm), copy.deepcopy(warm)]
    for p in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(warm, p) == pickle.dumps(fresh, p)
        copies.append(pickle.loads(pickle.dumps(warm, p)))
    for c in copies:
        assert type(c) is GammaTable and c._terms is None
        assert c == warm and hash(c) == hash(warm) and repr(c) == repr(warm)
        assert _answers(repeat(c), wide) == want


# ---------------------------------------------------------------------------
# the paper's operator as an oracle: M_g = ker Q_g, computed in sympy
# ---------------------------------------------------------------------------


def _q_case(draw):
    """(g, G, F, d) of a seeded draw: a table of width 1..3, Gaussian on odd
    draws, the element G that generate builds from random seeds, and F, which
    is G perturbed past its seeds on every other draw, by a term of x-degree
    < d on half of those."""
    rng = random.Random(f"q-gamma-{draw}")
    gaussian = draw % 2 == 1
    g = rand_gamma(rng, max_s=3, max_j=3)
    if gaussian:
        g = GammaTable(g.s, {k: a * rand_scalar(rng) + CoeffQ(0, 1) for k, a in g.entries.items()})
    F = G = generate(g, [rand_unipoly(rng, 3, gaussian) for _ in range(g.s)])
    d = rng.randint(0, 3)
    if draw // 2 % 2:
        n = rng.randint(g.s, g.s + 2)
        low = draw // 4 % 2 and d > 0
        bump = rand_unipoly(rng, d - 1 if low else 3, gaussian)
        if bump.is_zero():
            bump = UniPoly.monomial(0)
        F = BiPoly([G.coord(k) + (bump if k == n else UniPoly.zero()) for k in range(max(G.num_coords, n + 1))])
    return g, G, F, d


Q_DRAWS = range(32)


def test_generate_is_killed_by_q_gamma():
    for draw in Q_DRAWS:
        g, G, _F, _d = _q_case(draw)
        assert sym.q_gamma(g, G) == 0


def test_mgamma_contains_answers_match_q_gamma():
    # F is in M_g iff Q_g F = 0; a mismatch at n carries coordinate n - s of
    # Q_g F as its residual, the first nonzero coordinate
    answers = set()
    for draw in Q_DRAWS:
        g, _G, F, _d = _q_case(draw)
        ok, cert = mgamma_contains(g, F)
        Q = sym.q_gamma(g, F)
        answers.add(ok)
        assert ok == (Q == 0)
        if not ok:
            n = cert["n"]
            assert all(sym.coordinate(Q, m) == 0 for m in range(n - g.s))
            assert sym.coordinate(Q, n - g.s) == expand(sym.unipoly(cert["residual"]))
            assert sym.coordinate(Q, n - g.s) != 0
    assert answers == {True, False}


def test_md_plus_gamma_membership_matches_q_gamma():
    # F is in Md(d) + M_g iff d^d/dx^d Q_g F = 0, in either part order
    answers = set()
    x = symbols("x")
    for draw in Q_DRAWS:
        g, _G, F, d = _q_case(draw)
        parts = (Md(d), MGamma(g)) if draw % 3 else (MGamma(g), Md(d))
        got = contains(Sum(*parts), F).contains
        answers.add((got, mgamma_contains(g, F)[0]))
        assert got == (diff(sym.q_gamma(g, F), x, d) == 0)
    # members of M_g, sum members outside M_g, and non-members all occur
    assert answers == {(True, True), (True, False), (False, False)}
