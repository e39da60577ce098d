import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polymod import (
    BiPoly,
    Cancelled,
    CoeffQ,
    GammaTable,
    MGamma,
    Md,
    NotAnLModule,
    NotNilpotent,
    Sum,
    Underdetermined,
    UniPoly,
    UnsupportedExpr,
    canonical_split,
    dilated_shift_table,
    generate,
    infer_L,
    nilpotent_chains,
    order_of_module,
    order_of_sum_report,
    quotient_derivation,
    shift_invariance_table,
)
from polymod import linalg, operators, serialize
from polymod.cli import FALLBACK_DEG_BOUND
from polymod.operators import ChainDecomposition, _pinning_order
from polymod.modules import phi
from polymod.spans import span_reduce, span_rows

import sympy_oracle as sym
from conftest import dense_product, identity, invert, rand_nilpotent, rand_scalar
from test_linalg import _CountingToken

GS = shift_invariance_table()


def _monomial_basis(g, top_deg):
    out = []
    for i in range(1, g.s + 1):
        for m in range(top_deg + 1):
            seeds = [UniPoly.zero()] * g.s
            seeds[i - 1] = UniPoly.monomial(m)
            out.append(generate(g, seeds))
    return out


def test_infer_l_recovers_shift_table():
    basis = _monomial_basis(GS, 5)
    got = infer_L(basis, 1, deg_bound=5)
    assert got == GS


def test_infer_l_roundtrip_random(rng):
    for _ in range(12):
        s = rng.randint(1, 2)
        entries = {}
        for i in range(1, s + 1):
            for j in range(1, 4):
                if rng.random() < 0.5:
                    entries[(i, j)] = CoeffQ(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    )
        g = GammaTable(s, entries)
        bound = 6
        basis = _monomial_basis(g, bound)
        assert infer_L(basis, s, deg_bound=bound) == g


def test_infer_l_zero_prefix_witness():
    # x-degree-truncated spans contain y^2, whose first two coordinates vanish
    basis = [BiPoly.monomial(i, j) for i in range(3) for j in range(3)]
    with pytest.raises(NotAnLModule) as exc:
        infer_L(basis, 2, deg_bound=3)
    w = exc.value.witness
    assert w is not None and not w.is_zero()
    assert w.coord(0).is_zero() and w.coord(1).is_zero()


def test_infer_l_no_consistent_table():
    # coordinate 1 has higher x-degree than any derivative of the prefix
    F = BiPoly([UniPoly.monomial(2), UniPoly.monomial(2)])
    with pytest.raises(NotAnLModule) as exc:
        infer_L([F], 1, deg_bound=2)
    assert exc.value.witness is None


def test_infer_l_underdetermined_lists_slots():
    basis = _monomial_basis(GS, 2)
    with pytest.raises(Underdetermined) as exc:
        infer_L(basis, 1, deg_bound=5)
    slots = exc.value.free_slots
    assert slots and all(j >= 3 for (_i, j) in slots)


def test_infer_l_polls_through_its_solve_and_cancels_cleanly():
    basis = _monomial_basis(GS, 5)
    token = _CountingToken()
    assert infer_L(basis, 1, deg_bound=5, cancel=token) == GS
    # the polls before the final solve: span_rows, the pinning check at
    # K = s with its vanishing_part, and one per reduced element
    before = _CountingToken()
    frame, reduced = span_rows(list(basis), cancel=before)
    _pinning_order(frame, reduced, (1,), before)
    # the solve pins all 5 slots a_{1,1..5}, one pivot and one poll each
    assert token.calls - before.calls - len(reduced) >= 5
    for n in range(1, token.calls + 1):
        stub = _CountingToken(fire_at=n)
        with pytest.raises(Cancelled):
            infer_L(basis, 1, deg_bound=5, cancel=stub)
        assert stub.calls == n


def test_infer_l_validation():
    with pytest.raises(ValueError):
        infer_L([], 0, deg_bound=3)
    with pytest.raises(ValueError):
        infer_L([], 1, deg_bound=0)


def _reference_system(basis, s, deg_bound):
    """infer_L's linear system built from polynomial objects: the derivative
    of each reduced element's seed prefix, slot by slot, against its
    coordinate s, for m up to the top degree of those and the target."""
    slots = [(i, j) for j in range(1, deg_bound + 1) for i in range(1, s + 1)]
    rows, rhs = [], []
    for F in span_reduce(list(basis)):
        prefix, target = phi(F, s), F.coord(s)
        derivs = [prefix[i - 1].derivative(j) for i, j in slots]
        degs = [int(d.degree) for d in derivs + [target] if not d.is_zero()]
        for m in range(max([0] + degs) + 1):
            rows.append([d.coeff(m) for d in derivs])
            rhs.append(target.coeff(m))
    return rows, rhs


def _seeded_infer_cases():
    """(basis, s, deg_bound) of monomial-seed bases of seeded width 1-3 tables,
    real and Gaussian, with deg_bound below, at and past the seed degree."""
    cases = []
    for width in (1, 2, 3):
        for gaussian in (False, True):
            rng = random.Random(f"infer-system-{width}-{gaussian}")
            slots = [(i, j) for i in range(1, width + 1) for j in range(1, 4)]
            entries = {slot: rand_scalar(rng, gaussian) for slot in slots if rng.random() < 0.5}
            entries[(1, 1)] = CoeffQ(Fraction(1, 2), 1) if gaussian else CoeffQ(1)
            basis = _monomial_basis(GammaTable(width, {k: c for k, c in entries.items() if c}), 4)
            cases += [(basis, width, bound) for bound in (2, 4, 5)]
    return cases


def _golden_infer_failures():
    """(basis, s, deg_bound) of the infer-l cases of the CLI golden file that
    exit nonzero, deg_bound chosen as the CLI chooses it."""
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    cases = []
    for case in golden:
        argv = case["argv"]
        if argv[0] != "infer-l" or case["code"] == 0:
            continue
        basis = [serialize.bipoly_from_json(p) for p in json.loads(argv[argv.index("--basis") + 1])]
        if "--deg-bound" in argv:
            bound = int(argv[argv.index("--deg-bound") + 1])
        else:
            bound = max([FALLBACK_DEG_BOUND] + [int(F.deg_x) for F in basis if not F.is_zero()])
        cases.append((basis, int(argv[argv.index("--s") + 1]), bound))
    return cases


def test_infer_l_builds_the_reference_linear_system(monkeypatch):
    golden = _golden_infer_failures()
    assert len(golden) == 4
    unsolved = 0
    for basis, s, bound in _seeded_infer_cases() + golden:
        systems, derivatives = [], []

        def solve(rows, rhs, cancel=None):
            systems.append((rows, rhs))
            return linalg.solve(rows, rhs, cancel)

        with monkeypatch.context() as mp:
            mp.setattr(operators, "solve", solve)
            mp.setattr(UniPoly, "derivative", lambda f, order=1: derivatives.append(order))
            try:
                infer_L(basis, s, bound)
            except (NotAnLModule, Underdetermined) as exc:
                error = exc
            else:
                error = None
        assert not derivatives
        if not systems:
            # only the prefix check stops infer_L before its solve
            assert isinstance(error, NotAnLModule) and error.witness is not None
            unsolved += 1
            continue
        assert systems == [_reference_system(basis, s, bound)]
    assert unsolved == 2


def test_order_of_module_examples():
    assert order_of_module(_monomial_basis(GS, 4), 4) == 1
    assert order_of_module([BiPoly.monomial(2, 1)], 4) == 2
    truncated = [BiPoly.monomial(i, j) for i in range(2) for j in range(5)]
    assert order_of_module(truncated, 4) is None
    with pytest.raises(ValueError):
        order_of_module([], 0)


def test_order_of_module_matches_inference_width(rng):
    # generated spaces of a width-1 table always have order 1
    for a in (1, 2, 3):
        basis = _monomial_basis(dilated_shift_table(a), 4)
        assert order_of_module(basis, 4) == 1


def test_order_of_sum_same_table():
    rep = order_of_sum_report(GS, GS, 4)
    assert rep.order == 1
    assert rep.refuted == ()
    assert rep.kernel_dim == 4  # duplicate generators pair off


def test_order_of_sum_shift_vs_constants():
    rep = order_of_sum_report(GS, GammaTable(1), 4)
    assert rep.order == 2
    (K, w) = rep.refuted[0]
    assert K == 1
    # the refuting element is f(x+y) - f(x) for some nonconstant f
    assert w.coord(0).is_zero() and not w.is_zero()


def test_order_of_sum_shift_vs_dilated():
    rep = order_of_sum_report(GS, dilated_shift_table(2), 4)
    assert rep.order == 2
    assert [K for K, _ in rep.refuted] == [1]
    for K, w in rep.refuted:
        assert all(w.coord(n).is_zero() for n in range(K))
        assert not w.is_zero()
    assert order_of_sum_report(GS, dilated_shift_table(2), 4).order == 2


def test_order_of_sum_validation():
    with pytest.raises(ValueError):
        order_of_sum_report(GS, GS, 0).order


def _rank_profile_lengths(D):
    # chains of length >= k are counted by rank(D^(k-1)) - rank(D^k)
    n = len(D)
    if n == 0:
        return []
    counts = []
    prev = identity(n)
    prev_rank = n
    k = 1
    while prev_rank:
        cur = sym.product(prev, D)
        cur_rank = sym.rank(cur)
        counts.append(prev_rank - cur_rank)
        prev, prev_rank = cur, cur_rank
        k += 1
    lengths = []
    for length in range(len(counts), 0, -1):
        at_least = counts[length - 1]
        longer = counts[length] if length < len(counts) else 0
        lengths.extend([length] * (at_least - longer))
    return sorted(lengths, reverse=True)


def _reconstruct(dec):
    cols = [list(v) for v in dec.basis_vectors]
    images = []
    pos = 0
    for _u, length in dec.chains:
        for t in range(length):
            images.append(cols[pos + t + 1] if t + 1 < length else [CoeffQ(0)] * dec.dim)
        pos += length
    B = [[cols[c][r] for c in range(dec.dim)] for r in range(dec.dim)]
    S = [[images[c][r] for c in range(dec.dim)] for r in range(dec.dim)]
    return sym.product(S, sym.inverse(B))


def test_nilpotent_chains_zero_matrix():
    dec = nilpotent_chains([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert dec.dim == 3
    assert sorted(length for _u, length in dec.chains) == [1, 1, 1]


def test_nilpotent_chains_single_jordan_block():
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    dec = nilpotent_chains(J)
    assert [length for _u, length in dec.chains] == [3]
    assert _reconstruct(dec) == [[CoeffQ.of(c) for c in row] for row in J]


def test_nilpotent_chains_differentiation_matrix():
    # d/dx on the basis (1, x, x^2)
    D = [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    dec = nilpotent_chains(D)
    assert [length for _u, length in dec.chains] == [3]
    u, _ = dec.chains[0]
    # the generator reaches zero only after three applications
    v = list(u)
    seen = []
    for _ in range(3):
        seen.append(any(not c.is_zero() for c in v))
        v = [r[0] for r in dense_product([[CoeffQ.of(c) for c in row] for row in D], [[x] for x in v])]
    assert all(seen) and all(c.is_zero() for c in v)


def test_nilpotent_chains_random_corpus(rng):
    for _ in range(25):
        n = rng.randint(1, 6)
        D = rand_nilpotent(rng, n)
        dec = nilpotent_chains(D)
        got = sorted((length for _u, length in dec.chains), reverse=True)
        assert got == _rank_profile_lengths(D)
        assert sum(length for _u, length in dec.chains) == n
        assert _reconstruct(dec) == D


def is_zero_matrix(rows):
    return all(c.is_zero() for r in rows for c in r)


def ref_nilpotent_chains(mat):
    """The earlier greedy selection, kept as a reference: one residual per
    kernel candidate, one rref per chain added, and one product per chain
    image and per basis vector, each on sympy."""
    D = [[CoeffQ.of(c) for c in row] for row in mat]
    n = len(D)
    if n == 0:
        return ChainDecomposition(dim=0, chains=(), basis_vectors=())

    def apply(P, v):
        return [r[0] for r in sym.product(P, [[x] for x in v])]

    powers = [D]  # powers[t] = D^(t+1)
    while not is_zero_matrix(powers[-1]):
        powers.append(sym.product(powers[-1], D))
    kernels = [[]] + [sym.nullspace(P, n) for P in powers]
    chains = []
    for k in range(len(powers), 0, -1):
        U = [list(v) for v in kernels[k - 1]]
        U += [apply(powers[length - k - 1], list(u)) for u, length in chains]
        red, pivots = sym.rref(U, n)
        for cand in kernels[k]:
            residual = sym.residual(list(cand), red, pivots)
            if any(not c.is_zero() for c in residual):
                chains.append((tuple(cand), k))
                red, pivots = sym.rref(red + [list(cand)], n)
    basis_vectors = []
    for u, length in chains:
        v = list(u)
        for _ in range(length):
            basis_vectors.append(tuple(v))
            v = apply(D, v)
    return ChainDecomposition(dim=n, chains=tuple(chains), basis_vectors=tuple(basis_vectors))


def _gaussian_conjugate(rng, D):
    """L D L^-1 for a unit lower triangular L with Gaussian-integer entries."""
    n = len(D)
    L = [
        [CoeffQ.of(1) if c == r else (CoeffQ(rng.randint(-2, 2), rng.randint(-2, 2)) if c < r else CoeffQ.of(0)) for c in range(n)]
        for r in range(n)
    ]
    return dense_product(dense_product(L, D), invert(L))


def _chain_corpus():
    rng = random.Random(29)
    out = []
    for n in range(1, 10):
        for _ in range(3):
            D = rand_nilpotent(rng, n)
            out.extend([D, _gaussian_conjugate(rng, D)])
    out.append([[0] * 4 for _ in range(4)])
    out.append([[1 if c == r + 1 else 0 for c in range(5)] for r in range(5)])
    out.extend(quotient_derivation(s, k, d) for s, k, d in [(1, 4, 0), (2, 4, 1), (3, 5, 2), (2, 5, 1), (1, 6, 0), (3, 4, 0)])
    return out


def test_nilpotent_chains_matches_the_greedy_reference():
    for D in _chain_corpus():
        got, want = nilpotent_chains(D), ref_nilpotent_chains(D)
        assert got.dim == want.dim
        assert got.chains == want.chains
        assert got.basis_vectors == want.basis_vectors


def test_nilpotent_chains_makes_at_most_2p_minus_1_products(monkeypatch):
    # D^2..D^p, then one step of every chain per height: 2p - 1 products in all
    cases = [(D, max(length for _u, length in ref_nilpotent_chains(D).chains)) for D in _chain_corpus()]
    products = []
    real = linalg.product

    def spy(a, b, cancel=None):
        products.append(1)
        return real(a, b, cancel)

    monkeypatch.setattr(linalg, "product", spy)
    monkeypatch.setattr(operators, "product", spy)
    for D, p in cases:
        products.clear()
        nilpotent_chains(D)
        assert 0 < len(products) <= 2 * p - 1


def test_nilpotent_chains_converts_once_in_and_once_out(monkeypatch):
    # D and its transpose in; each chain generator and each basis vector out
    calls = {"_numerators": 0, "_dense": 0}

    def spy(name):
        real = getattr(operators, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(operators, name, spy(name))
    for D in _chain_corpus():
        calls.update(dict.fromkeys(calls, 0))
        dec = nilpotent_chains(D)
        assert calls == {"_numerators": 2, "_dense": len(dec.chains) + dec.dim}


def test_nilpotent_chains_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_chains([[1, 0], [0, 1]])
    with pytest.raises(NotNilpotent):
        nilpotent_chains([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        nilpotent_chains([[0, 1]])


def test_nilpotent_chains_empty():
    dec = nilpotent_chains([])
    assert dec.dim == 0 and dec.chains == ()


def test_nilpotent_chains_polls_inside_its_eliminations_and_cancels_cleanly(rng, monkeypatch):
    active = []  # the core running now, as [name, polls so far]
    finished = []  # (name, polls) of each core run on a nonempty input

    def spy(name, fn):
        def wrapped(rows, *args, **kwargs):
            active.append([name, 0])
            try:
                return fn(rows, *args, **kwargs)
            finally:
                if rows:
                    finished.append(tuple(active[-1]))
                active.pop()
        return wrapped

    class _Token(_CountingToken):
        def check(self):
            if active:
                active[-1][1] += 1
            super().check()

    for name in ("null_space", "eliminate", "product"):
        monkeypatch.setattr(operators, name, spy(name, getattr(operators, name)))
    for D in (quotient_derivation(2, 5, 1), rand_nilpotent(rng, 6)):
        finished.clear()
        token = _Token()
        nilpotent_chains(D, cancel=token)
        # every null_space, eliminate and product it runs polls the token
        assert {name for name, _polls in finished} == {"null_space", "eliminate", "product"}
        assert all(polls for _name, polls in finished)
        for m in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=m)
            with pytest.raises(Cancelled):
                nilpotent_chains(D, cancel=stub)
            assert stub.calls == m


def test_nilpotent_chains_polls_in_its_closing_rank_check(rng, monkeypatch):
    token = _CountingToken()
    calls = []  # (rows, polls made inside) of each eliminate call
    real = operators.eliminate

    def spy(rows, *args, **kwargs):
        before = token.calls
        try:
            return real(rows, *args, **kwargs)
        finally:
            calls.append((rows, token.calls - before))

    monkeypatch.setattr(operators, "eliminate", spy)
    dec = nilpotent_chains(rand_nilpotent(rng, 6), cancel=token)
    # the last elimination is the rank check on the chain vectors
    rows, polls = calls[-1]
    assert [tuple(linalg._dense(row, den, dec.dim)) for den, row in rows] == list(dec.basis_vectors)
    assert polls


def test_quotient_derivation_examples():
    assert quotient_derivation(1, 2, 1) == [[CoeffQ(0)]]
    got = quotient_derivation(1, 3, 1)
    assert got == [[CoeffQ(0), CoeffQ(2)], [CoeffQ(0), CoeffQ(0)]]
    assert quotient_derivation(2, 3, 2) == [
        [CoeffQ(0), CoeffQ(0)],
        [CoeffQ(0), CoeffQ(0)],
    ]


def test_quotient_derivation_chain_shape():
    # width-s quotients split into s chains of full length k - d
    for s, k, d in [(1, 4, 0), (2, 4, 1), (3, 5, 2)]:
        dec = nilpotent_chains(quotient_derivation(s, k, d))
        assert sorted(length for _u, length in dec.chains) == [k - d] * s


def test_quotient_derivation_validation():
    with pytest.raises(ValueError):
        quotient_derivation(0, 2, 1)
    with pytest.raises(ValueError):
        quotient_derivation(1, 1, 1)
    with pytest.raises(ValueError):
        quotient_derivation(1, 2, -1)


def test_canonical_split_examples():
    assert canonical_split(Sum(Md(1), MGamma(GS))) == (1, 1)
    assert canonical_split(Sum(Md(0), MGamma(GS))) == (0, 1)
    assert canonical_split(Sum(Md(2), MGamma(GammaTable(1)))) == (2, 1)
    assert canonical_split(Sum(Md(2), MGamma(GS))) == (2, 1)


def test_canonical_split_order_component():
    # the excluded-exponent component equals the generated part's order
    assert canonical_split(Sum(Md(1), MGamma(GammaTable(2)))) == (1, 2)


def test_canonical_split_ignores_part_order():
    assert canonical_split(Sum(MGamma(GS), Md(1))) == (1, 1)


def test_canonical_split_unsupported():
    with pytest.raises(UnsupportedExpr):
        canonical_split(Md(1))
    with pytest.raises(UnsupportedExpr):
        canonical_split(Sum(Md(1), Md(2)))
    with pytest.raises(UnsupportedExpr):
        canonical_split(Sum(Md(1), MGamma(GS), MGamma(GS)))
