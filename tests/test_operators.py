import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial
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
from polymod import gamma, linalg, modules, operators, serialize, spans
from polymod.cli import FALLBACK_DEG_BOUND
from polymod.operators import ChainDecomposition, _witness
from polymod.modules import derivative_closure, phi
from polymod.spans import span_rows

from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

import sympy_oracle as sym
from conftest import dense_product, identity, invert, rand_bipoly, rand_gamma, rand_nilpotent, rand_scalar, rand_unipoly
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
    # the polls outside the solve: the span_rows of the seed prefixes, which
    # are independent, then one per element as its coordinates are read and
    # one per element as the recursion check takes its one step
    before = _CountingToken()
    span_rows([BiPoly(F.coords[:1]) for F in basis], cancel=before)
    # the solve pins all 5 slots a_{1,1..5}, one pivot and one poll each
    assert token.calls - before.calls - 2 * len(basis) >= 5
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


def _unread():
    raise AssertionError("the basis was read before the arguments were checked")
    yield


@pytest.mark.parametrize("s, bound, message", [
    (True, 3, "s must be a positive int"),
    (2.0, 3, "s must be a positive int"),
    (1, 2.0, "deg_bound must be >= 1"),
    (1, True, "deg_bound must be >= 1"),
])
def test_infer_l_checks_its_int_arguments_before_any_work(s, bound, message):
    # bool is an int subclass and 2.0 compares like 2: both used to reach the
    # reduction before failing, in GammaTable or in range
    with pytest.raises(ValueError, match=message):
        infer_L(_unread(), s, bound)


@pytest.mark.parametrize("bound", [2.0, True])
def test_orders_check_their_deg_bound_before_any_work(bound):
    with pytest.raises(ValueError, match="deg_bound must be >= 1"):
        order_of_module(_unread(), bound)
    with pytest.raises(ValueError, match="deg_bound must be >= 1"):
        order_of_sum_report(GS, GS, bound)


def _reference_system(basis, s, deg_bound, first=False):
    """infer_L's full linear system built from polynomial objects, each row
    augmented by its right side: the derivative of each nonzero basis
    element's seed prefix, slot by slot, against its coordinate s, in basis
    order, for m up to the top degree of those and the target, or m = 0 alone
    when first, with equation m multiplied by m!."""
    slots = [(i, j) for j in range(1, deg_bound + 1) for i in range(1, s + 1)]
    rows = []
    for F in [F for F in basis if not F.is_zero()]:
        prefix, target = phi(F, s), F.coord(s)
        derivs = [prefix[i - 1].derivative(j) for i, j in slots]
        degs = [int(d.degree) for d in derivs + [target] if not d.is_zero()]
        for m in range(1 if first else max([0] + degs) + 1):
            rows.append([d.coeff(m) * factorial(m) for d in derivs + [target]])
    return rows


def _outcome(pivots, nslots):
    """What the pivots of the RREF of an augmented system with nslots unknowns
    say: a pivot in the right side, a pivot in every slot, or free slots."""
    return "inconsistent" if nslots in pivots else "unique" if pivots == list(range(nslots)) else "free"


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


def _nonzero_equations(rows):
    return [row for row in rows if any(row)]


def test_infer_l_builds_the_reference_linear_system(monkeypatch):
    real_derivative = UniPoly.derivative
    golden = _golden_infer_failures()
    assert len(golden) == 4
    seeded = _seeded_infer_cases()
    unsolved = solved = fallbacks = 0
    for case, (basis, s, bound) in enumerate(seeded + golden):
        systems, derivatives = [], []

        def rref(rows, cancel=None):
            out = linalg.rref(rows, cancel)
            systems.append((rows, _outcome(out[1], s * bound)))
            return out

        def derivative(f, order=1):
            derivatives.append(len(systems))
            return real_derivative(f, order)

        with monkeypatch.context() as mp:
            mp.setattr(operators, "rref", rref)
            mp.setattr(UniPoly, "derivative", derivative)
            try:
                infer_L(basis, s, bound)
            except (NotAnLModule, Underdetermined) as exc:
                error = exc
            else:
                error = None
        if not systems:
            # only the prefix check stops infer_L before its solve
            assert isinstance(error, NotAnLModule) and error.witness is not None
            unsolved += 1
            continue
        # the first system is equation 0 of each nonzero basis element read off its
        # coordinates: the reference's m = 0 rows with column (i, j) divided by j!
        rows, first = systems[0]
        scales = [factorial(j) for j in range(1, bound + 1) for _i in range(s)] + [1]  # the right side unscaled
        assert [[c * k for c, k in zip(row, scales)] for row in rows] == _reference_system(basis, s, bound, first=True)
        # the whole reference system, up to 0 = 0 equations and with the same
        # column scale, is solved only when a slot stays free: equation 0 of
        # every x-derivative, the only derivatives infer_L takes
        if first == "free":
            assert len(systems) == 2 and derivatives and set(derivatives) == {1}
            rows, _ = systems[1]
            scaled = [[c * k for c, k in zip(row, scales)] for row in rows]
            assert _nonzero_equations(scaled) == _nonzero_equations(_reference_system(basis, s, bound))
            fallbacks += 1
        else:
            assert len(systems) == 1 and not derivatives
        if case < len(seeded) and error is None:
            # a round trip takes the small system alone
            assert len(systems) == 1
            solved += 1
    assert (unsolved, solved) == (2, 8) and fallbacks > 0


def test_infer_l_reduces_the_whole_span_only_when_the_seed_prefixes_fall_short(monkeypatch):
    # independent seed prefixes pin the span, so no witness can exist and
    # only the prefixes are reduced; a duplicate or a zero-prefix element
    # leaves the prefix rank short, and the whole span is reduced as before
    calls = []

    def spy(polys, cancel=None):
        calls.append(list(polys))
        return span_rows(calls[-1], cancel)

    monkeypatch.setattr(operators, "span_rows", spy)
    for basis, s, bound in _seeded_infer_cases():
        calls.clear()
        want = _answer(lambda: infer_L(basis, s, bound))
        assert len(calls) == 1 and all(p.num_coords <= s for p in calls[0])
        duplicated = basis + [basis[len(basis) // 2]]
        calls.clear()
        assert _answer(lambda: infer_L(duplicated, s, bound)) == want
        assert len(calls) == 2 and calls[1] == duplicated
        zero_prefix = basis[:1] + [BiPoly.monomial(1, s)] + basis[1:]
        calls.clear()
        with pytest.raises(NotAnLModule) as exc:
            infer_L(zero_prefix, s, bound)
        assert len(calls) == 2 and calls[1] == zero_prefix
        assert exc.value.witness == _witness(*span_rows(zero_prefix), s) != None


def test_infer_l_makes_no_coefficient_product(monkeypatch):
    # both systems read coordinate coefficients as they are, the free-slot
    # one off x-derivatives taken on the integer triples, and the solve and
    # the recursion check run on integers: no CoeffQ product on any path
    products = []
    mul = CoeffQ.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    answers = Counter()
    for basis, s, bound in _seeded_infer_cases():
        products.clear()
        with monkeypatch.context() as mp:
            mp.setattr(CoeffQ, "__mul__", counted)
            mp.setattr(CoeffQ, "__rmul__", counted)
            answers[_answer(lambda: infer_L(basis, s, bound))[0]] += 1
        assert products == []
    # a free slot after the full solve is Underdetermined: six cases take the free-slot path
    assert answers == {"GammaTable": 8, "Underdetermined": 6, "NotAnLModule": 4}


def test_infer_l_converts_its_table_once(monkeypatch):
    # the table infer_L infers is converted to integer terms once, at the
    # widest window of its check, not widened window by window as it runs
    rng = random.Random(0x1F0)
    for s in (1, 2, 3):
        g = rand_gamma(rng, s_exact=s)
        basis = _monomial_basis(g, 8)
        builds = []
        with monkeypatch.context() as mp:
            over = gamma._over  # called once per build of the table's terms
            mp.setattr(gamma, "_over", lambda parts: builds.append(len(parts)) or over(parts))
            got = infer_L(basis, s, 8)
        assert got == g and len(builds) == 1


def test_infer_l_reads_every_cell_off_the_stored_triples(monkeypatch):
    # both systems read each coordinate's Z[i] triple, never UniPoly.coeff
    reads = []
    coeff = UniPoly.coeff
    monkeypatch.setattr(UniPoly, "coeff", lambda f, k: reads.append(k) or coeff(f, k))
    for basis, s, bound in _seeded_infer_cases():
        _answer(lambda: infer_L(basis, s, bound))
    assert reads == []


def test_infer_l_calls_rref_from_spans_and_from_operators(monkeypatch):
    # a traced infer-roundtrip benchmark run needs rref reached from both
    # layers: once through span_rows for the seed prefixes, once from
    # operators for the augmented system, when the table is unique
    calls = []
    for module in (spans, operators):
        real = module.rref
        spy = lambda rows, cancel=None, name=module.__name__, real=real: calls.append(name) or real(rows, cancel)
        monkeypatch.setattr(module, "rref", spy)
    rng = random.Random(0x7AC)
    for s in (1, 2, 3):
        g = rand_gamma(rng, s_exact=s)
        calls.clear()
        assert infer_L(_monomial_basis(g, 8), s, 8) == g
        assert calls == ["polymod.spans", "polymod.operators"]


def _nonclosed_span(rng):
    """(basis, s, deg_bound) of a seeded random span, real or Gaussian: random
    BiPolys, or elements generated from a random table, closed under both
    partials or not; s is the table's width half the time."""
    gaussian = rng.random() < 0.5
    s, bound = rng.randint(1, 3), rng.randint(1, 5)
    kind = rng.choice(("bipoly", "generated", "closed"))
    if kind == "bipoly":
        return [rand_bipoly(rng, rng.randint(0, 5), rng.randint(0, 4), gaussian) for _ in range(rng.randint(1, 5))], s, bound
    g = rand_gamma(rng, max_s=3, max_j=3)
    seeds = lambda: [rand_unipoly(rng, 4, gaussian) if rng.random() < 0.7 else UniPoly.zero() for _ in range(g.s)]
    basis = [generate(g, seeds()) for _ in range(rng.randint(1, 4))]
    return derivative_closure(basis) if kind == "closed" else basis, g.s if rng.random() < 0.5 else s, bound


def _answer(call):
    try:
        return "GammaTable", call()
    except NotAnLModule as exc:
        return "NotAnLModule", str(exc), exc.witness
    except Underdetermined as exc:
        return "Underdetermined", str(exc), exc.free_slots


def _full_system_answer(basis, s, bound):
    """infer_L's answer from the prefix check, then one rref of every
    equation of every nonzero basis element, augmented by its right side."""
    frame, reduced = span_rows(list(basis))
    witness = _witness(frame, reduced, s)
    if witness is not None:
        raise NotAnLModule(
            f"a nonzero element of the span vanishes in its first {s} coordinates, "
            f"so coordinate {s} is not determined by the seed prefix",
            witness=witness,
        )
    slots = [(i, j) for j in range(1, bound + 1) for i in range(1, s + 1)]
    rows = _reference_system(basis, s, bound)
    if not rows:
        raise Underdetermined("the span pins no coefficient slot", free_slots=slots)
    red, pivots = linalg.rref(rows)
    outcome = _outcome(pivots, len(slots))
    if outcome == "inconsistent":
        raise NotAnLModule(f"no operator table of the requested shape reproduces coordinate {s} across the span within the truncation")
    if outcome == "free":
        raise Underdetermined("the span leaves coefficient slots free", free_slots=[sl for c, sl in enumerate(slots) if c not in pivots])
    return GammaTable(s, {slot: row[len(slots)] for slot, row in zip(slots, red)})


def test_infer_l_answers_like_the_full_system_on_spans_not_closed(monkeypatch):
    """Equation 0 of each reduced row spans the system only on spans closed
    under d/dx; on every other span the recursion check or the full solve
    must give the full system's answer, error, message, free slots and
    witness included. The corpus reaches every path."""
    paths = Counter()
    for draw in range(500):
        basis, s, bound = _nonclosed_span(random.Random(f"infer-nonclosed-{draw}"))
        sols = []

        def rref(rows, cancel=None):
            out = linalg.rref(rows, cancel)
            sols.append(_outcome(out[1], s * bound))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(operators, "rref", rref)
            got = _answer(lambda: infer_L(basis, s, bound))
        assert got == _answer(lambda: _full_system_answer(basis, s, bound)), (draw, s, bound)
        first = sols[0] if sols else "unsolved"
        paths[first, got[0]] += 1
    assert {path for path, n in paths.items() if n >= 10} >= {
        ("unique", "GammaTable"),
        ("unique", "NotAnLModule"),  # the recursion check fails
        ("inconsistent", "NotAnLModule"),
        ("free", "GammaTable"),
        ("free", "NotAnLModule"),
        ("free", "Underdetermined"),
    }, paths


def test_infer_l_tables_are_killed_by_their_operator():
    """Q_g = d^s/dy^s - sum a_ij d^j/dx^j d^(i-1)/dy^(i-1), applied by sympy,
    kills every basis element of each seeded real and Gaussian round trip."""
    cases = [(basis, s, bound) for basis, s, bound in _seeded_infer_cases() if bound == 4 and s < 3]
    for draw in range(6):
        rng = random.Random(f"infer-oracle-{draw}")
        g = rand_gamma(rng, max_s=3, max_j=3)
        if draw % 2:
            g = GammaTable(g.s, {k: a * CoeffQ(Fraction(1, 2), 1) for k, a in g.entries.items()})
        cases.append((_monomial_basis(g, 3), g.s, 3))
    for basis, s, bound in cases:
        table = infer_L(basis, s, bound)
        assert table.entries and all(sym.q_gamma(table, F) == 0 for F in basis)


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


def ref_nilpotent_chains(mat):
    """The earlier greedy selection, kept as a reference: one residual per
    kernel candidate, one rref per chain added, and one product per chain
    image and per basis vector, each on sympy. Its matrices stay sparse
    DomainMatrix, over QQ when D is real and QQ_I otherwise, from D's
    conversion to the answer's; the powers are those of D's numerator matrix
    over ZZ or ZZ_I, which have D^k's kernels, and a chain's image at each
    height is its image one height up times D."""
    D = [[CoeffQ.of(c) for c in row] for row in mat]
    n = len(D)
    if n == 0:
        return ChainDecomposition(dim=0, chains=(), basis_vectors=())
    Dm = sym.to_domain(D, QQ if all(c.im == 0 for row in D for c in row) else QQ_I).to_sparse()
    K, Dt = Dm.domain, Dm.transpose()  # rows: v D^T is (D v)^T

    def rows(vecs):
        return DomainMatrix([list(v) for v in vecs], (len(vecs), n), K).to_sparse()

    def reduce(vecs):  # the nonzero RREF rows of vecs, and their pivots
        red, pivots = rows(vecs).rref()
        return red[: len(pivots), :], list(pivots)

    _den, N = Dm.clear_denoms(convert=True)
    powers = [N]  # powers[t] = N^(t+1)
    while not powers[-1].is_zero_matrix:
        powers.append(powers[-1] * N)
    kernels = [[]] + [P.convert_to(K).nullspace(divide_last=True).to_list() for P in powers]
    chains = []  # (u, length), u a list of K elements
    images = []  # D^(length - k) u of each chain at the current height k
    for k in range(len(powers), 0, -1):
        red, pivots = reduce(kernels[k - 1] + images)
        for cand in kernels[k]:
            c = rows([cand])
            if not (c - c.extract([0], pivots) * red).is_zero_matrix:
                chains.append((cand, k))
                images.append(cand)
                red, pivots = reduce(red.to_list() + [cand])
        images = (rows(images) * Dt).to_list() if images else []
    basis_vectors = []
    for u, length in chains:
        v = rows([u])
        for _ in range(length):
            basis_vectors.append(tuple(sym.from_domain(v)[0]))
            v = v * Dt
    chains = tuple((tuple(sym.from_domain(rows([u]))[0]), k) for u, k in chains)
    return ChainDecomposition(dim=n, chains=chains, basis_vectors=tuple(basis_vectors))


def _conjugate(rng, D, gaussian=True):
    """L D L^-1 for a unit lower triangular L with Gaussian-integer entries,
    or integer entries when gaussian is False."""
    n = len(D)
    L = [
        [CoeffQ.of(1) if c == r else (CoeffQ(rng.randint(-2, 2), rng.randint(-2, 2) if gaussian else 0) if c < r else CoeffQ.of(0)) for c in range(n)]
        for r in range(n)
    ]
    return dense_product(dense_product(L, D), invert(L))


def _permuted_jordan(rng, sizes):
    """Q J Q^-1 for the nilpotent Jordan form J with the given block sizes
    and a random permutation Q: the chain steps are scattered, so the pivot
    columns of D^k are not its leading columns."""
    n = sum(sizes)
    starts = {sum(sizes[:b]) for b in range(len(sizes))}
    perm = rng.sample(range(n), n)
    step = {perm[r]: perm[r + 1] for r in range(n - 1) if r + 1 not in starts}
    return [[CoeffQ.of(1 if step.get(r) == c else 0) for c in range(n)] for r in range(n)]


@cache
def _chain_corpus():
    rng = random.Random(29)
    out = []
    for n in range(1, 10):
        for _ in range(3):
            D = rand_nilpotent(rng, n)
            out.extend([D, _conjugate(rng, D)])
    out.append([[0] * 4 for _ in range(4)])
    out.append([[1 if c == r + 1 else 0 for c in range(5)] for r in range(5)])
    out.extend(quotient_derivation(s, k, d) for s, k, d in [(1, 4, 0), (2, 4, 1), (3, 5, 2), (2, 5, 1), (1, 6, 0), (3, 4, 0)])
    # repeated block sizes put several generators at one height
    for sizes in [(2, 2, 1), (3, 3, 1, 1), (2, 2, 2, 2), (4, 4, 2), (3, 3, 3, 1, 1), (2, 2, 2, 2, 2, 2), (5, 5, 1, 1)]:
        J = _permuted_jordan(rng, sizes)
        out.extend([J, _conjugate(rng, J, gaussian=False), _conjugate(rng, J)])
    return tuple(out)


@cache
def _chain_references():
    """ref_nilpotent_chains of each corpus matrix, computed once for every test that reads it."""
    return tuple(ref_nilpotent_chains(D) for D in _chain_corpus())


def test_nilpotent_chains_matches_the_greedy_reference():
    for D, want in zip(_chain_corpus(), _chain_references()):
        got = nilpotent_chains(D)
        assert got.dim == want.dim
        assert got.chains == want.chains
        assert got.basis_vectors == want.basis_vectors


@pytest.mark.parametrize("gaussian", (False, True))
def test_nilpotent_chains_matches_the_greedy_reference_at_n_16_to_24(gaussian):
    # past the corpus's dimensions and perfbench's, where the chained eliminations' numbers grow
    rng = random.Random(f"chains-reference-{gaussian}")
    D = rand_nilpotent(rng, rng.randint(16, 24))
    if gaussian:
        D = _conjugate(rng, D)
    got, want = nilpotent_chains(D), ref_nilpotent_chains(D)
    assert (got.dim, got.chains, got.basis_vectors) == (want.dim, want.chains, want.basis_vectors)


def test_nilpotent_chains_makes_at_most_2p_minus_1_products(monkeypatch):
    # D^2..D^p, then one step of every chain per height: 2p - 1 products in all
    cases = [(D, max(length for _u, length in ref.chains)) for D, ref in zip(_chain_corpus(), _chain_references())]
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
    # D in, its transpose built from those rows; each basis vector out, and
    # each chain generator read off its chain's first basis vector
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
        assert calls == {"_numerators": 1, "_dense": dec.dim}


def test_nilpotent_chains_eliminates_at_most_n_rows_of_n_columns(monkeypatch):
    # kernels come from the rank(D^k) reduced rows, and each height's
    # elimination works in the free columns of D^k, so no system outgrows D
    shapes = []  # (number of rows, largest column key) of each eliminate call
    real = operators.eliminate

    def spy(rows, *args, **kwargs):
        shapes.append((len(rows), max((j for _den, row in rows for j in row), default=-1)))
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(operators, "eliminate", spy)
    for D in _chain_corpus():
        shapes.clear()
        nilpotent_chains(D)
        n = len(D)
        assert shapes and all(rows <= n and key < n for rows, key in shapes)


def test_nilpotent_chains_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_chains([[1, 0], [0, 1]])
    with pytest.raises(NotNilpotent):
        nilpotent_chains([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        nilpotent_chains([[0, 1]])


@pytest.mark.parametrize("mat", [[[False, True], [False, False]], [[0, True], [0, 0]], [[0, 1], [False, 0]]])
def test_nilpotent_chains_refuses_boolean_entries(mat):
    # bool is an int subclass, so CoeffQ.of used to read True as 1 and return a chain
    with pytest.raises(TypeError, match="booleans are not rationals"):
        nilpotent_chains(mat)


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

    for name in ("eliminate", "product"):
        monkeypatch.setattr(operators, name, spy(name, getattr(operators, name)))
    for D in (quotient_derivation(2, 5, 1), rand_nilpotent(rng, 6)):
        finished.clear()
        token = _Token()
        nilpotent_chains(D, cancel=token)
        # every eliminate and product it runs polls the token
        assert {name for name, _polls in finished} == {"eliminate", "product"}
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


def test_nilpotent_chains_polls_once_per_basis_vector_it_makes_dense(monkeypatch):
    # after its last elimination nilpotent_chains makes each of the n basis
    # vectors dense; each conversion must follow a poll of its own
    since, worst = [0], []  # _dense calls since the last poll; the most seen per matrix
    real = operators._dense

    def spy(*args):
        since[0] += 1
        return real(*args)

    class _Token:
        def check(self):
            worst[-1] = max(worst[-1], since[0])
            since[0] = 0

    monkeypatch.setattr(operators, "_dense", spy)
    rng = random.Random(0x38)
    for n in (8, 16, 24):
        D = rand_nilpotent(rng, n)
        want = nilpotent_chains(D)
        since[0] = 0
        worst.append(0)
        assert nilpotent_chains(D, _Token()) == want
        worst[-1] = max(worst[-1], since[0])
    assert worst == [1, 1, 1]


def test_kernel_reads_poll_the_callers_token(monkeypatch):
    # nilpotent_chains and _witness pass their token to _kernel, which polls
    # once per free column: a zero matrix's kernel has every column free
    tokens = []
    real = operators._kernel
    monkeypatch.setattr(operators, "_kernel", lambda *args: tokens.append(args[3]) or real(*args))
    token = _CountingToken()
    nilpotent_chains([[CoeffQ(0)] * 30 for _ in range(30)], cancel=token)
    assert tokens == [token] and token.calls >= 30
    tokens.clear()
    assert order_of_sum_report(GS, GammaTable(1), 4, cancel=token).refuted[0][1] is not None
    assert tokens == [token]


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


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("args, message", [
    (lambda bad: (bad, 3, 1), "s must be a positive int"),
    (lambda bad: (1, bad, 0), "need k > d >= 0"),
    (lambda bad: (1, 3, bad), "need k > d >= 0"),
], ids=["s", "k", "d"])
def test_quotient_derivation_rejects_bools_and_floats(args, message, bad):
    with pytest.raises(ValueError) as exc:
        quotient_derivation(*args(bad))
    assert str(exc.value) == message


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
    with pytest.raises(UnsupportedExpr):
        canonical_split(Sum(MGamma(GS), MGamma(GS)))


def test_canonical_split_reads_the_expression(monkeypatch):
    # (d, g.s) follows from the shape alone: no membership probe, no recursion
    def fail(*_args, **_kwargs):
        raise AssertionError("canonical_split ran membership code")

    for name in ("contains", "_recur"):
        monkeypatch.setattr(modules, name, fail)
    monkeypatch.setattr(gamma, "_recur", fail)
    g = GammaTable(3, {(1, 2): 5, (3, 1): CoeffQ(0, 1)})
    assert canonical_split(Sum(Md(4), MGamma(g))) == (4, 3)
    assert canonical_split(Sum(MGamma(g), Md(0))) == (0, 3)
