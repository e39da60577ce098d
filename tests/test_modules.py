import json
import random

import pytest
from sympy import QQ, QQ_I, diff, symbols
from sympy.polys.matrices import DomainMatrix

from polymod import (
    BiPoly,
    CancelToken,
    Cancelled,
    CoeffQ,
    FiniteGen,
    GammaTable,
    MGamma,
    Md,
    Sum,
    UniPoly,
    UnsupportedExpr,
    contains,
    default_deg_bound,
    derivative_closure,
    dilated_shift_table,
    generate,
    shift_invariance_table,
    v_space,
)

from polymod import linalg, modules, spans
from polymod import serialize as ser
from polymod.linalg import _dense, _kernel, _numerators, eliminate, product, rref
from polymod.modules import VSpaceBasis
from polymod.poly import NEG_INF
from polymod.spans import in_span, span_reduce, span_rows

import sympy_oracle as sym
from conftest import rand_bipoly, rand_gamma, rand_rational, rand_unipoly
from test_linalg import _CountingToken
from test_spans import _PollSpy

X2Y = BiPoly.monomial(2, 1)


def test_derivative_closure_monomial():
    basis = derivative_closure([X2Y])
    assert len(basis) == 6
    expected = [
        BiPoly.monomial(i, j)
        for i in range(3)
        for j in range(2)
        if (i, j) != (2, 1)
    ] + [X2Y]
    for mono in expected:
        assert contains(FiniteGen([X2Y]), mono)


def test_derivative_closure_edges():
    assert derivative_closure([BiPoly([UniPoly([1])])]) == [
        BiPoly([UniPoly([1])])
    ]
    assert derivative_closure([]) == []
    assert derivative_closure([BiPoly.zero()]) == []


def test_derivative_closure_polls_once_per_partial_before_it_reduces(monkeypatch):
    seen = []  # (partials, polls made before the reduction starts)
    real = modules.span_reduce

    def spy(polys, cancel=None):
        seen.append((len(polys), cancel.calls))
        return real(polys, cancel=cancel)

    # x^2 y has the six partials x^2 y, 2xy, 2y, x^2, 2x and 2
    want = derivative_closure([X2Y])
    monkeypatch.setattr(modules, "span_reduce", spy)
    assert derivative_closure([X2Y], _CountingToken()) == want
    assert seen[-1] == (6, 6)
    for n in range(1, 7):
        seen.clear()
        with pytest.raises(Cancelled):
            derivative_closure([X2Y], _CountingToken(fire_at=n))
        assert seen == []


def test_derivative_closure_idempotent(rng):
    for _ in range(15):
        gens = [rand_bipoly(rng, 3, 2) for _ in range(2)]
        once = derivative_closure(gens)
        again = derivative_closure(once)
        assert [str(b) for b in once] == [str(b) for b in again]


def _fixpoint_closure(gens):
    """The earlier closure, kept as a reference: differentiate the basis and
    reduce again until the dimension stops growing."""
    basis = span_reduce(list(gens))
    while True:
        images = [d for f in basis for d in (f.d_dx(), f.d_dy())]
        bigger = span_reduce(basis + images)
        if len(bigger) == len(basis):
            return bigger
        basis = bigger


def _closure_corpus():
    """30 seeded real and 30 seeded Gaussian generator lists."""
    rng = random.Random(31)
    for complex_ok in (False, True):
        for _ in range(30):
            yield [rand_bipoly(rng, rng.randint(0, 5), rng.randint(0, 4), complex_ok) for _ in range(rng.randint(1, 3))]


def _qq_i(c):
    return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))


def _sympy_rank(polys):
    """Rank over QQ_I of the polynomials' coefficient vectors."""
    cells = sorted({(i, n) for p in polys for n, f in enumerate(p.coords) for i in range(len(f.coeffs))})
    if not cells:
        return 0
    rows = [[_qq_i(p.coord(n).coeff(i)) for i, n in cells] for p in polys]
    return DomainMatrix(rows, (len(rows), len(cells)), QQ_I).rank()


def test_derivative_closure_matches_the_fixpoint_loop():
    for gens in _closure_corpus():
        assert derivative_closure(gens) == _fixpoint_closure(gens)


def test_derivative_closure_dimension_matches_sympy_rank():
    for gens in _closure_corpus():
        partials = [
            g.d_dx(a).d_dy(b)
            for g in gens
            if not g.is_zero()
            for a in range(int(g.deg_x) + 1)
            for b in range(int(g.deg_y) + 1)
        ]
        assert len(derivative_closure(gens)) == _sympy_rank(partials)


def test_derivative_closure_is_closed_under_both_partials_in_sympy():
    # sympy differentiates the monomial form F = sum_n f_n(x) y^n / n! on its
    # own: a closure that drops the partials in y or x, or reads the
    # coordinate convention wrong, raises the rank past the basis size
    x, y = symbols("x y")
    for gens in _closure_corpus():
        basis = [sym.monomial_form(F) for F in derivative_closure(gens)]
        images = [diff(P, v) for P in basis for v in (x, y)]
        spanned = basis + [sym.monomial_form(g) for g in gens] + images
        assert sym.poly_rank(basis) == len(basis) == sym.poly_rank(spanned)


def test_closure_of_large_generators_finishes_under_a_timeout():
    # a closure of dimension 122: one reduction builds it in well under a second
    rng = random.Random(5)
    gens = [rand_bipoly(rng, 12, 10) for _ in range(3)]
    assert len(derivative_closure(gens, CancelToken(20))) == 122


def test_closure_members_contained(rng):
    for _ in range(10):
        gens = [rand_bipoly(rng, 3, 2) for _ in range(2)]
        M = FiniteGen(gens)
        for b in M.basis:
            assert contains(M, b)
        for g in gens:
            assert contains(M, g.d_dx()) and contains(M, g.d_dy())


def test_contains_md_examples():
    res = contains(Md(1), BiPoly.monomial(0, 5))
    assert res and res.certificate["reason"] == "degree-bound"
    bad = contains(Md(1), BiPoly.monomial(1, 2))
    assert not bad
    assert bad.certificate["offending"] == [{"n": 2, "deg_x": 1}]


def test_contains_md_iff_small_x_degree(rng):
    for _ in range(30):
        F = rand_bipoly(rng, 3, 3)
        for d in range(5):
            expect = F.is_zero() or F.deg_x < d
            assert bool(contains(Md(d), F)) == expect


def test_contains_md_plus_gamma_example():
    M = Sum(Md(1), MGamma(shift_invariance_table()))
    res = contains(M, BiPoly.monomial(1, 1))
    assert not res
    assert res.certificate["reason"] == "sum-residual"
    assert res.certificate["offending"]
    # x itself lies in the recursion part, x*y does not
    assert contains(M, BiPoly([UniPoly.monomial(1)]))


def test_contains_md_plus_gamma_positive(rng):
    # F = (member of M_d) + (recursion tail) must come back True exactly
    for _ in range(15):
        g = rand_gamma(rng)
        d = rng.randint(1, 3)
        low = rand_bipoly(rng, d - 1, 3)
        tail = generate(g, [rand_unipoly(rng, 3) for _ in range(g.s)])
        assert contains(Sum(Md(d), MGamma(g)), low + tail)


def test_contains_finite_gen_examples():
    M = FiniteGen([X2Y])
    assert not contains(M, BiPoly.monomial(3, 0))
    res = contains(M, BiPoly.monomial(2, 0))
    assert res and res.certificate["reason"] == "span-combination"


def test_contains_mgamma_wraps_certificate():
    res = contains(MGamma(shift_invariance_table()), BiPoly([UniPoly.monomial(1)]))
    assert not res and res.certificate["reason"] == "recursion-mismatch"
    gen = generate(shift_invariance_table(), [UniPoly.monomial(2)])
    assert contains(MGamma(shift_invariance_table()), gen)


def test_contains_zero_module():
    zero = FiniteGen(())
    assert zero.basis == ()
    assert contains(zero, BiPoly.zero())
    assert not contains(zero, BiPoly([UniPoly.monomial(1)]))


def test_contains_sum_of_spans():
    M = Sum(FiniteGen([BiPoly([UniPoly.monomial(1)])]), MGamma(shift_invariance_table()))
    gen = generate(shift_invariance_table(), [UniPoly.monomial(2)])
    res = contains(M, gen + BiPoly([UniPoly.monomial(1)]).scale(CoeffQ.of(3)))
    assert res
    assert res.certificate["truncated"] is True
    assert not contains(M, BiPoly.monomial(4, 4), deg_bound=3)


def test_contains_unsupported_shapes():
    F = BiPoly.zero()
    with pytest.raises(UnsupportedExpr):
        contains(Sum(Md(1), Md(2)), F)
    with pytest.raises(UnsupportedExpr):
        contains(Sum(Md(1), FiniteGen([X2Y])), F)
    with pytest.raises(UnsupportedExpr):
        contains("bogus", F)


def test_sum_flattening_and_arity():
    inner = Sum(Md(1), MGamma(shift_invariance_table()))
    outer = Sum(inner, Md(2))
    assert len(outer.parts) == 3
    with pytest.raises(ValueError):
        Sum(Md(1))
    with pytest.raises(ValueError):
        Md(True)


def test_v_space_gamma_module():
    vb = v_space(MGamma(shift_invariance_table()), 1, deg_bound=3)
    assert vb.s == 1 and vb.deg_bound == 3
    assert sorted(str(t[0]) for t in vb.tuples) == ["1", "x", "x^2"]


def test_v_space_finite_gen():
    vb = v_space(FiniteGen([BiPoly.monomial(0, 1)]), 1)
    assert [str(t[0]) for t in vb.tuples] == ["1"]


def test_v_space_cuts_the_joint_span():
    # x^2 + x*y and x^2 each reach x-degree 2; only their difference x*y,
    # with seed prefix (0, x), lies below the bound
    a = FiniteGen([BiPoly([UniPoly.monomial(2), UniPoly.monomial(1)])])
    b = FiniteGen([BiPoly.monomial(2, 0)])
    tuples = {
        name: [tuple(str(f) for f in t) for t in v_space(M, 2, deg_bound=2).tuples]
        for name, M in (("sum", Sum(a, b)), ("a", a), ("b", b))
    }
    assert tuples == {
        "sum": [("x", "0"), ("0", "x"), ("1", "0"), ("0", "1")],
        "a": [("x", "0"), ("1", "0"), ("0", "1")],
        "b": [("x", "0"), ("1", "0")],
    }


def test_v_space_keeps_everything_below_a_high_bound():
    assert len(v_space(FiniteGen([BiPoly.monomial(0, 0), BiPoly.monomial(0, 1)]), 2, deg_bound=1).tuples) == 2
    # every element of the closure of x^2*y has x-degree < 3, and two slots tell them apart
    fin = FiniteGen([X2Y])
    for bound in (3, 4, 9):
        assert v_space(fin, 2, deg_bound=bound).tuples == v_space(fin, 2, deg_bound=3).tuples
        assert len(v_space(fin, 2, deg_bound=bound).tuples) == len(fin.basis) == 6


def test_v_space_md_width_two():
    vb = v_space(Md(2), 2, deg_bound=2)
    assert len(vb.tuples) == 4


def test_v_space_closed_under_differentiation(rng):
    # the seed-prefix space of a module is closed under d/dx componentwise
    for _ in range(10):
        g = rand_gamma(rng)
        vb = v_space(MGamma(g), g.s, deg_bound=4)
        tuples = [BiPoly(t) for t in vb.tuples]
        derived = [BiPoly(tuple(f.derivative() for f in t)) for t in vb.tuples]
        assert _sympy_rank(tuples) == _sympy_rank(tuples + derived)


def test_v_space_validation():
    with pytest.raises(ValueError):
        v_space(Md(1), 0)
    with pytest.raises(UnsupportedExpr):
        v_space("nope", 1)


def _no_work(*args, **kwargs):
    raise AssertionError("the module was read before the arguments were checked")


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize("call, message", [
    (lambda M, bad: v_space(M, bad), "s must be a positive int"),
    (lambda M, bad: v_space(M, 1, deg_bound=bad), "deg_bound must be >= 1"),
    (lambda M, bad: contains(M, X2Y, deg_bound=bad), "deg_bound must be >= 1"),
], ids=["v_space-s", "v_space-deg_bound", "contains-sum-deg_bound"])
def test_int_arguments_reject_bools_and_floats_before_any_work(call, message, bad, monkeypatch):
    M = Sum(FiniteGen([X2Y]), MGamma(shift_invariance_table()))
    for name in ("default_deg_bound", "_sum_candidates", "in_span", "rref"):
        monkeypatch.setattr(modules, name, _no_work)
    with pytest.raises(ValueError) as exc:
        call(M, bad)
    assert str(exc.value) == message


class _TupleFrame:
    """The frame v_space reduced seed tuples on before they became
    polynomials, kept as a reference: s slots of x-degree < bound, cells
    sorted by higher x-power first, then lower slot."""

    def __init__(self, s, bound):
        self.s = s
        self.bound = bound
        cells = [(i, m) for m in range(bound) for i in range(s)]
        cells.sort(key=lambda c: (-c[1], c[0]))
        self.index = {c: k for k, c in enumerate(cells)}

    def to_vec(self, tup):
        v = [CoeffQ(0)] * len(self.index)
        for i, f in enumerate(tup):
            if f.degree != NEG_INF and f.degree >= self.bound:
                raise ValueError("tuple component exceeds frame degree bound")
            for m, c in enumerate(f.coeffs):
                if not c.is_zero():
                    v[self.index[(i, m)]] = c
        return v

    def from_vec(self, v):
        comps = [[CoeffQ(0)] * self.bound for _ in range(self.s)]
        for (i, m), k in self.index.items():
            if not v[k].is_zero():
                comps[i][m] = v[k]
        return tuple(UniPoly(c) for c in comps)


def _tuple_span_reduce(tuples, s, bound):
    tuples = [t for t in tuples if any(not f.is_zero() for f in t)]
    if not tuples:
        return []
    frame = _TupleFrame(s, bound)
    rows, _ = rref([frame.to_vec(t) for t in tuples])
    return [frame.from_vec(r) for r in rows]


def _restrict_degree(polys, bound):
    """Reduced basis of {p in span(polys) : deg_x p < bound}, cut on the joint
    span of a graded frame: its rref rows, the combinations of them that
    vanish on every cell of x-degree >= bound (one per kernel vector of the
    rows restricted to those cells), and an rref of those."""
    frame, rows = span_rows(polys)
    high = [k for (i, _n), k in frame.index.items() if i >= bound]
    if high:
        kernel = _kernel(*eliminate(_numerators([[v[k] for v in rows] for k in high])), len(rows))
        rows, _ = rref([_dense(row, den, len(rows[0])) for den, row in product(kernel, _numerators(rows))])
    return [frame.from_vec(r) for r in rows]


def _v_space_on_tuple_frames(M, s, deg_bound=None):
    """v_space as it was: the seed prefixes of the graded degree cut reduced
    on a _TupleFrame."""
    bound = deg_bound if deg_bound is not None else default_deg_bound(M)
    parts = M.parts if isinstance(M, Sum) else (M,)
    cands, _ = modules._sum_candidates(parts, s, bound, None)
    elements = _restrict_degree(cands, bound)
    tuples = _tuple_span_reduce([modules.phi(F, s) for F in elements], s, bound)
    return VSpaceBasis(s=s, deg_bound=bound, tuples=tuple(tuples))


def _gaussian_table(rng):
    g = rand_gamma(rng)
    return GammaTable(g.s, {k: a * CoeffQ(rand_rational(rng), rng.choice([-2, -1, 1, 2])) for k, a in g.entries.items()})


def _v_space_cases():
    """84 seeded (M, s, deg_bound): each of seven module shapes under every
    s in 1..3 and deg_bound in 2..4 or the default."""
    rng = random.Random(0x5EED5)
    cases = []
    for k in range(72):
        table = _gaussian_table(rng) if k % 2 else rand_gamma(rng)
        # generators past any bound below 5, with random lower parts
        fin = FiniteGen([BiPoly.monomial(5, rng.randint(0, 2)) + rand_bipoly(rng, 3, 2), rand_bipoly(rng, 4, 1)])
        M = [
            MGamma(rand_gamma(rng)),
            MGamma(table),
            fin,
            Sum(Md(rng.randint(0, 3)), MGamma(table)),
            Sum(fin, MGamma(table)),
            Md(rng.randint(0, 4)),
        ][k % 6]
        cases.append((M, 1 + (k // 6) % 3, [2, 3, 4, None][(k // 6) % 4]))
    # two FiniteGen parts whose generators share a part past every bound,
    # so some of their differences fall below it only on the joint span
    rng = random.Random(0x5EED6)
    for k in range(12):
        high = BiPoly.monomial(5, rng.randint(0, 2))
        M = Sum(
            FiniteGen([high + rand_bipoly(rng, 3, 2)]),
            FiniteGen([high + rand_bipoly(rng, 3, 2), rand_bipoly(rng, 4, 1)]),
        )
        cases.append((M, 1 + k % 3, [2, 3, 4, None][k % 4]))
    return cases


def test_v_space_runs_one_elimination_and_no_kernel(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    # every binding site, so a call through spans or a linalg helper counts too
    # (setattr raises on a missing name, so a rename cannot shrink the spy)
    cores = ("rref", "product")
    for mod, names in ((linalg, cores + ("_kernel",)), (spans, cores), (modules, ("rref",))):
        for name in names:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for M, s, bound in _v_space_cases():
        calls.clear()
        v_space(M, s, deg_bound=bound)
        assert calls == ["rref"], (M, s, bound)


def test_v_space_matches_the_tuple_frame_reduction():
    dims = []
    for M, s, bound in _v_space_cases():
        got = ser.dumps(ser.vspace_to_json(v_space(M, s, deg_bound=bound)))
        want = ser.dumps(ser.vspace_to_json(_v_space_on_tuple_frames(M, s, bound)))
        assert got == want, (M, s, bound)
        dims.append(len(json.loads(got)["basis"]))
    # most cases reduce several independent prefixes
    assert sum(d >= 2 for d in dims) >= 50


def test_is_translation_invariant_examples():
    # a span is translation invariant iff its closure adds nothing to it
    one = BiPoly([UniPoly([1])])
    x = BiPoly([UniPoly.monomial(1)])
    y = BiPoly.monomial(0, 1)
    assert len(derivative_closure([one, x, y])) == len(span_reduce([one, x, y])) == 3
    assert len(derivative_closure([BiPoly.monomial(2, 0)])) > len(span_reduce([BiPoly.monomial(2, 0)]))
    assert len(derivative_closure([])) == len(span_reduce([])) == 0


def test_closures_are_translation_invariant(rng):
    # exact shifts by fixed-seed Gaussian (a, b) cross-check the closure test
    shift_rng = random.Random(0x5EED)
    shifts = [
        (CoeffQ(rand_rational(shift_rng), rand_rational(shift_rng)), CoeffQ(rand_rational(shift_rng), rand_rational(shift_rng)))
        for _ in range(3)
    ]
    for _ in range(10):
        gens = [rand_bipoly(rng, 2, 2)]
        basis = derivative_closure(gens)
        assert len(derivative_closure(basis)) == len(span_reduce(basis))
        for a, b in shifts:
            assert all(in_span(f.shift(a, b), basis)[0] for f in basis)


def test_separating_probe_within_combined_order():
    # a monomial x^d1 * y^s with s <= s1 + s2 + 2 tells the two sums apart
    pairs = [
        (1, shift_invariance_table(), 2, GammaTable(1)),
        (0, GammaTable(2), 3, dilated_shift_table(2)),
    ]
    for d1, g1, d2, g2 in pairs:
        assert d1 < d2
        small = Sum(Md(d1), MGamma(g1))
        large = Sum(Md(d2), MGamma(g2))
        budget = g1.s + g2.s + 2
        hit = None
        for s in range(budget + 1):
            probe = BiPoly.monomial(d1, s)
            if not contains(small, probe) and contains(large, probe):
                hit = s
                break
        assert hit is not None


def test_truncated_sum_membership_refuses_a_bound_below_one():
    g = shift_invariance_table()
    mixed = Sum(FiniteGen([BiPoly([UniPoly.monomial(1)])]), MGamma(g))
    F = BiPoly.monomial(1, 0)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="deg_bound must be >= 1"):
            contains(mixed, F, deg_bound=bound)
    assert contains(mixed, F, deg_bound=1)
    # the exact shapes never read the bound
    for M in (Md(2), MGamma(g), FiniteGen([X2Y]), Sum(Md(1), MGamma(g))):
        assert contains(M, F, deg_bound=0) == contains(M, F)


def test_default_deg_bound_scans_structure():
    M = Sum(Md(3), MGamma(GammaTable(2)))
    assert default_deg_bound(M) == 4
    assert default_deg_bound(M, BiPoly.monomial(5, 1)) == 6
    assert default_deg_bound(FiniteGen([X2Y])) == 3


def test_finitegen_polls_inside_its_closure_and_cancels_cleanly(monkeypatch):
    spy = _PollSpy(monkeypatch, modules, ["span_reduce"])
    gens = [X2Y, BiPoly([UniPoly([CoeffQ(1), CoeffQ(0, 2)]), UniPoly.monomial(3)])]
    token = spy.token()
    want = FiniteGen(gens, token)
    # the closure is one reduction, and it polls the token while it runs
    assert len(spy.finished) == 1 and spy.finished[0][1] > 0
    assert want.basis == FiniteGen(gens).basis
    for n in range(1, token.calls + 1):
        stub = _CountingToken(fire_at=n)
        with pytest.raises(Cancelled):
            FiniteGen(gens, stub)
        assert stub.calls == n
    assert FiniteGen(gens, _CountingToken(fire_at=token.calls + 1)).basis == want.basis


def test_contains_and_v_space_pass_their_token_to_the_span_reductions(monkeypatch):
    spy = _PollSpy(monkeypatch, modules, ["in_span", "rref"])
    fin = FiniteGen([X2Y])
    table = shift_invariance_table()
    mixed = Sum(FiniteGen([BiPoly([UniPoly.monomial(1)])]), MGamma(table))
    member = generate(table, [UniPoly.monomial(2)]) + BiPoly([UniPoly.monomial(1)]).scale(CoeffQ.of(3))
    runs = [
        (lambda tok: contains(fin, BiPoly.monomial(2, 0), cancel=tok), ["in_span"]),
        (lambda tok: contains(fin, BiPoly.monomial(3, 0), cancel=tok), ["in_span"]),
        (lambda tok: contains(mixed, member, cancel=tok), ["in_span"]),
        (lambda tok: v_space(fin, 2, cancel=tok), ["rref"]),
        (lambda tok: v_space(Sum(Md(2), mixed), 2, deg_bound=3, cancel=tok), ["rref"]),
    ]
    for run, names in runs:
        spy.finished.clear()
        token = spy.token()
        want = run(token)
        # each span reduction polls the token while it runs
        assert [name for name, _polls in spy.finished] == names
        assert all(polls for _name, polls in spy.finished)
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                run(stub)
            assert stub.calls == n
        assert run(_CountingToken(fire_at=token.calls + 1)) == want


def test_mgamma_membership_polls_once_per_coordinate_and_cancels_cleanly():
    # contains hands its token to mgamma_contains, which polls before each
    # coordinate it checks: s..deg_y F + s for a member, s..the mismatch for
    # a non-member
    rng = random.Random(13)
    for _ in range(6):
        g = rand_gamma(rng)
        F = generate(g, [rand_unipoly(rng, 4) for _ in range(g.s)])
        outside = F + BiPoly.monomial(0, int(F.deg_y) + 1)
        for G in (F, outside):
            token = _CountingToken()
            want = contains(MGamma(g), G, cancel=token)
            last = int(G.deg_y) + g.s if want.contains else want.certificate["n"]
            assert want.contains == (G is F)
            assert token.calls >= last - g.s + 1
            for n in range(1, token.calls + 1):
                stub = _CountingToken(fire_at=n)
                with pytest.raises(Cancelled):
                    contains(MGamma(g), G, cancel=stub)
                assert stub.calls == n
            assert contains(MGamma(g), G, cancel=_CountingToken(fire_at=token.calls + 1)) == want


def test_md_plus_gamma_membership_polls_once_per_coordinate_and_cancels_cleanly():
    # the residual test polls before each completion coordinate past the seeds
    rng = random.Random(17)
    for k in range(6):
        g = rand_gamma(rng)
        F = generate(g, [rand_unipoly(rng, 4) for _ in range(g.s)])
        outside = F + BiPoly.monomial(k % 3 + 1, int(F.deg_y) + 1)
        M = Sum(Md(k % 3), MGamma(g))
        for G in (F, outside):
            token = _CountingToken()
            want = contains(M, G, cancel=token)
            assert want.contains == (G is F)
            completion = generate(g, modules.phi(G, g.s))
            assert token.calls >= max(1, completion.num_coords - g.s)
            for n in range(1, token.calls + 1):
                stub = _CountingToken(fire_at=n)
                with pytest.raises(Cancelled):
                    contains(M, G, cancel=stub)
                assert stub.calls == n
            assert contains(M, G, cancel=_CountingToken(fire_at=token.calls + 1)) == want
