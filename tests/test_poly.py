import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from conftest import rand_gamma, rand_scalar, rand_unipoly
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.rings import ring

from polymod import BiPoly, Cancelled, CoeffQ, UniPoly, apply_L, generate, poly, shift_invariance_table
from polymod.poly import NEG_INF
from polymod.scalars import ZERO, _make
from polymod.serialize import unipoly_from_json
from polymod.spans import PolyFrame, span_reduce

from test_linalg import _CountingToken

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
scalars = st.builds(CoeffQ, rationals, rationals)
unipolys = st.lists(scalars, max_size=7).map(UniPoly)
bipolys = st.lists(unipolys, max_size=5).map(BiPoly)


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

def test_unipoly_normalization():
    assert UniPoly([1, 0, 0]) == UniPoly([1])
    assert UniPoly([]).is_zero()
    assert UniPoly([0]).is_zero()
    assert UniPoly([]).degree == NEG_INF
    assert UniPoly([0, 0, 3]).degree == 2
    assert UniPoly([0, 0, 3]).lead() == 3


def test_unipoly_derivative():
    f = UniPoly([1, 1, 1, 1])  # 1 + x + x^2 + x^3
    assert f.derivative() == UniPoly([1, 2, 3])
    assert f.derivative(2) == UniPoly([2, 6])
    assert f.derivative(5).is_zero()
    assert f.derivative(0) == f
    with pytest.raises(ValueError):
        f.derivative(-1)


def test_unipoly_shift_exact():
    f = UniPoly.monomial(2)  # x^2
    g = f.shift(1)  # (x+1)^2
    assert g == UniPoly([1, 2, 1])
    assert f.shift(Fraction(1, 2)) == UniPoly([Fraction(1, 4), 1, 1])


def test_unipoly_evaluate_horner():
    f = UniPoly([2, 0, 1])  # 2 + x^2
    assert f.evaluate(Fraction(3, 2)) == CoeffQ(Fraction(17, 4))
    assert f.evaluate(CoeffQ(0, 1)) == CoeffQ(1)  # 2 + i^2


@given(unipolys, rationals, rationals)
def test_unipoly_shift_composes(f, a, b):
    assert f.shift(a).shift(b) == f.shift(a + b)


@given(unipolys, rationals, rationals)
def test_unipoly_shift_evaluates(f, a, p):
    assert f.shift(a).evaluate(p) == f.evaluate(p + a)


@given(unipolys)
def test_unipoly_derivative_commutes_with_shift(f):
    assert f.shift(1).derivative() == f.derivative().shift(1)


# ---------------------------------------------------------------------------
# bivariate: the coordinate convention
# ---------------------------------------------------------------------------

def test_bipoly_monomial_convention():
    # x^2 y^3 has coordinate 3 equal to 3! x^2; everything else zero
    F = BiPoly.monomial(2, 3)
    assert F.coord(3) == UniPoly.monomial(2, 6)
    assert F.coord(0).is_zero() and F.coord(2).is_zero()
    assert F.deg_x == 2 and F.deg_y == 3
    assert F.evaluate(2, 1) == CoeffQ(4)


@pytest.mark.parametrize("c", [0, 1, -1, -7, 2**200 + 3, -(2**200) - 1])
def test_int_monomials_build_the_coercing_path_triple(c):
    # a plain int coefficient builds its triple directly; Fraction(c) takes
    # the coercing path, and a dense coefficient list takes the constructor's
    for k, j in ((0, 0), (3, 0), (2, 3), (5, 1)):
        assert UniPoly.monomial(k, c)._z == UniPoly.monomial(k, Fraction(c))._z == UniPoly([0] * k + [c])._z
        want = BiPoly.monomial(k, j, Fraction(c))
        assert tuple(f._z for f in BiPoly.monomial(k, j, c).coords) == tuple(f._z for f in want.coords)
        assert BiPoly.monomial(k, j, c) == BiPoly([[]] * j + [[0] * k + [c * factorial(j)]])
    assert (UniPoly.monomial(2, c) is UniPoly.zero()) == (c == 0)


def test_a_bool_monomial_coefficient_takes_the_coercing_path(monkeypatch):
    coerced = []
    real = poly._operand
    monkeypatch.setattr(poly, "_operand", lambda c: coerced.append(c) or real(c))
    assert UniPoly.monomial(2, 1) == UniPoly.monomial(2, True) and BiPoly.monomial(1, 2, True) == BiPoly.monomial(1, 2)
    assert UniPoly.monomial(2, False).is_zero() and BiPoly.monomial(1, 2, False).is_zero()
    assert coerced == [True, True, False, False]


def test_bipoly_trailing_zero_coords_dropped():
    F = BiPoly([UniPoly.monomial(1), UniPoly.zero(), UniPoly.zero()])
    assert F.num_coords == 1


def test_y_derivative_is_index_shift():
    F = BiPoly([UniPoly.monomial(2), UniPoly([0, 2]), UniPoly([2])])
    assert F.d_dy() == BiPoly([UniPoly([0, 2]), UniPoly([2])])
    assert F.d_dy(2) == BiPoly([UniPoly([2])])
    assert F.d_dy(3).is_zero()


def test_x_derivative_coordinatewise():
    F = BiPoly.monomial(2, 1)  # x^2 y
    assert F.d_dx() == BiPoly.monomial(1, 1).scale(2)


def _order_calls():
    """(message word, call) for every method taking an order or a power; the
    zero BiPoly's d_dx has no coordinate to differentiate, so only a check
    made before any work raises there."""
    f = UniPoly([1, 1, 1])
    F = BiPoly([f, f])
    return [
        ("derivative order", f.derivative),
        ("derivative order", F.d_dx),
        ("derivative order", BiPoly.zero().d_dx),
        ("derivative order", F.d_dy),
        ("power", UniPoly.monomial),
        ("power", lambda k: BiPoly.monomial(k, 0)),
        ("power", lambda k: BiPoly.monomial(0, k)),
    ]


@pytest.mark.parametrize("order", [True, False, 1.5, 1.0, "1", None])
def test_orders_and_powers_must_be_ints(order):
    # bool is an int subclass and 1.0 compares like 1: derivative(True) took
    # a first derivative, d_dy(True) shifted by one, and d_dy(1.5) or
    # monomial(1.0) failed with a TypeError from deep inside
    for what, call in _order_calls():
        with pytest.raises(ValueError, match=f"^{what} must be an int, not {type(order).__name__}$"):
            call(order)


def test_negative_orders_and_powers_keep_their_messages():
    for what, call in _order_calls():
        with pytest.raises(ValueError, match=f"^negative {what}$"):
            call(-1)


def test_taylor_tower_is_shift():
    # BiPoly([f, f', f'', ...]) represents f(x + y)
    f = UniPoly([1, -2, 0, 1])  # 1 - 2x + x^3
    coords = [f]
    while not coords[-1].is_zero():
        coords.append(coords[-1].derivative())
    F = BiPoly(coords[:-1])
    for p in (0, 1, Fraction(-3, 2)):
        for q in (0, 2, Fraction(1, 3)):
            assert F.evaluate(p, q) == f.evaluate(p + q)


def test_evaluate_uses_factorial_weights():
    # F = y^2 via coordinate 2 = 2: F(.., q) = q^2
    F = BiPoly([UniPoly.zero(), UniPoly.zero(), UniPoly([2])])
    assert F.evaluate(0, 3) == CoeffQ(9)


@given(bipolys, rationals, rationals, rationals, rationals)
def test_shift_evaluation_identity(F, a, b, p, q):
    assert F.shift(a, b).evaluate(p, q) == F.evaluate(p + a, q + b)


@given(bipolys, rationals, rationals, rationals, rationals)
def test_shift_composition(F, a, b, c, d):
    assert F.shift(a, b).shift(c, d) == F.shift(a + c, b + d)


@given(bipolys)
def test_mixed_partials_commute(F):
    assert F.d_dx().d_dy() == F.d_dy().d_dx()


@given(bipolys, rationals, rationals)
def test_partials_commute_with_shift(F, a, b):
    assert F.shift(a, b).d_dx() == F.d_dx().shift(a, b)
    assert F.shift(a, b).d_dy() == F.d_dy().shift(a, b)


def test_bipoly_shift_polls_once_per_coordinate_of_each_pass():
    rng = random.Random(0x5417)
    F = BiPoly([rand_unipoly(rng, 4, True) for _ in range(5)])
    n = F.num_coords
    a, b = CoeffQ(Fraction(1, 2), 3), CoeffQ(Fraction(-2, 3))
    # the closing canonical pass polls once per coordinate after the y- and x-passes
    for x, y, polls in ((a, 0, 2 * n), (0, b, 2 * n), (a, b, 3 * n), (0, 0, 0)):
        token = _CountingToken()
        want = F.shift(x, y)
        assert F.shift(x, y, token) == want and token.calls == polls
        # a token firing on any poll stops the shift with no result
        for m in range(1, polls + 1):
            stub = _CountingToken(fire_at=m)
            with pytest.raises(Cancelled):
                F.shift(x, y, stub)
            assert stub.calls == m


class _Cell(int):
    """An int that knows which inputs of a shift it was computed from, as
    bits of origin: 1 for the x-shift a, 2 << k for coordinate k of F. Each
    product with it notes that origin in the last list of log, which each
    poll opens; each product with a cell of F itself (raw) is noted in reads."""

    log: list = [[]]
    reads: list = []

    def __new__(cls, value, origin, raw=False):
        cell = int.__new__(cls, value)
        cell.origin, cell.raw = origin, raw
        return cell


def _cell_op(name):
    op = getattr(int, name)

    def apply(self, other):
        origin = self.origin | getattr(other, "origin", 0)
        if name in ("__mul__", "__rmul__"):
            _Cell.log[-1].append(origin)
            if self.raw:
                _Cell.reads.append(self)
        return _Cell(op(self, other), origin)

    return apply


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
    setattr(_Cell, _name, _cell_op(_name))


class _MarkedFraction(Fraction):
    """A Fraction whose integer ratio has its numerator marked as coming from a."""

    def as_integer_ratio(self):
        n, d = super().as_integer_ratio()
        return _Cell(n, 1), d


class _CellToken:
    def check(self):
        _Cell.log.append([])


def _tagged(F: BiPoly) -> BiPoly:
    """F with each cell of coordinate k a raw _Cell from k alone."""
    coords = []
    for k, f in enumerate(F.coords):
        re, im, den = f._z
        g = object.__new__(UniPoly)
        g._z = tuple(tuple(_Cell(c, 2 << k, True) for c in part) for part in (re, im)) + (den,)
        coords.append(g)
    return BiPoly(coords)


def _pass_at(products) -> tuple:
    """(pass, least coordinate, greatest coordinate) of the products made
    between two polls: x-pass products involve both a and F, and the closing
    canonical pass makes none."""
    if not products:
        return ("canon",)
    coords = 0
    for origin in products:
        coords |= origin >> 1
    x = any(origin & 1 and origin > 1 for origin in products)
    return ("x" if x else "y", (coords & -coords).bit_length() - 1, coords.bit_length() - 1)


def test_shift_polls_once_per_coordinate_of_each_pass_at_every_size():
    # every coordinate ends in x^n, so G_k draws on f_k .. f_(n-1): a y-pass
    # poll is followed by G_k's sums, an x-pass poll by the Horner loop on
    # G_k (on f_k when b = 0), and a closing poll by one coordinate's gcd,
    # with no product; each pass must step through the coordinates one at a
    # time, y, then x, then the closing pass, and read no cell of F twice
    rng = random.Random(0x5418)
    a = _make(_MarkedFraction(1, 2), _MarkedFraction(3))
    b = CoeffQ(Fraction(-2, 3), 1)
    for n in (4, 8, 16, 32):
        F = BiPoly([rand_unipoly(rng, n, True) + UniPoly.monomial(n) for _ in range(n)])
        T = _tagged(F)
        nonzero = {id(c) for f in T.coords for part in f._z[:2] for c in part if c}
        y = [("y", k, n - 1) for k in range(n)]
        x = [("x", k, n - 1) for k in range(n)]
        x_alone = [("x", k, k) for k in range(n)]
        canon = [("canon",)] * n
        for shift, want in (((a, b), y + x + canon), ((a, 0), x_alone + canon), ((0, b), y + canon)):
            G = F.shift(*shift)
            _Cell.log, _Cell.reads = [[]], []
            assert T.shift(*shift, _CellToken()) == G
            assert [_pass_at(products) for products in _Cell.log[1:]] == want, (n, shift)
            read = [id(c) for c in _Cell.reads]
            assert len(read) == len(set(read)) and nonzero <= set(read), (n, shift)


def test_evaluate_polls_once_per_coordinate_and_per_coefficient():
    rng = random.Random(0xE7A1)
    F = BiPoly([rand_unipoly(rng, 4, True) for _ in range(5)])
    x, y = CoeffQ(Fraction(1, 2), -1), CoeffQ(Fraction(-2, 3))
    f = F.coord(0)
    for run, polls in (
        (lambda tok: F.evaluate(x, y, tok), F.num_coords + sum(len(g.coeffs) for g in F.coords)),
        (lambda tok: f.evaluate(x, tok), len(f.coeffs)),
    ):
        token = _CountingToken()
        assert run(token) == run(None) and token.calls == polls
        # a token firing on any poll stops the evaluation with no result
        for m in range(1, polls + 1):
            stub = _CountingToken(fire_at=m)
            with pytest.raises(Cancelled):
                run(stub)
            assert stub.calls == m


def test_monomial_terms_display_weights():
    F = BiPoly.monomial(1, 2, 5)  # 5 x y^2
    terms = dict(F.monomial_terms())
    assert terms == {(1, 2): CoeffQ(5)}


def test_str_conventional_notation():
    g = BiPoly([UniPoly.monomial(2), UniPoly([0, 2]), UniPoly([2])])
    assert str(g) == "x^2 + 2*x*y + y^2"
    # UniPoly prints as the one-coordinate BiPoly: falling powers, no zero terms
    cases = [
        ([], "0"),
        ([7], "7"),
        ([0, 1], "x"),
        ([0, -1], "-1*x"),
        ([0, 0, 0, 1], "x^3"),
        ([0, 0, 0, -1], "-1*x^3"),
        ([Fraction(-3, 4), Fraction(1, 2)], "1/2*x + -3/4"),
        ([0, 0, CoeffQ(0, 2)], "2i*x^2"),
        ([CoeffQ(1, -1), 0, CoeffQ(Fraction(1, 3), 5)], "(1/3+5i)*x^2 + (1-1i)"),
        ([1, 0, 0, 2, 0, -5], "-5*x^5 + 2*x^3 + 1"),
    ]
    for coeffs, want in cases:
        assert str(UniPoly(coeffs)) == want


# ---------------------------------------------------------------------------
# differential: the Horner shifts against the binomial-sum reference and sympy
# ---------------------------------------------------------------------------

def ref_unipoly_shift(f: UniPoly, a) -> UniPoly:
    """The binomial-sum Taylor shift UniPoly.shift used before the Horner kernel."""
    a = CoeffQ.of(a)
    if a.is_zero() or f.is_zero():
        return f
    out = [CoeffQ(0)] * len(f.coeffs)
    for m, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        p = CoeffQ(1)  # a^(m-k), built up as k descends
        for k in range(m, -1, -1):
            out[k] = out[k] + c * comb(m, k) * p
            p = p * a
    return UniPoly(out)


def ref_bipoly_shift(F: BiPoly, a, b) -> BiPoly:
    """The BiPoly.shift used before the raw-value kernels: G_k = sum_j f_{k+j}(x + a) b^j / j!."""
    b = CoeffQ.of(b)
    shifted = [ref_unipoly_shift(f, a) for f in F.coords]
    n = len(shifted)
    out = []
    for k in range(n):
        acc = UniPoly.zero()
        bp = CoeffQ(1)  # b^j
        for j in range(n - k):
            if not bp.is_zero():
                acc = acc + shifted[k + j].scale(bp * Fraction(1, factorial(j)))
            bp = bp * b
        out.append(acc)
    return BiPoly(out)


def _shift_cases():
    rng = random.Random(0x7A1105)
    gauss = CoeffQ(Fraction(-3, 2), Fraction(2, 3))
    const = BiPoly([UniPoly([CoeffQ(5, -1)])])
    yield "zero", BiPoly.zero(), gauss, CoeffQ(1, 1)
    yield "real-const", BiPoly([UniPoly([Fraction(-7, 3)])]), gauss, gauss
    yield "gauss-const", const, CoeffQ(0), gauss
    yield "y-const", BiPoly([UniPoly.zero(), UniPoly.zero(), UniPoly([2])]), gauss, gauss
    # (coordinates, x-degree, complex coefficients, a, b); "0" forces a zero shift
    shapes = [
        (40, 12, False, "real", "gauss"),
        (40, 12, True, "gauss", "gauss"),
        (12, 12, True, "0", "gauss"),
        (12, 12, False, "gauss", "0"),
        (9, 6, True, "0", "0"),
        (15, 4, False, "real", "real"),
        (6, 12, True, "real", "gauss"),
        (20, 3, True, "gauss", "real"),
        (1, 12, True, "gauss", "gauss"),
        (25, 0, False, "gauss", "gauss"),
    ]
    for ncoords, deg, complex_ok, a_kind, b_kind in shapes:
        coords = [rand_unipoly(rng, deg, complex_ok) for _ in range(ncoords - 1)]
        # a last coordinate of full x-degree, so every case has its stated shape
        coords.append(UniPoly([rand_scalar(rng, complex_ok) for _ in range(deg)] + [CoeffQ(1, int(complex_ok))]))
        name = f"{ncoords}x{deg}-{'gauss' if complex_ok else 'real'}-a_{a_kind}-b_{b_kind}"
        yield name, BiPoly(coords), _rand_shift(rng, a_kind), _rand_shift(rng, b_kind)


def _rand_shift(rng: random.Random, kind: str) -> CoeffQ:
    """Zero for kind "0", else a nonzero real or Gaussian shift."""
    if kind == "0":
        return CoeffQ(0)
    re = rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return CoeffQ(re) if kind == "real" else CoeffQ(re, rng.choice([-2, -1, 1, 3]))


SHIFT_CASES = list(_shift_cases())


def _qq(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _qq_i(c: CoeffQ):
    return QQ_I(_qq(c.re), _qq(c.im))


def _sympy_shift(F: BiPoly, a: CoeffQ, b: CoeffQ):
    """F(x + a, y + b) expanded by sympy's sparse polynomials over QQ_I."""
    R, x, y = ring("x,y", QQ_I)
    return _to_ring(F, R, x, y).compose([(x, x + _qq_i(a)), (y, y + _qq_i(b))]), (R, x, y)


def _to_ring(F: BiPoly, R, x, y):
    out = R(0)
    for (i, j), c in F.monomial_terms():
        out += _qq_i(c) * x**i * y**j
    return out


@pytest.mark.parametrize("name, F, a, b", SHIFT_CASES, ids=[c[0] for c in SHIFT_CASES])
def test_shift_matches_reference_and_sympy(name, F, a, b):
    G = F.shift(a, b)
    assert G == ref_bipoly_shift(F, a, b)
    for f in F.coords:
        assert f.shift(a) == ref_unipoly_shift(f, a)
    # the raw kernels hand back normalised Fraction parts, as CoeffQ always holds
    assert all(not g.coeffs or g.coeffs[-1] for g in G.coords)
    assert not G.coords or not G.coords[-1].is_zero()
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for g in G.coords for c in g.coeffs)
    want, ring_vars = _sympy_shift(F, a, b)
    assert _to_ring(G, *ring_vars) == want


# ---------------------------------------------------------------------------
# the integer kernel: common denominators, q^k scaling, weight denominators
# ---------------------------------------------------------------------------

P61 = 2**61 - 1


def _kernel_polys():
    q = Fraction
    yield "unequal-with-zero-coords", BiPoly([
        UniPoly([CoeffQ(q(3, 997), q(-1, P61)), q(-2, 7), 0, q(1, 6), CoeffQ(0, q(4, 5))]),
        UniPoly.zero(),
        UniPoly([q(5, P61), CoeffQ(q(-1, 3), 2)]),
        UniPoly.zero(),
        UniPoly.zero(),
        UniPoly([1, 0, CoeffQ(q(2, 997), q(1, 11)), q(-9, 4), 0, q(P61 - 2, 997 * 3), CoeffQ(1, -1)]),
    ])
    yield "single-coord", BiPoly([
        UniPoly([q(1, 997), CoeffQ(q(-2, 3), q(5, P61)), 0, 0, q(7, 2), CoeffQ(0, q(-1, 6)), 0, q(11, 997)])
    ])


def _exact_degree(rng: random.Random, deg: int) -> UniPoly:
    return UniPoly([rand_scalar(rng) for _ in range(deg)] + [CoeffQ(rng.randint(1, 5), rng.choice([0, 0, 2]))])


def _pass_order_polys():
    """Shapes for the y-pass run first over each coordinate's nonzero cells."""
    rng = random.Random(0x5A55)
    # generated elements, as recursion-probe builds them: real tables, seeds
    # with sparse imaginary parts, coordinate lengths falling towards the end
    for k in range(4):
        g = rand_gamma(rng, s_exact=1 + k % 3)
        yield f"generated-{k}", generate(g, [_exact_degree(rng, rng.randint(2, 7)) for _ in range(g.s)])
    yield "short-between-long", BiPoly([_exact_degree(rng, d) for d in (8, 1, 9, 0, 7, 6)])
    z = UniPoly.zero()
    yield "zero-interior", BiPoly([_exact_degree(rng, 5), z, z, _exact_degree(rng, 3), z, _exact_degree(rng, 6)])


KERNEL_SHIFTS = [
    ("coprime-parts", CoeffQ(Fraction(1, 6), Fraction(5, 7)), CoeffQ(Fraction(-3, 5), Fraction(2, 11))),
    ("imaginary", CoeffQ(0, Fraction(3, 4)), CoeffQ(0, Fraction(-2, 9))),
    ("large-dens", CoeffQ(Fraction(-1, 997), Fraction(1, P61)), CoeffQ(Fraction(P61, 997))),
]
PASS_ORDER_SHIFTS = {
    "0": CoeffQ(0),
    "real": CoeffQ(Fraction(-5, 3)),
    "imag": CoeffQ(0, Fraction(7, 4)),
    "gauss": CoeffQ(Fraction(3, 2), Fraction(-2, 5)),
}
KERNEL_CASES = [
    (f"{fname}-{sname}", F, a, b) for fname, F in _kernel_polys() for sname, a, b in KERNEL_SHIFTS
] + [
    (f"{fname}-a_{ak}-b_{bk}", F, PASS_ORDER_SHIFTS[ak], PASS_ORDER_SHIFTS[bk])
    for fname, F in _pass_order_polys()
    for ak, bk in (("real", "imag"), ("imag", "real"), ("gauss", "gauss"), ("0", "imag"), ("gauss", "0"), ("imag", "imag"))
]


def _lowest_terms(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("name, F, a, b", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_integer_kernel_matches_reference_and_sympy(name, F, a, b):
    G = F.shift(a, b)
    assert G == ref_bipoly_shift(F, a, b)
    # one pass at a time, in either order, gives the same triples
    assert G == F.shift(a, 0).shift(0, b) == F.shift(0, b).shift(a, 0)
    for f in F.coords:
        g = f.shift(a)
        assert g == ref_unipoly_shift(f, a)
        assert all(_lowest_terms(c.re) and _lowest_terms(c.im) for c in g.coeffs)
    assert all(_lowest_terms(c.re) and _lowest_terms(c.im) for g in G.coords for c in g.coeffs)
    for re, im, den in (g._z for g in G.coords):
        assert den > 0 and gcd(den, *re, *im) == 1 and (not re or re[-1] or im[-1])
    want, ring_vars = _sympy_shift(F, a, b)
    assert _to_ring(G, *ring_vars) == want


# ---------------------------------------------------------------------------
# the stored triple: one zero, and hashes that agree with equality
# ---------------------------------------------------------------------------

def test_every_zero_is_the_one_zero_triple():
    f = UniPoly([1, CoeffQ(0, 2), Fraction(1, 3)])
    # a zero coordinate below a nonzero one survives BiPoly's trimming
    frame = PolyFrame([BiPoly([f, f])])
    vec = [ZERO] * len(frame.index)
    vec[frame.index[(0, 1)]] = CoeffQ(5)
    zeros = {
        "UniPoly()": UniPoly(),
        "UniPoly([0, 0])": UniPoly([0, 0]),
        "zero parts": UniPoly([CoeffQ(0), Fraction(0), CoeffQ(0, 0)]),
        "f - f": f - f,
        "-zero": -UniPoly.zero(),
        "scale(0)": f.scale(0),
        "scale(CoeffQ(0))": f.scale(CoeffQ(0)),
        "monomial(3, 0)": UniPoly.monomial(3, 0),
        "derivative at the degree + 1": f.derivative(3),
        "derivative past the degree": f.derivative(7),
        "shift of zero": UniPoly.zero().shift(CoeffQ(1, 1)),
        "x-shift kernel on a zero coordinate": BiPoly([UniPoly.zero(), f]).shift(CoeffQ(2, -1), 0).coord(0),
        "y-shift kernel cancelling a coordinate": BiPoly([UniPoly([1]), UniPoly([1])]).shift(0, -1).coord(0),
        "from_vec": frame.from_vec(vec).coord(0),
        "unipoly_from_json([])": unipoly_from_json([]),
        "unipoly_from_json(['0', '0'])": unipoly_from_json(["0", "0"]),
        "generate past the window": generate(shift_invariance_table(), [f]).coord(3),
    }
    for name, z in zeros.items():
        assert z._z == ((), (), 1), name
        assert type(z._z[0]) is tuple and type(z._z[1]) is tuple, name
        assert z == UniPoly.zero() and hash(z) == hash(UniPoly.zero()), name
        assert z.is_zero() and z.coeffs == () and z.degree == NEG_INF, name
    assert frame.from_vec([ZERO] * len(frame.index)).coords == ()
    assert generate(shift_invariance_table(), [UniPoly([0, 0])]).is_zero()


def test_equal_polynomials_hash_alike_whatever_the_route():
    # 1/2 + (2/3)i x, built nine ways
    want = UniPoly([Fraction(1, 2), CoeffQ(0, Fraction(2, 3))])
    routes = [
        UniPoly([CoeffQ(Fraction(2, 4)), CoeffQ(0, Fraction(4, 6)), 0]),
        (want + want).scale(Fraction(1, 2)),
        UniPoly([3, CoeffQ(0, 4)]).scale(Fraction(1, 6)),
        UniPoly.monomial(1, CoeffQ(0, Fraction(2, 3))).shift(CoeffQ(0, Fraction(-3, 4))),
        UniPoly([0, Fraction(1, 2), CoeffQ(0, Fraction(1, 3))]).derivative(),
        apply_L(shift_invariance_table(), [UniPoly([7, Fraction(1, 2), CoeffQ(0, Fraction(1, 3))])]),
        generate(shift_invariance_table(), [UniPoly([0, Fraction(1, 2), CoeffQ(0, Fraction(1, 3))])]).coord(1),
        unipoly_from_json(["1/2", {"re": "0", "im": "2/3"}]),
        span_reduce([BiPoly([want.scale(6)])])[0].coord(0).scale(CoeffQ(0, Fraction(2, 3))),  # x - (3/4)i
    ]
    for f in routes:
        assert f == want and hash(f) == hash(want) and f._z == want._z
    assert len(set(routes + [want])) == 1
    assert want.coeffs == (CoeffQ(Fraction(1, 2)), CoeffQ(0, Fraction(2, 3)))
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for c in want.coeffs)
    assert want != want.scale(CoeffQ(0, 1)) and hash(BiPoly([want])) == hash(BiPoly([routes[0], UniPoly()]))
