import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from conftest import rand_scalar, rand_unipoly
from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.rings import ring

from polymod import BiPoly, Cancelled, CoeffQ, UniPoly
from polymod.poly import NEG_INF

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
    for x, y, polls in ((a, 0, n), (0, b, n), (a, b, 2 * n), (0, 0, 0)):
        token = _CountingToken()
        want = F.shift(x, y)
        assert F.shift(x, y, token) == want and token.calls == polls
        # a token firing on any poll stops the shift with no result
        for m in range(1, polls + 1):
            stub = _CountingToken(fire_at=m)
            with pytest.raises(Cancelled):
                F.shift(x, y, stub)
            assert stub.calls == m


def test_monomial_terms_display_weights():
    F = BiPoly.monomial(1, 2, 5)  # 5 x y^2
    terms = dict(F.monomial_terms())
    assert terms == {(1, 2): CoeffQ(5)}


def test_str_conventional_notation():
    g = BiPoly([UniPoly.monomial(2), UniPoly([0, 2]), UniPoly([2])])
    assert str(g) == "x^2 + 2*x*y + y^2"


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


KERNEL_SHIFTS = [
    ("coprime-parts", CoeffQ(Fraction(1, 6), Fraction(5, 7)), CoeffQ(Fraction(-3, 5), Fraction(2, 11))),
    ("imaginary", CoeffQ(0, Fraction(3, 4)), CoeffQ(0, Fraction(-2, 9))),
    ("large-dens", CoeffQ(Fraction(-1, 997), Fraction(1, P61)), CoeffQ(Fraction(P61, 997))),
]
KERNEL_CASES = [
    (f"{fname}-{sname}", F, a, b) for fname, F in _kernel_polys() for sname, a, b in KERNEL_SHIFTS
]


def _lowest_terms(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@pytest.mark.parametrize("name, F, a, b", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_integer_kernel_matches_reference_and_sympy(name, F, a, b):
    G = F.shift(a, b)
    assert G == ref_bipoly_shift(F, a, b)
    for f in F.coords:
        g = f.shift(a)
        assert g == ref_unipoly_shift(f, a)
        assert all(_lowest_terms(c.re) and _lowest_terms(c.im) for c in g.coeffs)
    assert all(_lowest_terms(c.re) and _lowest_terms(c.im) for g in G.coords for c in g.coeffs)
    want, ring_vars = _sympy_shift(F, a, b)
    assert _to_ring(G, *ring_vars) == want
