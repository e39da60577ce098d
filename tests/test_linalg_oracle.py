"""Differential test of the exact kernels against sympy's DomainMatrix.

sympy's QQ and QQ_I matrices are an independent implementation of exact
elimination. Every matrix comes from a fixed seed: real and Gaussian, sparse
(5-15 % density, up to the 27x243 shape of a whole-span reduction of an
infer-roundtrip basis, and a wide 8x256) and dense (up to 24x24), and
rank-deficient with zero rows. The elimination order must not show: a
shuffled copy with zero rows appended has the same rref. ``rref`` and
``solve`` are checked at the dense edge, ``null_space`` and ``product``
on Z[i] rows converted in with ``_numerators`` and out with ``_dense``.
``in_span`` decides membership of a vector, as a one-coordinate
polynomial, in the span of the rows by one ``product``; it is checked on
the same shapes, on vectors with mixed denominators, and ``product`` also on
chained powers of a conjugated nilpotent matrix and on degenerate shapes.
No timing is asserted.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I

from polymod import BiPoly, CoeffQ, UniPoly
from polymod.linalg import _dense, _numerators, null_space, product, rref, solve
from polymod.scalars import ZERO
from polymod.spans import in_span, span_reduce

from sympy_oracle import from_domain, to_domain

# (name, rows, cols, density, gaussian, deficient)
SHAPES = [
    ("sparse-real-infer", 27, 243, 0.06, False, False),
    ("sparse-real-tall", 40, 30, 0.08, False, False),
    ("sparse-gauss-infer", 27, 243, 0.05, True, False),
    ("sparse-gauss-wide", 8, 256, 0.15, True, False),
    ("sparse-gauss-square", 20, 20, 0.1, True, False),
    ("dense-real", 7, 9, 1.0, False, False),
    ("dense-gauss", 8, 6, 1.0, True, False),
    ("dense-real-square", 24, 24, 1.0, False, False),
    ("dense-gauss-square", 24, 24, 1.0, True, False),
    ("deficient-real-sparse", 24, 80, 0.08, False, True),
    ("deficient-real-dense", 9, 7, 1.0, False, True),
    ("deficient-gauss-sparse", 24, 80, 0.08, True, True),
    ("deficient-gauss-dense", 9, 9, 1.0, True, True),
]
SEEDS = range(3)


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def _scalar(rng, gaussian):
    im = _rational(rng) if gaussian and rng.random() < 0.5 else 0
    return CoeffQ(_rational(rng), im)


def _row(rng, ncols, density, gaussian):
    return [_scalar(rng, gaussian) if rng.random() < density else CoeffQ(0) for _ in range(ncols)]


def _matrix(rng, nrows, ncols, density, gaussian, deficient):
    if not deficient:
        rows = [_row(rng, ncols, density, gaussian) for _ in range(nrows)]
    else:
        # a third independent rows, a third combinations of two of them, the rest zero
        base = [_row(rng, ncols, density, gaussian) for _ in range(nrows // 3)]
        rows = list(base)
        for _ in range(nrows // 3):
            a, b = rng.sample(base, 2)
            fa, fb = _scalar(rng, gaussian), _scalar(rng, gaussian)
            rows.append([fa * x + fb * y for x, y in zip(a, b)])
        rows += [[CoeffQ(0)] * ncols for _ in range(nrows - len(rows))]
        rng.shuffle(rows)
    if gaussian and all(c.im == 0 for r in rows for c in r):
        rows[0][0] = CoeffQ(1, 1)  # keep the Gaussian cases off the real path
    return rows


def _cases():
    for name, nrows, ncols, density, gaussian, deficient in SHAPES:
        for seed in SEEDS:
            yield pytest.param(name, seed, nrows, ncols, density, gaussian, deficient, id=f"{name}-{seed}")


def _column(vec, domain):
    return to_domain([[c] for c in vec], domain)


def _mul(a, b):
    """a @ b by the product core, dense CoeffQ rows in and out."""
    return [_dense(row, den, len(b[0])) for den, row in product(_numerators(a), _numerators(b))]


def _poly(row):
    """The row as the coefficients of one polynomial in x."""
    return BiPoly([UniPoly(row)])


@pytest.mark.parametrize("name, seed, nrows, ncols, density, gaussian, deficient", _cases())
def test_kernels_match_sympy(name, seed, nrows, ncols, density, gaussian, deficient):
    rng = random.Random(f"{name}-{seed}")
    A = _matrix(rng, nrows, ncols, density, gaussian, deficient)
    domain = QQ_I if gaussian else QQ
    dA = to_domain(A, domain)

    # rref: identical rows and pivots
    red, pivots = rref(A)
    s_red, s_pivots = dA.rref()
    rank = len(s_pivots)
    assert pivots == list(s_pivots)
    assert red == from_domain(s_red)[:rank]
    if deficient:
        assert rank < nrows

    # null_space: ncols - rank vectors, each annihilated (checked by sympy)
    kernel = [_dense(row, den, ncols) for den, row in null_space(_numerators(A), ncols)]
    assert len(kernel) == ncols - rank
    if kernel:
        columns = to_domain([list(c) for c in zip(*kernel)], domain)
        assert (dA.to_sparse() * columns.to_sparse()).is_zero_matrix

    # solve: consistent exactly when sympy's rank of [A | b] equals rank(A)
    x = _row(rng, ncols, 0.5, gaussian)
    in_range = [r[0] for r in from_domain(dA * _column(x, domain))]
    for rhs in (in_range, [_scalar(rng, gaussian) for _ in range(nrows)]):
        consistent = to_domain([r + [b] for r, b in zip(A, rhs)], domain).rank() == rank
        if deficient and rhs is not in_range:
            assert not consistent  # a zero row of A meets a nonzero entry of rhs
        sol = solve(A, rhs)
        assert (sol is not None) == consistent
        if sol is not None:
            values, free = sol
            assert len(free) == ncols - rank
            assert from_domain(dA * _column(values, domain)) == [[b] for b in rhs]

    # product on a column and on a matrix: sympy's products
    assert _mul(A, [[c] for c in x]) == [[b] for b in in_range]
    B = _matrix(rng, ncols, 5, density, gaussian, False)
    assert _mul(A, B) == from_domain(dA * to_domain(B, domain))


@pytest.mark.parametrize("name, seed, nrows, ncols, density, gaussian, deficient", _cases())
def test_rref_ignores_row_order_and_zero_rows(name, seed, nrows, ncols, density, gaussian, deficient):
    rng = random.Random(f"{name}-{seed}")
    A = _matrix(rng, nrows, ncols, density, gaussian, deficient)
    shuffled = [list(r) for r in A]
    random.Random(f"shuffle-{name}-{seed}").shuffle(shuffled)
    shuffled += [[CoeffQ(0)] * ncols for _ in range(3)]
    assert rref(shuffled) == rref(A)


def _mixed(rng, gaussian):
    """A scalar over a denominator drawn from a wide mix, to stress a common denominator."""
    den = rng.choice([1, 2, 7, 30, 97, 1024, 3**9])
    im = Fraction(rng.randint(-50, 50), rng.choice([1, 5, 97, 2**12])) if gaussian and rng.random() < 0.5 else 0
    return CoeffQ(Fraction(rng.randint(-50, 50), den), im)


@pytest.mark.parametrize("name, seed, nrows, ncols, density, gaussian, deficient", _cases())
def test_reduce_against_matches_sympy(name, seed, nrows, ncols, density, gaussian, deficient):
    # a vector reduced against the rows by in_span, all as one-coordinate polynomials
    rng = random.Random(f"reduce-{name}-{seed}")
    A = _matrix(rng, nrows, ncols, density, gaussian, deficient)
    domain = QQ_I if gaussian else QQ
    rank = to_domain(A, domain).rank()
    basis = [_poly(r) for r in A]
    reduced = span_reduce(basis)
    inside = from_domain(to_domain([[_mixed(rng, gaussian) for _ in range(nrows)]], domain) * to_domain(A, domain))[0]
    outside = [_mixed(rng, gaussian) if rng.random() < 0.5 else CoeffQ(0) for _ in range(ncols)]
    for vec in (inside, outside):
        ok, combo = in_span(_poly(vec), basis)
        # in the span exactly when sympy's rank of the rows does not grow with vec
        assert ok == (to_domain(A + [vec], domain).rank() == rank)
        if vec is inside:
            assert ok
        if ok:
            # the combination over span_reduce's basis rebuilds the vector
            assert len(combo) == len(reduced) == rank
            assert sum((r.scale(f) for f, r in zip(combo, reduced)), BiPoly.zero()) == _poly(vec)


def _nilpotent_conjugate(rng, n, gaussian):
    """(D, domain): P N P^-1 in sympy for a strictly upper triangular N and a
    random invertible P with rational (Gaussian) entries, as CoeffQ rows."""
    domain = QQ_I if gaussian else QQ
    N = [[_mixed(rng, gaussian) if j > i and rng.random() < 0.7 else CoeffQ(0) for j in range(n)] for i in range(n)]
    while True:
        P = to_domain([[_mixed(rng, gaussian) for _ in range(n)] for _ in range(n)], domain)
        if P.rank() == n:
            break
    return from_domain(P * to_domain(N, domain) * P.inv()), domain


@pytest.mark.parametrize("n, gaussian", [(4, False), (6, True), (8, False), (9, True)])
def test_mat_mul_chained_powers_match_sympy(n, gaussian):
    rng = random.Random(f"powers-{n}-{gaussian}")
    D, domain = _nilpotent_conjugate(rng, n, gaussian)
    dD = to_domain(D, domain)
    power, s_power = D, dD
    bits = 0
    for _ in range(n):
        bits = max([bits] + [max(c.re.denominator, c.im.denominator).bit_length() for r in power for c in r])
        power, s_power = _mul(power, D), s_power * dD
        assert power == from_domain(s_power)
    # P^-1 puts denominators of dozens to hundreds of bits into the powers,
    # and the chain ends at D^(n+1) = 0
    assert bits >= 48
    assert all(c.is_zero() for r in power for c in r)
    v = [_mixed(rng, gaussian) for _ in range(n)]
    assert _mul(D, [[c] for c in v]) == from_domain(dD * _column(v, domain))


def test_product_kernel_degenerate_shapes():
    c, d = CoeffQ(Fraction(3, 4), Fraction(-1, 6)), CoeffQ(Fraction(-2, 9), 5)
    # 1x1
    assert _mul([[c]], [[d]]) == [[c * d]]
    # all-zero matrices, of built CoeffQ(0) entries and of the shared zero
    rng = random.Random(7)
    B = [[_mixed(rng, True) for _ in range(3)] for _ in range(4)]
    for zero in (CoeffQ(0), ZERO):
        assert _mul([[zero] * 4] * 2, B) == [[CoeffQ(0)] * 3] * 2
        assert _mul(B, [[zero] * 3] * 3) == [[CoeffQ(0)] * 3] * 4
        assert _mul([[zero] * 4] * 2, [[x] for x in B[0] + [c]]) == [[CoeffQ(0)]] * 2
    # an all-ZERO row keeps its place in the product
    A = [[c, d, c, d], [ZERO] * 4, [d, ZERO, ZERO, c]]
    assert _mul(A, B) == from_domain(to_domain(A, QQ_I) * to_domain(B, QQ_I))
    assert _mul(A, B)[1] == [CoeffQ(0)] * 3
    # the zero vector lies in every span with the empty combination, and
    # against an empty basis no other vector does
    basis = [_poly(r) for r in A]
    for zero in ([CoeffQ(0)] * 4, [ZERO] * 4):
        assert in_span(_poly(zero), basis) == (True, [])
        assert _mul(A, [[x] for x in zero]) == [[CoeffQ(0)]] * 3
    assert in_span(_poly([c, ZERO, d]), []) == (False, None)
