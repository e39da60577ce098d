"""Differential test of the exact kernels against sympy's DomainMatrix.

sympy's QQ and QQ_I matrices are an independent implementation of exact
elimination. Every matrix comes from a fixed seed: real and Gaussian, sparse
(5-15 % density, up to the 27x243 shape that infer_L builds, and a wide
8x256) and dense (up to 24x24), and rank-deficient with zero rows. The elimination order must not
show: a shuffled copy with zero rows appended has the same rref. The product
kernel behind mat_mul and reduce_against is checked on the same
shapes, on vectors with mixed denominators, on chained powers of a
conjugated nilpotent matrix and on degenerate shapes. No timing is asserted.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from polymod import CoeffQ
from polymod.linalg import _Z, kernel_basis, mat_mul, reduce_against, rref, solve

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


def _q(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _to_domain(rows, domain):
    if domain is QQ:
        elems = [[_q(c.re) for c in r] for r in rows]
    else:
        elems = [[QQ_I(_q(c.re), _q(c.im)) for c in r] for r in rows]
    return DomainMatrix(elems, (len(rows), len(rows[0])), domain)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _from_domain(m, domain):
    if domain is QQ:
        return [[CoeffQ(_fraction(e)) for e in r] for r in m.to_list()]
    return [[CoeffQ(_fraction(e.x), _fraction(e.y)) for e in r] for r in m.to_list()]


def _column(vec, domain):
    return _to_domain([[c] for c in vec], domain)


@pytest.mark.parametrize("name, seed, nrows, ncols, density, gaussian, deficient", _cases())
def test_kernels_match_sympy(name, seed, nrows, ncols, density, gaussian, deficient):
    rng = random.Random(f"{name}-{seed}")
    A = _matrix(rng, nrows, ncols, density, gaussian, deficient)
    domain = QQ_I if gaussian else QQ
    dA = _to_domain(A, domain)

    # rref: identical rows and pivots
    red, pivots = rref(A)
    s_red, s_pivots = dA.rref()
    rank = len(s_pivots)
    assert pivots == list(s_pivots)
    assert red == _from_domain(s_red, domain)[:rank]
    if deficient:
        assert rank < nrows

    # kernel_basis: ncols - rank vectors, each annihilated (checked by sympy)
    kernel = kernel_basis(A, ncols=ncols)
    assert len(kernel) == ncols - rank
    if kernel:
        columns = _to_domain([list(c) for c in zip(*kernel)], domain)
        assert (dA.to_sparse() * columns.to_sparse()).is_zero_matrix

    # solve: consistent exactly when sympy's rank of [A | b] equals rank(A)
    x = _row(rng, ncols, 0.5, gaussian)
    in_range = [r[0] for r in _from_domain(dA * _column(x, domain), domain)]
    for rhs in (in_range, [_scalar(rng, gaussian) for _ in range(nrows)]):
        consistent = _to_domain([r + [b] for r, b in zip(A, rhs)], domain).rank() == rank
        if deficient and rhs is not in_range:
            assert not consistent  # a zero row of A meets a nonzero entry of rhs
        sol = solve(A, rhs)
        assert (sol is not None) == consistent
        if sol is not None:
            values, free = sol
            assert len(free) == ncols - rank
            assert _from_domain(dA * _column(values, domain), domain) == [[b] for b in rhs]

    # mat_mul on a column and on a matrix: sympy's products
    assert mat_mul(A, [[c] for c in x]) == [[b] for b in in_range]
    B = _matrix(rng, ncols, 5, density, gaussian, False)
    assert mat_mul(A, B) == _from_domain(dA * _to_domain(B, domain), domain)


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
    rng = random.Random(f"reduce-{name}-{seed}")
    A = _matrix(rng, nrows, ncols, density, gaussian, deficient)
    domain = QQ_I if gaussian else QQ
    red, pivots = rref(A)
    rank = len(pivots)
    dR = _to_domain(red, domain)
    inside = _from_domain(_to_domain([[_mixed(rng, gaussian) for _ in range(nrows)]], domain) * _to_domain(A, domain), domain)[0]
    outside = [_mixed(rng, gaussian) if rng.random() < 0.5 else CoeffQ(0) for _ in range(ncols)]
    for vec in (inside, outside):
        residual, combo = reduce_against(vec, red, pivots)
        assert len(combo) == rank
        # sympy's vec - sum c_r row_r, with c_r = vec at row r's pivot
        assert combo == [vec[p] for p in pivots]
        want = _to_domain([vec], domain) - _to_domain([combo], domain) * dR
        assert [residual] == _from_domain(want, domain)
        assert all(residual[p].is_zero() for p in pivots)
        # residual zero exactly when sympy puts vec in the row span
        in_span = _to_domain(A + [vec], domain).rank() == rank
        assert in_span == all(c.is_zero() for c in residual)
        if vec is inside:
            assert in_span


def _nilpotent_conjugate(rng, n, gaussian):
    """(D, domain): P N P^-1 in sympy for a strictly upper triangular N and a
    random invertible P with rational (Gaussian) entries, as CoeffQ rows."""
    domain = QQ_I if gaussian else QQ
    N = [[_mixed(rng, gaussian) if j > i and rng.random() < 0.7 else CoeffQ(0) for j in range(n)] for i in range(n)]
    while True:
        P = _to_domain([[_mixed(rng, gaussian) for _ in range(n)] for _ in range(n)], domain)
        if P.rank() == n:
            break
    return _from_domain(P * _to_domain(N, domain) * P.inv(), domain), domain


@pytest.mark.parametrize("n, gaussian", [(4, False), (6, True), (8, False), (9, True)])
def test_mat_mul_chained_powers_match_sympy(n, gaussian):
    rng = random.Random(f"powers-{n}-{gaussian}")
    D, domain = _nilpotent_conjugate(rng, n, gaussian)
    dD = _to_domain(D, domain)
    power, s_power = D, dD
    bits = 0
    for _ in range(n):
        bits = max([bits] + [max(c.re.denominator, c.im.denominator).bit_length() for r in power for c in r])
        power, s_power = mat_mul(power, D), s_power * dD
        assert power == _from_domain(s_power, domain)
    # P^-1 puts denominators of dozens to hundreds of bits into the powers,
    # and the chain ends at D^(n+1) = 0
    assert bits >= 48
    assert all(c.is_zero() for r in power for c in r)
    v = [_mixed(rng, gaussian) for _ in range(n)]
    assert mat_mul(D, [[c] for c in v]) == _from_domain(dD * _column(v, domain), domain)


def test_product_kernel_degenerate_shapes():
    c, d = CoeffQ(Fraction(3, 4), Fraction(-1, 6)), CoeffQ(Fraction(-2, 9), 5)
    # 1x1
    assert mat_mul([[c]], [[d]]) == [[c * d]]
    # all-zero matrices, of built CoeffQ(0) entries and of the shared zero
    rng = random.Random(7)
    B = [[_mixed(rng, True) for _ in range(3)] for _ in range(4)]
    for zero in (CoeffQ(0), _Z):
        assert mat_mul([[zero] * 4] * 2, B) == [[CoeffQ(0)] * 3] * 2
        assert mat_mul(B, [[zero] * 3] * 3) == [[CoeffQ(0)] * 3] * 4
        assert mat_mul([[zero] * 4] * 2, [[x] for x in B[0] + [c]]) == [[CoeffQ(0)]] * 2
    # an all-_Z row keeps its place in the product
    A = [[c, d, c, d], [_Z] * 4, [d, _Z, _Z, c]]
    assert mat_mul(A, B) == _from_domain(_to_domain(A, QQ_I) * _to_domain(B, QQ_I), QQ_I)
    assert mat_mul(A, B)[1] == [CoeffQ(0)] * 3
    # the zero vector reduces to itself with a zero combination
    red, pivots = rref(A)
    for zero in ([CoeffQ(0)] * 4, [_Z] * 4):
        residual, combo = reduce_against(zero, red, pivots)
        assert residual == [CoeffQ(0)] * 4 and combo == [CoeffQ(0)] * len(pivots)
        assert mat_mul(A, [[x] for x in zero]) == [[CoeffQ(0)]] * 3
    # against an empty basis every vector is its own residual
    assert reduce_against([c, _Z, d], [], []) == ([c, CoeffQ(0), d], [])
