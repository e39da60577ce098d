"""Shared corpus builders and hypothesis configuration.

Everything random is driven by seeded random.Random instances so test
outcomes are reproducible run to run; hypothesis runs derandomized.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from polymod import BiPoly, CoeffQ, GammaTable, UniPoly
from polymod.linalg import mat_mul, solve

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


def rand_rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_scalar(rng: random.Random, complex_ok: bool = True) -> CoeffQ:
    re = rand_rational(rng)
    im = rand_rational(rng) if complex_ok and rng.random() < 0.3 else Fraction(0)
    return CoeffQ(re, im)


def rand_unipoly(rng: random.Random, max_deg: int, complex_ok: bool = True) -> UniPoly:
    deg = rng.randint(0, max_deg)
    return UniPoly([rand_scalar(rng, complex_ok) for _ in range(deg + 1)])


def rand_bipoly(rng: random.Random, max_dx: int, max_dy: int, complex_ok: bool = True) -> BiPoly:
    ncoords = rng.randint(1, max_dy + 1)
    return BiPoly.from_coords([rand_unipoly(rng, max_dx, complex_ok) for _ in range(ncoords)])


def rand_gamma(
    rng: random.Random, max_s: int = 3, max_j: int = 4, s_exact: int | None = None
) -> GammaTable:
    s = s_exact if s_exact is not None else rng.randint(1, max_s)
    entries = {}
    for i in range(1, s + 1):
        for j in range(1, max_j + 1):
            if rng.random() < 0.4:
                c = rand_scalar(rng, complex_ok=False)
                if not c.is_zero():
                    entries[(i, j)] = c
    if not entries:  # keep the operator nontrivial
        entries[(1, 1)] = CoeffQ.of(1)
    return GammaTable(s, entries)


def identity(n):
    """The n x n identity matrix."""
    return [[CoeffQ.of(1 if i == j else 0) for j in range(n)] for i in range(n)]


def invert(mat):
    """Exact inverse of a small invertible matrix, column by column."""
    n = len(mat)
    cols = []
    for k in range(n):
        rhs = [CoeffQ.of(1 if r == k else 0) for r in range(n)]
        sol = solve([list(row) for row in mat], rhs)
        assert sol is not None and not sol[1], "matrix not invertible"
        cols.append(sol[0])
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def rand_nilpotent(rng: random.Random, dim: int):
    """Conjugated strictly-upper-triangular matrix, exactly nilpotent."""
    N = [
        [CoeffQ.of(rand_rational(rng, 2, 2)) if c > r and rng.random() < 0.6 else CoeffQ.of(0) for c in range(dim)]
        for r in range(dim)
    ]
    # unit triangular factors keep P exactly invertible
    L = [
        [CoeffQ.of(1) if c == r else (CoeffQ.of(rng.randint(-2, 2)) if c < r else CoeffQ.of(0)) for c in range(dim)]
        for r in range(dim)
    ]
    U = [
        [CoeffQ.of(1) if c == r else (CoeffQ.of(rng.randint(-2, 2)) if c > r else CoeffQ.of(0)) for c in range(dim)]
        for r in range(dim)
    ]
    P = mat_mul(L, U)
    return mat_mul(mat_mul(P, N), invert(P))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
