import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polymod import Cancelled, CoeffQ
from polymod.linalg import (
    kernel_basis,
    mat_mul,
    rank,
    reduce_against,
    rref,
    solve,
)

from conftest import identity, rand_scalar

entries = st.fractions(min_value=-5, max_value=5, max_denominator=3).map(CoeffQ.of)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda nc: st.lists(
            st.lists(entries, min_size=nc, max_size=nc), min_size=1, max_size=max_rows
        )
    )


def test_rref_known():
    m = [[CoeffQ.of(2), CoeffQ.of(4)], [CoeffQ.of(1), CoeffQ.of(2)]]
    rows, pivots = rref(m)
    assert pivots == [0]
    assert rows == [[CoeffQ.of(1), CoeffQ.of(2)]]


def test_rank_and_identity():
    assert rank(identity(4)) == 4
    assert rank([[CoeffQ.of(0)] * 3]) == 0


def test_kernel_of_empty_and_zero():
    # no constraints: the kernel is everything
    basis = kernel_basis([], ncols=3)
    assert len(basis) == 3
    z = [[CoeffQ.of(0)] * 3]
    assert len(kernel_basis(z, ncols=3)) == 3


def test_solve_unique():
    m = [[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(1), CoeffQ.of(-1)]]
    sol = solve(m, [CoeffQ.of(3), CoeffQ.of(1)])
    assert sol is not None
    values, free = sol
    assert not free
    assert values == [CoeffQ.of(2), CoeffQ.of(1)]


def test_solve_inconsistent():
    m = [[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(2), CoeffQ.of(2)]]
    assert solve(m, [CoeffQ.of(1), CoeffQ.of(3)]) is None


def test_solve_reports_free_columns():
    m = [[CoeffQ.of(1), CoeffQ.of(1)]]
    sol = solve(m, [CoeffQ.of(5)])
    assert sol is not None
    values, free = sol
    assert free == [1]
    assert values[0] == CoeffQ.of(5) and values[1] == CoeffQ.of(0)


@given(matrices())
def test_rref_idempotent(m):
    rows, pivots = rref(m)
    again, pivots2 = rref([list(r) for r in rows])
    assert rows == again and pivots == pivots2


@given(matrices())
def test_kernel_annihilates(m):
    ncols = len(m[0])
    for v in kernel_basis(m, ncols=ncols):
        assert all(c.is_zero() for (c,) in mat_mul(m, [[x] for x in v]))


@given(matrices())
def test_rank_respects_transpose(m):
    assert rank(m) == rank([list(col) for col in zip(*m)])


@given(matrices())
def test_solve_solutions_satisfy(m):
    rng = random.Random(7)
    x = [CoeffQ.of(rng.randint(-3, 3)) for _ in range(len(m[0]))]
    rhs = [r[0] for r in mat_mul(m, [[c] for c in x])]
    sol = solve(m, rhs)
    assert sol is not None  # consistent by construction
    values, _free = sol
    assert mat_mul(m, [[c] for c in values]) == [[b] for b in rhs]


@given(matrices())
def test_reduce_against_stays_in_span(m):
    rows, pivots = rref(m)
    if not rows:
        return
    vec = [sum((r[k] for r in rows), CoeffQ.of(0)) for k in range(len(m[0]))]
    residual, combo = reduce_against(vec, rows, pivots)
    assert all(c.is_zero() for c in residual)
    assert len(combo) == len(rows)


def test_mat_mul_associates():
    a = [[CoeffQ.of(1), CoeffQ.of(2)], [CoeffQ.of(0), CoeffQ.of(1)]]
    b = [[CoeffQ.of(3), CoeffQ.of(0)], [CoeffQ.of(1), CoeffQ.of(1)]]
    c = [[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(1), CoeffQ.of(0)]]
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class _CountingToken:
    """Cancel token stub: counts polls and fires on poll number fire_at."""

    def __init__(self, fire_at=None):
        self.calls = 0
        self.fire_at = fire_at

    def check(self):
        self.calls += 1
        if self.calls == self.fire_at:
            raise Cancelled("stub token fired")


def _cancel_corpus():
    rng = random.Random(11)
    out = []
    shapes = ((6, 6, 1.0, False), (5, 8, 1.0, True), (12, 40, 0.1, False), (12, 40, 0.1, True))
    for nrows, ncols, density, complex_ok in shapes:
        m = [
            [rand_scalar(rng, complex_ok) if rng.random() < density else CoeffQ(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m.append([CoeffQ(0)] * ncols)
        out.append(m)
    return out


def test_rref_polls_once_per_pivot_and_cancels_cleanly():
    for m in _cancel_corpus():
        snapshot = [list(r) for r in m]
        token = _CountingToken()
        rows, pivots = rref(m, cancel=token)
        assert pivots and token.calls >= len(pivots)
        # one poll per pivot at least: a token firing on any of the first
        # len(pivots) polls stops rref with no result and the input untouched
        for n in range(1, len(pivots) + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                rref(m, cancel=stub)
            assert stub.calls == n
            assert m == snapshot
        assert rref(m, cancel=_CountingToken(fire_at=token.calls + 1)) == (rows, pivots)


def test_rank_polls_and_cancels_cleanly():
    for m in _cancel_corpus():
        snapshot = [list(r) for r in m]
        token = _CountingToken()
        want = rank(m, cancel=token)
        assert want == len(rref(m)[1]) and token.calls >= want
        # a token firing on any poll stops rank with no result and the input untouched
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                rank(m, cancel=stub)
            assert stub.calls == n
            assert m == snapshot
        assert rank(m, cancel=_CountingToken(fire_at=token.calls + 1)) == want


@pytest.mark.parametrize("which", ["solve", "kernel_basis"])
def test_solve_and_kernel_basis_poll_once_per_pivot_and_cancel_cleanly(which):
    rng = random.Random(12)
    for m in _cancel_corpus():
        ncols = len(m[0])
        rhs = [r[0] for r in mat_mul(m, [[rand_scalar(rng)] for _ in range(ncols)])]
        if which == "solve":
            def run(cancel):
                return solve(m, rhs, cancel=cancel)
            pivots = rref([list(r) + [b] for r, b in zip(m, rhs)])[1]
        else:
            def run(cancel):
                return kernel_basis(m, ncols=ncols, cancel=cancel)
            pivots = rref(m)[1]
        snapshot = [list(r) for r in m]
        token = _CountingToken()
        want = run(token)
        assert pivots and token.calls >= len(pivots)
        # a token firing on any poll stops the call with no result and the input untouched
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                run(stub)
            assert stub.calls == n
            assert m == snapshot
        assert run(_CountingToken(fire_at=token.calls + 1)) == want
