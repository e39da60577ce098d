import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polymod import BiPoly, Cancelled, CoeffQ, UniPoly, linalg
from polymod.linalg import _kernel, _numerators, eliminate, product, rref
from polymod.scalars import ZERO
from polymod.spans import in_span, span_reduce

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


def _rank(m) -> int:
    return len(eliminate(_numerators(m))[1])


def _null_space(rows, ncols, cancel=None):
    """Z[i] basis of {x : A x = 0} for Z[i] rows of ncols columns, read off their RREF."""
    return _kernel(*eliminate(rows, cancel), ncols)


def _solve(m, rhs, cancel=None):
    """(solution with free columns 0, free columns) of m x = rhs, read off the
    RREF of [m | rhs], or None when that RREF has a pivot in the rhs column."""
    ncols = len(m[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(m, rhs)], cancel)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[ncols]
    return x, sorted(set(range(ncols)) - set(pivots))


def _apply(m, x):
    """m x on CoeffQ rows and a CoeffQ vector, entry by entry."""
    return [sum((a * b for a, b in zip(row, x)), CoeffQ(0)) for row in m]


def test_rank_and_identity():
    assert _rank(identity(4)) == 4
    assert _rank([[CoeffQ.of(0)] * 3]) == 0


def test_kernel_of_empty_and_zero():
    # no constraints: the kernel is everything
    basis = _null_space([], 3)
    assert len(basis) == 3
    z = [[CoeffQ.of(0)] * 3]
    assert len(_null_space(_numerators(z), 3)) == 3


def test_solve_unique():
    m = [[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(1), CoeffQ.of(-1)]]
    sol = _solve(m, [CoeffQ.of(3), CoeffQ.of(1)])
    assert sol is not None
    values, free = sol
    assert not free
    assert values == [CoeffQ.of(2), CoeffQ.of(1)]


def test_solve_inconsistent():
    m = [[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(2), CoeffQ.of(2)]]
    assert _solve(m, [CoeffQ.of(1), CoeffQ.of(3)]) is None


def test_solve_reports_free_columns():
    m = [[CoeffQ.of(1), CoeffQ.of(1)]]
    sol = _solve(m, [CoeffQ.of(5)])
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
    # each kernel vector v gives v @ m^T = (m v)^T = 0
    for _den, row in product(_null_space(_numerators(m), len(m[0])), _numerators(zip(*m))):
        assert not row


@given(matrices())
def test_rank_respects_transpose(m):
    assert _rank(m) == _rank([list(col) for col in zip(*m)])


@given(matrices())
def test_solve_solutions_satisfy(m):
    rng = random.Random(7)
    x = [CoeffQ.of(rng.randint(-3, 3)) for _ in range(len(m[0]))]
    rhs = _apply(m, x)
    sol = _solve(m, rhs)
    assert sol is not None  # consistent by construction
    values, _free = sol
    assert _apply(m, values) == rhs


@given(matrices())
def test_in_span_of_row_sums(m):
    # the rows as one-coordinate polynomials; the sum of the reduced basis
    # has the coefficient 1 on each reduced row
    basis = [BiPoly([UniPoly(row)]) for row in m]
    red = span_reduce(basis)
    if not red:
        return
    p = sum(red[1:], red[0])
    assert in_span(p, basis) == (True, [CoeffQ(1)] * len(red))


def test_product_associates():
    a = _numerators([[CoeffQ.of(1), CoeffQ.of(2)], [CoeffQ.of(0), CoeffQ.of(1)]])
    b = _numerators([[CoeffQ.of(3), CoeffQ.of(0)], [CoeffQ.of(1), CoeffQ.of(1)]])
    c = _numerators([[CoeffQ.of(1), CoeffQ.of(1)], [CoeffQ.of(1), CoeffQ.of(0)]])
    assert product(product(a, b), c) == product(a, product(b, c))


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


def test_rref_polls_once_per_row_before_it_eliminates(monkeypatch):
    seen = []  # polls made before eliminate starts
    real = linalg.eliminate

    def spy(rows, cancel=None):
        seen.append(cancel.calls)
        return real(rows, cancel)

    monkeypatch.setattr(linalg, "eliminate", spy)
    for m in _cancel_corpus():
        seen.clear()
        token = _CountingToken()
        assert _numerators(m, token) == _numerators(m) and token.calls == len(m)
        rref(m, cancel=_CountingToken())
        # the conversion polls once per input row, the all-zero one included
        assert seen == [len(m)]
        for n in range(1, len(m) + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                rref(m, cancel=stub)
            assert stub.calls == n
        assert seen == [len(m)]


def test_rank_polls_and_cancels_cleanly():
    for m in _cancel_corpus():
        rows = _numerators(m)
        snapshot = _numerators(m)
        token = _CountingToken()
        want = len(eliminate(rows, token)[1])
        assert want == len(rref(m)[1]) and token.calls >= want
        # a token firing on any poll stops eliminate with no result and the input untouched
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                eliminate(rows, stub)
            assert stub.calls == n
            assert rows == snapshot
        assert len(eliminate(rows, _CountingToken(fire_at=token.calls + 1))[1]) == want


def test_eliminate_polls_once_per_unit_of_kept_row_work(monkeypatch):
    # a unit is one cross-cancellation against a kept row, its lazy rescale
    # included, or one _combine of a kept row at a new pivot; on a dense
    # system every kept row is combined at each new pivot, so per-row polls
    # alone would leave up to n - 1 _combine calls between two polls
    since, worst = [0], []  # _combine calls since the last poll; the most seen per system
    real = linalg._combine

    def spy(*args):
        since[0] += 1
        return real(*args)

    class _Token:
        def check(self):
            worst[-1] = max(worst[-1], since[0])
            since[0] = 0

    monkeypatch.setattr(linalg, "_combine", spy)
    rng = random.Random(0x18)
    for n in (8, 16, 32):
        m = [[CoeffQ(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        want = eliminate(_numerators(m))
        since[0] = 0
        worst.append(0)
        assert eliminate(_numerators(m), _Token()) == want and want[1] == list(range(n))
        worst[-1] = max(worst[-1], since[0])
    assert worst == [1, 1, 1]


def test_product_polls_once_per_row_and_cancels_cleanly():
    for m in _cancel_corpus():
        # m @ m^T, one output row per row of m
        a, b = _numerators(m), _numerators(zip(*m))
        snapshot = _numerators(m), _numerators(zip(*m))
        token = _CountingToken()
        want = product(a, b, token)
        assert token.calls == len(m)
        # a token firing on any poll stops product with no result and the input untouched
        for n in range(1, len(m) + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                product(a, b, stub)
            assert stub.calls == n
            assert (a, b) == snapshot
        assert product(a, b, _CountingToken(fire_at=len(m) + 1)) == want


def test_kernel_polls_once_per_free_column_and_cancels_cleanly():
    # a few rows over many columns leave a wide null space
    rng = random.Random(0x4EE)
    for nrows, ncols, complex_ok in ((1, 40, False), (3, 25, True)):
        m = [[rand_scalar(rng, complex_ok) for _ in range(ncols)] for _ in range(nrows)]
        red, pivots = eliminate(_numerators(m))
        free = ncols - len(pivots)
        token = _CountingToken()
        want = _kernel(red, pivots, ncols)
        assert _kernel(red, pivots, ncols, token) == want and token.calls >= free >= 22
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                _kernel(red, pivots, ncols, stub)
            assert stub.calls == n


@pytest.mark.parametrize("which", ["solve", "null_space"])
def test_solve_and_null_space_poll_once_per_pivot_and_cancel_cleanly(which):
    rng = random.Random(12)
    for m in _cancel_corpus():
        ncols = len(m[0])
        rhs = _apply(m, [rand_scalar(rng) for _ in range(ncols)])
        if which == "solve":
            data, snapshot = m, [list(r) for r in m]

            def run(cancel):
                return _solve(data, rhs, cancel=cancel)
            pivots = rref([list(r) + [b] for r, b in zip(m, rhs)])[1]
        else:
            data, snapshot = _numerators(m), _numerators(m)

            def run(cancel):
                return _null_space(data, ncols, cancel=cancel)
            pivots = rref(m)[1]
        token = _CountingToken()
        want = run(token)
        assert pivots and token.calls >= len(pivots)
        # a token firing on any poll stops the call with no result and the input untouched
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                run(stub)
            assert stub.calls == n
            assert data == snapshot
        assert run(_CountingToken(fire_at=token.calls + 1)) == want
