import copy
import random
from operator import itemgetter

import pytest
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from polymod import BiPoly, Cancelled, CoeffQ, UniPoly, operators, spans
from polymod.modules import phi
from polymod.linalg import rref
from polymod.operators import _witness
from polymod.spans import in_span, span_reduce, span_rows

from conftest import rand_bipoly, rand_scalar, rand_unipoly
from test_linalg import _CountingToken


def test_span_reduce_drops_dependents():
    F = BiPoly.monomial(1, 0)
    basis = span_reduce([F, F.scale(2), F.scale(-1)])
    assert len(basis) == 1


def test_span_reduce_deterministic(rng):
    polys = [rand_bipoly(rng, 3, 3) for _ in range(6)]
    a = span_reduce(list(polys))
    b = span_reduce(list(polys))
    assert a == b


def test_in_span_with_combination(rng):
    basis = [rand_bipoly(rng, 3, 2) for _ in range(4)]
    coeffs = [CoeffQ.of(rng.randint(-3, 3)) for _ in basis]
    target = BiPoly.zero()
    for c, b in zip(coeffs, basis):
        target = target + b.scale(c)
    ok, combo = in_span(target, basis)
    assert ok
    # the combination is expressed over the reduced basis; re-verify it
    reduced_rows = span_reduce(basis)
    rebuilt = BiPoly.zero()
    for c, b in zip(combo, reduced_rows):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == target


def test_in_span_negative():
    ok, combo = in_span(BiPoly.monomial(0, 1), [BiPoly.monomial(1, 0)])
    assert not ok and combo is None


def test_in_span_zero_always():
    assert in_span(BiPoly.zero(), []) == (True, [])


def _seed_key(cell, s=2, bound=2):
    """v_space's frame key: cells of x-degree >= bound, then the seed cells
    (coordinate < s) x-power descending and coordinate ascending, then the rest."""
    return cell[0] < bound, cell[1] >= s, -cell[0], cell[1]


def test_span_reduce_seed_order_independent_prefixes():
    # seed tuples reduce as the polynomials BiPoly(tuple); v_space's key
    # puts the x-power 1 pivot before the constant one
    tuples = [
        (UniPoly([1]), UniPoly.zero()),
        (UniPoly.zero(), UniPoly.monomial(1)),
        (UniPoly([2]), UniPoly.monomial(1).scale(1)),
    ]
    polys = [BiPoly(t) for t in tuples]
    frame = spans.PolyFrame(polys, _seed_key)
    rows, _ = rref([frame.to_vec(P) for P in polys])
    assert [phi(frame.from_vec(r), 2) for r in rows] == [(UniPoly.zero(), UniPoly.monomial(1)), (UniPoly([1]), UniPoly.zero())]


def _rand_sparse_bipoly(rng, gaussian):
    """A BiPoly whose coordinates and coefficient lists have zeros in the middle."""
    coords = []
    for _n in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            coords.append(UniPoly.zero())
        else:
            coeffs = [rand_scalar(rng, gaussian) if rng.random() < 0.6 else 0 for _ in range(rng.randint(1, 5))]
            coords.append(UniPoly(coeffs))
    return BiPoly(coords)


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("key", [spans._graded, _seed_key], ids=["graded", "seed"])
def test_from_vec_inverts_to_vec_with_trimmed_lists(gaussian, key):
    rng = random.Random(f"from-vec-{gaussian}")
    middle_zero_coords = 0
    for _ in range(40):
        p = _rand_sparse_bipoly(rng, gaussian)
        middle_zero_coords += any(f.is_zero() for f in p.coords)
        # the second polynomial widens the frame, so p's vector ends in zero cells
        frame = spans.PolyFrame([p, _rand_sparse_bipoly(rng, gaussian)], key)
        q = frame.from_vec(frame.to_vec(p))
        assert q == p and hash(q) == hash(p)
        assert not q.coords or not q.coords[-1].is_zero()
        assert all(not f.coeffs or not f.coeffs[-1].is_zero() for f in q.coords)
        assert frame.from_vec(frame.to_vec(BiPoly.zero())) == BiPoly.zero()
    assert middle_zero_coords


def _sympy_rank(rows):
    """Rank by sympy's QQ_I elimination, independent of polymod.linalg."""
    if not rows or not rows[0]:
        return 0
    q = lambda x: QQ(x.numerator, x.denominator)
    elems = [[QQ_I(q(c.re), q(c.im)) for c in r] for r in rows]
    return DomainMatrix(elems, (len(rows), len(rows[0])), QQ_I).rank()


# (nvecs, deg_x, coordinates, density, gaussian, dependent): width (deg_x + 1) * coordinates
VANISHING_SHAPES = [
    (8, 4, 4, 0.15, False, False),
    (8, 4, 4, 0.15, True, False),
    (6, 2, 3, 1.0, True, False),
    (9, 3, 3, 0.3, False, True),
    (9, 3, 3, 0.5, True, True),
]


@pytest.mark.parametrize("shape", VANISHING_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_vanishing_part_contract(shape, seed):
    """_witness, the first nonzero combination of vecs that vanishes in
    coordinates 0..K-1, against sympy's ranks of vecs and of their restriction
    to those cells, in a graded frame (even seeds) and one keyed by coordinate."""
    nvecs, deg_x, ncoords, density, gaussian, dependent = shape
    rng = random.Random(f"vanishing-{shape}-{seed}")
    full = BiPoly([UniPoly([CoeffQ(1)] * (deg_x + 1))] * ncoords)
    frame = spans.PolyFrame([full]) if seed % 2 == 0 else spans.PolyFrame([full], key=itemgetter(1, 0))
    width = len(frame.index)
    vecs = [
        [rand_scalar(rng, gaussian) if rng.random() < density else CoeffQ(0) for _ in range(width)]
        for _ in range(nvecs)
    ]
    if dependent:  # a third of the vectors are combinations of two others
        for r in range(0, nvecs, 3):
            a, b = rng.sample(range(nvecs), 2)
            fa, fb = rand_scalar(rng, gaussian), rand_scalar(rng, gaussian)
            vecs[r] = [fa * x + fb * y for x, y in zip(vecs[a], vecs[b])]
    full_rank = _sympy_rank(vecs)
    for K in range(ncoords + 1):
        w = _witness(frame, vecs, K)
        restriction = [[v[k] for (_i, n), k in frame.index.items() if n < K] for v in vecs]
        # a nonzero combination vanishes below K exactly when the restriction loses rank
        assert (w is None) == (_sympy_rank(restriction) == full_rank)
        if w is not None:
            assert not w.is_zero()
            assert all(w.coord(n).is_zero() for n in range(K))
            assert _sympy_rank(vecs + [frame.to_vec(w)]) == full_rank
    # with no cell to vanish on, every vector is a combination; the first nonzero one comes back
    assert _witness(frame, vecs, 0) == next((frame.from_vec(v) for v in vecs if any(v)), None)


def test_vanishing_part_of_nothing():
    frame = spans.PolyFrame([BiPoly.monomial(1, 1)], key=itemgetter(1, 0))
    assert all(_witness(frame, [], K) is None for K in range(3))


class _PollSpy:
    """Wraps functions of a module so that every call on a nonempty first
    argument records how often the token polled while it ran."""

    def __init__(self, monkeypatch, module, names):
        self.active = []  # the wrapped calls running now, innermost last, as [name, polls so far]
        self.finished = []  # (name, polls) of each call on a nonempty input
        self.patch(monkeypatch, module, names)

    def patch(self, monkeypatch, module, names):
        for name in names:
            monkeypatch.setattr(module, name, self._wrap(name, getattr(module, name)))

    def _wrap(self, name, fn):
        def wrapped(first, *args, **kwargs):
            self.active.append([name, 0])
            try:
                return fn(first, *args, **kwargs)
            finally:
                if first:
                    self.finished.append(tuple(self.active[-1]))
                self.active.pop()
        return wrapped

    def token(self):
        spy = self

        class _Token(_CountingToken):
            def check(self):
                for frame in spy.active:
                    frame[1] += 1
                super().check()

        return _Token()


def _span_helper_cases():
    """(function, inputs) on seeded nonempty real and Gaussian inputs."""
    rng = random.Random(0x5BA2)
    cases = []
    for _ in range(3):
        basis = [rand_bipoly(rng, 3, 2) for _ in range(4)]
        inside = BiPoly.zero()
        for b in basis:
            inside = inside + b.scale(rand_scalar(rng))
        cases.append((in_span, (inside, basis)))
        cases.append((in_span, (BiPoly.monomial(4, 1), basis)))
        # the reduced rows of a span with the zero-prefix element x * y^2 have a witness at K = 2
        frame, rows = span_rows(basis + [BiPoly.monomial(1, 2)])
        cases.append((_witness, (frame, rows, 2)))
        tuples = [(rand_unipoly(rng, 2), rand_unipoly(rng, 2)) for _ in range(4)]
        cases.append((span_reduce, ([BiPoly(t) for t in tuples],)))
    return cases


def test_span_helpers_poll_in_every_elimination(monkeypatch):
    spy = _PollSpy(monkeypatch, spans, ["rref", "eliminate"])
    spy.patch(monkeypatch, operators, ["eliminate", "product"])
    runs = []
    for fn, inputs in _span_helper_cases():
        spy.finished.clear()
        w = fn(*inputs, cancel=spy.token())
        names = [name for name, _polls in spy.finished]
        runs.append((fn, names))
        # every rref, eliminate and product run on a nonempty input polls the token
        assert names and all(polls for _name, polls in spy.finished), fn.__name__
        if fn is _witness:
            assert w is not None
    # in_span eliminates on Z[i] rows; _witness eliminates the prefix restriction, then combines by product
    assert (in_span, ["eliminate"]) in runs
    assert (_witness, ["eliminate", "product"]) in runs


def test_span_rows_polls_once_per_vector_before_it_reduces(monkeypatch):
    rng = random.Random(0x5BA3)
    polys = [rand_bipoly(rng, 4, 3) for _ in range(6)] + [BiPoly.zero()]
    seen = []  # polls made before rref starts
    real = spans.rref

    def spy(rows, cancel=None):
        seen.append(cancel.calls)
        return real(rows, cancel=cancel)

    frame, want = span_rows(polys)
    monkeypatch.setattr(spans, "rref", spy)
    got = span_rows(polys, _CountingToken())
    assert got[0].index == frame.index and got[1] == want
    # one poll per nonzero polynomial's vector; the zero one is dropped first
    assert seen == [6]
    for n in range(1, 7):
        seen.clear()
        with pytest.raises(Cancelled):
            span_rows(polys, _CountingToken(fire_at=n))
        assert seen == []


def _state(inputs):
    """The inputs, each frame as its cell index (PolyFrame has no equality)."""
    return [x.index if isinstance(x, spans.PolyFrame) else x for x in inputs]


@pytest.mark.parametrize("fn", [in_span, _witness, span_reduce], ids=lambda f: f.__name__)
def test_span_helpers_cancel_cleanly_on_every_poll(fn):
    for case_fn, inputs in _span_helper_cases():
        if case_fn is not fn:
            continue
        snapshot = copy.deepcopy(_state(inputs))
        token = _CountingToken()
        want = fn(*inputs, cancel=token)
        assert token.calls >= 1
        assert want == fn(*inputs)
        # a token firing on any poll stops the call with no result and the inputs untouched
        for n in range(1, token.calls + 1):
            stub = _CountingToken(fire_at=n)
            with pytest.raises(Cancelled):
                fn(*inputs, cancel=stub)
            assert stub.calls == n
            assert _state(inputs) == snapshot
        assert fn(*inputs, cancel=_CountingToken(fire_at=token.calls + 1)) == want
