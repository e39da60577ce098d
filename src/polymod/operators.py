"""Recovering recursion tables from spaces, orders, and nilpotent structure.

Inference inverts generation: a span whose elements are pinned by their
first s coordinates admits at most one operator table of support
j <= deg_bound reproducing coordinate s, read off the basis elements'
coordinates: equation 0 of each, checked by the recursion, and every
equation only when a slot stays free. The pinning check reduces the seed
prefixes, and the whole span only when their rank falls short. The paper's
L-module order, the smallest K such that a span element vanishing in its
first K coordinates is zero, is one past the highest pivot coordinate of one
reduction in a frame keyed by coordinate; a witness BiPoly for a smaller K
is a vanishing combination, which the sum order reports and inference's
prefix check raises. The nilpotent machinery decomposes the coordinatewise
derivative acting on truncated seed-tuple quotients into shift chains on
Z[i] rows: ker D^k is read off the reduced rows of D^(k-1) times D, one
elimination per height in the free columns of D^k picks that height's
generators, and one product per height advances every chain.
canonical_split reads the pair (d, order) of Sum(Md(d), MGamma(g)) off the
expression: it is (d, g.s).
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, lcm
from operator import itemgetter

from .cancel import CancelToken, _polled
from .errors import NotAnLModule, NotNilpotent, Underdetermined, UnsupportedExpr
from .gamma import GammaTable, _recur, _terms, monomial_seed_elements
from .linalg import _dense, _kernel, _numerators, eliminate, product, rref
from .modules import _Value, _md_gamma
from .poly import _ZERO_POLY, _bipoly
from .scalars import ZERO, CoeffQ, _entry
from .spans import PolyFrame, span_rows


def _order(frame, vecs, cancel=None):
    """(K, rank) of the span of vecs in a frame keyed by coordinate, then
    x-power: K is the L-module order, the smallest K >= 1 such that every
    span element vanishing in coordinates 0..K-1 is zero.

    An RREF row pivoted in coordinate n is zero in coordinates 0..n-1, so no
    K <= n pins the span. A span element is sum c_r * row_r, c_r its entry at
    row r's pivot, so one vanishing below every pivot coordinate is zero: K
    is one past the highest pivot coordinate, or 1 when there are no rows.
    """
    _, pivots = eliminate(_numerators(vecs, cancel), cancel)
    return (list(frame.index)[pivots[-1]][1] + 1 if pivots else 1), len(pivots)


def _witness(frame, vecs, K, cancel=None):
    """The first nonzero combination of vecs vanishing in coordinates
    0..K-1, as a BiPoly of frame, or None when no such combination exists;
    of the kernel's combinations, only that one is made dense."""
    prefix = [k for (_i, n), k in frame.index.items() if n < K]
    kernel = _kernel(*eliminate(_numerators([[v[k] for v in vecs] for k in prefix], cancel), cancel), len(vecs), cancel)
    if not kernel:  # convert vecs only when some combination vanishes
        return None
    w = next(((den, row) for den, row in product(kernel, _numerators(vecs), cancel) if row), None)
    return None if w is None else frame.from_vec(_dense(w[1], w[0], len(vecs[0])))


def order_of_module(basis, deg_bound: int, cancel: CancelToken | None = None) -> int | None:
    """Smallest s <= deg_bound with no nonzero span element vanishing on the
    first s coordinates; None if every s up to the bound fails."""
    if type(deg_bound) is not int or deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    basis = list(basis)
    frame = PolyFrame(basis, key=itemgetter(1, 0))
    K, _ = _order(frame, [frame.to_vec(p) for p in basis], cancel)
    return K if K <= deg_bound else None


def infer_L(basis, s: int, deg_bound: int, cancel: CancelToken | None = None) -> GammaTable:
    """Recover the unique width-s table with support j <= deg_bound that
    reproduces coordinate s on the whole span, which need not be closed.

    Equation 0 of G, the constant term of coordinate s, reads f_{i-1}[j] in
    slot (i, j), whose unknown is j! * a_ij, and f_s[0] on the right; F's
    equation m is equation 0 of d^m F/dx^m. So the equations 0 of the basis
    elements, which span every equation when the span is closed under d/dx,
    are solved first. The whole system's solutions lie among theirs: if they
    are inconsistent, or their unique table fails one recursion step on some
    basis element, no table fits. Only a free slot sends the solve to every
    x-derivative. A zero-prefix element combines elements whose prefixes
    cancel, so only a prefix rank below the count of nonzero elements reduces
    the whole span for a witness.

    Raises NotAnLModule when the span has a nonzero element with zero seed
    prefix (coordinate s is then not a function of the prefix) or when no
    table of the given shape is consistent with the span. Raises
    Underdetermined when the span is too small to pin every coefficient slot;
    the error lists the free (i, j) slots.
    """
    if type(s) is not int or s < 1:
        raise ValueError("s must be a positive int")
    if type(deg_bound) is not int or deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    basis = [F for F in basis if not F.is_zero()]
    if len(span_rows([_bipoly(list(F.coords[:s])) for F in basis], cancel)[1]) < len(basis):
        witness = _witness(*span_rows(basis, cancel=cancel), s, cancel)
        if witness is not None:
            raise NotAnLModule(
                "a nonzero element of the span vanishes in its first "
                f"{s} coordinates, so coordinate {s} is not determined by the seed prefix",
                witness=witness,
            )
    # unknowns a_{i,j} ordered layer by layer: j ascending, then i ascending
    slots = [(i, j) for j in range(1, deg_bound + 1) for i in range(1, s + 1)]
    if not basis:
        raise Underdetermined("the span pins no coefficient slot", free_slots=slots)
    # coordinates 0..s of each element; both systems solve for j! * a_ij
    tops = [_bipoly(list(F.coords[: s + 1])) for F in _polled(basis, cancel)]
    rhs = len(slots)  # the column of the right side; a pivot there is an inconsistent system

    def system(polys):  # equation 0 of each G: slot (i, j) reads f_{i-1}[j], the right side f_s[0]
        rows = [[ZERO] * (rhs + 1) for _ in polys]
        for row, G in zip(rows, polys):  # each stored triple read once, only its nonzero cells written
            for n, f in enumerate(G.coords[:s]):
                re, im, den = f._z
                for j in range(1, min(len(re), deg_bound + 1)):
                    if re[j] or im[j]:
                        row[(j - 1) * s + n] = _entry(re[j], im[j], den)
            re, im, den = G.coord(s)._z
            row[rhs] = _entry(re[0], im[0], den) if re else ZERO
        return rref(rows, cancel)

    red, pivots = system(tops)
    if rhs not in pivots and pivots != list(range(rhs)):  # equation m of G is equation 0 of d^m G/dx^m
        red, pivots = system([G.d_dx(m) for G in tops for m in range(G.deg_x + 1)])
    if pivots == list(range(rhs)):  # unique: row c holds j! * a_ij of slots[c] in column rhs
        g = GammaTable(s, {(i, j): row[rhs] / factorial(j) for (i, j), row in zip(slots, red) if row[rhs] is not ZERO})
        _terms(g, max(len(f._z[0]) for F in basis for f in F.coords[:s]))  # convert g once, at the widest window
        # the step gives coordinate s iff every equation of F holds, as always after the full solve
        if all(next(_recur(g, [F.coord(n) for n in range(s)], cancel), _ZERO_POLY) == F.coord(s) for F in basis):
            return g
    elif rhs not in pivots:
        free = [slot for c, slot in enumerate(slots) if c not in pivots]
        raise Underdetermined("the span leaves coefficient slots free", free_slots=free)
    raise NotAnLModule(
        f"no operator table of the requested shape reproduces coordinate {s} across the span within the truncation"
    )


class SumOrderReport(_Value):
    __slots__ = ("order", "deg_bound", "kernel_dim", "refuted")  # refuted: (K, witness BiPoly) for each K < order


def order_of_sum_report(g1: GammaTable, g2: GammaTable, deg_bound: int, cancel: CancelToken | None = None) -> SumOrderReport:
    """Smallest K such that every sum F + G (F from g1's space, G from g2's,
    seeds of degree < deg_bound) vanishing in coordinates 0..K-1 is zero.

    Coordinates are compared exactly on the fully generated polynomials; only
    the seed degree is truncated, and the report records that bound.
    """
    if type(deg_bound) is not int or deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    gens = monomial_seed_elements(g1, deg_bound, cancel) + monomial_seed_elements(g2, deg_bound, cancel)
    frame = PolyFrame(gens, key=itemgetter(1, 0))
    vecs = [frame.to_vec(p) for p in gens]
    order, rank = _order(frame, vecs, cancel)
    refuted = tuple((K, _witness(frame, vecs, K, cancel)) for K in range(1, order))
    return SumOrderReport(order=order, deg_bound=deg_bound, kernel_dim=len(gens) - rank, refuted=refuted)


class ChainDecomposition(_Value):
    # chains: ((generator vector, length), ...); basis_vectors: D^j u per chain, in selection order
    __slots__ = ("dim", "chains", "basis_vectors")


def _coerce_matrix(mat):
    rows = [list(row) for row in mat]
    if any(type(c) is bool for row in rows for c in row):
        raise TypeError("booleans are not rationals")
    rows = [[CoeffQ.of(c) for c in row] for row in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def nilpotent_chains(mat, cancel: CancelToken | None = None) -> ChainDecomposition:
    """Decompose a nilpotent matrix into shift chains D^j u.

    Rows of D^(k+1) = D^k D are rows of D^k times D, so the RREF rows of D^k,
    times D, span the row space of D^(k+1): each k is one product and one
    elimination on rank(D^k) rows, ker D^k is read off that RREF, one vector
    per free column, and the first k of rank 0 is the index p.
    Generators are chosen greedily from height p down: the vector u_fc of
    ker D^k at free column fc is new when it lies outside the span of
    ker D^(k-1), the images D^(length-k) u of the chains so far and the u_fc'
    with fc' < fc. All of these lie in ker D^k, where keeping the free
    columns of D^k is injective and sends u_fc to e_fc; so u_fc is new
    exactly when no vector of W, ker D^(k-1) and the images so restricted,
    has its last nonzero entry at fc. Those last positions are the pivots of
    one elimination of W with the free columns in reverse order.
    D is converted to Z[i] rows once, and its transpose is built from those
    rows; each basis vector is made dense once, and each chain's generator
    is its first basis vector.
    Raises NotNilpotent if D^dim != 0.
    """
    D = _coerce_matrix(mat)
    n = len(D)
    if n == 0:
        return ChainDecomposition(dim=0, chains=(), basis_vectors=())
    # D as Z[i] rows, and its transpose from them over the lcm of their
    # denominators; every vector below is a Z[i] row too
    Dz = _numerators(D)
    L = lcm(*[den for den, _row in Dz])
    Dtz = [(L, {}) for _ in range(n)]
    for i, (den, row) in enumerate(Dz):
        for j, (re, im) in row.items():
            Dtz[j][1][i] = re * (L // den), im * (L // den)
    levels, rows = [(range(n), [])], Dz  # levels[k] = (pivot columns of D^k, ker D^k); rows span D^k's rows
    while levels[-1][0]:
        red, pivots = eliminate(rows, cancel)
        levels.append((set(pivots), _kernel(red, pivots, n, cancel)))
        if red and len(levels) > n:
            raise NotNilpotent(f"matrix is not nilpotent: D^{n} != 0")
        rows = red and product([(den, row | {pc: (den, 0)}) for (den, row), pc in zip(red, pivots)], Dz, cancel)
    p = len(levels) - 1
    chains = []  # (generator, length)
    images = []  # D^(length-k) u of each chain at height k, as rows
    trail = []  # trail[p-k] = images at height k
    for k in range(p, 0, -1):
        pivots, kernel = levels[k]
        # W on the free columns of D^k, column fc keyed n - 1 - fc: its pivots are the last nonzero positions
        W = [(den, {n - 1 - j: v for j, v in row.items() if j not in pivots}) for den, row in levels[k - 1][1] + images]
        last = set(eliminate(W, cancel)[1])
        new = [u for fc, u in zip(sorted(set(range(n)) - pivots), kernel) if n - 1 - fc not in last]
        chains += [(u, k) for u in new]
        trail.append(images + new)
        images = product(trail[-1], Dtz, cancel)
    if any(row for _den, row in images):
        raise AssertionError("chain does not terminate at zero")
    # D^t u of chain c is its image at height length - t
    basis = [trail[p - length + t][c] for c, (_u, length) in enumerate(chains) for t in range(length)]
    if len(basis) != n or len(eliminate(basis, cancel)[1]) != n:
        raise AssertionError("chain vectors do not form a basis")
    out = tuple(tuple(_dense(row, den, n)) for den, row in basis)
    # each chain's generator u = D^0 u is its first basis vector
    firsts = accumulate([length for _u, length in chains[:-1]], initial=0)
    chains = tuple((out[t], length) for t, (_u, length) in zip(firsts, chains))
    return ChainDecomposition(dim=n, chains=chains, basis_vectors=out)


def quotient_derivation(s: int, k: int, d: int):
    """Matrix of the componentwise x-derivative on (tuples of degree < k)
    modulo (tuples of degree < d), over all width-s seed tuples.

    Basis cosets are x^m in slot i, ordered slot-major with m ascending.
    The result is nilpotent of index k - d.
    """
    if type(s) is not int or s < 1:
        raise ValueError("s must be a positive int")
    if not (type(k) is int and type(d) is int and k > d >= 0):
        raise ValueError("need k > d >= 0")
    width = k - d
    size = s * width

    def idx(i: int, m: int) -> int:
        return (i - 1) * width + (m - d)

    mat = [[ZERO] * size for _ in range(size)]
    for i in range(1, s + 1):
        for m in range(d + 1, k):
            mat[idx(i, m - 1)][idx(i, m)] = CoeffQ(m)
    return mat


def canonical_split(M) -> tuple[int, int]:
    """(d, g.s) of Sum(Md(d), MGamma(g)) in either part order: the smallest e
    with x^e y^t outside the sum for some t, and the smallest such t at that e.

    x^e y^t with e < d lies in Md(d). For t < g.s, x^d y^t is a seed, and its
    recursion tail has x-degree < d because every step differentiates, so it
    lies in the sum. x^d y^(g.s) has a zero seed prefix, so its residual is
    itself, of x-degree d in coordinate g.s: it lies outside the sum.
    """
    shape = _md_gamma(M)
    if shape is None:
        raise UnsupportedExpr("canonical_split needs Sum(Md, MGamma)")
    d, g = shape
    return d, g.s
