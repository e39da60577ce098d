"""Recovering recursion tables from spaces, orders, and nilpotent structure.

Inference inverts generation: a differentiation-closed span whose elements
are pinned by their first s coordinates admits at most one operator table of
support j <= deg_bound reproducing coordinate s, and an exact linear solve
recovers it layer by derivative layer, reading the rows of one ``span_rows``
reduction in their frame. One search computes the paper's L-module order,
the smallest K such that a span element vanishing in its first K coordinates
is zero, with a witness BiPoly for each smaller K. It takes a frame and
vectors: the module order and inference's prefix check pass the reduced
rows, and the sum order its generators' vectors. The nilpotent
machinery decomposes the coordinatewise derivative acting on truncated
seed-tuple quotients into shift chains on Z[i] rows: one elimination per
height picks that height's generators by their pivot columns, and one
product per height advances every chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .cancel import CancelToken
from .errors import NotAnLModule, NotNilpotent, Underdetermined, UnsupportedExpr
from .gamma import GammaTable, monomial_seed_elements
from .linalg import _columns, _dense, _numerators, eliminate, null_space, product, solve
from .modules import MGamma, Md, Sum, contains
from .poly import BiPoly
from .scalars import ZERO, CoeffQ
from .spans import PolyFrame, span_rows, vanishing_part


def _pinning_order(frame, vecs, ks, cancel=None):
    """The paper's L-module order of the span of vecs, polynomials as vectors
    of frame: the smallest K in ks such that every span element vanishing in
    coordinates 0..K-1 is zero.

    Returns (K, kernel dimension at K, ((K', witness BiPoly) for each K' in ks
    before K)); the dimension counts the combinations of vecs that vanish at
    K, so it is 0 for independent rows. K and the dimension are None when no
    K in ks pins the span.
    """
    refuted = []
    for K in ks:
        if cancel is not None:
            cancel.check()
        prefix = [k for (_i, n), k in frame.index.items() if n < K]
        kernel = vanishing_part(vecs, prefix, cancel)
        witness = next((v for v in kernel if any(v)), None)
        if witness is None:
            return K, len(kernel), tuple(refuted)
        refuted.append((K, frame.from_vec(witness)))
    return None, None, tuple(refuted)


def order_of_module(basis, deg_bound: int, cancel: CancelToken | None = None) -> int | None:
    """Smallest s <= deg_bound with no nonzero span element vanishing on the
    first s coordinates; None if every s up to the bound fails."""
    if deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    frame, reduced = span_rows(list(basis), cancel=cancel)
    return _pinning_order(frame, reduced, range(1, deg_bound + 1), cancel)[0]


def infer_L(basis, s: int, deg_bound: int, cancel: CancelToken | None = None) -> GammaTable:
    """Recover the unique width-s table with support j <= deg_bound that
    reproduces coordinate s on the whole span.

    Raises NotAnLModule when the span has a nonzero element with zero seed
    prefix (coordinate s is then not a function of the prefix) or when no
    table of the given shape is consistent with the span. Raises
    Underdetermined when the span is too small to pin every coefficient slot;
    the error lists the free (i, j) slots.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be a positive int")
    if deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    frame, reduced = span_rows(list(basis), cancel=cancel)
    _, _, refuted = _pinning_order(frame, reduced, (s,), cancel)
    if refuted:
        raise NotAnLModule(
            "a nonzero element of the span vanishes in its first "
            f"{s} coordinates, so coordinate {s} is not determined by the seed prefix",
            witness=refuted[0][1],
        )
    # unknowns a_{i,j} ordered layer by layer: j ascending, then i ascending
    slots = [(i, j) for j in range(1, deg_bound + 1) for i in range(1, s + 1)]
    # cells[n][e]: the frame index of x^e in coordinate n, for n <= s
    cells = [[frame.index[(e, n)] for e in range(frame.deg_x + 1)] for n in range(min(s, frame.deg_y) + 1)]
    rows, rhs = [], []
    for v in reduced:
        if cancel is not None:
            cancel.check()
        # coordinates 0..s of F, trimmed: rref leaves every zero as ZERO
        f = [[v[k] for k in ks] for ks in cells] + [[]] * (s + 1 - len(cells))
        for c in f:
            while c and c[-1] is ZERO:
                c.pop()
        # d^j/dx^j f_{i-1} has x^m coefficient perm(m + j, j) * f_{i-1}[m + j]
        max_m = max(0, len(f[s]) - 1, *[len(c) - 2 for c in f[:s]])
        for m in range(max_m + 1):
            row = [ZERO] * len(slots)
            for i, c in enumerate(f[:s]):
                for j in range(1, min(deg_bound, len(c) - 1 - m) + 1):
                    if c[m + j] is not ZERO:
                        row[(j - 1) * s + i] = c[m + j] * perm(m + j, j)
            rows.append(row)
            rhs.append(f[s][m] if m < len(f[s]) else ZERO)
    if not rows:
        raise Underdetermined("the span pins no coefficient slot", free_slots=slots)
    sol = solve(rows, rhs, cancel)
    if sol is None:
        raise NotAnLModule(
            "no operator table of the requested shape reproduces coordinate "
            f"{s} across the span within the truncation"
        )
    values, free_cols = sol
    if free_cols:
        raise Underdetermined(
            "the span leaves coefficient slots free",
            free_slots=[slots[c] for c in free_cols],
        )
    entries = {slot: x for slot, x in zip(slots, values) if not x.is_zero()}
    return GammaTable(s, entries)


@dataclass(frozen=True)
class SumOrderReport:
    order: int
    deg_bound: int
    kernel_dim: int
    refuted: tuple  # (K, witness BiPoly) for each K < order


def order_of_sum_report(g1: GammaTable, g2: GammaTable, deg_bound: int, cancel: CancelToken | None = None) -> SumOrderReport:
    """Smallest K such that every sum F + G (F from g1's space, G from g2's,
    seeds of degree < deg_bound) vanishing in coordinates 0..K-1 is zero.

    Coordinates are compared exactly on the fully generated polynomials; only
    the seed degree is truncated, and the report records that bound.
    """
    if deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    gens = monomial_seed_elements(g1, deg_bound, cancel) + monomial_seed_elements(g2, deg_bound, cancel)
    # K one past the top coordinate pins every sum
    top = max(int(p.deg_y) for p in gens) + 1
    frame = PolyFrame(gens)
    order, kernel_dim, refuted = _pinning_order(frame, [frame.to_vec(p) for p in gens], range(1, top + 1), cancel)
    return SumOrderReport(order=order, deg_bound=deg_bound, kernel_dim=kernel_dim, refuted=refuted)


@dataclass(frozen=True)
class ChainDecomposition:
    dim: int
    chains: tuple  # ((generator vector, length), ...)
    basis_vectors: tuple  # concatenation of D^j u per chain, in selection order


def _coerce_matrix(mat):
    rows = [[CoeffQ.of(c) for c in row] for row in mat]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def nilpotent_chains(mat, cancel: CancelToken | None = None) -> ChainDecomposition:
    """Decompose a nilpotent matrix into shift chains D^j u.

    Generators are chosen greedily from the highest nilpotency index k down,
    by the pivot-column rule: a column of an RREF is a pivot exactly when it
    lies outside the span of the columns before it, so the pivots of one
    elimination of [ker D^(k-1) | images D^(length-k) u of the chains so far
    | ker D^k] in the last block are the generators of height k, in
    kernel-basis order. D is converted to Z[i] rows once, and only the
    result is converted back.
    Raises NotNilpotent if D^dim != 0.
    """
    D = _coerce_matrix(mat)
    n = len(D)
    if n == 0:
        return ChainDecomposition(dim=0, chains=(), basis_vectors=())
    # D and its transpose as Z[i] rows; every vector below is a Z[i] row too
    Dz, Dtz = _numerators(D), _numerators(zip(*D))
    powers = []  # powers[t] = D^(t+1)
    p = None
    for k in range(1, n + 1):
        powers.append(product(powers[-1], Dz, cancel) if powers else Dz)
        if not any(row for _den, row in powers[-1]):
            p = k
            break
    if p is None:
        raise NotNilpotent(f"matrix is not nilpotent: D^{n} != 0")
    # kernels[k] = ker D^k, and ker D^0 is zero
    kernels = [[]] + [null_space(P, n, cancel) for P in powers]
    chains = []  # (generator, length)
    images = []  # D^(length-k) u of each chain at height k, as rows
    trail = []  # trail[p-k] = images at height k
    for k in range(p, 0, -1):
        cols = kernels[k - 1] + images + kernels[k]
        _, pivots = eliminate(_columns(cols, range(n)), cancel)
        new = [cols[j] for j in pivots if j >= len(cols) - len(kernels[k])]
        chains += [(u, k) for u in new]
        trail.append(images + new)
        images = product(trail[-1], Dtz, cancel)
    if any(row for _den, row in images):
        raise AssertionError("chain does not terminate at zero")
    # D^t u of chain c is its image at height length - t
    basis = [trail[p - length + t][c] for c, (_u, length) in enumerate(chains) for t in range(length)]
    if len(basis) != n or len(eliminate(basis, cancel)[1]) != n:
        raise AssertionError("chain vectors do not form a basis")
    out = [tuple(_dense(row, den, n)) for den, row in [u for u, _length in chains] + basis]
    chains = tuple((u, length) for u, (_z, length) in zip(out, chains))
    return ChainDecomposition(dim=n, chains=chains, basis_vectors=tuple(out[len(chains):]))


def quotient_derivation(s: int, k: int, d: int):
    """Matrix of the componentwise x-derivative on (tuples of degree < k)
    modulo (tuples of degree < d), over all width-s seed tuples.

    Basis cosets are x^m in slot i, ordered slot-major with m ascending.
    The result is nilpotent of index k - d.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("s must be a positive int")
    if not (isinstance(k, int) and isinstance(d, int) and k > d >= 0):
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


def canonical_split(M, cancel: CancelToken | None = None) -> tuple[int, int]:
    """Recover (d, t) from a Sum(Md(d), MGamma(g)) expression by probing
    excluded monomials: d is the smallest e with x^e y^t outside the sum for
    some t <= g.s + 1, and t is the smallest such exponent at that e.

    The answer depends only on the space, not on the expression: monomials
    x^e y^t with e < d always lie in the sum, and x^d y^t first drops out at
    t = the generated part's order.
    """
    if not isinstance(M, Sum) or len(M.parts) != 2:
        raise UnsupportedExpr("canonical_split needs Sum(Md, MGamma)")
    mds = [p for p in M.parts if isinstance(p, Md)]
    gammas = [p for p in M.parts if isinstance(p, MGamma)]
    if len(mds) != 1 or len(gammas) != 1:
        raise UnsupportedExpr("canonical_split needs Sum(Md, MGamma)")
    d = mds[0].d
    g = gammas[0].gamma
    for e in range(d + 1):
        if cancel is not None:
            cancel.check()
        for t in range(g.s + 2):
            probe = BiPoly.monomial(e, t)
            if not contains(M, probe, cancel=cancel).contains:
                return (e, t)
    raise AssertionError("unreachable: the excluded monomial exists at e = d")
