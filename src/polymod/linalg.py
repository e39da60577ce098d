"""Exact linear algebra over Gaussian rationals.

Matrices are lists of row lists of CoeffQ. The reduced row echelon form is
unique for a fixed column order, so no output depends on the order in which
rows are eliminated, and reruns are byte-identical.

``rref`` is one fraction-free Gauss-Jordan kernel (Bareiss, Math. Comp. 22,
1968, in the FFGJ form of Nakos, Turner and Williams, ACM SIGSAM Bull. 31,
1997) on Z[i] numerators, for real and Gaussian input alike. Each row is put
over the lcm of its part denominators and held as a sparse dict
``{column: (re, im)}`` of int pairs; zero entries are never stored, and
products skip zero imaginary parts. Rows are added one at a time, sparsest
first. A new row is scaled by the latest pivot value and cross-cancelled
against the rows kept so far; if it survives, its leading entry is a new
pivot p, and each kept row with an entry f in that column becomes
(p * row - f * new) / d, where d is the pivot value that row is stored at.
Every entry is then a minor of the input, so the quotient is exact in Z[i]:
dividing by d is a product with conj(d) and an exact floor division by
|d|^2. A kept row that a step leaves alone keeps its old pivot value and is
rescaled only when a later row cancels against it. Every kept row leads
with its pivot and is zero in every other pivot column, so the result is
the RREF whatever the row order. Each output part is built once as a
Fraction over |d|^2 (less any common factor of d's parts), normalised by one
gcd. ``mat_mul`` is one product kernel on the same numerators: the rows of
b are put over one denominator, the Z[i] products are summed on ints and
each output part is built once. ``reduce_against`` is a product with it.
Every zero entry of a row that ``rref``, ``mat_mul`` or ``kernel_basis``
returns is the shared ``_Z``, so callers may skip zeros by identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import _F0
from .scalars import CoeffQ, _make

_Z = CoeffQ(0)
_O = CoeffQ(1)
_ZZ = (0, 0)


def _numerators(rows):
    """[(den, {column: (re, im)})]: each dense CoeffQ row as Z[i] numerators
    over den, the lcm of its part denominators; zero entries are left out."""
    out = []
    for row in rows:
        ents = [(j, c.re.as_integer_ratio(), c.im.as_integer_ratio()) for j, c in enumerate(row) if c is not _Z]
        den = lcm(*[d for _j, (_a, r), (_b, i) in ents for d in (r, i)])
        out.append((den, {j: (a * (den // r), b * (den // i)) for j, (a, r), (b, i) in ents if a or b}))
    return out


def _dense(row, den, ncols):
    """Dense CoeffQ row of sparse Z[i] numerators over den; each part is built once."""
    out = [_Z] * ncols
    for j, (re, im) in row.items():
        if re or im:
            out[j] = _make(Fraction(re, den) if re else _F0, Fraction(im, den) if im else _F0)
    return out


def _mul(a, b):
    """Product of two Z[i] numbers held as (re, im) int pairs."""
    (ar, ai), (br, bi) = a, b
    if ai or bi:
        return ar * br - ai * bi, ar * bi + ai * br
    return ar * br, 0


def _inverse(d):
    """(c, n) with 1/d = c/n, c in Z[i] and n a positive int, for d != 0."""
    dr, di = d
    g = gcd(dr, di)
    dr //= g
    di //= g
    return (dr, -di), g * (dr * dr + di * di)


def _combine(p, row, f, new, d):
    """(p * row - f * new) / d on sparse Z[i] rows, known to be exact."""
    c, n = _inverse(d)
    a, b = _mul(p, c), _mul(f, c)
    out = {k: _mul(a, x) for k, x in row.items()}
    for k, y in new.items():
        br, bi = _mul(b, y)
        xr, xi = out.get(k, _ZZ)
        out[k] = (xr - br, xi - bi)
    return {k: (xr // n, xi // n) for k, (xr, xi) in out.items() if xr or xi}


def rref(rows, cancel=None):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    rows = list(rows)
    if not rows:
        return [], []
    if cancel is not None:
        cancel.check()
    ncols = len(rows[0])
    done = {}  # pivot column -> (pivot value d the row is stored at, rest of the row)
    den = (1, 0)  # the latest pivot value; each new row is scaled to it
    for new in sorted(filter(None, (row for _den, row in _numerators(rows))), key=len):
        if cancel is not None:
            cancel.check()
        # new := den * new - sum of new[j] * done[j] over the pivot columns j,
        # each done[j] first brought from its own d to den
        acc = {k: _mul(den, v) for k, v in new.items() if k not in done}
        for j in done.keys() & new.keys():
            d, row = done[j]
            if row and d != den:
                row = _combine(den, row, _ZZ, {}, d)
                done[j] = den, row
            f = new[j]
            for k, b in row.items():
                br, bi = _mul(f, b)
                vr, vi = acc.get(k, _ZZ)
                acc[k] = (vr - br, vi - bi)
        new = {k: v for k, v in acc.items() if v[0] or v[1]}
        if not new:
            continue
        col = min(new)
        p = new.pop(col)
        # clear col from the kept rows; a row stored at d is divided by d
        for j, (d, row) in done.items():
            f = row.pop(col, None)
            if f is not None:
                done[j] = p, _combine(p, row, f, new, d)
        done[col] = p, new
        den = p
    pivots = sorted(done)
    out = []
    for col in pivots:
        d, row = done[col]
        c, n = _inverse(d)
        dense = _dense({j: _mul(v, c) for j, v in row.items()}, n, ncols)
        dense[col] = _O
        out.append(dense)
    return out, pivots


def reduce_against(vec, basis_rows, pivots):
    """Reduce vec against an rref basis; returns (residual, combination).

    residual is zero iff vec lies in the row span; combination holds the
    coefficients f_r of the basis rows. An rref row is 1 at its own pivot and
    0 at the others, so f_r is vec at row r's pivot, and the residual is
    [1, -f_1, ..., -f_r] @ [vec; row_1; ...; row_r].
    """
    combo = [vec[col] for col in pivots]
    used = [(f, row) for f, row in zip(combo, basis_rows) if f]
    residual = mat_mul([[_O] + [-f for f, _row in used]], [vec] + [row for _f, row in used])[0]
    return residual, combo


def rank(rows, cancel=None) -> int:
    return len(rref(rows, cancel)[0])


def kernel_basis(rows, ncols=None, cancel=None):
    """Basis of {x : A x = 0} for A given by rows; deterministic order."""
    if not rows:
        return [] if not ncols else [
            [(_O if i == j else _Z) for j in range(ncols)] for i in range(ncols)
        ]
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows, cancel)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in free:
        v = [_Z] * ncols
        v[fc] = _O
        for r, pc in enumerate(pivots):
            c = red[r][fc]
            if c:
                v[pc] = -c
        out.append(v)
    return out


def solve(rows, rhs, cancel=None):
    """Solve A x = rhs. Returns (solution with free vars 0, free columns) or None.

    None means inconsistent. rows may be empty (then x = 0 works iff rhs empty
    of constraints).
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, cancel)
    for r, col in zip(red, pivots):
        if col == ncols:
            return None  # pivot in the rhs column: inconsistent
    x = [_Z] * ncols
    for r, col in zip(red, pivots):
        x[col] = r[ncols]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    return x, free


def mat_mul(a, b):
    if not a or not b:
        return []
    brows = _numerators(b)
    db = lcm(*[d for d, _row in brows])  # row k of b is brought to db by a's column k
    out = []
    for da, row in _numerators(a):
        acc = {}
        for k, x in row.items():
            d, brow = brows[k]
            x = _mul(x, (db // d, 0))
            for j, y in brow.items():
                pr, pi = _mul(x, y)
                sr, si = acc.get(j, _ZZ)
                acc[j] = (sr + pr, si + pi)
        out.append(_dense(acc, da * db, len(b[0])))
    return out


def is_zero_matrix(rows) -> bool:
    return all(c.is_zero() for r in rows for c in r)
