"""Exact linear algebra over Gaussian rationals, in two layers.

The cores ``eliminate`` and ``product`` take and return Z[i] rows
``(den, {column: (re, im)})``: Gaussian-integer numerators over a positive
int den, zero entries never stored. A caller that chains cores converts
once in with ``_numerators`` and once out with ``_dense``. Each core, and
``_numerators``, polls its optional cancel token once per row it takes in
or puts out, and ``_kernel`` once per free column. ``eliminate`` also polls
once per unit of kept-row work, one cross-cancellation against a kept row
or one ``_combine`` of a kept row at a new pivot, so the work between two
polls does not grow with the number of rows.

The one dense edge is ``rref``: lists of CoeffQ rows in and out, and every
zero entry of a row it returns is ``scalars.ZERO``, the library's one zero:
every row ``_dense`` builds and every ``PolyFrame`` vector holds it, and
``UniPoly.coeff`` returns it past the end, so callers may skip zeros by
identity. It stays dense because its callers are: ``spans`` and
``modules`` reduce CoeffQ vectors of a ``PolyFrame`` and read the reduced
rows in place, ``infer_L`` reads its table off the RREF of a CoeffQ system
augmented by its right side, and perfbench's traced runs read ``rref``'s
rows as CoeffQ lists.

``eliminate`` is one fraction-free Gauss-Jordan kernel (Bareiss, Math.
Comp. 22, 1968, in the FFGJ form of Nakos, Turner and Williams, ACM SIGSAM
Bull. 31, 1997); scaling a row does not change its RREF, so it reads only
numerators. Rows are added sparsest first. A new row is scaled by the
latest pivot value and cross-cancelled against the rows kept so far; if it
survives, its leading entry is a new pivot p, and each kept row with an
entry f in that column becomes (p * row - f * new) / d, where d is the pivot
value that row is stored at. Every entry is then a minor of the input, so
the quotient is exact in Z[i]: a product with conj(d) and a floor division
by |d|^2. ``_combine`` computes it in one pass over the kept row and one
over the keys only the new row has, dividing each entry as it goes. A kept
row that a step leaves alone keeps its old pivot value and is rescaled
only when a later row cancels against it. Every kept row leads
with its pivot and is zero in every other pivot column, so the result is
the RREF, unique for the column order, whatever the row order: reruns are
byte-identical. ``product`` puts the rows of b over one denominator, sums
Z[i] products on ints and divides each output row by its content with one
gcd. ``_kernel`` reads one null-space vector per free column off an RREF
that ``eliminate`` returns.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import _polled
from .scalars import ONE, ZERO, _entry

_ZZ = (0, 0)


def _numerators(rows, cancel=None):
    """[(den, {column: (re, im)})]: each dense CoeffQ row as Z[i] numerators
    over den, the lcm of its part denominators; zero entries are left out."""
    out = []
    for row in _polled(rows, cancel):
        ents = [(j, c.re.as_integer_ratio(), c.im.as_integer_ratio()) for j, c in enumerate(row) if c is not ZERO]
        den = lcm(*[d for _j, (_a, r), (_b, i) in ents for d in (r, i)])
        out.append((den, {j: (a * (den // r), b * (den // i)) for j, (a, r), (b, i) in ents if a or b}))
    return out


def _dense(row, den, ncols):
    """Dense CoeffQ row of sparse Z[i] numerators over den; each part is built once."""
    out = [ZERO] * ncols
    for j, (re, im) in row.items():
        out[j] = _entry(re, im, den)
    return out


def _inverse(d):
    """(c, n) with 1/d = c/n, c in Z[i] and n a positive int, for d != 0."""
    g = gcd(*d)
    dr, di = d[0] // g, d[1] // g
    return (dr, -di), g * (dr * dr + di * di)


def _combine(p, row, f, new, d):
    """(p * row - f * new) / d on sparse Z[i] rows, known to be exact: one pass
    over row and one over the keys only new has, each dividing as it goes."""
    (cr, ci), n = _inverse(d)
    (pr, pi), (fr, fi) = p, f
    ar, ai = pr * cr - pi * ci, pr * ci + pi * cr  # p * c
    br, bi = fr * cr - fi * ci, fr * ci + fi * cr  # f * c
    out = {}
    for k, (xr, xi) in row.items():
        yr, yi = new.get(k, _ZZ)
        zr, zi = ar * xr - ai * xi - br * yr + bi * yi, ar * xi + ai * xr - br * yi - bi * yr
        if zr or zi:
            out[k] = zr // n, zi // n
    for k, (yr, yi) in new.items():
        if k not in row:
            out[k] = (bi * yi - br * yr) // n, -(br * yi + bi * yr) // n
    return out


def eliminate(rows, cancel=None):
    """RREF of Z[i] rows, whose denominators it ignores. Returns (the nonzero
    RREF rows as Z[i] rows, each without its pivot entry 1, pivot columns)."""
    if not rows:
        return [], []
    if cancel is not None:
        cancel.check()
    done = {}  # pivot column -> (pivot value d the row is stored at, rest of the row)
    den = (1, 0)  # the latest pivot value; each new row is scaled to it
    for new in _polled(sorted(filter(None, (row for _den, row in rows)), key=len), cancel):
        # new := den * new - sum of new[j] * done[j] over the pivot columns j,
        # each done[j] first brought from its own d to den
        dr, di = den
        acc = {k: (dr * vr - di * vi, dr * vi + di * vr) for k, (vr, vi) in new.items() if k not in done}
        for j in _polled(done.keys() & new.keys(), cancel):
            d, row = done[j]
            if row and d != den:
                row = _combine(den, row, _ZZ, {}, d)
                done[j] = den, row
            fr, fi = new[j]
            for k, (br, bi) in row.items():
                vr, vi = acc.get(k, _ZZ)
                acc[k] = (vr - fr * br + fi * bi, vi - fr * bi - fi * br)
        new = {k: v for k, v in acc.items() if v[0] or v[1]}
        if not new:
            continue
        col = min(new)
        p = new.pop(col)
        # clear col from the kept rows; a row stored at d is divided by d
        for j, (d, row) in done.items():
            f = row.pop(col, None)
            if f is not None:
                if cancel is not None:
                    cancel.check()
                done[j] = p, _combine(p, row, f, new, d)
        done[col] = p, new
        den = p
    pivots = sorted(done)
    out = []
    for col in _polled(pivots, cancel):
        d, row = done[col]
        (cr, ci), n = _inverse(d)
        out.append((n, {j: (vr * cr - vi * ci, vr * ci + vi * cr) for j, (vr, vi) in row.items()}))
    return out, pivots


def product(a, b, cancel=None):
    """a @ b on Z[i] rows; each output row is divided by its content."""
    db = lcm(*[d for d, _row in b])  # row k of b is brought to db by a's column k
    scale = [db // d for d, _row in b]
    out = []
    for da, row in _polled(a, cancel):
        acc = {}
        for k, (xr, xi) in row.items():
            xr, xi = xr * scale[k], xi * scale[k]
            for j, (yr, yi) in b[k][1].items():
                sr, si = acc.get(j, _ZZ)
                acc[j] = (sr + xr * yr - xi * yi, si + xr * yi + xi * yr)
        den = da * db
        g = gcd(den, *[part for v in acc.values() for part in v])
        out.append((den // g, {j: (re // g, im // g) for j, (re, im) in acc.items() if re or im}))
    return out


def _kernel(red, pivots, ncols, cancel=None):
    """Z[i] basis of the null space of an RREF given as eliminate returns it:
    per free column fc, in order and polled once each, the vector that is 1
    at fc, 0 at the other free columns and minus the RREF's column fc at the pivots."""
    out = []
    for fc in _polled(sorted(set(range(ncols)) - set(pivots)), cancel):
        ents = [(pc, row[fc], n) for (n, row), pc in zip(red, pivots) if fc in row]
        den = lcm(*[n for _pc, _v, n in ents])
        out.append((den, {fc: (den, 0)} | {pc: (-re * (den // n), -im * (den // n)) for pc, (re, im), n in ents}))
    return out


def rref(rows, cancel=None):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    rows = list(rows)
    red, pivots = eliminate(_numerators(rows, cancel), cancel)
    out = [_dense(row, n, len(rows[0])) for n, row in red]
    for row, col in zip(out, pivots):
        row[col] = ONE
    return out, pivots

