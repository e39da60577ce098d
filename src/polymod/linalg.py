"""Exact linear algebra over Gaussian rationals.

Matrices are lists of row lists of CoeffQ. Reduction is fully deterministic:
columns are scanned left to right and the pivot is the first remaining row
with a nonzero entry (no magnitude heuristics, so reruns are byte-identical).
The reduced row echelon form is unique for a fixed column order, so no output
can depend on which row supplies a pivot.

``rref`` eliminates on sparse rows, ``{column: value}`` dicts: zero entries
are never stored or touched, and rows that reduce to zero are dropped. When
every input entry is real, the values are plain ``Fraction`` and a product
costs one ``Fraction`` product instead of four; otherwise they are ``CoeffQ``.
The field is chosen once per call and both run the same loop. ``mat_vec``,
``mat_mul`` and ``reduce_against`` likewise skip zero operands.
"""

from __future__ import annotations

from .scalars import CoeffQ

_Z = CoeffQ(0)
_O = CoeffQ(1)


def rref(rows, cancel=None):
    """Reduced row echelon form. Returns (reduced nonzero rows, pivot columns)."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    real = not any(c.im for r in rows for c in r)
    if real:
        pending = [{j: c.re for j, c in enumerate(r) if c.re} for r in rows]
    else:
        pending = [{j: c for j, c in enumerate(r) if c} for r in rows]
    pending = [r for r in pending if r]
    done = []
    pivots = []
    for col in range(ncols):
        if cancel is not None:
            cancel.check()
        if not pending:
            break
        piv = next((i for i, r in enumerate(pending) if col in r), None)
        if piv is None:
            continue
        # the pivot row leaves its unit pivot entry implicit until the end
        prow = pending.pop(piv)
        inv = prow.pop(col)
        if inv != 1:
            prow = {j: v / inv for j, v in prow.items()}
        for row in done + pending:
            f = row.pop(col, None)
            if f is None:
                continue
            for j, b in prow.items():
                v = row.get(j)
                if v is None:
                    row[j] = -f * b
                else:
                    v = v - f * b
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        done.append(prow)
        pivots.append(col)
        pending = [r for r in pending if r]
    out = []
    for row, col in zip(done, pivots):
        dense = [_Z] * ncols
        dense[col] = _O
        for j, v in row.items():
            dense[j] = CoeffQ(v) if real else v
        out.append(dense)
    return out, pivots


def reduce_against(vec, basis_rows, pivots):
    """Reduce vec against an rref basis; returns (residual, combination).

    residual is zero iff vec lies in the row span; combination holds the
    coefficients of the basis rows used.
    """
    vec = list(vec)
    combo = [_Z] * len(basis_rows)
    for r, col in enumerate(pivots):
        f = vec[col]
        if f:
            combo[r] = f
            for j, b in enumerate(basis_rows[r]):
                if b:
                    vec[j] = vec[j] - f * b
    return vec, combo


def rank(rows) -> int:
    return len(rref(rows)[0])


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


def mat_vec(rows, v):
    nz = [(k, b) for k, b in enumerate(v) if b]
    return [sum((r[k] * b for k, b in nz if r[k]), _Z) for r in rows]


def mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b[0])
    out = []
    for row in a:
        acc = [_Z] * n
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def identity(n):
    return [[_O if i == j else _Z for j in range(n)] for i in range(n)]


def is_zero_matrix(rows) -> bool:
    return all(c.is_zero() for r in rows for c in r)


def transpose(rows):
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]
