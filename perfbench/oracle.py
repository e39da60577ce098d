"""Independent exact arithmetic for checking benchmark answers.

Values are plain Python: a Gaussian rational is a (Fraction, Fraction) pair,
a univariate polynomial a list of pairs (index = power of x), a bivariate
polynomial a list of univariate coordinates (F = sum_n f_n(x) y^n / n!), a
matrix a list of rows. Nothing here calls polymod arithmetic or elimination,
so a broken kernel cannot certify its own output.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    den = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / den, (a[1] * b[0] - a[0] * b[1]) / den)


def is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


# -- reading library values (attribute access only) -------------------------

def scalar(c):
    return (Fraction(c.re), Fraction(c.im))


def unipoly(f):
    return [scalar(c) for c in f.coeffs]


def bipoly(F):
    return [unipoly(f) for f in F.coords]


# -- polynomials --------------------------------------------------------------

def trim(f):
    f = list(f)
    while f and is_zero(f[-1]):
        f.pop()
    return f


def uni_eval(f, x):
    acc = ZERO
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def bi_eval(coords, x, y):
    acc = ZERO
    yp = ONE
    for n, f in enumerate(coords):
        term = mul(uni_eval(f, x), yp)
        acc = add(acc, (term[0] / factorial(n), term[1] / factorial(n)))
        yp = mul(yp, y)
    return acc


def derivative(f, j: int):
    return [mul(f[k], (Fraction(perm(k, j)), Fraction(0))) for k in range(j, len(f))]


def uni_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for k, c in enumerate(g):
        out[k] = add(out[k], c)
    return out


def apply_table(entries, window):
    """L(window) = sum a_ij * window[i-1]^(j) for a table {(i, j): pair}."""
    out = []
    for (i, j), a in entries.items():
        out = uni_add(out, [mul(c, a) for c in derivative(window[i - 1], j)])
    return trim(out)


def satisfies_recursion(entries, s: int, coords) -> bool:
    """True iff coordinates n >= s follow f_n = L(f_{n-s}, ..., f_{n-1})."""
    coords = [trim(f) for f in coords]
    top = len(coords) - 1 + s
    for n in range(s, top + 1):
        window = [coords[k] if k < len(coords) else [] for k in range(n - s, n)]
        have = coords[n] if n < len(coords) else []
        if apply_table(entries, window) != have:
            return False
    return True


# -- matrices -----------------------------------------------------------------

def mat_mul(a, b):
    n, m = len(b), len(b[0])
    out = []
    for row in a:
        acc = [ZERO] * m
        for k in range(n):
            if is_zero(row[k]):
                continue
            bk = b[k]
            for j in range(m):
                if not is_zero(bk[j]):
                    acc[j] = add(acc[j], mul(row[k], bk[j]))
        out.append(acc)
    return out


def mat_vec(a, v):
    return [row_dot(row, v) for row in a]


def row_dot(row, v):
    acc = ZERO
    for x, y in zip(row, v):
        if not is_zero(x) and not is_zero(y):
            acc = add(acc, mul(x, y))
    return acc


def rank(rows) -> int:
    """Rank by plain Gaussian elimination (pivot: first nonzero row)."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    r = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            if not is_zero(rows[i][col]):
                f = div(rows[i][col], p)
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def unit_lower_inverse(low):
    """Inverse of a unit lower-triangular matrix by forward substitution."""
    n = len(low)
    inv = identity(n)
    for i in range(n):
        for j in range(i):
            acc = ZERO
            for k in range(j, i):
                acc = add(acc, mul(low[i][k], inv[k][j]))
            inv[i][j] = sub(ZERO, acc)
    return inv


def transpose(rows):
    return [list(col) for col in zip(*rows)]
