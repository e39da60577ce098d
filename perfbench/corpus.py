"""Seeded input generators owned by the benchmark.

Each workload separates the *shape* of its inputs from their *values*:

* shapes (table width and support, seed degrees, matrix dimension and
  sparsity pattern, CLI input sizes) come from a fixed structure seed per
  workload, so every run executes the same mix of problem sizes;
* values (every nonzero coefficient, shift and probe point) come from
  ``--seed``.

The split exists because a task's cost is set mostly by its shape. On the
infer-roundtrip shapes, re-drawing only the values moves a task's time by
6-19 %, while re-drawing the support moves it between 10 ms and 3.4 s; a
seed that re-drew shapes would spread tasks_per_s by about 20 % between
seeds, wider than any useful regression bound.

Everything here is plain Python (Fraction pairs, lists, dicts): the
workloads turn it into polymod objects, and the checks compare answers with
it directly.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from oracle import ONE, ZERO, apply_table, mat_mul, transpose, unit_lower_inverse

INFER_STRUCTURE_SEED = 404  # criterion 4's seed: the same stream of shapes
PROBE_STRUCTURE_SEED = 505
NILPOTENT_STRUCTURE_SEED = 707
NILPOTENT_MAX_DIM = 9
CLI_STRUCTURE_SEED = 1414


def rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def nonzero_rational(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    while True:
        q = rational(rng, span, max_den)
        if q:
            return q


def gaussian(rng: random.Random, complex_share: float = 0.3):
    re = rational(rng)
    im = rational(rng) if rng.random() < complex_share else Fraction(0)
    return (re, im)


def strictly_gaussian(rng: random.Random):
    """A Gaussian rational with a nonzero imaginary part."""
    return (rational(rng), nonzero_rational(rng))


def unipoly(rng: random.Random, degree: int, complex_share: float = 0.3):
    """Random coefficients with a nonzero leading one, so the degree is exact."""
    coeffs = [gaussian(rng, complex_share) for _ in range(degree)]
    lead = (nonzero_rational(rng), rational(rng) if rng.random() < complex_share else Fraction(0))
    return coeffs + [lead]


def masked_unipoly(rng: random.Random, mask):
    """Like unipoly, with `mask` (one flag per power, from a structure seed)
    saying which coefficients have an imaginary part."""
    coeffs = [(rational(rng), rational(rng) if flag else Fraction(0)) for flag in mask[:-1]]
    lead = (nonzero_rational(rng), rational(rng) if mask[-1] else Fraction(0))
    return coeffs + [lead]


def bipoly(rng: random.Random, max_dx: int, max_dy: int, complex_share: float = 0.3):
    ncoords = rng.randint(1, max_dy + 1)
    return [unipoly(rng, rng.randint(0, max_dx), complex_share) for _ in range(ncoords)]


def real_values(rng: random.Random, support):
    return {key: (nonzero_rational(rng), Fraction(0)) for key in support}


# -- infer-roundtrip ------------------------------------------------------------

def recursion_length(s: int, support, degree: int = 8) -> int:
    """Coordinates generate() yields from a single x^degree seed, worst slot,
    with every table entry set to 1: a property of the shape alone."""
    entries = {key: ONE for key in support}
    longest = 0
    for slot in range(s):
        coords = [[] for _ in range(s)]
        coords[slot] = [ZERO] * degree + [ONE]
        while any(coords[-s:]):
            coords.append(apply_table(entries, coords[-s:]))
        longest = max(longest, len(coords) - s)
    return longest


LONG_RECURSION = 15  # shapes at or above this length dominate the cost
LONG_MAX_WIDTH = 2  # long recursions of width 3 take 1-5 s each: too slow to repeat


@functools.lru_cache(maxsize=None)
def infer_shapes(light: int, long: int, bound: int = 8):
    """(s, support) from the criterion-4 stream of tables (s in 1..3, each
    slot (i, j <= bound) present with probability 1/4), in stream order,
    keeping the first `light` shorter-recursion and the first `long`
    long-recursion shapes of width at most LONG_MAX_WIDTH.

    Long recursions (>= LONG_RECURSION coordinates) of width 2 take
    0.2-1.2 s per task, the rest at most 0.13 s; width-3 long recursions
    (1-5 s each) are skipped so that a pass stays short enough to repeat
    every task several times in one run. A fixed count of each group keeps
    the median and the p75 task inside the short group, away from the
    jump to the long one."""
    rng = random.Random(INFER_STRUCTURE_SEED)
    shapes = []  # a constant of the benchmark: cached, so set-up times only the seeded part
    left = {False: light, True: long}
    while left[False] or left[True]:
        s = rng.randint(1, 3)
        support = []
        while not support:
            for i in range(1, s + 1):
                for j in range(1, bound + 1):
                    if rng.random() < 0.25:
                        support.append((i, j))
                        rational(rng)  # keep the criterion-4 stream aligned
        is_long = recursion_length(s, support, bound) >= LONG_RECURSION
        if is_long and s > LONG_MAX_WIDTH:
            continue
        if left[is_long]:
            left[is_long] -= 1
            shapes.append((s, tuple(support)))
    return tuple(shapes)


def infer_tables(seed: int, light: int, long: int):
    rng = random.Random(seed)
    return [(s, real_values(rng, support)) for s, support in infer_shapes(light, long)]


# -- recursion-probe ------------------------------------------------------------

def probe_shapes(count: int):
    """Width s cycles 1..3, the Md degree d cycles 0..3; support j <= 4 with
    probability 0.4 per slot; seed degrees up to 12; each seed coefficient
    complex with probability 0.3.

    Which coefficients are complex is part of the shape: drawn per seed, it
    moved the median task by 10 % between seeds."""
    rng = random.Random(PROBE_STRUCTURE_SEED)
    mask_rng = random.Random(PROBE_STRUCTURE_SEED + 1)  # leaves the other shapes as they were
    shapes = []
    for k in range(count):
        s = 1 + k % 3
        d = (k // 3) % 4
        support = [(i, j) for i in range(1, s + 1) for j in range(1, 5) if rng.random() < 0.4]
        if not support:
            support = [(1, 1)]
        degrees = [rng.randint(0, 12) for _ in range(s)]
        masks = tuple(tuple(mask_rng.random() < 0.3 for _ in range(deg + 1)) for deg in degrees)
        shapes.append((s, d, tuple(support), masks))
    return shapes


def probe_cases(seed: int, count: int):
    rng = random.Random(seed)
    cases = []
    for s, d, support, masks in probe_shapes(count):
        cases.append(
            {
                "s": s,
                "d": d,
                "table": real_values(rng, support),
                "seeds": [masked_unipoly(rng, mask) for mask in masks],
                "shift": (strictly_gaussian(rng), strictly_gaussian(rng)),
                "point": (gaussian(rng, 1.0), gaussian(rng, 1.0)),
            }
        )
    return cases


# -- nilpotent-chains -----------------------------------------------------------

def nilpotent_shapes(count: int):
    """Dimension cycles 1..NILPOTENT_MAX_DIM; every third matrix (k % 3 == 2) is conjugated
    by a Gaussian-integer matrix, the rest by an integer one. The strictly
    upper part of N has density 0.6; the triangular factors of P, 0.8."""
    rng = random.Random(NILPOTENT_STRUCTURE_SEED)
    shapes = []
    for k in range(count):
        dim = 1 + k % NILPOTENT_MAX_DIM
        upper = [(r, c) for r in range(dim) for c in range(r + 1, dim) if rng.random() < 0.6]
        low = [(r, c) for r in range(dim) for c in range(r) if rng.random() < 0.8]
        up = [(r, c) for r in range(dim) for c in range(r + 1, dim) if rng.random() < 0.8]
        shapes.append((dim, k % 3 == 2, tuple(upper), tuple(low), tuple(up)))
    return shapes


def _small_integer(rng: random.Random, gaussian_entries: bool):
    while True:
        re = rng.randint(-2, 2)
        im = rng.randint(-2, 2) if gaussian_entries else 0
        if re or im:
            return (Fraction(re), Fraction(im))


def nilpotent_matrices(seed: int, count: int):
    """(D, N) with D = P N P^-1, N strictly upper triangular and P = L U unit
    triangular, so D is exactly nilpotent, P^-1 = U^-1 L^-1 is exact, and
    D^k has the rank of N^k."""
    rng = random.Random(seed)
    out = []
    for dim, gaussian_p, upper, low, up in nilpotent_shapes(count):
        N = [[ZERO] * dim for _ in range(dim)]
        for r, c in upper:
            N[r][c] = (nonzero_rational(rng, 2, 2), Fraction(0))
        L = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
        U = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
        for r, c in low:
            L[r][c] = _small_integer(rng, gaussian_p)
        for r, c in up:
            U[r][c] = _small_integer(rng, gaussian_p)
        P = mat_mul(L, U)
        P_inv = mat_mul(transpose(unit_lower_inverse(transpose(U))), unit_lower_inverse(L))
        out.append((mat_mul(mat_mul(P, N), P_inv), N))
    return out
