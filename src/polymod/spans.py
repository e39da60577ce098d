"""Vectorization of polynomials for exact span arithmetic.

A frame numbers the cells (i, n), the x^i coefficient of coordinate n, by a
cell key, so reduced bases and pivots are deterministic: graded by default,
and seed order where v_space cuts the elements of a module by x-degree and
reduces their seed prefixes. Vector entries are coordinate coefficients (the
factorial convention's f_n coefficients), a diagonal rescale of monomial
coefficients, so they span the same lattice of subspaces. ``span_rows``
returns the graded frame with the rref rows, for callers that read the
reduced basis in place; ``span_reduce`` builds those rows back into BiPoly
values, each coordinate with ``_unipoly`` and no coercion.
"""

from __future__ import annotations

from .cancel import _polled
from .linalg import _dense, _numerators, eliminate, null_space, product, rref
from .poly import BiPoly, _bipoly, _unipoly
from .scalars import ONE, ZERO


def _graded(cell):
    """The default cell key: higher total degree first, then higher x-power."""
    return -(cell[0] + cell[1]), -cell[0]


class PolyFrame:
    """Fixed monomial frame for a set of BiPoly values, cells sorted by key."""

    __slots__ = ("deg_x", "deg_y", "index")

    def __init__(self, polys, key=_graded):
        dx = 0
        dy = 0
        for p in polys:
            if not p.is_zero():
                dx = max(dx, int(p.deg_x))
                dy = max(dy, int(p.deg_y))
        self.deg_x = dx
        self.deg_y = dy
        cells = [(i, n) for n in range(dy + 1) for i in range(dx + 1)]
        cells.sort(key=key)
        self.index = {c: k for k, c in enumerate(cells)}

    def to_vec(self, p: BiPoly):
        v = [ZERO] * len(self.index)
        for n, f in enumerate(p.coords):
            for i, c in enumerate(f.coeffs):
                if not c.is_zero():
                    v[self.index[(i, n)]] = c
        return v

    def from_vec(self, v) -> BiPoly:
        coords = [[ZERO] * (self.deg_x + 1) for _ in range(self.deg_y + 1)]
        for (i, n), k in self.index.items():
            coords[n][i] = v[k]
        return _bipoly([_unipoly(f) for f in coords])


def span_rows(polys, cancel=None):
    """(frame, rref rows): the reduced basis of the span of polys as vectors
    of one graded frame. The basis spans the same space as polys, so its
    frame is theirs."""
    polys = [p for p in polys if not p.is_zero()]
    frame = PolyFrame(polys)
    return frame, rref([frame.to_vec(p) for p in _polled(polys, cancel)], cancel=cancel)[0]


def span_reduce(polys, cancel=None):
    """Deterministic reduced basis of the span of polys, pivots in graded order."""
    frame, rows = span_rows(polys, cancel)
    return [frame.from_vec(r) for r in rows]


def in_span(p: BiPoly, basis, cancel=None):
    """(ok, combo): exact membership of p in span(basis), and p's coefficients
    over the reduced basis or None; basis need not be reduced.

    A reduced row is 1 at its own pivot and 0 at the others, so the
    coefficient f_r of row r is p's entry at that pivot. p is in the span
    iff its residual, the one Z[i] product [1, -f_1, ..., -f_r] @
    [p; row_1; ...; row_r] over the rows with f_r != 0, has no entry; the
    rows stay Z[i] rows from the elimination on, each with its pivot entry
    1 put back."""
    if p.is_zero():
        return True, []
    frame = PolyFrame(list(basis) + [p])
    rows, pivots = eliminate(_numerators([frame.to_vec(b) for b in basis], cancel), cancel)
    vec = frame.to_vec(p)
    combo = [vec[col] for col in pivots]
    used = [((n, row | {col: (n, 0)}), f) for (n, row), col, f in zip(rows, pivots, combo) if f]
    coeffs = _numerators([[ONE] + [-f for _row, f in used]])
    residual = product(coeffs, _numerators([vec]) + [row for row, _f in used], cancel)[0][1]
    return (False, None) if residual else (True, combo)


def vanishing_part(vecs, positions, cancel=None):
    """Combinations of vecs that vanish at every position: one vector
    sum_r c_r * vecs[r] per null_space vector c of the restriction of vecs
    to positions, in null_space order and not reduced."""
    kernel = null_space(_numerators([[v[k] for v in vecs] for k in positions]), len(vecs), cancel)
    if not kernel:  # convert vecs only when some combination vanishes
        return []
    return [_dense(row, den, len(vecs[0])) for den, row in product(kernel, _numerators(vecs), cancel)]

