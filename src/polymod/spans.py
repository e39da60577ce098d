"""Vectorization of polynomials for exact span arithmetic.

A frame numbers the cells (i, n), the x^i coefficient of coordinate n, by a
cell key, so reduced bases and pivots are deterministic: graded by default,
and v_space's key, with the seed cells right after those of x-degree >= its
bound, where one reduction cuts a module by x-degree and reduces its seeds. Vector entries are coordinate coefficients (the
factorial convention's f_n coefficients), a diagonal rescale of monomial
coefficients, so they span the same lattice of subspaces. ``to_vec`` reads
each coordinate's stored Z[i] triple and builds a CoeffQ, with
``scalars._entry``, only for a nonzero cell; every other cell is ``ZERO``.
``span_rows`` returns the graded frame with the rref rows, for callers that
read the reduced basis in place (``infer_L`` reads its seed prefixes' rank,
and a zero-prefix witness, off them); ``span_reduce`` builds those rows back
into BiPoly values, each coordinate with ``_unipoly`` and no coercion.
"""

from __future__ import annotations

from .cancel import _polled
from .linalg import _numerators, eliminate, product, rref
from .poly import BiPoly, _bipoly, _unipoly
from .scalars import ONE, ZERO, _entry


def _graded(cell):
    """The default cell key: higher total degree first, then higher x-power."""
    return -(cell[0] + cell[1]), -cell[0]


class PolyFrame:
    """Fixed monomial frame for a set of BiPoly values, cells sorted by key."""

    __slots__ = ("deg_x", "deg_y", "index")

    def __init__(self, polys, key=_graded):
        dx = dy = 0  # read off the stored triples in one pass
        for p in polys:
            dy = max(dy, len(p.coords) - 1)
            for f in p.coords:
                dx = max(dx, len(f._z[0]) - 1)
        self.deg_x = dx
        self.deg_y = dy
        cells = [(i, n) for n in range(dy + 1) for i in range(dx + 1)]
        cells.sort(key=key)
        self.index = {c: k for k, c in enumerate(cells)}

    def to_vec(self, p: BiPoly):
        v = [ZERO] * len(self.index)
        for n, f in enumerate(p.coords):
            re, im, den = f._z
            for i, (a, b) in enumerate(zip(re, im)):
                if a or b:
                    v[self.index[(i, n)]] = _entry(a, b, den)
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

