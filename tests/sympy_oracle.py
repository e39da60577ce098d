"""Dense CoeffQ linear algebra on sympy's DomainMatrix, and the paper's
recursion operator on sympy expressions, for reference tests.

sympy's QQ and QQ_I matrices are an independent implementation of exact
elimination and products, so an oracle built from these helpers shares no
code with polymod.linalg, which it checks. Rows are lists of CoeffQ, as at
polymod's dense edge; every helper works over QQ_I unless told otherwise.
``q_gamma`` applies a table's operator with ``sympy.diff`` to the
polynomial itself, so it shares no code with polymod's recursion either;
``coordinate`` reads coordinate n of its result, and ``unipoly`` puts a
polymod polynomial in x beside it. ``monomial_form`` is a BiPoly as a
sympy Poly in x and y, and ``poly_rank`` the rank of such Polys, so a
closure can be differentiated and its span tested in sympy alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import QQ, QQ_I, I, Poly, Rational, diff, expand, symbols
from sympy.polys.matrices import DomainMatrix

from polymod import CoeffQ


def _q(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def to_domain(rows, domain=QQ_I, ncols=None):
    """DomainMatrix of CoeffQ rows; ncols is needed only when rows is empty."""
    if domain is QQ:
        elems = [[_q(c.re) for c in r] for r in rows]
    else:
        elems = [[QQ_I(_q(c.re), _q(c.im)) for c in r] for r in rows]
    return DomainMatrix(elems, (len(rows), len(rows[0]) if rows else ncols), domain)


def from_domain(m):
    """CoeffQ rows of a DomainMatrix over QQ or QQ_I."""
    if m.domain is QQ:
        return [[CoeffQ(_fraction(e)) for e in r] for r in m.to_list()]
    return [[CoeffQ(_fraction(e.x), _fraction(e.y)) for e in r] for r in m.to_list()]


def product(a, b):
    return from_domain(to_domain(a) * to_domain(b))


def rank(rows) -> int:
    return to_domain(rows).rank()


def rref(rows, ncols):
    """(the nonzero RREF rows, pivot columns) of rows of ncols columns."""
    red, pivots = to_domain(rows, ncols=ncols).rref()
    return from_domain(red)[: len(pivots)], list(pivots)


def nullspace(rows, ncols):
    """Basis of {x : A x = 0}: per free column, in order, the vector that is 1
    there, 0 at the other free columns and minus the RREF's column at the
    pivots. Those pivots lie left of the free column, so that 1 is the last
    nonzero entry, the one sympy's divide_last normalizes."""
    return from_domain(to_domain(rows, ncols=ncols).nullspace(divide_last=True))


def residual(vec, red, pivots):
    """vec minus its combination over the RREF rows red: zero iff vec is in their span."""
    if not red:
        return list(vec)
    combo = to_domain([[vec[p] for p in pivots]])
    return from_domain(to_domain([vec]) - combo * to_domain(red))[0]


def inverse(rows):
    return from_domain(to_domain(rows).inv())


def _sym(c: CoeffQ):
    return Rational(c.re.numerator, c.re.denominator) + I * Rational(c.im.numerator, c.im.denominator)


def unipoly(f):
    """The sympy expression in x of a UniPoly."""
    x = symbols("x")
    return sum((_sym(c) * x**e for e, c in enumerate(f.coeffs)), Rational(0))


def coordinate(expr, n):
    """Coordinate n of an expression in x and y, f_n = d^n/dy^n at y = 0."""
    y = symbols("y")
    return expand(diff(expr, y, n).subs(y, 0))


def monomial_form(F):
    """The sympy Poly in x and y over QQ_I of F = sum_n f_n(x) y^n / n!, read
    off F's coordinates: x^e y^n has coefficient f_n[e] / n!."""
    x, y = symbols("x y")
    terms = {
        (e, n): QQ_I(_q(c.re / math.factorial(n)), _q(c.im / math.factorial(n)))
        for n in range(F.num_coords)
        for e, c in enumerate(F.coord(n).coeffs)
        if c
    }
    return Poly.from_dict(terms, x, y, domain=QQ_I) if terms else Poly(0, x, y, domain=QQ_I)


def poly_rank(polys) -> int:
    """Rank over QQ_I of sympy Polys in x and y, as coefficient vectors over their monomials."""
    terms = [P.as_dict(native=True) for P in polys]  # native: QQ_I elements, not sympy expressions
    cells = sorted({m for d in terms for m in d})
    if not cells:
        return 0
    rows = [[d.get(m, QQ_I.zero) for m in cells] for d in terms]
    return DomainMatrix(rows, (len(rows), len(cells)), QQ_I).rank()


def q_gamma(table, F):
    """Q_g F = d^s F/dy^s - sum a_ij d^j/dx^j d^(i-1)/dy^(i-1) F, expanded, for
    F = sum_n f_n(x) y^n / n! read off F's coordinates. Q_g F is
    sum_n (f_{n+s} - sum a_ij f_{n+i-1}^(j)) y^n / n!, so it is 0 exactly
    when F's coordinates obey g's recursion."""
    x, y = symbols("x y")
    expr = monomial_form(F).as_expr()
    terms = sum((_sym(a) * diff(expr, x, j, y, i - 1) for (i, j), a in table.entries.items()), Rational(0))
    return expand(diff(expr, y, table.s) - terms)
