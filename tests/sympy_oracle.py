"""Dense CoeffQ linear algebra on sympy's DomainMatrix, for reference tests.

sympy's QQ and QQ_I matrices are an independent implementation of exact
elimination and products, so an oracle built from these helpers shares no
code with polymod.linalg, which it checks. Rows are lists of CoeffQ, as at
polymod's dense edge; every helper works over QQ_I unless told otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ, QQ_I
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
