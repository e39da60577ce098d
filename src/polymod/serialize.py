"""JSON wire formats.

Conventions (mirrored in the shipped schema files):

* rational string: optional sign, decimal integer, optional "/" positive
  integer, e.g. "3", "-1/2"; written as str(Fraction), so output is
  always in lowest terms with no "+" and no "/1"
* scalar: {"re": rational, "im": rational}; inputs may abbreviate a real
  scalar as a bare rational string or integer
* univariate polynomial: array of scalars, index = power of x
* bivariate polynomial: {"coords": [univariate, ...]} where coordinate n is
  the n-th y-derivative at y = 0, i.e. F = sum_n coords[n](x) y^n / n!
* recursion table: {"s": int, "entries": [{"i": int, "j": int, "a": scalar}]}
* module expression: tagged union on "type"

All algebraic values serialize exactly. Log-scale magnitudes are the one
deliberate exception and are always emitted under keys naming the scale
("log10..."), never as bare floats.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError, _polled
from .gamma import GammaTable
from .lognum import LOG_DIGITS
from .modules import FiniteGen, MembershipResult, Md, MGamma, Sum, VSpaceBasis
from .poly import BiPoly, UniPoly
from .scalars import CoeffQ

RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not RATIONAL_RE.fullmatch(value):
            raise ParseError(f"malformed rational {value!r}")
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise ParseError(f"expected rational string or int, got {type(value).__name__}")


def scalar_from_json(obj) -> CoeffQ:
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise ParseError(f"unexpected scalar keys {sorted(extra)}")
        return CoeffQ(parse_rational(obj.get("re", 0)), parse_rational(obj.get("im", 0)))
    return CoeffQ(parse_rational(obj))


def scalar_to_json(c: CoeffQ) -> dict:
    return {"re": str(c.re), "im": str(c.im)}


def unipoly_from_json(obj, cancel=None) -> UniPoly:
    if not isinstance(obj, list):
        raise ParseError("univariate polynomial must be a JSON array of scalars")
    return UniPoly([scalar_from_json(c) for c in _polled(obj, cancel)])


def unipoly_to_json(f: UniPoly) -> list:
    return [scalar_to_json(c) for c in f.coeffs]


def bipoly_from_json(obj, cancel=None) -> BiPoly:
    if not isinstance(obj, dict) or "coords" not in obj:
        raise ParseError('bivariate polynomial must be {"coords": [...]}')
    coords = obj["coords"]
    if not isinstance(coords, list):
        raise ParseError('"coords" must be a JSON array')
    return BiPoly([unipoly_from_json(f, cancel) for f in _polled(coords, cancel)])


def bipoly_to_json(F: BiPoly) -> dict:
    return {"coords": [unipoly_to_json(F.coord(n)) for n in range(F.num_coords)]}


def gamma_from_json(obj) -> GammaTable:
    if not isinstance(obj, dict) or "s" not in obj:
        raise ParseError('recursion table must be {"s": int, "entries": [...]}')
    if type(obj["s"]) is not int:
        raise ParseError('"s" must be an int')
    if not isinstance(obj.get("entries", []), list):
        raise ParseError('"entries" must be a JSON array')
    entries = {}
    for e in obj.get("entries", []):
        if not isinstance(e, dict) or not {"i", "j", "a"} <= set(e):
            raise ParseError('each entry must be {"i": int, "j": int, "a": scalar}')
        i, j = e["i"], e["j"]
        if type(i) is not int or type(j) is not int:
            raise ParseError("entry indices must be ints")
        if (i, j) in entries:
            raise ParseError(f"duplicate entry ({i}, {j})")
        entries[(i, j)] = scalar_from_json(e["a"])
    try:
        return GammaTable(obj["s"], entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def gamma_to_json(g: GammaTable) -> dict:
    return {
        "s": g.s,
        "entries": [
            {"i": i, "j": j, "a": scalar_to_json(a)} for (i, j), a in g.entries.items()
        ],
    }


def module_from_json(obj, cancel=None):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('module expression must carry a "type" tag')
    tag = obj["type"]
    try:
        if tag == "Md":
            return Md(obj["d"])
        if tag == "MGamma":
            return MGamma(gamma_from_json(obj["gamma"]))
        if tag == "FiniteGen":
            gens = obj["gens"]
            if not isinstance(gens, list):
                raise ParseError('"gens" must be a JSON array')
            return FiniteGen(tuple(bipoly_from_json(F, cancel) for F in gens), cancel)
        if tag == "Sum":
            parts = obj["parts"]
            if not isinstance(parts, list):
                raise ParseError('"parts" must be a JSON array')
            return Sum(*[module_from_json(p, cancel) for p in parts])
    except KeyError as exc:
        raise ParseError(f"module expression {tag!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown module type {tag!r}")


def module_to_json(M) -> dict:
    if isinstance(M, Md):
        return {"type": "Md", "d": M.d}
    if isinstance(M, MGamma):
        return {"type": "MGamma", "gamma": gamma_to_json(M.gamma)}
    if isinstance(M, FiniteGen):
        return {"type": "FiniteGen", "gens": [bipoly_to_json(F) for F in M.gens]}
    if isinstance(M, Sum):
        return {"type": "Sum", "parts": [module_to_json(p) for p in M.parts]}
    raise TypeError(f"not a module expression: {type(M).__name__}")


def jsonable(value):
    """Recursive conversion of a certificate or an error payload, which hold
    only plain values, scalars, polynomials, dicts, lists and tuples, into
    JSON-ready structures."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, CoeffQ):
        return scalar_to_json(value)
    if isinstance(value, UniPoly):
        return unipoly_to_json(value)
    if isinstance(value, BiPoly):
        return bipoly_to_json(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def membership_to_json(result: MembershipResult) -> dict:
    return {"contains": result.contains, "certificate": jsonable(result.certificate)}


def vspace_to_json(V: VSpaceBasis) -> dict:
    return {
        "s": V.s,
        "deg_bound": V.deg_bound,
        "basis": [[unipoly_to_json(f) for f in tup] for tup in V.tuples],
    }


def sum_order_to_json(report) -> dict:
    return {
        "order": report.order,
        "deg_bound": report.deg_bound,
        "certificate": {
            "kernel_dim": report.kernel_dim,
            "refuted": [
                {"k": k, "witness": bipoly_to_json(w)} for k, w in report.refuted
            ],
        },
    }


def matrix_from_json(obj, cancel=None) -> list:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError("matrix must be a JSON array of rows")
    rows = [[scalar_from_json(c) for c in r] for r in _polled(obj, cancel)]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows must have equal length")
    return rows


def chains_to_json(dec) -> dict:
    return {
        "dim": dec.dim,
        "chains": [
            {"generator": [scalar_to_json(c) for c in u], "length": length}
            for u, length in dec.chains
        ],
        "basis_vectors": [
            [scalar_to_json(c) for c in v] for v in dec.basis_vectors
        ],
    }


def bound_report_to_json(report) -> dict:
    from mpmath import nstr

    return {
        "n": report.n,
        "log10_linear": nstr(report.log_linear_term.log10(), LOG_DIGITS),
        "log10_tail": nstr(report.log_tail_term.log10(), LOG_DIGITS),
        "log10_total": nstr(report.log_total.log10(), LOG_DIGITS),
        "box_radius_log": nstr(report.box_radius_log, LOG_DIGITS),
        "below_one": report.below_one,
        "certified": report.certified,
        "conditions": jsonable(list(report.conditions)),
    }


def dumps(obj) -> str:
    """Deterministic compact encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
