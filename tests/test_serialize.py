import json
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import ValidationError
from referencing import Registry, Resource

import polymod
from polymod import (
    BiPoly,
    Cancelled,
    CoeffQ,
    GammaTable,
    LogNum,
    MGamma,
    Md,
    ParseError,
    Sum,
    UniPoly,
    nilpotent_chains,
    order_of_sum_report,
    shift_invariance_table,
    sup_bound,
    v_space,
    witness_x_not_in_M,
)
from polymod import serialize as ser

from conftest import rand_bipoly, rand_gamma, rand_scalar, rand_unipoly
from test_linalg import _CountingToken

SCHEMA_DIR = Path(polymod.__file__).parent / "schemas"


def _registry():
    resources = []
    for p in sorted(SCHEMA_DIR.glob("*.json")):
        doc = json.loads(p.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def check_schema(instance, ref):
    Draft202012Validator({"$ref": ref}, registry=REGISTRY).validate(instance)


def test_parse_rational_grammar():
    assert ser.parse_rational("3") == Fraction(3)
    assert ser.parse_rational("-4/5") == Fraction(-4, 5)
    assert ser.parse_rational("+7/3") == Fraction(7, 3)
    assert ser.parse_rational(12) == Fraction(12)
    assert ser.parse_rational("007") == Fraction(7)
    # a trailing newline is refused too: the grammar must match the whole string
    for bad in ("1/0", "1/-2", "3.5", "", "x", "1 /2", " 3", "3 ", "1//2", "3\n", "-4/5\n", "\n"):
        with pytest.raises(ParseError):
            ser.parse_rational(bad)
    with pytest.raises(ParseError):
        ser.parse_rational(True)
    with pytest.raises(ParseError):
        ser.parse_rational(3.5)
    with pytest.raises(ParseError):
        ser.parse_rational(None)


def _parse_rational_by_fraction(value):
    """parse_rational as it was: the same grammar check, then Fraction(str)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError("not a rational")
    if isinstance(value, str) and not ser.RATIONAL_RE.fullmatch(value):
        raise ParseError("malformed rational")
    return Fraction(value)


def test_parse_rational_matches_fraction_parse():
    cases = [
        "+3", "-0/5", "007/2", "1/0", "1/-2", "1.5", True, False, "0", "-0", "+0/7", "-12/8", "3/4\n", "3\n",
        "\u0663/\u0664", "\u0663/7", "\u0663", "\u00bd", "/", "1/", "/2", "1/2/3", "0x10", "1e3", "1_000", "12/03",
        "+-1", "9" * 40 + "/" + "7" * 30, 0, -7, 10**30, 1.5, None, [1],
    ]
    for value in cases:
        try:
            want = _parse_rational_by_fraction(value)
        except ParseError:
            with pytest.raises(ParseError):
                ser.parse_rational(value)
            continue
        got = ser.parse_rational(value)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)


# the scalar schema and parse_rational accept the same rational strings;
# both ask for ASCII digits, so other Unicode decimal digits are refused
RATIONAL_PARITY = ["3", "-4/5", "+7/3", "007", "1/0", "1/-2", "3.5", "", "1//2", "½", "٣", "1/٢"]


def test_rational_strings_parse_exactly_where_the_scalar_schema_accepts_them():
    for value in RATIONAL_PARITY:
        try:
            check_schema(value, "urn:polymod:scalar")
        except ValidationError:
            with pytest.raises(ParseError):
                ser.parse_rational(value)
            with pytest.raises(ParseError):
                ser.scalar_from_json(value)
        else:
            assert ser.scalar_from_json(value) == CoeffQ(ser.parse_rational(value))


def test_fmt_rational():
    assert ser.fmt_rational(Fraction(3)) == "3"
    assert ser.fmt_rational(Fraction(-4, 6)) == "-2/3"
    assert ser.fmt_rational(Fraction(0)) == "0"


def test_scalar_roundtrip(rng):
    for _ in range(30):
        c = rand_scalar(rng)
        j = ser.scalar_to_json(c)
        check_schema(j, "urn:polymod:scalar")
        assert ser.scalar_from_json(j) == c


def test_scalar_shorthands():
    assert ser.scalar_from_json("3/2") == CoeffQ(Fraction(3, 2))
    assert ser.scalar_from_json(4) == CoeffQ(4)
    assert ser.scalar_from_json({"re": 1}) == CoeffQ(1)
    assert ser.scalar_from_json({"im": "1/3"}) == CoeffQ(0, Fraction(1, 3))
    with pytest.raises(ParseError):
        ser.scalar_from_json({"re": 1, "imag": 2})
    with pytest.raises(ParseError):
        ser.scalar_from_json([1, 2])


def test_unipoly_roundtrip(rng):
    for _ in range(20):
        f = rand_unipoly(rng, 5)
        j = ser.unipoly_to_json(f)
        check_schema(j, "urn:polymod:polynomial#/$defs/unipoly")
        assert ser.unipoly_from_json(j) == f
    assert ser.unipoly_to_json(UniPoly.zero()) == []
    assert ser.unipoly_from_json([]) == UniPoly.zero()
    with pytest.raises(ParseError):
        ser.unipoly_from_json("x^2")


def test_bipoly_roundtrip(rng):
    for _ in range(20):
        F = rand_bipoly(rng, 4, 3)
        j = ser.bipoly_to_json(F)
        check_schema(j, "urn:polymod:polynomial#/$defs/bipoly")
        assert ser.bipoly_from_json(j) == F
    assert ser.bipoly_from_json({"coords": [[], []]}) == BiPoly.zero()
    assert ser.bipoly_to_json(BiPoly.zero()) == {"coords": []}
    with pytest.raises(ParseError):
        ser.bipoly_from_json({"rows": []})
    with pytest.raises(ParseError):
        ser.bipoly_from_json({"coords": "x"})


def test_gamma_roundtrip(rng):
    for _ in range(20):
        g = rand_gamma(rng)
        j = ser.gamma_to_json(g)
        check_schema(j, "urn:polymod:gamma")
        assert ser.gamma_from_json(j) == g


def test_gamma_malformed():
    with pytest.raises(ParseError):
        ser.gamma_from_json({"entries": []})  # missing s
    with pytest.raises(ParseError):
        ser.gamma_from_json({"s": True})
    with pytest.raises(ParseError):
        ser.gamma_from_json({"s": 0})  # table validation wrapped
    with pytest.raises(ParseError):
        ser.gamma_from_json(
            {
                "s": 1,
                "entries": [
                    {"i": 1, "j": 1, "a": "1"},
                    {"i": 1, "j": 1, "a": "2"},
                ],
            }
        )
    with pytest.raises(ParseError):
        ser.gamma_from_json({"s": 1, "entries": [{"i": 1, "a": "1"}]})
    with pytest.raises(ParseError):
        ser.gamma_from_json({"s": 1, "entries": [{"i": "1", "j": 1, "a": "1"}]})


# JSON booleans are ints to Python, but the schemas ask for integers
BOOLEAN_INTS = [
    ("urn:polymod:module-expr", {"type": "Md", "d": True}),
    ("urn:polymod:gamma", {"s": 1, "entries": [{"i": True, "j": 1, "a": "1"}]}),
    ("urn:polymod:gamma", {"s": 1, "entries": [{"i": 1, "j": True, "a": "1"}]}),
    ("urn:polymod:gamma", {"s": 1, "entries": [{"i": True, "j": True, "a": "1"}]}),
]


# "entries" must be an array; an empty object or string is not an empty table
NON_ARRAY_ENTRIES = [("urn:polymod:gamma", {"s": 1, "entries": v}) for v in (5, None, True, 1.5, "x", "", {})]


def _refused_by_schema_and_parser(ref, doc):
    with pytest.raises(ValidationError):
        check_schema(doc, ref)
    parse = ser.gamma_from_json if ref == "urn:polymod:gamma" else ser.module_from_json
    with pytest.raises(ParseError):
        parse(doc)


def test_booleans_are_refused_where_the_schemas_ask_for_integers():
    for ref, doc in BOOLEAN_INTS:
        _refused_by_schema_and_parser(ref, doc)


def test_non_array_entries_are_refused_by_schema_and_parser():
    for ref, doc in NON_ARRAY_ENTRIES:
        _refused_by_schema_and_parser(ref, doc)
    with pytest.raises(ParseError, match='"entries" must be a JSON array'):
        ser.module_from_json({"type": "MGamma", "gamma": {"s": 1, "entries": None}})


def test_module_roundtrip():
    exprs = [
        Md(3),
        MGamma(shift_invariance_table()),
        polymod.FiniteGen([BiPoly.monomial(2, 1)]),
        Sum(Md(1), MGamma(shift_invariance_table())),
        Sum(Md(0), MGamma(GammaTable.zero(2)), polymod.FiniteGen([BiPoly.monomial(0, 1)])),
    ]
    for M in exprs:
        j = ser.module_to_json(M)
        check_schema(j, "urn:polymod:module-expr")
        back = ser.module_from_json(j)
        assert ser.module_to_json(back) == j


def test_module_from_json_passes_its_token_to_every_closure():
    fin = {"type": "FiniteGen", "gens": [ser.bipoly_to_json(BiPoly.monomial(2, 1))]}
    for obj in (fin, {"type": "Sum", "parts": [{"type": "Md", "d": 1}, fin]}):
        token = _CountingToken()
        assert ser.module_from_json(obj, token) == ser.module_from_json(obj)
        assert token.calls >= 1
        with pytest.raises(Cancelled):
            ser.module_from_json(obj, _CountingToken(fire_at=1))


def test_bipoly_from_json_polls_once_per_coordinate():
    obj = {"coords": [["1"], [], ["0", {"re": "2", "im": "1"}], ["-1/2"]]}
    token = _CountingToken()
    assert ser.bipoly_from_json(obj, token) == ser.bipoly_from_json(obj)
    assert token.calls == 4
    for m in range(1, 5):
        stub = _CountingToken(fire_at=m)
        with pytest.raises(Cancelled):
            ser.bipoly_from_json(obj, stub)
        assert stub.calls == m


def test_module_from_json_polls_while_it_parses_the_generators(monkeypatch):
    fin = {"type": "FiniteGen", "gens": [{"coords": [["1"], ["0", "1"]]}, {"coords": [["0", "0", "1"]]}]}
    seen = []  # polls made before the closure starts
    monkeypatch.setattr(ser, "FiniteGen", lambda gens, cancel: seen.append(cancel.calls))
    ser.module_from_json(fin, _CountingToken())
    assert seen == [3]
    for m in range(1, 4):
        stub = _CountingToken(fire_at=m)
        with pytest.raises(Cancelled):
            ser.module_from_json(fin, stub)
        assert stub.calls == m
    assert seen == [3]


def test_matrix_from_json_polls_once_per_row():
    obj = [["0", "1", "0"], ["0", "0", {"re": "2", "im": "-1"}], ["0", "0", "0"]]
    token = _CountingToken()
    assert ser.matrix_from_json(obj, token) == ser.matrix_from_json(obj)
    assert token.calls == 3
    for m in range(1, 4):
        stub = _CountingToken(fire_at=m)
        with pytest.raises(Cancelled):
            ser.matrix_from_json(obj, stub)
        assert stub.calls == m


def test_module_malformed():
    cases = [
        {"type": "Mystery"},
        {"type": "Md"},
        {"type": "Md", "d": -3},
        {"type": "Md", "d": "2"},
        {"type": "MGamma"},
        {"type": "FiniteGen", "gens": "zzz"},
        {"type": "Sum", "parts": [{"type": "Md", "d": 1}]},
        {"type": "Sum", "parts": {}},
        ["Md", 1],
        {},
    ]
    for bad in cases:
        with pytest.raises(ParseError):
            ser.module_from_json(bad)


def test_matrix_from_json():
    rows = ser.matrix_from_json([[1, "1/2"], ["0", {"im": "1"}]])
    assert rows[0][1] == CoeffQ(Fraction(1, 2))
    assert rows[1][1] == CoeffQ(0, 1)
    with pytest.raises(ParseError):
        ser.matrix_from_json([[1], [1, 2]])
    with pytest.raises(ParseError):
        ser.matrix_from_json("matrix")
    assert ser.matrix_from_json([]) == []


def test_lognum_to_json():
    z = ser.lognum_to_json(LogNum.zero())
    assert z == {"sign": 0, "mode": "upper-bound"}
    check_schema(z, "urn:polymod:results#/$defs/lognum")
    neg = ser.lognum_to_json(LogNum.from_rational(-1000))
    assert neg["sign"] == -1
    assert float(neg["log10_mag"]) == pytest.approx(3.0)
    check_schema(neg, "urn:polymod:results#/$defs/lognum")


def test_jsonable_dispatch():
    assert ser.jsonable(Fraction(2, 4)) == "1/2"
    assert ser.jsonable((1, "a", None)) == [1, "a", None]
    assert ser.jsonable({"k": UniPoly.x()}) == {"k": [{"re": "0", "im": "0"}, {"re": "1", "im": "0"}]}
    from mpmath import mpf

    assert isinstance(ser.jsonable(mpf(2) ** 100), str)
    with pytest.raises(TypeError):
        ser.jsonable(object())


def test_payload_schemas():
    check_schema(
        ser.membership_to_json(witness_x_not_in_M()),
        "urn:polymod:results#/$defs/membership",
    )
    vb = v_space(MGamma(shift_invariance_table()), 1, deg_bound=3)
    check_schema(ser.vspace_to_json(vb), "urn:polymod:results#/$defs/vspace")
    rep = order_of_sum_report(
        shift_invariance_table(), GammaTable.zero(1), 3
    )
    check_schema(ser.sum_order_to_json(rep), "urn:polymod:results#/$defs/sum-order")
    dec = nilpotent_chains([[0, 1], [0, 0]])
    check_schema(ser.chains_to_json(dec), "urn:polymod:results#/$defs/chains")
    row = ser.bound_report_to_json(sup_bound(6))
    check_schema(row, "urn:polymod:results#/$defs/bound-row")
    check_schema([row], "urn:polymod:results#/$defs/nonclosed-table")
    check_schema(
        [{"n": 4, "certified": False, "failures": ["box-eval-linear"]}],
        "urn:polymod:results#/$defs/nonclosed-table",
    )
    with pytest.raises(ValidationError):
        check_schema({"contains": "yes"}, "urn:polymod:results#/$defs/membership")


def test_dumps_deterministic_and_compact():
    a = ser.dumps({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = ser.dumps({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'
    with pytest.raises(ValueError):
        ser.dumps(float("nan"))
