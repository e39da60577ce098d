import copy
import json
import random

import pytest

from polymod import BiPoly, UniPoly, generate, shift_invariance_table
from polymod import serialize as ser
from polymod import cli
from polymod.cancel import CancelToken
from polymod.cli import run

from conftest import rand_bipoly
from test_linalg import _CountingToken

GS_JSON = '{"s":1,"entries":[{"i":1,"j":1,"a":"1"}]}'


def _json_out(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_poly_eval(capsys):
    code, payload = _json_out(
        capsys,
        ["poly-eval", "--json", "--poly", '{"coords":[[0,1],[1]]}', "--x", "1/2", "--y", "3"],
    )
    assert code == 0
    assert payload == {"value": {"re": "7/2", "im": "0"}}


def test_poly_eval_human(capsys):
    code = run(["poly-eval", "--poly", '{"coords":[[0,1],[1]]}', "--x", "1/2", "--y", "3"])
    assert code == 0
    assert capsys.readouterr().out == "value: 7/2\n"


def test_poly_shift(capsys):
    code, payload = _json_out(
        capsys,
        ["poly-shift", "--json", "--poly", '{"coords":[[0,0,1]]}', "--a", "1", "--b", "0"],
    )
    assert code == 0
    got = ser.bipoly_from_json(payload)
    want = BiPoly([UniPoly([1, 2, 1])])
    assert got == want


GAUSS_POLY = '{"coords":[[{"re":"1","im":"2"},0,{"re":"-3","im":"1"}],[0,{"re":"0","im":"-1"}],[2]]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["poly-eval", "--poly", GAUSS_POLY, "--x", "1/2", "--y", "-2/3"],
        ["poly-eval", "--json", "--poly", GAUSS_POLY, "--x", "-1", "--y", "-2/3"],
        ["poly-eval", "--json", "--poly", GAUSS_POLY, "--x", '{"re":"-1/2","im":"-3"}', "--y", "-0"],
        ["poly-shift", "--json", "--poly", GAUSS_POLY, "--a", "-5/2", "--b", "-2/3"],
        ["poly-shift", "--poly", GAUSS_POLY, "--a", '{"re":"-1","im":"1/2"}', "--b", "-7"],
    ],
)
def test_scalar_flags_take_negative_values(capsys, argv):
    # "--y -2/3" and "--y=-2/3" must mean the same; argparse alone reads -2/3 as a flag
    bound = []
    for tok in argv:
        if bound and bound[-1] in ("--x", "--y", "--a", "--b"):
            bound[-1] = f"{bound[-1]}={tok}"
        else:
            bound.append(tok)
    assert run(argv) == 0
    separate = capsys.readouterr().out
    assert run(bound) == 0
    assert capsys.readouterr().out == separate


def test_scalar_flag_before_an_option_is_a_usage_error(capsys):
    assert run(["poly-eval", "--poly", GAUSS_POLY, "--x", "--json", "--y", "1"]) == 2


def test_poly_diff(capsys):
    code, payload = _json_out(
        capsys,
        ["poly-diff", "--json", "--poly", '{"coords":[[],[0,0,1]]}', "--var", "y"],
    )
    assert code == 0
    assert ser.bipoly_from_json(payload) == BiPoly([UniPoly.monomial(2)])


def test_closure(capsys):
    gens = ser.dumps([ser.bipoly_to_json(BiPoly.monomial(2, 1))])
    code, payload = _json_out(capsys, ["closure", "--json", "--gens", gens])
    assert code == 0
    assert payload["dim"] == 6


def test_member_md_example(capsys):
    code, payload = _json_out(
        capsys,
        [
            "member",
            "--json",
            "--module",
            '{"type":"Md","d":1}',
            "--poly",
            ser.dumps(ser.bipoly_to_json(BiPoly.monomial(0, 5))),
        ],
    )
    assert code == 0
    assert payload["contains"] is True
    assert payload["certificate"]["reason"] == "degree-bound"


def test_gen_gamma_square(capsys):
    code = run(["gen-gamma", "--gamma", GS_JSON, "--seeds", "[[0,0,1]]"])
    assert code == 0
    assert capsys.readouterr().out == "monomial form: x^2 + 2*x*y + y^2\n"
    code, payload = _json_out(
        capsys, ["gen-gamma", "--json", "--gamma", GS_JSON, "--seeds", "[[0,0,1]]"]
    )
    assert code == 0
    want = generate(shift_invariance_table(), [UniPoly.monomial(2)])
    assert ser.bipoly_from_json(payload) == want


def test_vspace(capsys):
    code, payload = _json_out(
        capsys,
        [
            "vspace",
            "--json",
            "--deg-bound",
            "3",
            "--s",
            "1",
            "--module",
            '{"type":"MGamma","gamma":' + GS_JSON + "}",
        ],
    )
    assert code == 0
    assert payload["s"] == 1 and payload["deg_bound"] == 3
    assert len(payload["basis"]) == 3


def test_infer_l_roundtrip(capsys):
    basis = [
        ser.bipoly_to_json(generate(shift_invariance_table(), [UniPoly.monomial(m)]))
        for m in range(4)
    ]
    code, payload = _json_out(
        capsys,
        ["infer-l", "--json", "--s", "1", "--deg-bound", "3", "--basis", ser.dumps(basis)],
    )
    assert code == 0
    assert payload["s"] == 1
    assert payload["entries"] == [{"i": 1, "j": 1, "a": {"re": "1", "im": "0"}}]


def test_order(capsys):
    basis = ser.dumps([ser.bipoly_to_json(BiPoly.monomial(2, 1))])
    code, payload = _json_out(capsys, ["order", "--json", "--basis", basis])
    assert code == 0
    assert payload == {"order": 2}


def test_order_sum(capsys):
    code, payload = _json_out(
        capsys,
        [
            "order-sum",
            "--json",
            "--deg-bound",
            "4",
            "--gamma1",
            GS_JSON,
            "--gamma2",
            '{"s":1}',
        ],
    )
    assert code == 0
    assert payload["order"] == 2
    assert payload["certificate"]["refuted"][0]["k"] == 1


def test_chains(capsys):
    code, payload = _json_out(capsys, ["chains", "--json", "--matrix", "[[0,1],[0,0]]"])
    assert code == 0
    assert payload["dim"] == 2
    assert [c["length"] for c in payload["chains"]] == [2]


def test_split(capsys):
    module = '{"type":"Sum","parts":[{"type":"Md","d":1},{"type":"MGamma","gamma":' + GS_JSON + "}]}"
    code, payload = _json_out(capsys, ["split", "--json", "--module", module])
    assert code == 0
    assert payload == {"d": 1, "order": 1}


def test_nonclosed_demo_sweep(capsys):
    code, rows = _json_out(capsys, ["nonclosed-demo", "--json", "--n-min", "5", "--n-max", "10"])
    assert code == 0
    assert [r["n"] for r in rows] == [5, 6, 7, 8, 9, 10]
    assert all(r["certified"] and r["below_one"] for r in rows)
    from mpmath import mpf

    totals = [mpf(r["log10_total"]) for r in rows]  # exponents overflow float
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert totals[0] < 0


def test_nonclosed_demo_human_marks_uncertified(capsys):
    code = run(["nonclosed-demo", "--n-min", "2", "--n-max", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "certified" in out.splitlines()[0]
    assert "true" in out


def test_e14_table(capsys):
    code, rows = _json_out(capsys, ["e14", "--json", "--n-max", "4"])
    assert code == 0
    assert [r["n"] for r in rows] == [2, 3, 4]
    vals = [float(r["log_ratio"]) for r in rows]
    assert all(v < 0 for v in vals)
    assert vals[2] < vals[1] < vals[0]


def test_exit_code_usage():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["poly-eval"]) == 2  # missing required flags


def test_exit_code_domain_error(capsys):
    code, payload = _json_out(
        capsys, ["member", "--json", "--module", '{"type":"Md","d":-3}', "--poly", '{"coords":[]}']
    )
    assert code == 1
    assert payload["error"]["type"] == "parse-error"

    code, payload = _json_out(
        capsys, ["split", "--json", "--module", '{"type":"Md","d":1}']
    )
    assert code == 1
    assert payload["error"]["type"] == "unsupported-expr"


def test_json_booleans_are_not_integers(capsys):
    poly = '{"coords":[[1]]}'
    for argv in (
        ["member", "--json", "--module", '{"type":"Md","d":true}', "--poly", poly],
        ["member", "--json", "--module", '{"type":"Sum","parts":[{"type":"Md","d":1},{"type":"Md","d":true}]}', "--poly", poly],
        ["gen-gamma", "--json", "--gamma", '{"s":1,"entries":[{"i":true,"j":true,"a":"1"}]}', "--seeds", "[[0,1]]"],
        ["gen-gamma", "--json", "--gamma", '{"s":1,"entries":[{"i":1,"j":true,"a":"1"}]}', "--seeds", "[[0,1]]"],
        ["member", "--json", "--module", '{"type":"MGamma","gamma":{"s":1,"entries":[{"i":true,"j":1,"a":"1"}]}}', "--poly", poly],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "parse-error", argv


def test_non_array_entries_are_parse_errors(capsys):
    # gen-gamma and order-sum parse the table directly, the module commands inside MGamma
    for entries in ("5", "null", "true", "1.5", "{}", '""'):
        bad = '{"s":1,"entries":' + entries + "}"
        mgamma = '{"type":"MGamma","gamma":' + bad + "}"
        for argv in (
            ["gen-gamma", "--json", "--gamma", bad, "--seeds", "[[0,1]]"],
            ["order-sum", "--json", "--gamma1", GS_JSON, "--gamma2", bad],
            ["member", "--json", "--module", mgamma, "--poly", '{"coords":[[1]]}'],
            ["vspace", "--json", "--s", "1", "--module", mgamma],
            ["split", "--json", "--module", '{"type":"Sum","parts":[{"type":"Md","d":1},' + mgamma + "]}"],
        ):
            code, payload = _json_out(capsys, argv)
            assert code == 1, argv
            assert payload["error"] == {"type": "parse-error", "message": '"entries" must be a JSON array'}, argv


def test_member_refuses_a_deg_bound_below_one_on_a_truncated_sum(capsys):
    poly = '{"coords":[[0,1]]}'
    mixed = '{"type":"Sum","parts":[{"type":"FiniteGen","gens":[' + poly + ']},{"type":"MGamma","gamma":' + GS_JSON + "}]}"
    code, payload = _json_out(capsys, ["member", "--json", "--deg-bound", "0", "--module", mixed, "--poly", poly])
    assert code == 1
    assert payload["error"] == {"type": "invalid-value", "message": "deg_bound must be >= 1"}
    # Sum(Md, MGamma) is exact and never reads the bound
    exact = '{"type":"Sum","parts":[{"type":"Md","d":2},{"type":"MGamma","gamma":' + GS_JSON + "}]}"
    code, payload = _json_out(capsys, ["member", "--json", "--deg-bound", "0", "--module", exact, "--poly", poly])
    assert code == 0 and payload["contains"] is True


def test_error_payload_carries_witness(capsys):
    basis = ser.dumps(
        [ser.bipoly_to_json(BiPoly.monomial(i, j)) for i in range(2) for j in range(3)]
    )
    code, payload = _json_out(capsys, ["infer-l", "--json", "--s", "2", "--basis", basis])
    assert code == 1
    assert payload["error"]["type"] == "not-an-l-module"
    assert "witness" in payload["error"]


def test_underdetermined_reports_free_slots(capsys):
    basis = ser.dumps(
        [
            ser.bipoly_to_json(generate(shift_invariance_table(), [UniPoly.monomial(m)]))
            for m in range(2)
        ]
    )
    code, payload = _json_out(
        capsys, ["infer-l", "--json", "--s", "1", "--deg-bound", "4", "--basis", basis]
    )
    assert code == 1
    assert payload["error"]["type"] == "underdetermined"
    assert all(slot["j"] >= 2 for slot in payload["error"]["free_slots"])


def test_malformed_json_is_parse_error(capsys):
    code, payload = _json_out(capsys, ["closure", "--json", "--gens", "[[["])
    assert code == 1
    assert payload["error"]["type"] == "parse-error"


def test_rational_with_a_trailing_newline_is_parse_error(capsys):
    for poly in ('{"coords":[["3\\n"]]}', '{"coords":[["-4/5\\n"]]}'):
        code, payload = _json_out(capsys, ["poly-eval", "--json", "--poly", poly, "--x", "0", "--y", "0"])
        assert code == 1 and payload["error"]["type"] == "parse-error", poly
    code, payload = _json_out(capsys, ["poly-eval", "--json", "--poly", '{"coords":[["3"]]}', "--x", "0", "--y", "0"])
    assert code == 0 and payload["value"]["re"] == "3"


def test_at_file_input(tmp_path, capsys):
    f = tmp_path / "poly.json"
    f.write_text('{"coords":[[0,1],[1]]}', encoding="utf-8")
    code, payload = _json_out(
        capsys, ["poly-eval", "--json", "--poly", f"@{f}", "--x", "0", "--y", "1"]
    )
    assert code == 0
    assert payload["value"]["re"] == "1"
    code, payload = _json_out(
        capsys, ["poly-eval", "--json", "--poly", "@/no/such/file", "--x", "0", "--y", "0"]
    )
    assert code == 1
    assert payload["error"]["type"] == "parse-error"


def test_env_deg_bound(monkeypatch, capsys):
    basis = ser.dumps([ser.bipoly_to_json(BiPoly.monomial(2, 1))])
    monkeypatch.setenv("POLYMOD_DEG_BOUND", "1")
    code, payload = _json_out(capsys, ["order", "--json", "--basis", basis])
    assert code == 0 and payload == {"order": None}
    monkeypatch.setenv("POLYMOD_DEG_BOUND", "4")
    code, payload = _json_out(capsys, ["order", "--json", "--basis", basis])
    assert code == 0 and payload == {"order": 2}
    # a malformed env var is an error even where the command has a fallback bound
    monkeypatch.setenv("POLYMOD_DEG_BOUND", "soon")
    for argv in (
        ["order", "--json", "--basis", basis],
        ["infer-l", "--json", "--s", "1", "--basis", basis],
        ["order-sum", "--json", "--gamma1", GS_JSON, "--gamma2", GS_JSON],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1 and payload["error"]["type"] == "parse-error", argv


def test_flag_beats_env(monkeypatch, capsys):
    basis = ser.dumps([ser.bipoly_to_json(BiPoly.monomial(2, 1))])
    monkeypatch.setenv("POLYMOD_DEG_BOUND", "1")
    code, payload = _json_out(capsys, ["order", "--json", "--deg-bound", "4", "--basis", basis])
    assert code == 0 and payload == {"order": 2}


def test_timeout_cancels(capsys):
    basis = ser.dumps([ser.bipoly_to_json(BiPoly.monomial(2, 1))])
    for argv in (
        ["order-sum", "--json", "--timeout=-1", "--gamma1", GS_JSON, "--gamma2", GS_JSON],
        ["order", "--json", "--timeout=-1", "--basis", basis],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "cancelled"


def test_timeout_cancels_span_reductions(capsys):
    # membership in a FiniteGen and the seed-prefix space poll inside their eliminations
    fin = ser.dumps({"type": "FiniteGen", "gens": [ser.bipoly_to_json(BiPoly.monomial(2, 1))]})
    poly = ser.dumps(ser.bipoly_to_json(BiPoly.monomial(1, 1)))
    for argv in (
        ["member", "--json", "--timeout=-1", "--module", fin, "--poly", poly],
        ["vspace", "--json", "--timeout=-1", "--module", fin, "--s", "2"],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "cancelled"


def test_timeout_holds_inside_the_finitegen_closure(capsys):
    # three random generators whose closure takes seconds: the token is live
    # while the module is parsed, so a small timeout stops the closure
    rng = random.Random(12)
    gens = [ser.bipoly_to_json(rand_bipoly(rng, 24, 20)) for _ in range(3)]
    fin_json = {"type": "FiniteGen", "gens": gens}
    fin = ser.dumps(fin_json)
    poly = ser.dumps(ser.bipoly_to_json(BiPoly.monomial(1, 1)))
    for argv in (
        ["member", "--json", "--timeout", "0.05", "--module", fin, "--poly", poly],
        ["vspace", "--json", "--timeout", "0.05", "--module", fin, "--s", "2"],
        ["split", "--json", "--timeout", "0.05", "--module", ser.dumps({"type": "Sum", "parts": [{"type": "Md", "d": 1}, fin_json]})],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "cancelled", argv[0]


def test_timeout_holds_while_the_input_is_parsed(capsys, monkeypatch):
    # the token starts before the parse and every polynomial or matrix parse
    # polls it, so a token that fires on its first poll stops each command
    # that reads one before its algebra
    def unreachable(*args, **kwargs):
        pytest.fail("the computation started before the parse was cancelled")

    monkeypatch.setattr(cli, "CancelToken", lambda timeout=None: _CountingToken(fire_at=1))
    for name in ("derivative_closure", "contains", "v_space", "generate", "infer_L", "order_of_module", "nilpotent_chains"):
        monkeypatch.setattr(cli, name, unreachable)
    for name in ("evaluate", "shift", "d_dx"):
        monkeypatch.setattr(BiPoly, name, unreachable)
    poly = ser.dumps(ser.bipoly_to_json(BiPoly.monomial(1, 1)))
    fin = ser.dumps({"type": "FiniteGen", "gens": [json.loads(poly)]})
    for argv in (
        ["poly-eval", "--json", "--poly", poly, "--x", "1", "--y", "2"],
        ["poly-shift", "--json", "--poly", poly, "--a", "1", "--b", "2"],
        ["poly-diff", "--json", "--poly", poly, "--var", "x"],
        ["closure", "--json", "--gens", f"[{poly}]"],
        ["member", "--json", "--module", '{"type": "Md", "d": 1}', "--poly", poly],
        ["vspace", "--json", "--module", fin, "--s", "2"],
        ["gen-gamma", "--json", "--gamma", GS_JSON, "--seeds", '[["0", "1"]]'],
        ["infer-l", "--json", "--basis", f"[{poly}]", "--s", "1"],
        ["order", "--json", "--basis", f"[{poly}]"],
        ["chains", "--json", "--matrix", '[["0", "1"], ["0", "0"]]'],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "cancelled", argv[0]


def test_every_run_builds_one_clock(monkeypatch):
    # run() builds one token from --timeout for the whole run, on every
    # subcommand, and the outputs stay the golden ones
    from test_cli_golden import _cases, _run

    built = []

    def clock(timeout=None):
        built.append(timeout)
        return _CountingToken()

    monkeypatch.setattr(cli, "CancelToken", clock)
    commands = set()
    for case in _cases():
        if case["code"] == 2:
            continue
        built.clear()
        assert _run(case["argv"] + ["--timeout", "30"]) == (case["code"], case["stdout"])
        assert built == [30.0], case["argv"][0]
        commands.add(case["argv"][0])
    assert len(commands) == 14


def test_poly_shift_honours_the_timeout(capsys, monkeypatch):
    # the parse polls once per coordinate and once per scalar, then the shift polls the same token
    F = BiPoly([UniPoly([1, 2, 3]), UniPoly([0, 1]), UniPoly([5])])
    argv = ["poly-shift", "--json", "--poly", ser.dumps(ser.bipoly_to_json(F)), "--a", "1/2", "--b", "-3"]
    parse = F.num_coords + sum(len(f.coeffs) for f in F.coords)
    want = _json_out(capsys, argv)
    assert want[0] == 0
    monkeypatch.setattr(cli, "CancelToken", lambda timeout=None: _CountingToken(fire_at=parse + 1))
    code, payload = _json_out(capsys, argv)
    assert code == 1 and payload["error"]["type"] == "cancelled"
    monkeypatch.setattr(cli, "CancelToken", lambda timeout=None: _CountingToken(fire_at=parse + 2 * F.num_coords + 1))
    assert _json_out(capsys, argv) == want


def test_poly_eval_honours_the_timeout(capsys, monkeypatch):
    # the parse polls once per coordinate and once per scalar, then the
    # evaluation polls the same token once per coordinate and per coefficient
    F = BiPoly([UniPoly([1, 2, 3]), UniPoly([0, 1]), UniPoly([5])])
    argv = ["poly-eval", "--json", "--poly", ser.dumps(ser.bipoly_to_json(F)), "--x", "1/2", "--y", "-3"]
    parse = F.num_coords + sum(len(f.coeffs) for f in F.coords)
    want = _json_out(capsys, argv)
    assert want[0] == 0
    for n in (parse + 1, 2 * parse):
        monkeypatch.setattr(cli, "CancelToken", lambda timeout=None, n=n: _CountingToken(fire_at=n))
        code, payload = _json_out(capsys, argv)
        assert code == 1 and payload["error"]["type"] == "cancelled", n
    monkeypatch.setattr(cli, "CancelToken", lambda timeout=None: _CountingToken(fire_at=2 * parse + 1))
    assert _json_out(capsys, argv) == want


def test_a_wide_coordinate_is_parsed_polled(capsys, monkeypatch):
    # one coordinate of many scalars: a token that fires while its scalars
    # are read stops poly-eval before it evaluates
    def unreachable(*args, **kwargs):
        pytest.fail("the evaluation started before the parse was cancelled")

    doc = {"coords": [[str(k) for k in range(40)]]}
    token = _CountingToken()
    assert ser.bipoly_from_json(doc, token) == BiPoly([UniPoly(list(range(40)))])
    assert token.calls == 1 + 40
    monkeypatch.setattr(BiPoly, "evaluate", unreachable)
    argv = ["poly-eval", "--json", "--poly", ser.dumps(doc), "--x", "1", "--y", "2"]
    for n in (2, 21, 41):
        monkeypatch.setattr(cli, "CancelToken", lambda timeout=None, n=n: _CountingToken(fire_at=n))
        code, payload = _json_out(capsys, argv)
        assert code == 1 and payload["error"]["type"] == "cancelled", n


def test_a_nan_timeout_is_an_invalid_value(capsys):
    # argparse's float reads "nan", and no clock passes a NaN deadline
    with pytest.raises(ValueError):
        CancelToken(float("nan"))
    for argv in (
        ["order-sum", "--json", "--gamma1", GS_JSON, "--gamma2", GS_JSON],
        ["e14", "--json", "--n-max", "3"],
    ):
        for nan in ("nan", "NaN", "-nan"):
            code, payload = _json_out(capsys, argv + [f"--timeout={nan}"])
            assert code == 1 and payload["error"]["type"] == "invalid-value", (argv[0], nan)
        # inf never fires, and a negative timeout has fired before the first poll
        assert _json_out(capsys, argv + ["--timeout=inf"])[0] == 0
        assert _json_out(capsys, argv + ["--timeout=-1"])[1]["error"]["type"] == "cancelled"


def test_timeout_cancels_sweeps(capsys):
    # the sweep commands poll the token too, not just the algebra commands
    for argv in (
        ["nonclosed-demo", "--json", "--timeout=-1", "--n-min", "5", "--n-max", "6"],
        ["e14", "--json", "--timeout=-1", "--n-max", "3"],
    ):
        code, payload = _json_out(capsys, argv)
        assert code == 1
        assert payload["error"]["type"] == "cancelled"


def test_output_is_byte_deterministic(capsys):
    argv = ["nonclosed-demo", "--json", "--n-min", "5", "--n-max", "8"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# one small valid call per subcommand that takes JSON: (argv without its JSON
# flags, {flag: JSON document}); --x/--y/--a/--b take a scalar document
_GS = json.loads(GS_JSON)
_POLY = {"coords": [[0, {"re": "1/2", "im": "-1"}], [1]]}
SWEEP_CALLS = [
    (["poly-eval"], {"--poly": _POLY, "--x": {"re": "1", "im": "2"}, "--y": {"re": "-1/3"}}),
    (["poly-shift"], {"--poly": _POLY, "--a": {"re": "1"}, "--b": {"im": "1"}}),
    (["poly-diff", "--var", "x"], {"--poly": _POLY}),
    (["closure"], {"--gens": [_POLY]}),
    (["member"], {
        "--module": {"type": "Sum", "parts": [{"type": "FiniteGen", "gens": [{"coords": [[0, 1]]}]}, {"type": "MGamma", "gamma": _GS}]},
        "--poly": _POLY,
    }),
    (["vspace", "--s", "2"], {"--module": {"type": "Sum", "parts": [{"type": "Md", "d": 1}, {"type": "MGamma", "gamma": _GS}]}}),
    (["gen-gamma"], {"--gamma": _GS, "--seeds": [[0, 0, 1]]}),
    (["infer-l", "--s", "1", "--deg-bound", "2"], {"--basis": [{"coords": [[1]]}, {"coords": [[0, 1], [1]]}, {"coords": [[0, 0, 1], [0, 2], [2]]}]}),
    (["order", "--deg-bound", "3"], {"--basis": [_POLY]}),
    (["order-sum", "--deg-bound", "3"], {"--gamma1": _GS, "--gamma2": {"s": 1, "entries": []}}),
    (["chains"], {"--matrix": [[0, 1], [0, 0]]}),
    (["split"], {"--module": {"type": "Sum", "parts": [{"type": "Md", "d": 1}, {"type": "MGamma", "gamma": _GS}]}}),
]
SWEEP_VALUES = [5, None, True, 1.5, "x", [], {}]


def _node_paths(doc, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _node_paths(v, path + (k,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


def test_malformed_json_never_escapes_as_an_exception(capsys):
    # every node of every JSON argument replaced in turn by each value of the
    # wrong kinds: exit 0, or exit 1 with one {"error": {...}} line
    escapes = []
    runs = 0
    for head, docs in SWEEP_CALLS:
        for flag, doc in docs.items():
            for path in _node_paths(doc):
                for value in SWEEP_VALUES:
                    flags = {**docs, flag: _replaced(doc, path, value)}
                    argv = [head[0], "--json", "--timeout", "10", *head[1:]]
                    argv += [tok for f, d in flags.items() for tok in (f, ser.dumps(d))]
                    runs += 1
                    try:
                        code = run(argv)
                    except Exception as exc:  # noqa: BLE001 - the sweep reports every escape
                        escapes.append((argv, repr(exc)))
                        continue
                    lines = capsys.readouterr().out.splitlines()
                    assert code in (0, 1), argv
                    if code == 1:
                        assert len(lines) == 1, argv
                        payload = json.loads(lines[0])
                        assert list(payload) == ["error"] and isinstance(payload["error"], dict), argv
    assert {head[0] for head, _docs in SWEEP_CALLS} == {
        "poly-eval", "poly-shift", "poly-diff", "closure", "member", "vspace",
        "gen-gamma", "infer-l", "order", "order-sum", "chains", "split",
    }
    assert runs > 1000
    assert escapes == [], escapes[:3]



def test_deg_bound_is_offered_only_where_it_is_read(capsys):
    # the five subcommands that truncate accept --deg-bound; it is a usage error on the other nine
    calls = [
        [head[0], "--json", *head[1:]] + [tok for flag, doc in docs.items() for tok in (flag, ser.dumps(doc))]
        for head, docs in SWEEP_CALLS
    ]
    calls += [["nonclosed-demo", "--json", "--n-min", "5", "--n-max", "5"], ["e14", "--json", "--n-max", "3"]]
    assert len({argv[0] for argv in calls}) == 14
    codes = {}
    for argv in calls:
        codes[argv[0]] = run(argv if "--deg-bound" in argv else argv + ["--deg-bound", "3"])
        capsys.readouterr()
    assert {name for name, code in codes.items() if code == 0} == {"member", "vspace", "infer-l", "order", "order-sum"}
    assert {code for code in codes.values() if code != 0} == {2}
