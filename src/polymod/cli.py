"""Command-line front end.

Every subcommand wraps exactly one library operation. Inputs are inline JSON
or @path references to JSON files; scalar flags accept plain rational
strings. Output is deterministic: JSON mode emits one compact line with
sorted keys, human mode renders polynomials in conventional monomial
notation (expanded from the internal y^n/n! coordinate convention, display
only).

Exit codes: 0 success, 1 domain error (JSON error object on stdout),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import CancelToken, NotAnLModule, ParseError, PolymodError, ThresholdUnmet, _polled
from .gamma import generate
from .modules import contains, derivative_closure, v_space
from .nonclosed import sup_bound, verify_e14
from .operators import (
    canonical_split,
    infer_L,
    nilpotent_chains,
    order_of_module,
    order_of_sum_report,
)
from .scalars import CoeffQ
from . import serialize as ser

FALLBACK_DEG_BOUND = 6  # infer-l, order and order-sum use it when --deg-bound is not given
_SCALAR_FLAGS = ("--x", "--y", "--a", "--b")


def _load_text(arg: str) -> str:
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg[1:]}: {exc}") from exc
    return arg


def _load_json(arg: str):
    text = _load_text(arg)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def _scalar_arg(arg: str) -> CoeffQ:
    text = _load_text(arg).strip()
    if text.startswith("{"):
        return ser.scalar_from_json(_load_json(text))
    return ser.scalar_from_json(text)


def _bind_scalar_values(argv) -> list:
    """Rewrite ``--y -2/3`` as ``--y=-2/3`` for the scalar flags.

    argparse reads a token that starts with '-' and is not a plain negative
    number (``-2/3`` is not) as an option, so such a value must be bound to
    its flag before parsing. Tokens starting with '--' stay options.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _SCALAR_FLAGS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _poly_list(arg: str, parse_one, tok) -> list:
    obj = _load_json(arg)
    if not isinstance(obj, list):
        raise ParseError("expected a JSON array")
    return [parse_one(p, tok) for p in obj]


def _deg_bound(args, fallback=None) -> int | None:
    return fallback if args.deg_bound is None else args.deg_bound


def _emit(args, payload, human_lines) -> int:
    if args.json:
        print(ser.dumps(payload))
    else:
        for line in human_lines:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_poly_eval(args, tok) -> int:
    F = ser.bipoly_from_json(_load_json(args.poly), tok)
    value = F.evaluate(_scalar_arg(args.x), _scalar_arg(args.y), tok)
    return _emit(args, {"value": ser.scalar_to_json(value)}, [f"value: {value}"])


def _cmd_poly_shift(args, tok) -> int:
    F = ser.bipoly_from_json(_load_json(args.poly), tok)
    G = F.shift(_scalar_arg(args.a), _scalar_arg(args.b), tok)
    return _emit(args, ser.bipoly_to_json(G), [f"monomial form: {G}"])


def _cmd_poly_diff(args, tok) -> int:
    F = ser.bipoly_from_json(_load_json(args.poly), tok)
    if args.order < 0:
        raise ParseError("--order must be nonnegative")
    G = F.d_dx(args.order) if args.var == "x" else F.d_dy(args.order)
    return _emit(args, ser.bipoly_to_json(G), [f"monomial form: {G}"])


def _cmd_closure(args, tok) -> int:
    gens = _poly_list(args.gens, ser.bipoly_from_json, tok)
    basis = derivative_closure(gens, tok)
    payload = {"dim": len(basis), "basis": [ser.bipoly_to_json(F) for F in basis]}
    lines = [f"dim: {len(basis)}"] + [f"  {F}" for F in basis]
    return _emit(args, payload, lines)


def _cmd_member(args, tok) -> int:
    M = ser.module_from_json(_load_json(args.module), tok)
    F = ser.bipoly_from_json(_load_json(args.poly), tok)
    result = contains(M, F, deg_bound=_deg_bound(args), cancel=tok)
    payload = ser.membership_to_json(result)
    lines = [f"contains: {str(result.contains).lower()}", f"certificate: {ser.dumps(payload['certificate'])}"]
    return _emit(args, payload, lines)


def _cmd_vspace(args, tok) -> int:
    M = ser.module_from_json(_load_json(args.module), tok)
    V = v_space(M, args.s, deg_bound=_deg_bound(args), cancel=tok)
    payload = ser.vspace_to_json(V)
    lines = [f"s: {V.s}", f"deg_bound: {V.deg_bound}", f"dim: {len(V.tuples)}"]
    for tup in V.tuples:
        lines.append("  (" + ", ".join(str(f) for f in tup) + ")")
    return _emit(args, payload, lines)


def _cmd_gen_gamma(args, tok) -> int:
    g = ser.gamma_from_json(_load_json(args.gamma))
    seeds = _poly_list(args.seeds, ser.unipoly_from_json, tok)
    F = generate(g, seeds, tok)
    return _emit(args, ser.bipoly_to_json(F), [f"monomial form: {F}"])


def _cmd_infer_l(args, tok) -> int:
    basis = _poly_list(args.basis, ser.bipoly_from_json, tok)
    degs = [int(F.deg_x) for F in basis if not F.is_zero()]
    g = infer_L(basis, args.s, _deg_bound(args, max([FALLBACK_DEG_BOUND] + degs)), tok)
    payload = ser.gamma_to_json(g)
    lines = [f"s: {g.s}"] + [f"  a[{i},{j}] = {a}" for (i, j), a in g.entries.items()]
    return _emit(args, payload, lines)


def _cmd_order(args, tok) -> int:
    basis = _poly_list(args.basis, ser.bipoly_from_json, tok)
    result = order_of_module(basis, _deg_bound(args, FALLBACK_DEG_BOUND), tok)
    return _emit(args, {"order": result}, [f"order: {result}"])


def _cmd_order_sum(args, tok) -> int:
    g1 = ser.gamma_from_json(_load_json(args.gamma1))
    g2 = ser.gamma_from_json(_load_json(args.gamma2))
    report = order_of_sum_report(g1, g2, _deg_bound(args, FALLBACK_DEG_BOUND), tok)
    payload = ser.sum_order_to_json(report)
    lines = [f"order: {report.order}", f"deg_bound: {report.deg_bound}"]
    return _emit(args, payload, lines)


def _cmd_chains(args, tok) -> int:
    mat = ser.matrix_from_json(_load_json(args.matrix), tok)
    dec = nilpotent_chains(mat, tok)
    payload = ser.chains_to_json(dec)
    lines = [f"dim: {dec.dim}"] + [
        f"  chain length {length}" for _, length in dec.chains
    ]
    return _emit(args, payload, lines)


def _cmd_split(args, tok) -> int:
    M = ser.module_from_json(_load_json(args.module), tok)
    d, order = canonical_split(M)
    return _emit(args, {"d": d, "order": order}, [f"d: {d}", f"order: {order}"])


def _cmd_nonclosed_demo(args, tok) -> int:
    if args.n_min < 2 or args.n_min > args.n_max:
        raise ParseError("need 2 <= n-min <= n-max")
    rows = []
    for n in _polled(range(args.n_min, args.n_max + 1), tok):
        try:
            rows.append(ser.bound_report_to_json(sup_bound(n)))
        except ThresholdUnmet as exc:
            rows.append({"n": n, "certified": False, "failures": list(exc.failures)})
    lines = [f"{'n':>4}  {'log10_linear':>22}  {'log10_tail':>22}  {'log10_total':>22}  certified"]
    for row in rows:
        if row["certified"]:
            lines.append(
                f"{row['n']:>4}  {row['log10_linear']:>22}  {row['log10_tail']:>22}  "
                f"{row['log10_total']:>22}  true"
            )
        else:
            lines.append(f"{row['n']:>4}  {'-':>22}  {'-':>22}  {'-':>22}  false ({', '.join(row['failures'])})")
    return _emit(args, rows, lines)


def _cmd_e14(args, tok) -> int:
    pairs = verify_e14(args.n_max, cancel=tok)
    from mpmath import nstr

    rows = [{"n": n, "log_ratio": nstr(v, ser.LOG_DIGITS)} for n, v in pairs]
    return _emit(args, rows, [f"n={row['n']}  log_ratio={row['log_ratio']}" for row in rows])


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@cache  # one parser per process: building it costs more than most runs
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymod",
        description="Exact computations with translation-invariant polynomial subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one line of compact JSON")
    common.add_argument("--timeout", type=float, default=None, help="cooperative timeout in seconds")
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])  # the subcommands that truncate
    bounded.add_argument(
        "--deg-bound",
        type=int,
        default=None,
        help="truncation degree for span-based probes (default: per-operation)",
    )

    p = sub.add_parser("poly-eval", parents=[common], help="evaluate F(x0, y0) exactly")
    p.add_argument("--poly", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_poly_eval)

    p = sub.add_parser("poly-shift", parents=[common], help="translate F(x+a, y+b) exactly")
    p.add_argument("--poly", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_poly_shift)

    p = sub.add_parser("poly-diff", parents=[common], help="partial derivative")
    p.add_argument("--poly", required=True)
    p.add_argument("--var", choices=("x", "y"), required=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=_cmd_poly_diff)

    p = sub.add_parser("closure", parents=[common], help="derivative closure of generators")
    p.add_argument("--gens", required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("member", parents=[bounded], help="membership probe with certificate")
    p.add_argument("--module", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("vspace", parents=[bounded], help="window-tuple space of a module expression")
    p.add_argument("--module", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_vspace)

    p = sub.add_parser("gen-gamma", parents=[common], help="run the recursion from seed coordinates")
    p.add_argument("--gamma", required=True)
    p.add_argument("--seeds", required=True)
    p.set_defaults(func=_cmd_gen_gamma)

    p = sub.add_parser("infer-l", parents=[bounded], help="recover the recursion table from a basis")
    p.add_argument("--basis", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_infer_l)

    p = sub.add_parser("order", parents=[bounded], help="smallest window width admitting a recursion")
    p.add_argument("--basis", required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("order-sum", parents=[bounded], help="order of the sum of two recursion modules")
    p.add_argument("--gamma1", required=True)
    p.add_argument("--gamma2", required=True)
    p.set_defaults(func=_cmd_order_sum)

    p = sub.add_parser("chains", parents=[common], help="shift-chain decomposition of a nilpotent matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("split", parents=[common], help="recover (d, order) from a degree+recursion sum")
    p.add_argument("--module", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser(
        "nonclosed-demo",
        parents=[common],
        help="certified convergence bound sweep for the non-closed module",
    )
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=25)
    p.set_defaults(func=_cmd_nonclosed_demo)

    p = sub.add_parser("e14", parents=[common], help="log-scale ratio sequence behind the closure argument")
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=_cmd_e14)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_scalar_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        tok = CancelToken(args.timeout)  # one clock per run, started before any input is read
        return args.func(args, tok)
    except PolymodError as exc:
        payload = exc.payload()
        if isinstance(exc, NotAnLModule) and exc.witness is not None:
            payload["witness"] = ser.jsonable(exc.witness)
        print(ser.dumps({"error": payload}))
        return 1
    except ValueError as exc:
        print(ser.dumps({"error": {"type": "invalid-value", "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
