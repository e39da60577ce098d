"""Golden CLI outputs: exit code and exact stdout for every subcommand.

`data/cli_golden.json` lists `(argv, code, stdout)` cases covering all 14
subcommands in JSON and human mode, their error payloads, and the answers
that depend on elimination order: `vspace` on a FiniteGen above the degree
bound with Gaussian coefficients, `order-sum` with refutations at several K,
the `infer-l` not-an-l-module witness and `member` on FiniteGen + MGamma
sums. A refactor that keeps the library's answers must keep every byte.

Re-record (only when an output change is intended) with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from polymod.cli import run

DATA = Path(__file__).parent / "data" / "cli_golden.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


def _cases():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["argv"][0])
def test_cli_output_is_unchanged(case, monkeypatch):
    monkeypatch.delenv("POLYMOD_DEG_BOUND", raising=False)
    assert _run(case["argv"]) == (case["code"], case["stdout"])


def test_golden_covers_every_subcommand():
    commands = {c["argv"][0] for c in _cases() if c["code"] == 0}
    assert commands == {
        "poly-eval", "poly-shift", "poly-diff", "closure", "member", "vspace", "gen-gamma",
        "infer-l", "order", "order-sum", "chains", "split", "nonclosed-demo", "e14",
    }


if __name__ == "__main__":
    os.environ.pop("POLYMOD_DEG_BOUND", None)
    cases = [dict(c, **dict(zip(("code", "stdout"), _run(c["argv"])))) for c in _cases()]
    DATA.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} cases in {DATA}")
