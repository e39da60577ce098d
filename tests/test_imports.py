"""mpmath loads on the first log-space call, not when polymod is imported.

Each check runs in a fresh interpreter, because this test process has long
since imported mpmath through other modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import json, sys
import polymod.cli
seen = {"import": "mpmath" in sys.modules}
# perfbench's tracer wraps only the polymod modules loaded at this point
seen["log_modules"] = all(m in sys.modules for m in ("polymod.lognum", "polymod.nonclosed"))
member = ["member", "--json", "--module", '{"type":"FiniteGen","gens":[{"coords":[[0,0,1]]}]}',
          "--poly", '{"coords":[[0,1]]}']
seen["member"] = [polymod.cli.run(member), "mpmath" in sys.modules]
seen["e14"] = [polymod.cli.run(["e14", "--json", "--n-max", "3"]), "mpmath" in sys.modules]
from mpmath import mpf
from polymod.lognum import SLACK_LOG
from polymod.nonclosed import CONDITION_MARGIN
seen["exact"] = [mpf(SLACK_LOG) == mpf(2) ** -40, mpf(CONDITION_MARGIN) == mpf(2) ** -20]
print(json.dumps(seen))
"""


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_importing_polymod_loads_no_mpmath():
    assert _run("import sys, polymod; print('mpmath' in sys.modules)") == "False"


def test_cli_loads_mpmath_only_for_log_space_commands():
    seen = json.loads(_run(PROBE))
    assert seen["import"] is False
    assert seen["log_modules"] is True
    assert seen["member"] == [0, False]
    assert seen["e14"] == [0, True]
    # the dyadic pads convert to mpf without rounding
    assert seen["exact"] == [True, True]
