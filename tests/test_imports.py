"""What polymod's modules import, and when, and what polymod exports.

mpmath loads on the first log-space call, not when polymod is imported. Each
such check runs in a fresh interpreter, because this test process has long
since imported mpmath through other modules. No module imports a name it
never uses, which no linter checks here. And the public surface is pinned:
adding or removing a public name (a new alias constructor, say) fails here
until the list below is edited, so the change shows up in review.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import types
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


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted((Path(SRC) / "polymod").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]: node.lineno for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name: node.lineno for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


PUBLIC = [
    "ArityMismatch", "BiPoly", "BoundReport", "CONDITION_MARGIN", "CancelToken", "Cancelled",
    "ChainDecomposition", "CoeffQ", "FiniteGen", "GammaTable", "LogNum", "MGamma", "MODE_UPPER",
    "Md", "MembershipResult", "NotAnLModule", "NotNilpotent", "ParseError", "PolymodError",
    "RangeExceeded", "SLACK_LOG", "Sum", "SumOrderReport", "TOWER_CAP", "ThresholdUnmet",
    "Underdetermined", "UniPoly", "UnsupportedExpr", "VSpaceBasis", "apply_L", "canonical_split",
    "coeff_norm_chain", "contains", "default_deg_bound", "derivative_closure",
    "dilated_shift_table", "e_tower_log", "generate", "infer_L", "log_add", "log_mul", "log_pow",
    "mgamma_contains", "nilpotent_chains", "order_of_module", "order_of_sum_report", "phi",
    "poly_membership", "quotient_derivation", "shift_invariance_table", "side_conditions",
    "sup_bound", "surrogate_bridge", "v_space", "verify_e14", "witness_x_not_in_M",
]

MEMBERS = {
    "UniPoly": ["coeff", "coeffs", "degree", "derivative", "evaluate", "is_zero", "lead",
                "monomial", "scale", "shift", "zero"],
    "BiPoly": ["coord", "coords", "d_dx", "d_dy", "deg_x", "deg_y", "evaluate", "is_zero",
               "monomial", "monomial_terms", "num_coords", "scale", "shift", "zero"],
    "GammaTable": ["entries", "s"],
    "CoeffQ": ["__bool__", "im", "is_zero", "of", "re"],
    "PolyFrame": ["deg_x", "deg_y", "from_vec", "index", "to_vec"],
    "Sum": ["parts"],
    "MembershipResult": ["__bool__", "certificate", "contains"],
}

# dunders that change how a value behaves as a container, a callable or a truth value
_PROTOCOL = {"__bool__", "__len__", "__iter__", "__getitem__", "__contains__", "__call__"}


def _members(cls):
    names = {n for n in dir(cls) if not n.startswith("_")} | (_PROTOCOL & set(vars(cls)))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(names)


def test_public_surface_is_pinned():
    import polymod
    from polymod.spans import PolyFrame

    public = sorted(n for n, v in vars(polymod).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert public == PUBLIC
    classes = {cls.__name__: cls for cls in (polymod.UniPoly, polymod.BiPoly, polymod.GammaTable, polymod.CoeffQ,
                                             PolyFrame, polymod.Sum, polymod.MembershipResult)}
    assert {name: _members(cls) for name, cls in classes.items()} == MEMBERS
