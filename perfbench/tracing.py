"""Spans and counters around polymod's layers, installed from outside.

``Tracer.install`` wraps every public function of each polymod module (plus
a few hot methods) and rebinds the wrapper at *every* binding site: modules
such as ``operators`` and ``spans`` import ``rref`` by name, so patching
``polymod.linalg.rref`` alone would miss their calls. ``rref`` calls are
also counted by calling layer, the nearest enclosing span outside linalg.

Two modes:

* timing (``counting=False``): spans only. A span's self time is its
  duration minus the time covered by its child spans.
* counting (``counting=True``): spans plus per-call statistics (matrix
  shapes and coefficient sizes, generated coordinates, padded log-space
  operations) and counters on every ``CoeffQ`` multiply and divide. These
  hooks inflate times, so the harness runs them in a separate, untimed pass.

Spans stay in memory; ``export`` returns plain JSON-ready data.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "scalars", "poly", "linalg", "spans", "gamma", "modules",
    "operators", "lognum", "nonclosed", "serialize", "cli",
)
METHODS = (
    ("poly", "BiPoly", "shift"),
    ("poly", "UniPoly", "derivative"),
    ("spans", "PolyFrame", "to_vec"),
    ("spans", "PolyFrame", "from_vec"),
)
# calls counted per calling layer: the nearest enclosing span outside the
# callee's own layer (operators reach rref through solve and kernel_basis)
CALLER_ATTRIBUTED = ("linalg.rref",)
# private helper that pads a log value by the upper-mode slack
PADDING_HELPERS = (("nonclosed", "_up"),)


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _rref_stats(counters, args, out):
    rows = args[0]
    rows = rows if isinstance(rows, list) else list(rows)
    counters["linalg.rref.rows"] += len(rows)
    if rows:
        counters["linalg.rref.cells"] += len(rows) * len(rows[0])
        counters["linalg.rref.nonzeros"] += sum(
            1 for row in rows for c in row if c.re != 0 or c.im != 0
        )
    red, pivots = out
    counters["linalg.rref.rank"] += len(pivots)
    bits = max(
        (max(_bits(c.re), _bits(c.im)) for row in red for c in row),
        default=0,
    )
    counters["linalg.rref.max_coeff_bits"] = max(counters["linalg.rref.max_coeff_bits"], bits)


def _generate_stats(counters, args, out):
    counters["gamma.generate.coords"] += out.num_coords


def _padded(counters, args, out, operands):
    # an upper-mode result of nonzero operands carries exactly one slack pad
    if out.mode == "upper-bound" and all(a.sign != 0 for a in args[:operands]):
        counters["lognum.upper_ops"] += 1


STAT_HOOKS = {
    "linalg.rref": _rref_stats,
    "gamma.generate": _generate_stats,
    "lognum.log_mul": lambda c, a, o: _padded(c, a, o, 2),
    "lognum.log_add": lambda c, a, o: _padded(c, a, o, 2),
    "lognum.log_pow": lambda c, a, o: _padded(c, a, o, 1),
    "nonclosed._up": lambda c, a, o: _padded(c, a, o, 0),
}


class Tracer:
    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, site: str):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hook = STAT_HOOKS.get(name) if self.counting else None
        counters = self.counters
        layer = name.split(".", 1)[0]
        attribute = name in CALLER_ATTRIBUTED

        def wrapper(*args, **kwargs):
            if attribute:
                caller = next((f[1] for f in reversed(stack) if f[1] != layer), site)
                counters[f"{name}.from.{caller}"] += 1
            child = [0.0, layer]
            stack.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                record[0] += 1
                record[1] += dur
                record[2] += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(counters, args, out)
            return out

        return wrapper

    def _plan(self):
        """(owner, attribute, wrapper, original) for every patch, built once."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "polymod" or name.startswith("polymod."))
        }
        # every (module, attribute) that holds each function object
        sites = defaultdict(list)
        for mod_name, mod in mods.items():
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    sites[id(value)].append((mod_name.rsplit(".", 1)[-1], mod, attr))
        targets = []
        for layer in LAYERS:
            mod = mods.get(f"polymod.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        if self.counting:
            for layer, attr in PADDING_HELPERS:
                mod = mods.get(f"polymod.{layer}")
                if mod is not None:
                    targets.append((f"{layer}.{attr}", getattr(mod, attr)))
        plan = []
        for name, fn in targets:
            for site, mod, attr in sites[id(fn)]:
                plan.append((mod, attr, self._wrap(name, fn, site), fn))
        for layer, cls_name, meth in METHODS:
            mod = mods.get(f"polymod.{layer}")
            if mod is not None:
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                plan.append((cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn, layer), fn))
        if self.counting and "polymod.scalars" in mods:
            plan.extend(self._scalar_counters(mods["polymod.scalars"].CoeffQ))
        return plan

    def _scalar_counters(self, cls):
        counters = self.counters

        def counted(op, fn):
            def wrapper(a, b):
                counters[f"scalars.{op}.count"] += 1
                if a.im == 0 and getattr(b, "im", 0) == 0:
                    counters["scalars.real"] += 1
                return fn(a, b)

            return wrapper

        for attr, op in (("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "div"), ("__rtruediv__", "div")):
            fn = cls.__dict__[attr]
            yield cls, attr, counted(op, fn), fn

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, wrapper, _fn in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, _wrapper, fn in reversed(self._patches or ()):
            setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": [[name, *rec] for name, rec in self.spans.items() if rec[0]],
            "counters": dict(self.counters),
        }


class Profile:
    """Merged exports of one or more tracers (several CLI children)."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)

    def add(self, export: dict) -> None:
        for name, calls, total, self_s in export["spans"]:
            rec = self.spans[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for key, value in export["counters"].items():
            if key.endswith("max_coeff_bits"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def names(self, prefix: str):
        return [n for n in self.spans if n.startswith(prefix)]
