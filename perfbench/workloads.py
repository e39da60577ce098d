"""The four workloads: seeded tasks, how to run one, and how to check it.

A workload builds a list of tasks (one pass). ``run`` performs one task and
returns its raw answer; ``fingerprint`` turns the answer into plain Python
values outside the timed region; ``check`` decides from the fingerprint alone
whether the answer is right, with ``oracle`` arithmetic or a known truth,
never with ``polymod.linalg``.

Library entry points are looked up on the ``polymod`` package at call time,
so a tracer installed after the tasks were built still sees every call.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import polymod as pm
from mpmath import nstr
from polymod import serialize as ser

import corpus
import oracle


def _coeff(pair):
    return pm.CoeffQ(pair[0], pair[1])


def _uni(coeffs):
    return pm.UniPoly([_coeff(c) for c in coeffs])


def _table(s, entries):
    return pm.GammaTable(s, {key: _coeff(v) for key, v in entries.items()})


def _plain_table(g):
    return (g.s, tuple(sorted((key, oracle.scalar(a)) for key, a in g.entries.items())))


def _monomial_basis(g, bound):
    """generate() on every single-monomial seed x^m (m <= bound) in every slot."""
    basis = []
    for i in range(1, g.s + 1):
        for m in range(bound + 1):
            seeds = [pm.UniPoly.zero()] * g.s
            seeds[i - 1] = pm.UniPoly.monomial(m)
            basis.append(pm.generate(g, seeds))
    return basis


class InferRoundtrip:
    """generate a monomial-seed basis from a drawn table, then infer_L it back."""

    name = "infer-roundtrip"
    light, long = 32, 8  # 40 tasks per pass
    bound = 8

    def build(self, seed: int):
        return [
            {"s": s, "entries": entries, "table": _table(s, entries)}
            for s, entries in corpus.infer_tables(seed, self.light, self.long)
        ]

    def run(self, task):
        basis = _monomial_basis(task["table"], self.bound)
        return pm.infer_L(basis, task["s"], self.bound)

    def fingerprint(self, answer):
        return _plain_table(answer)

    def check(self, task, fp) -> bool:
        want = (task["s"], tuple(sorted(task["entries"].items())))
        return fp == want


class RecursionProbe:
    """generate, shift, re-check membership, exclusion and split; no elimination."""

    name = "recursion-probe"
    tasks_per_pass = 100

    def build(self, seed: int):
        tasks = []
        for case in corpus.probe_cases(seed, self.tasks_per_pass):
            a, b = case["shift"]
            task = dict(case)
            task["g"] = _table(case["s"], case["table"])
            task["seed_polys"] = [_uni(f) for f in case["seeds"]]
            task["a"], task["b"] = _coeff(a), _coeff(b)
            tasks.append(task)
        return tasks

    def run(self, task):
        g, s, d = task["g"], task["s"], task["d"]
        F = pm.generate(g, task["seed_polys"])
        G = F.shift(task["a"], task["b"])
        member, _ = pm.mgamma_contains(g, G)
        M = pm.Sum(pm.Md(d), pm.MGamma(g))
        excluded = pm.contains(M, pm.BiPoly.monomial(d, s))
        split = pm.canonical_split(M)
        return F, G, member, excluded, split

    def fingerprint(self, answer):
        F, G, member, excluded, split = answer
        return (
            oracle.bipoly(F),
            oracle.bipoly(G),
            member,
            excluded.contains,
            excluded.certificate.get("reason"),
            tuple(split),
        )

    def check(self, task, fp) -> bool:
        F, G, member, contained, reason, split = fp
        s, d = task["s"], task["d"]
        seeds = [oracle.trim(f) for f in task["seeds"]]
        if [oracle.trim(F[n]) if n < len(F) else [] for n in range(s)] != seeds:
            return False
        if not oracle.satisfies_recursion(task["table"], s, F):
            return False
        # G(p, q) == F(p + a, q + b) at the seeded probe point
        (a, b), (p, q) = task["shift"], task["point"]
        if oracle.bi_eval(G, p, q) != oracle.bi_eval(F, oracle.add(p, a), oracle.add(q, b)):
            return False
        # M_g is translation invariant; x^d y^s escapes Md(d) + M_g; the split is (d, s)
        return member is True and contained is False and reason == "sum-residual" and split == (d, s)


class NilpotentChains:
    """nilpotent_chains on conjugated strictly upper triangular matrices."""

    name = "nilpotent-chains"
    tasks_per_pass = 45  # five of each dimension 1..9

    def build(self, seed: int):
        return [
            {"plain": D, "N": N, "matrix": [[_coeff(c) for c in row] for row in D]}
            for D, N in corpus.nilpotent_matrices(seed, self.tasks_per_pass)
        ]

    def run(self, task):
        return pm.nilpotent_chains(task["matrix"])

    def fingerprint(self, answer):
        return (
            answer.dim,
            tuple((tuple(oracle.scalar(c) for c in u), length) for u, length in answer.chains),
            tuple(tuple(oracle.scalar(c) for c in v) for v in answer.basis_vectors),
        )

    def check(self, task, fp) -> bool:
        D = task["plain"]
        n = len(D)
        dim, chains, vectors = fp
        if dim != n or len(vectors) != n:
            return False
        # rebuild: every chain is u, Du, ..., D^(len-1) u with D^len u = 0,
        # and the chain vectors form a basis, so D = S B^-1 exactly
        pos = 0
        for u, length in chains:
            if list(vectors[pos]) != list(u):
                return False
            for t in range(length):
                image = oracle.mat_vec(D, list(vectors[pos + t]))
                want = list(vectors[pos + t + 1]) if t + 1 < length else [oracle.ZERO] * n
                if image != want:
                    return False
            pos += length
        if pos != n or oracle.rank([list(v) for v in vectors]) != n:
            return False
        # chain lengths against the rank sequence of D^k, which is that of
        # N^k for the strictly upper triangular N that D is similar to
        N = task["N"]
        ranks = [n]
        power = oracle.identity(n)
        while ranks[-1]:
            power = oracle.mat_mul(power, N)
            ranks.append(oracle.rank(power))
        at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        lengths = sorted(length for _u, length in chains)
        return all(sum(1 for x in lengths if x >= k) == at_least[k - 1] for k in range(1, len(ranks)))


# -- cli-roundtrip ------------------------------------------------------------------

def _closure_payload(basis):
    return {"dim": len(basis), "basis": [ser.bipoly_to_json(B) for B in basis]}


def _dumps_plain_poly(coords):
    return ser.dumps(ser.bipoly_to_json(pm.BiPoly([_uni(f) for f in coords])))


def _cli_cases(seed: int):
    """Three seeded inputs for each of the 14 subcommands, small and fixed in size."""
    rng = random.Random(seed)
    shape_rng = random.Random(corpus.CLI_STRUCTURE_SEED)
    cases = []

    def add(cmd, argv, reference, truth=None):
        cases.append({"cmd": cmd, "argv": [cmd, "--json", *argv], "reference": reference, "truth": truth})

    def scalar_json(pair):
        return ser.dumps(ser.scalar_to_json(_coeff(pair)))

    def small_table(max_s, max_j):
        s = shape_rng.randint(1, max_s)
        support = [(i, j) for i in range(1, s + 1) for j in range(1, max_j + 1) if shape_rng.random() < 0.5]
        return s, corpus.real_values(rng, support or [(1, 1)])

    for variant in range(3):
        poly = corpus.bipoly(rng, 4, 3)
        F = pm.BiPoly([_uni(f) for f in poly])
        x, y = corpus.gaussian(rng), corpus.gaussian(rng)
        add(
            "poly-eval",
            ["--poly", _dumps_plain_poly(poly), "--x", scalar_json(x), "--y", scalar_json(y)],
            lambda F=F, x=x, y=y: {"value": ser.scalar_to_json(F.evaluate(_coeff(x), _coeff(y)))},
            lambda out, poly=poly, x=x, y=y: oracle.scalar(ser.scalar_from_json(out["value"]))
            == oracle.bi_eval(poly, x, y),
        )
        a, b = corpus.strictly_gaussian(rng), corpus.gaussian(rng)
        add(
            "poly-shift",
            ["--poly", _dumps_plain_poly(poly), "--a", scalar_json(a), "--b", scalar_json(b)],
            lambda F=F, a=a, b=b: ser.bipoly_to_json(F.shift(_coeff(a), _coeff(b))),
        )
        var, order = ("x", "y")[variant % 2], 1 + variant % 2
        add(
            "poly-diff",
            ["--poly", _dumps_plain_poly(poly), "--var", var, "--order", str(order)],
            lambda F=F, var=var, order=order: ser.bipoly_to_json(F.d_dx(order) if var == "x" else F.d_dy(order)),
        )
        gens = [pm.BiPoly([_uni(f) for f in corpus.bipoly(rng, 2, 1)]) for _ in range(2)]
        add(
            "closure",
            ["--gens", ser.dumps([ser.bipoly_to_json(G) for G in gens])],
            lambda gens=gens: _closure_payload(pm.derivative_closure(gens)),
        )
        s, entries = small_table(3, 4)
        g = _table(s, entries)
        d = variant + 1
        module = {"type": "Sum", "parts": [{"type": "Md", "d": d}, {"type": "MGamma", "gamma": ser.gamma_to_json(g)}]}
        M = pm.Sum(pm.Md(d), pm.MGamma(g))
        probe = pm.BiPoly.monomial(d, s)
        add(
            "member",
            ["--module", ser.dumps(module), "--poly", ser.dumps(ser.bipoly_to_json(probe))],
            lambda M=M, probe=probe: ser.membership_to_json(pm.contains(M, probe)),
            lambda out: out["contains"] is False and out["certificate"]["reason"] == "sum-residual",
        )
        add(
            "split",
            ["--module", ser.dumps(module)],
            lambda M=M: dict(zip(("d", "order"), pm.canonical_split(M))),
            lambda out, d=d, s=s: (out["d"], out["order"]) == (d, s),
        )
        seeds = [corpus.unipoly(rng, shape_rng.randint(1, 6)) for _ in range(s)]
        add(
            "gen-gamma",
            ["--gamma", ser.dumps(ser.gamma_to_json(g)), "--seeds", ser.dumps([ser.unipoly_to_json(_uni(f)) for f in seeds])],
            lambda g=g, seeds=seeds: ser.bipoly_to_json(pm.generate(g, [_uni(f) for f in seeds])),
            lambda out, entries=entries, s=s: oracle.satisfies_recursion(
                entries, s, oracle.bipoly(ser.bipoly_from_json(out))
            ),
        )
        vs = shape_rng.randint(1, 2)
        add(
            "vspace",
            ["--module", ser.dumps({"type": "MGamma", "gamma": ser.gamma_to_json(g)}), "--s", str(vs), "--deg-bound", "3"],
            lambda g=g, vs=vs: ser.vspace_to_json(pm.v_space(pm.MGamma(g), vs, deg_bound=3)),
        )
        s2, entries2 = small_table(2, 3)
        g2 = _table(s2, entries2)
        basis = _monomial_basis(g2, 3)
        basis_json = ser.dumps([ser.bipoly_to_json(B) for B in basis])
        add(
            "infer-l",
            ["--basis", basis_json, "--s", str(s2), "--deg-bound", "3"],
            lambda basis=basis, s2=s2: ser.gamma_to_json(pm.infer_L(basis, s2, 3)),
            lambda out, s2=s2, entries2=entries2: _plain_table(ser.gamma_from_json(out))
            == (s2, tuple(sorted(entries2.items()))),
        )
        add(
            "order",
            ["--basis", basis_json, "--deg-bound", "4"],
            lambda basis=basis: {"order": pm.order_of_module(basis, 4)},
        )
        h1 = _table(1, corpus.real_values(rng, [(1, j) for j in (1, 2, 3) if shape_rng.random() < 0.6] or [(1, 1)]))
        h2 = _table(1, corpus.real_values(rng, [(1, j) for j in (1, 2, 3) if shape_rng.random() < 0.6] or [(1, 2)]))
        add(
            "order-sum",
            ["--gamma1", ser.dumps(ser.gamma_to_json(h1)), "--gamma2", ser.dumps(ser.gamma_to_json(h2)), "--deg-bound", "3"],
            lambda h1=h1, h2=h2: ser.sum_order_to_json(pm.order_of_sum_report(h1, h2, 3)),
        )
        D, _N = corpus.nilpotent_matrices(seed * 3 + variant, 5)[3 + variant % 2]
        mat = [[_coeff(c) for c in row] for row in D]
        add(
            "chains",
            ["--matrix", ser.dumps([[ser.scalar_to_json(c) for c in row] for row in mat])],
            lambda mat=mat: ser.chains_to_json(pm.nilpotent_chains(mat)),
        )
        n_max = 6 + shape_rng.randint(0, 4)
        add(
            "nonclosed-demo",
            ["--n-min", "5", "--n-max", str(n_max)],
            lambda n_max=n_max: [ser.bound_report_to_json(pm.sup_bound(n)) for n in range(5, n_max + 1)],
            lambda out: all(row["certified"] for row in out),
        )
        e_max = 8 + shape_rng.randint(0, 12)
        add(
            "e14",
            ["--n-max", str(e_max)],
            lambda e_max=e_max: [{"n": n, "log_ratio": nstr(v, ser.LOG_DIGITS)} for n, v in pm.verify_e14(e_max)],
        )
    return cases


class CliRoundtrip:
    """One `polymod <subcommand> --json` child process per task."""

    name = "cli-roundtrip"
    in_process = False

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.child = str(Path(__file__).resolve().parent / "cli_child.py")
        self.mode = None  # None: plain `python -m polymod.cli`; else a cli_child tracer mode
        self.exports = []

    def build(self, seed: int):
        return _cli_cases(seed)

    def command(self, argv):
        if self.mode is None:
            return [sys.executable, "-m", "polymod.cli", *argv]
        return [sys.executable, self.child, self.mode, *argv]

    def run(self, task):
        proc = subprocess.run(
            self.command(task["argv"]), cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        if self.mode is not None and proc.returncode == 0:
            self.exports.append(proc.stderr.strip().splitlines()[-1])
        return proc.returncode, proc.stdout

    def fingerprint(self, answer):
        return answer

    def check(self, task, fp) -> bool:
        code, stdout = fp
        if code != 0:
            return False
        if stdout != ser.dumps(task["reference"]()) + "\n":
            return False
        truth = task["truth"]
        return truth is None or bool(truth(json.loads(stdout)))


def make(name: str, root: Path, env: dict):
    """The named workload; root and env locate and launch polymod children."""
    if name == CliRoundtrip.name:
        return CliRoundtrip(root, env)
    for cls in (InferRoundtrip, RecursionProbe, NilpotentChains):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (InferRoundtrip.name, RecursionProbe.name, NilpotentChains.name, CliRoundtrip.name)
