"""polymod benchmark: one workload, one seed, one result line.

Usage (from the root of a polymod checkout):

    python3 perfbench/run.py --workload infer-roundtrip --seed 1 --seconds 12 --trace 0

Every workload is a closed loop with one client: tasks run one after another
in this process (the CLI workload starts one child process at a time). The
timed phase runs whole passes over the seeded tasks, at least MIN_PASSES and
as many as fit in ``--seconds``. Every latency is scaled to a reference host
speed (see ``hostspeed``), and a task's latency is the median of its
repeats. Between tasks, outside their latency, the reference kernel is
timed and each repeat's answer is compared with the task's first answer;
the first answers are checked after the timed phase. The last line of stdout is
the JSON result; the lines before it repeat every metric by name with its
unit, plus the run record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs an untimed
counting pass, an untraced phase and a traced phase over the same tasks,
and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing

SETUP_REPEATS = 3
MIN_PASSES = 3
PROBE_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _child_env(root: Path) -> dict:
    """Children import polymod from src/ and cache its bytecode there (as an
    installed package has it), so a CLI task does not pay for compiling
    polymod, whatever PYTHONDONTWRITEBYTECODE the caller has set."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child_seconds(root: Path, code: str) -> float:
    """Seconds printed by `code` run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=_child_env(root),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def import_seconds(root: Path, module: str, refs=None) -> float:
    """Median import time in fresh interpreters; a reference kernel time
    is appended to `refs` after each."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    samples = []
    for _ in range(PROBE_REPEATS):
        samples.append(_child_seconds(root, code))
        if refs is not None:
            refs.append(hostspeed.sample())
    return statistics.median(samples)


def interpreter_seconds(root: Path) -> float:
    """Wall time of a bare `python -c pass`, the floor under every CLI task."""
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=_child_env(root), check=True, timeout=120)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def run_record(root: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "polymod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}, timeout=30,
            )
        except OSError:  # no git on this machine: the source digest still identifies the code
            out = None
        if out is not None and out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


# -- timed phases -----------------------------------------------------------------

class Phase:
    """Whole passes over the tasks: per-task latencies, the reference kernel
    time after each task, and the fingerprint of each task's first answer.
    Later repeats are compared with it between tasks and dropped, so memory
    does not grow with the number of passes."""

    def __init__(self, n: int):
        self.n = n
        self.first = [None] * n
        self.ok = [0] * n  # attempts whose answer equals the task's first one
        self.failed = 0  # attempts that raised or differed from the first answer
        self.problems = []
        self.timeline = []  # (task, latency, reference kernel time after it), in run order
        self.passes = 0
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.timeline)

    def per_task(self, scale=True):
        """Each task's latency: the median of its repeats, each scaled to the
        reference host speed (or as measured, with scale=False)."""
        tasks, latencies, refs = zip(*self.timeline)
        values = hostspeed.scaled(latencies, refs) if scale else latencies
        repeats = [[] for _ in range(self.n)]
        for k, v in zip(tasks, values):
            repeats[k].append(v)
        return [statistics.median(r) for r in repeats]

    def tasks_per_s(self) -> float:
        """Tasks completed per second of time spent in tasks (the checks run
        between tasks are not counted), as measured."""
        return self.attempted / sum(t for _k, t, _r in self.timeline)

    def scaled_tasks_per_s(self) -> float:
        """A pass's tasks per second of their scaled latencies."""
        per_task = self.per_task()
        return len(per_task) / sum(per_task)

    def reference_s(self) -> float:
        return statistics.median(r for _k, _t, r in self.timeline)


def _run_one(workload, task, k: int, phase: Phase) -> None:
    t0 = perf_counter()
    error = None
    try:
        answer = workload.run(task)
    except Exception:  # a failed task is counted, and the loop goes on
        error = traceback.format_exc()
    phase.timeline.append((k, perf_counter() - t0, hostspeed.sample()))
    if error is not None:
        phase.failed += 1
        phase.problems.append(error)
        return
    fp = workload.fingerprint(answer)
    if phase.first[k] is None:
        phase.first[k] = fp
    elif fp != phase.first[k]:
        phase.failed += 1
        phase.problems.append(f"task {k}: answer differs between repeats")
        return
    phase.ok[k] += 1


def run_phase(workload, tasks, seconds=0.0, passes=None) -> Phase:
    """Run `passes` whole passes, or at least MIN_PASSES and then as many
    more as the mean pass so far says will end within `seconds`. Every task
    runs once per pass, so all have the same number of repeats."""
    phase = Phase(len(tasks))
    start = perf_counter()
    while True:
        for k, task in enumerate(tasks):
            _run_one(workload, task, k, phase)
        phase.passes += 1
        elapsed = perf_counter() - start
        if passes is not None:
            if phase.passes >= passes:
                break
        elif phase.passes >= MIN_PASSES and elapsed * (phase.passes + 1) / phase.passes > seconds:
            break
    phase.elapsed = perf_counter() - start
    return phase


def run_paired(workload, tasks, min_seconds: float, trace_on, trace_off):
    """Each task untraced and traced back to back, the order alternating by
    pass, so machine speed drift cancels out of the tracing overhead."""
    plain, traced = Phase(len(tasks)), Phase(len(tasks))
    start = perf_counter()
    while True:
        order = ((plain, trace_off), (traced, trace_on))
        if plain.passes % 2:
            order = order[::-1]
        for k, task in enumerate(tasks):
            for phase, switch in order:
                switch()
                _run_one(workload, task, k, phase)
        trace_off()
        plain.passes += 1
        traced.passes += 1
        if perf_counter() - start >= min_seconds:
            break
    return plain, traced


def tail(values):
    """(value, percentile, samples beyond) at the highest ladder percentile
    that leaves at least TAIL_BEYOND samples above its nearest-rank value."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # nearest rank, 1-based
        rank = max(1, int(rank))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


class Checker:
    """Checks each task's answer once and counts failed attempts per phase."""

    def __init__(self, workload, tasks):
        self.workload = workload
        self.tasks = tasks
        self.first = [None] * len(tasks)
        self.verdicts = [None] * len(tasks)
        self.problems = []

    def failures(self, phase: Phase) -> int:
        failed = phase.failed
        self.problems.extend(phase.problems[:1])
        for k, fp in enumerate(phase.first):
            if fp is None:
                continue
            if self.first[k] is None:
                self.first[k] = fp
            if fp != self.first[k]:
                # answers must repeat exactly, also across trace modes
                self.problems.append(f"task {k}: answer differs between phases")
                failed += phase.ok[k]
                continue
            if self.verdicts[k] is None:
                self.verdicts[k] = bool(self.workload.check(self.tasks[k], fp))
                if not self.verdicts[k]:
                    self.problems.append(f"task {k}: wrong answer")
            if not self.verdicts[k]:
                failed += phase.ok[k]
        return failed


# -- reporting ---------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float, setup_wall: float, peak_rss_mb: float, lines: list) -> dict:
    per_task, wall = phase.per_task(), phase.per_task(scale=False)
    tail_value, tail_p, beyond = tail(per_task)
    tasks_per_s = phase.scaled_tasks_per_s()
    lines += [
        f"host: reference kernel {phase.reference_s() * 1e3:.4f} ms median after tasks, "
        f"scaled to {hostspeed.REFERENCE_S * 1e3:g} ms; figures in brackets are as measured",
        f"setup_s {setup_s:.6f} s ([{setup_wall:.6f} s])",
        f"tasks_per_s {tasks_per_s:.6f} 1/s ({phase.attempted} tasks in {phase.passes} passes, {phase.elapsed:.3f} s; "
        f"[{phase.tasks_per_s():.6f} 1/s])",
        f"task_p50_ms {statistics.median(per_task) * 1e3:.4f} ms (over {len(per_task)} tasks, each the median of "
        f"{phase.passes} repeats; [{statistics.median(wall) * 1e3:.4f} ms])",
        f"task_tail_ms {tail_value * 1e3:.4f} ms (p{tail_p:g}, {beyond} of {len(per_task)} tasks beyond it; "
        f"[{tail(wall)[0] * 1e3:.4f} ms])",
        f"peak_rss_mb {peak_rss_mb:.3f} MB",
    ]
    return {
        "setup_s": metric(setup_s, "s"),
        "tasks_per_s": metric(tasks_per_s, "1/s"),
        "task_p50_ms": metric(statistics.median(per_task) * 1e3, "ms"),
        "task_tail_ms": metric(tail_value * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(counted, timed, traced_tasks: int, overhead: float, probes: dict) -> dict:
    """Counts come from the untimed counting pass (one pass, deterministic for
    a seed); self times from the traced phase, per task."""
    from polymod.lognum import SLACK_LOG  # each padded upper-bound op adds exactly this
    c = counted.counters
    out = {}

    def value(name, v, unit="count"):
        out[name] = metric(v, unit)

    def self_time(name, *spans):
        out[name] = metric(timed.self_s(*spans) / traced_tasks, "s/task")

    cells = c.get("linalg.rref.cells", 0)
    rows = c.get("linalg.rref.rows", 0)
    value("linalg.rref.calls", counted.calls("linalg.rref"))
    self_time("linalg.rref.self_s", "linalg.rref")
    value("linalg.rref.cells", cells)
    value("linalg.rref.density", c.get("linalg.rref.nonzeros", 0) / cells if cells else 0.0, "ratio")
    value("linalg.rref.max_coeff_bits", c.get("linalg.rref.max_coeff_bits", 0), "bits")
    value("linalg.rref.rank_ratio", c.get("linalg.rref.rank", 0) / rows if rows else 0.0, "ratio")
    for layer in ("operators", "spans"):
        value(f"linalg.rref.calls_from_{layer}", c.get(f"linalg.rref.from.{layer}", 0))
    for fn in ("solve", "kernel_basis", "reduce_against", "mat_mul"):
        value(f"linalg.{fn}.calls", counted.calls(f"linalg.{fn}"))
        self_time(f"linalg.{fn}.self_s", f"linalg.{fn}")
    mul, div = c.get("scalars.mul.count", 0), c.get("scalars.div.count", 0)
    value("scalars.mul.count", mul)
    value("scalars.div.count", div)
    value("scalars.real_share", c.get("scalars.real", 0) / (mul + div) if mul + div else 0.0, "ratio")
    for fn in ("span_reduce", "in_span"):
        value(f"spans.{fn}.calls", counted.calls(f"spans.{fn}"))
        self_time(f"spans.{fn}.self_s", f"spans.{fn}")
    self_time("spans.frame.self_s", "spans.PolyFrame.to_vec", "spans.PolyFrame.from_vec")
    for fn in ("BiPoly.shift", "UniPoly.derivative"):
        value(f"poly.{fn}.calls", counted.calls(f"poly.{fn}"))
        self_time(f"poly.{fn}.self_s", f"poly.{fn}")
    value("gamma.generate.calls", counted.calls("gamma.generate"))
    self_time("gamma.generate.self_s", "gamma.generate")
    value("gamma.generate.coords", c.get("gamma.generate.coords", 0))
    value("gamma.mgamma_contains.calls", counted.calls("gamma.mgamma_contains"))
    self_time("gamma.mgamma_contains.self_s", "gamma.mgamma_contains")
    value("modules.contains.calls", counted.calls("modules.contains"))
    self_time("modules.contains.self_s", "modules.contains")
    for fn in ("infer_L", "nilpotent_chains", "canonical_split"):
        self_time(f"operators.{fn}.self_s", f"operators.{fn}")
    out["cli.interp_s"] = metric(probes.get("interp_s", 0.0), "s")
    out["cli.import_s"] = metric(probes.get("import_s", 0.0), "s")
    self_time("cli.run.self_s", "cli.run")
    parse = [n for n in timed.names("serialize.") if n.endswith("_from_json") or n == "serialize.parse_rational"]
    emit = [n for n in timed.names("serialize.") if n not in parse]
    self_time("serialize.parse.self_s", *parse)
    self_time("serialize.emit.self_s", *emit)
    self_time("nonclosed.sup_bound.self_s", "nonclosed.sup_bound")
    self_time("nonclosed.verify_e14.self_s", "nonclosed.verify_e14")
    upper_ops = c.get("lognum.upper_ops", 0)
    value("lognum.upper_ops", upper_ops)
    value("lognum.slack_total", upper_ops * float(SLACK_LOG), "nat")
    value("trace.overhead_ratio", overhead, "ratio")
    return out


def largest_self_time(timed) -> str:
    return max(timed.spans, key=lambda n: timed.spans[n][2]) if timed.spans else "-"


def end_to_end_run(workload, tasks, checker, seconds, setup_s, setup_wall, lines):
    # MIN_PASSES >= 2 also runs every CLI subcommand twice, for byte-identical output
    phase = run_phase(workload, tasks, seconds=seconds)
    in_process = getattr(workload, "in_process", True)
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    return phase.attempted, checker.failures(phase), end_to_end(phase, setup_s, setup_wall, peak_rss_mb, lines)


def traced_run(workload, tasks, checker, seconds, probes, lines):
    """Counting pass, then every task untraced and traced back to back."""
    in_process = getattr(workload, "in_process", True)
    counted, timed = tracing.Profile(), tracing.Profile()
    if in_process:
        counter = tracing.Tracer(counting=True)
        counter.install()
        try:
            counting = run_phase(workload, tasks, passes=1)
        finally:
            counter.uninstall()
        counted.add(counter.export())
        tracer = tracing.Tracer()
        trace_on, trace_off = tracer.install, tracer.uninstall
    else:
        workload.mode, workload.exports = "count", []
        counting = run_phase(workload, tasks, passes=1)
        for line in workload.exports:
            counted.add(json.loads(line))
        workload.exports = []
        trace_on = lambda: setattr(workload, "mode", "spans")  # noqa: E731
        trace_off = lambda: setattr(workload, "mode", None)  # noqa: E731
    try:
        plain, traced = run_paired(workload, tasks, seconds / 2, trace_on, trace_off)
    finally:
        trace_off()
    if in_process:
        timed.add(tracer.export())
    else:
        for line in workload.exports:
            timed.add(json.loads(line))
    overhead = traced.scaled_tasks_per_s() / plain.scaled_tasks_per_s()
    metrics = per_layer(counted, timed, traced.attempted, overhead, probes)
    lines.append(
        f"trace: {plain.passes} passes, {plain.attempted / plain.tasks_per_s():.3f} s in tasks untraced, "
        f"{traced.attempted / traced.tasks_per_s():.3f} s traced; "
        f"largest self time: {largest_self_time(timed)}"
    )
    lines.extend(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    failed = sum(checker.failures(p) for p in (plain, traced, counting))
    attempted = plain.attempted + traced.attempted + counting.attempted
    return attempted, failed, metrics


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polymod" / "__init__.py").is_file():
        print("perfbench: run from the root of a polymod checkout (no src/polymod here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup_refs = []
    import_s = import_seconds(root, "polymod", setup_refs)
    import workloads  # imports polymod from src/

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, root, _child_env(root))
    in_process = getattr(workload, "in_process", True)

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        tasks = workload.build(args.seed)
        builds.append(perf_counter() - t0)
        setup_refs.append(hostspeed.sample())
    setup_wall = import_s + statistics.median(builds)
    setup_s = setup_wall * hostspeed.REFERENCE_S / statistics.median(setup_refs)

    record = run_record(root, args.seed)
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        "run-record " + json.dumps(record, sort_keys=True),
    ]
    probes = {}
    if not in_process:
        probes = {"interp_s": interpreter_seconds(root), "import_s": import_seconds(root, "polymod.cli")}
        lines.append(f"cli.interp_s {probes['interp_s']:.6f} s (bare interpreter, median of {PROBE_REPEATS})")
        lines.append(f"cli.import_s {probes['import_s']:.6f} s (import polymod.cli, median of {PROBE_REPEATS})")

    checker = Checker(workload, tasks)
    if args.trace == 0:
        attempted, failed, metrics = end_to_end_run(workload, tasks, checker, args.seconds, setup_s, setup_wall, lines)
    else:
        attempted, failed, metrics = traced_run(workload, tasks, checker, args.seconds, probes, lines)
        if args.workload == "infer-roundtrip" and not all(
            metrics[f"linalg.rref.calls_from_{layer}"]["value"] for layer in ("operators", "spans")
        ):
            failed += 1
            checker.problems.append("rref calls from operators and spans were not both traced")
    lines.append(f"failed_ratio {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for problem in checker.problems[:5]:
        lines.append("problem: " + problem.strip().replace("\n", " | "))
    print("\n".join(lines))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
