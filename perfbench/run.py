"""Benchmark of the ``nterm`` CLI: end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload tails --seed 1 --seconds 30 --trace 0

One sequential closed-loop client runs the workload's invocations one at a
time, each waiting for the last.  Every artifact is checked (exit code,
empty stderr, ``schemas/output.json``, references in ``checks.py``).

``--trace 0`` runs the invocations round-robin as CLI subprocesses
(``child.py``, which runs what ``python -m nterm.cli`` runs) for
``--seconds``, each at least once.  Each metric of a pass sums, over the
invocations, the median of that invocation's samples: ``wall_s`` (process
wall time), ``compute_s`` (``main`` after the import, timed in the child),
``cpu_s`` (user plus system time from ``wait4``); ``peak_rss_mb`` is the
largest median ``ru_maxrss``.  ``setup_s`` is the median wall time of fresh
interpreters that import ``nterm.cli``.

``--trace 1`` runs the list in this process: one untimed warm-up pass, then
rounds of a pass with spans around every layer (``spans.py``) and an
untraced pass, while the next round is expected to end within
``--seconds``.  Per-layer metrics are medians over the traced passes, whose
artifacts must be byte-identical to the untraced ones.

A report goes to stdout, and its last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path
from statistics import median

from checks import Checker
from spans import Tracer, layer_names, layer_totals
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SCHEMA = ROOT / "schemas" / "output.json"
CHILD = ROOT / "perfbench" / "child.py"
LAUNCHER = ROOT / "perfbench" / "launcher.py"
SETUP_SAMPLES = 7
# far above the slowest invocation, so that a hang cannot outlast the run
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NTERM_THREADS")
PROCESS_START = "process start + import"


@dataclass
class Execution:
    """One invocation's outcome in one pass."""

    text: str
    seconds: float
    problems: list
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    compute_s: float = 0.0
    spans: tuple[int, int] | None = None


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every child.

    Output goes to files, so a large artifact cannot block on a pipe.
    """

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, args: list[str]) -> tuple[float, float, float, int,
                                            str, str]:
        """Run the interpreter with ``args``.

        Returns wall and cpu seconds, peak RSS in MB, exit code, stdout
        and stderr.
        """
        out_path, err_path = WORK / "child.out", WORK / "child.err"
        self._proc.stdin.write(json.dumps({
            "argv": [sys.executable, *args], "stdout": str(out_path),
            "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return (reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0,
                reply["status"],
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def measure_setup(launcher: Launcher) -> list[float]:
    """Wall times of fresh interpreters importing ``nterm.cli``.

    One unmeasured import comes first, so that file caches are warm (and
    the bytecode cache written, where the environment allows it).
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        wall, _, _, rc, _, err = launcher.run(["-c", "import nterm.cli"])
        if rc != 0 or err:
            raise RuntimeError(f"import nterm.cli failed: rc={rc} {err}")
        if i:
            samples.append(wall)
    return samples


def cli_sample(argv, inv, checker, launcher) -> Execution:
    """One invocation as a CLI subprocess, checked."""
    times_path = WORK / "child.times"
    times_path.unlink(missing_ok=True)
    wall, cpu, rss, rc, text, err = launcher.run(
        [str(CHILD), str(times_path), *argv])
    problems = checker.problems(inv, text)
    if rc != 0:
        problems.append(f"exit code {rc}")
    if err:
        problems.append(f"stderr: {err.strip()[:200]}")
    try:
        compute = json.loads(times_path.read_text())["compute_s"]
    except (OSError, ValueError, KeyError):
        compute = wall
        problems.append("the child wrote no timings")
    return Execution(text, wall, problems, cpu, rss, compute)


def inprocess_pass(cli, argvs, checker, invocations, reference=None,
                   tracer=None) -> list[Execution]:
    """parse_argv plus run for each invocation, timed in this process.

    With a ``reference`` pass, each artifact must equal its artifact there
    byte for byte; otherwise it is checked as ``checks.py`` says.
    """
    out = []
    for i, (argv, inv) in enumerate(zip(argvs, invocations)):
        err = io.StringIO()
        lo = len(tracer.spans) if tracer else 0
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                text, code = cli.run(cli.parse_argv(argv))
            except (Exception, SystemExit) as exc:
                text, code = "", f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        ex = Execution(text, seconds, [],
                       spans=(lo, len(tracer.spans)) if tracer else None)
        if reference is not None:
            if text != reference[i].text:
                ex.problems.append("artifact differs from its reference")
        else:
            ex.problems = checker.problems(inv, text)
        if code != 0:
            ex.problems.append(f"exit code {code}")
        if err.getvalue():
            ex.problems.append(f"stderr: {err.getvalue().strip()[:200]}")
        out.append(ex)
    return out


def layer_metrics(tracer, traced: list[Execution]) -> dict:
    """Per-layer values of one traced pass, keyed by metric name."""
    lo, hi = traced[0].spans[0], traced[-1].spans[1]
    totals = layer_totals(tracer.spans, lo, hi)
    values = {}
    for layer, t in totals.items():
        for key, v in t.items():
            values[f"{layer}.{key}"] = v
    # elements built against the largest table each invocation needs
    built = needed = 0
    for ex in traced:
        sizes = [s.attrs["elems"] for s in tracer.spans[slice(*ex.spans)]
                 if s.name == "bounds.build_table"]
        built += sum(sizes)
        needed += max(sizes, default=0)
    values["bounds.build_table.redundancy"] = built / needed if needed else 0.0
    return values


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit(),
        "threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def commit() -> str:
    """HEAD of a git checkout at ROOT, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure_untraced(argvs, invocations, checker, launcher, seconds):
    """Round-robin CLI samples; lists of Executions per invocation.

    The next sample starts only if its invocation's last time still fits
    in ``seconds``, after every invocation has run once.
    """
    samples = [[] for _ in invocations]
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(invocations)
        if k >= len(invocations) and (time.perf_counter() - start
                                      + samples[i][-1].seconds > seconds):
            break
        samples[i].append(
            cli_sample(argvs[i], invocations[i], checker, launcher))
    return samples


def measure_traced(cli, argvs, invocations, checker, tracer, seconds):
    """Warm-up pass, then rounds of a traced and an untraced pass.

    The first pass in a process runs slower (lazy imports, fresh memory),
    so it is checked but not timed, and both timed passes run warm.
    """
    start = time.perf_counter()
    warmup = inprocess_pass(cli, argvs, checker, invocations)
    rounds = []
    while True:
        began = time.perf_counter()
        tracer.install()
        try:
            traced = inprocess_pass(cli, argvs, checker, invocations,
                                    reference=warmup, tracer=tracer)
        finally:
            tracer.uninstall()
        plain = inprocess_pass(cli, argvs, checker, invocations,
                               reference=warmup)
        rounds.append((traced, plain))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return warmup, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nterm" / "cli.py").is_file() \
            or not SCHEMA.is_file():
        print(f"perfbench: no nterm source tree at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"].rsplit(".", 1)[0] not in layer_names()]
    if unknown:
        print(f"perfbench: BENCHMARK.json names unknown layers: {unknown}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    invocations = workload.invocations
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, args.seed, WORK, ROOT)
    argvs = [inputs.argv(inv) for inv in invocations]
    checker = Checker(SCHEMA, inputs)

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"why: {workload.why}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print("inputs: " + json.dumps({"seed": inputs.seed,
                                   "oracle_seed": inputs.oracle_seed,
                                   **inputs.sizes}, sort_keys=True))
    print("client: closed loop, 1 client, one invocation at a time")

    launcher = Launcher(child_env())
    try:
        setup = measure_setup(launcher)
        if args.trace:
            import nterm.cli as cli

            tracer = Tracer()
            warmup, rounds = measure_traced(cli, argvs, invocations, checker,
                                            tracer, args.seconds)
            executions = warmup + [ex for r in rounds for p in r for ex in p]
            metrics = traced_report(spec, tracer, rounds, setup, invocations)
            tracer.write(WORK / f"spans-{workload.name}.jsonl")
        else:
            samples = measure_untraced(argvs, invocations, checker, launcher,
                                       args.seconds)
            executions = [ex for per_inv in samples for ex in per_inv]
            metrics = untraced_report(spec, samples, setup, invocations)
    finally:
        launcher.close()

    failed = [ex for ex in executions if ex.problems]
    print(f"  {'fail_ratio':36s} {len(failed) / len(executions):14.6f} 1  "
          f"({len(failed)} of {len(executions)} invocations)")
    for ex in failed[:5]:
        print("  problem: " + "; ".join(ex.problems)[:300])
    for path in (WORK / "weights.txt", WORK / "sequence.txt"):
        path.unlink(missing_ok=True)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _print_metrics(metrics: dict, counts: dict) -> dict:
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']:5s}"
              f"  (median of {counts.get(name, 1)})")
    return metrics


def untraced_report(spec, samples, setup, invocations) -> dict:
    print("median per invocation: wall_s, compute_s, cpu_s, peak_rss_mb, n")
    for inv, runs in zip(invocations, samples):
        print(f"  {median([e.seconds for e in runs]):8.4f} "
              f"{median([e.compute_s for e in runs]):8.4f} "
              f"{median([e.cpu_s for e in runs]):8.4f} "
              f"{median([e.rss_mb for e in runs]):8.1f} {len(runs):3d}  "
              f"nterm {inv.label}")

    def pass_sum(field):
        return sum(median([getattr(e, field) for e in runs])
                   for runs in samples)

    values = {
        "setup_s": median(setup),
        "wall_s": pass_sum("seconds"),
        "compute_s": pass_sum("compute_s"),
        "cpu_s": pass_sum("cpu_s"),
        "peak_rss_mb": max(median([e.rss_mb for e in runs])
                           for runs in samples),
    }
    fewest = min(len(runs) for runs in samples)
    counts = {name: fewest for name in values} | {"setup_s": len(setup)}
    print(f"end to end (a pass sums per-invocation medians, each of at "
          f"least {fewest} samples):")
    return _print_metrics({m["name"]: {"value": values[m["name"]],
                                       "unit": m["unit"]}
                           for m in spec["end_to_end"]}, counts)


def traced_report(spec, tracer, rounds, setup, invocations) -> dict:
    rows = [layer_metrics(tracer, traced) for traced, _ in rounds]
    traced_s = median([sum(e.seconds for e in t) for t, _ in rounds])
    plain_s = median([sum(e.seconds for e in p) for _, p in rounds])
    print(f"in-process pass: untraced {plain_s:.4f} s, traced "
          f"{traced_s:.4f} s, medians of {len(rounds)} rounds")
    self_s = {name.removesuffix(".self_s"): median(
                  [row.get(name, 0.0) for row in rows])
              for name in rows[0] if name.endswith(".self_s")}
    self_s[PROCESS_START] = median(setup) * len(invocations)
    print(f"self time per pass, largest first ({PROCESS_START} = setup_s "
          f"x {len(invocations)} CLI calls):")
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {s:9.4f} s  {layer}")
    leader = max(self_s, key=self_s.get)
    print(f"largest self time: {leader} ({self_s[leader]:.4f} s)")
    del self_s[PROCESS_START]
    leader = max(self_s, key=self_s.get)
    print(f"largest self time in process: {leader} "
          f"({self_s[leader]:.4f} s)")
    if tracer.missing:
        print("not found, so reported as 0: " + ", ".join(tracer.missing))
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "bench.trace_overhead_ratio":
            value = traced_s / plain_s
        else:
            value = median([row.get(name, 0.0) for row in rows])
        metrics[name] = {"value": value, "unit": m["unit"]}
    print("per layer, per pass:")
    return _print_metrics(metrics, {name: len(rounds) for name in metrics})


if __name__ == "__main__":
    sys.exit(main())
