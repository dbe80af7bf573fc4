"""resonance-sizer benchmark: CLI workloads timed end to end, or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload classify-n8 --seed 1 --seconds 20 --trace 0

Each task is one CLI subcommand run in-process through
`resonance_sizer.cli.main(argv)` with stdout captured; the workload's task
set (a round) repeats with fresh seeded inputs.  One process, no pool.

--trace 0 measures for --seconds and reports the end-to-end metrics:
  setup_s        median cold import of resonance_sizer (this process and
                 IMPORT_REPS - 1 fresh interpreters), plus the median of
                 several set-ups (input generation for one round, warm-up
                 such as filling the enumerate_classes cache)
  wall_s         median time to finish one round, failed tasks included
  task_s.p50     median time of the tasks that finished (sample count on
                 the details line)
  peak_rss_mb    peak RSS of a fresh process running one task: a child is
                 forked from the set-up process for each of the run's first
                 MEMORY_TASKS tasks, before the timed rounds, and the median
                 of the children's ru_maxrss is reported (a single process's
                 ru_maxrss would be the one heaviest task of the run)
  import_rss_mb  ru_maxrss right after the import (baseline)
wall_s and task_s.p50 are scaled to a nominal machine speed: every
REF_EVERY_S between tasks the run times reference_work(), a fixed
program-like computation that never calls the program, and each task time
is multiplied by REF_NOMINAL_S / (median of the REF_WINDOW reference times
taken nearest to the task), except time cut off at a latency limit, which
is wall-clock by definition.  Shared 2-vCPU hosts change speed by 30-50 %
within seconds; the same classify task timed 40 times over a minute ran
0.63-1.06 s while its ratio to the adjacent reference stayed within 23-25.
The raw seconds are on the details line.
--trace 1 runs a fixed number of rounds untraced, then the same rounds with
spans installed (tracing.py), and reports the per-layer metrics per round,
the input-property shares and the tracing overhead (traced minus untraced
wall_s).

Outputs are checked by the oracles in workloads.py after the timed region.
The last stdout line is the JSON result; the line before it ("details: ...")
carries failure and wrong-answer ratios, sample counts and input shares.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Keys of workloads.WORKLOADS; that module loads numpy, so it is imported
# only after the timed package import.
WORKLOAD_NAMES = ("classify-n8", "scan-n5", "count-n5", "locate-n4")
SETUP_REPS = 5
IMPORT_REPS = 5
MEMORY_TASKS = 7
# Median reference_work() seconds on a 2-vCPU sandbox in its faster phases.
REF_NOMINAL_S = 0.026
REF_EVERY_S = 0.5
REF_WINDOW = 5


class DeadlineExceeded(BaseException):
    """Raised into a task that ran past its workload's latency limit."""


class TaskRunner:
    """Runs CLI tasks in-process under a per-task deadline (SIGALRM)."""

    def __init__(self, cli, deadline_s: float):
        self.cli = cli
        self.deadline_s = deadline_s
        self.armed = False
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, task) -> tuple[float, str | None, str]:
        """Returns (seconds, error or None, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        deadline_s = task.deadline_s or self.deadline_s
        t0 = perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(task.argv)
            finally:
                self.armed = False
                dt = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            if rc != 0:
                message = err.getvalue().strip().splitlines() or [""]
                error = f"exit {rc}: {message[-1]}"
        except DeadlineExceeded:
            dt = perf_counter() - t0
            error = f"past the {deadline_s:g} s deadline"
        except Exception as exc:  # a crash is a failed task, not a benchmark error
            dt = perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        return dt, error, out.getvalue()


def reference_work() -> float:
    """Seconds for a fixed program-like computation that never calls the
    program: an S_5 permutation sweep, a per-group loop of small numpy calls
    and exponential sums on 4096 complex points."""
    import itertools

    import numpy as np

    t0 = perf_counter()
    perms = np.array(list(itertools.permutations(range(5))))
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0) ** 1.3))
    v = d[np.arange(5), perms].sum(axis=1)
    order = np.argsort(v, kind="stable")
    groups = np.split(order, np.nonzero(np.diff(v[order]) > 1e-9)[0] + 1)
    for _ in range(10):
        for idx in groups:
            keys, inverse = np.unique(perms[idx, 0], return_inverse=True)
            sums = np.zeros(len(keys))
            np.add.at(sums, inverse, v[idx])
            np.polymul(sums[:2], [1.0, 2.0])
    z = 30.0 * np.exp(1j * np.linspace(0.0, 6.0, 4096))
    acc = np.zeros_like(z)
    for b in np.linspace(0.0, 3.0, 150):
        acc += np.polyval([1.0, 2.0, 3.0], z) * np.exp(1j * b * z)
    return perf_counter() - t0


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_import_s(src: Path) -> float:
    """Seconds to import the package in a new interpreter, timed inside it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import resonance_sizer, resonance_sizer.cli; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True)
    return float(proc.stdout)


def set_up(name: str, seed: int, workdir: str):
    # The package is imported before anything else loads numpy or scipy,
    # so the first import time is what a fresh process pays; IMPORT_REPS - 1
    # more fresh interpreters give the median.
    t0 = perf_counter()
    rs = importlib.import_module("resonance_sizer")
    cli = importlib.import_module("resonance_sizer.cli")
    imports = [perf_counter() - t0]
    import_rss = maxrss_mb()
    imports += [fresh_import_s(ROOT / "src") for _ in range(IMPORT_REPS - 1)]
    import workloads

    wl = workloads.WORKLOADS[name]
    reps = []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        wl.make_round(seed, 0, workdir)
        wl.warm_up(rs)
        reps.append(perf_counter() - t)
    return wl, rs, cli, statistics.median(imports) + statistics.median(reps), import_rss


def task_peak_rss(wl, cli, seed: int, workdir: str) -> list[float]:
    """Peak RSS (MB) of a child forked to run one task, for each of the
    first MEMORY_TASKS tasks of the run's rounds."""
    tasks = []
    r = 0
    while len(tasks) < MEMORY_TASKS:
        tasks += wl.make_round(seed, r, workdir)
        r += 1
    peaks = []
    for task in tasks[:MEMORY_TASKS]:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            try:
                runner = TaskRunner(cli, wl.deadline_s)
                runner.run(task)
            finally:
                os._exit(0)
        _, _, usage = os.wait4(pid, 0)
        peaks.append(usage.ru_maxrss / 1024.0)
    return peaks


def run_rounds(runner, rounds, tracer=None):
    """Run each round's tasks; returns [(round seconds, [(task, dt, error, out)])]."""
    done = []
    for tasks in rounds:
        results = []
        for task in tasks:
            dt, error, out = runner.run(task)
            if tracer is not None:
                tracer.reset_stack()
            results.append((task, dt, error, out))
        done.append((sum(r[1] for r in results), results))
    return done


def check(rs, wl, done) -> tuple[int, int, list, Counter]:
    """Oracle pass over finished rounds: (attempted, failed, wrong, failures)."""
    attempted = failed = 0
    wrong = []
    failures = Counter()
    verdicts = {}  # a traced run repeats its inputs; check each output once
    for _, results in done:
        for task, _, error, out in results:
            attempted += 1
            if error is not None:
                failed += 1
                failures[f"{task.kind}: {error}"] += 1
                continue
            key = (tuple(task.argv), out)
            if key not in verdicts:
                verdicts[key] = wl.check(rs, task, out)
            if verdicts[key] is not None:
                wrong.append(verdicts[key])
    return attempted, failed, wrong, failures


def input_shares(tasks) -> dict:
    n = len(tasks)
    shares = {
        "input.real_share": sum(t.real for t in tasks) / n,
        "input.structured_share": sum(t.structured for t in tasks) / n,
        "input.nudge_share": sum(t.nudge for t in tasks) / n,
    }
    draws = [t.expect["draws"] for t in tasks if "draws" in t.expect]
    if draws:
        # Population share of Re = 0 edge zeros among real-strength draws;
        # each locate round keeps one such draw and one without.
        shares["input.edge_zero_share_drawn"] = sum(e for _, e in draws) / sum(d for d, _ in draws)
    return shares


def local_reference(samples, t: float) -> float:
    """Median of the REF_WINDOW reference samples taken nearest to time t."""
    nearest = sorted(samples, key=lambda sample: abs(sample[0] - t))[:REF_WINDOW]
    return statistics.median(seconds for _, seconds in nearest)


def measure(wl, rs, cli, seed: int, seconds: float, workdir: str):
    task_rss = task_peak_rss(wl, cli, seed, workdir)
    runner = TaskRunner(cli, wl.deadline_s)
    done = []
    starts = {}  # id(result) -> perf_counter() at the task's start
    reference = []  # (perf_counter() at the sample's middle, seconds)

    def sample_reference() -> None:
        t = perf_counter()
        dt = reference_work()
        reference.append((t + dt / 2, dt))

    for _ in range(3):
        sample_reference()
    try:
        t0 = perf_counter()
        r = 0
        while r == 0 or perf_counter() - t0 < seconds:
            results = []
            for task in wl.make_round(seed, r, workdir):
                if perf_counter() - reference[-1][0] >= REF_EVERY_S:
                    sample_reference()
                start = perf_counter()
                results.append((task, *runner.run(task)))
                starts[id(results[-1])] = start
            done.append((sum(res[1] for res in results), results))
            r += 1
    finally:
        runner.close()
    for _ in range(2):
        sample_reference()

    def scaled(result) -> float:
        task, dt, _, _ = result
        # Time spent up to a latency limit is wall-clock by definition.
        if dt >= (task.deadline_s or wl.deadline_s):
            return dt
        return dt * REF_NOMINAL_S / local_reference(reference, starts[id(result)] + dt / 2)

    # A failed task's time is mostly its latency limit, so task_s.p50 is
    # taken over the tasks that finished.
    results = [res for _, round_results in done for res in round_results]
    finished = [res for res in results if res[2] is None] or results
    task_times = sorted(scaled(res) for res in finished)
    metrics = {
        "wall_s": (statistics.median(sum(scaled(res) for res in rr) for _, rr in done), "s"),
        "task_s.p50": (statistics.median(task_times), "s"),
        "peak_rss_mb": (statistics.median(task_rss), "MB"),
    }
    details = {
        "rounds": len(done),
        "task_s.samples": len(task_times),
        "raw_s": {
            "wall_s": statistics.median(t for t, _ in done),
            "task_s.p50": statistics.median(res[1] for res in finished),
        },
        "reference_s": statistics.median(dt for _, dt in reference),
        "reference_samples": len(reference),
        "task_rss_mb": task_rss,
        "process_peak_rss_mb": maxrss_mb(),
    }
    if len(task_times) >= 100:
        details["task_s.p90"] = task_times[math.ceil(0.9 * len(task_times)) - 1]
    details["task_s.max"] = task_times[-1]
    return done, metrics, details


def measure_traced(wl, rs, cli, seed: int, seconds: float, workdir: str):
    n_rounds = max(1, round(seconds / (2 * wl.nominal_round_s)))
    rounds = [wl.make_round(seed, r, workdir) for r in range(n_rounds)]
    runner = TaskRunner(cli, wl.deadline_s)
    tracer = Tracer()
    try:
        untraced = run_rounds(runner, rounds)
        tracer.install()
        try:
            traced = run_rounds(runner, rounds, tracer)
        finally:
            tracer.uninstall()
    finally:
        runner.close()
    layer = tracer.metrics(n_rounds)
    shares = input_shares([t for tasks in rounds for t in tasks])
    metrics = {}
    for name, unit, *_ in PER_LAYER:
        metrics[name] = (layer.get(name, shares.get(name, 0.0)), unit)
    overhead = statistics.median(t for t, _ in traced) - statistics.median(t for t, _ in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.rounds"] = (n_rounds, "rounds")
    return untraced + traced, metrics, {"rounds": n_rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "resonance_sizer" / "__init__.py").is_file():
        print(f"error: no resonance_sizer package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        wl, rs, cli, setup_s, import_rss = set_up(args.workload, args.seed, workdir)
        if args.trace:
            done, metrics, details = measure_traced(wl, rs, cli, args.seed, args.seconds, workdir)
        else:
            done, metrics, details = measure(wl, rs, cli, args.seed, args.seconds, workdir)
            metrics["setup_s"] = (setup_s, "s")
            metrics["import_rss_mb"] = (import_rss, "MB")
            details.update(input_shares([t for _, results in done for t, *_ in results]))
        attempted, failed, wrong, failures = check(rs, wl, done)

    details.update(
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        fail_ratio=failed / attempted,
        wrong_ratio=len(wrong) / attempted,
        failures=dict(failures),
        wrong=wrong[:10],
    )
    print("details: " + json.dumps(details, default=float))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
