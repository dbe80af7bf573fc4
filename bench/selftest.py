"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
in both modes; that each oracle accepts a genuine output and rejects a
deliberately corrupted one; that the tracer wraps re-bound imports; and that
the benchmark exits non-zero, printing no result, without the package
sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)
    print(f"ok: {what}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_spec() -> None:
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    expect(declared == [row[:3] for row in PER_LAYER], "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    names = [w["name"] for w in SPEC["workloads"]]
    expect(names == list(workloads.WORKLOADS) == list(WORKLOAD_NAMES), "workload names match")


def check_emitted() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} result keys")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} --trace {trace} emits every {key} metric with its unit")
            expect(result["correct"] and result["attempted"] >= 1, f"{workload} --trace {trace} outputs correct")


def run_cli(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    expect(rc == 0, f"cli {argv[0]} exits 0")
    return out.getvalue()


def corrupt_count(text: str) -> str:
    lines = text.strip().splitlines()
    r, count, residual = lines[-1].split(",")
    lines[-1] = f"{r},{int(count) + 1},{residual}"
    return "\n".join(lines) + "\n"


def corrupt_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def check_oracles() -> None:
    import resonance_sizer as rs
    from resonance_sizer import cli

    wl = workloads.WORKLOADS
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        random_task, _, _, cube = wl["classify-n8"].make_round(0, 0, tmp)
        disphenoid = wl["classify-n8"].make_round(0, 3, tmp)[3]
        expect(disphenoid.expect["verdict"] == "NonWeyl", "round 3 of seed 0 holds the double disphenoid")
        for task in (random_task, cube, disphenoid):
            out = run_cli(cli, task.argv)
            expect(wl["classify-n8"].check(rs, task, out) is None, f"classify oracle accepts {task.kind}")
            flipped = corrupt_json(
                out, lambda d: d.update(classification="NonWeyl" if d["classification"] == "Weyl" else "Weyl")
            )
            expect(wl["classify-n8"].check(rs, task, flipped) is not None, f"classify oracle rejects a flipped {task.kind} verdict")
            generic = corrupt_json(out, lambda d: d.update(is_generic=not d["is_generic"]))
            expect(wl["classify-n8"].check(rs, task, generic) is not None, f"classify oracle rejects a flipped {task.kind} is_generic")

        task = wl["scan-n5"].make_round(0, 0, tmp)[0]
        out = run_cli(cli, task.argv)
        expect(wl["scan-n5"].check(rs, task, out) is None, "scan oracle accepts")
        bad = corrupt_json(out, lambda d: d.update(fraction_weyl=0.96))
        expect(wl["scan-n5"].check(rs, task, bad) is not None, "scan oracle rejects fraction_weyl < 1")
        bad = corrupt_json(out, lambda d: d.update(fraction_generic=d["fraction_generic"] - 0.04))
        expect(wl["scan-n5"].check(rs, task, bad) is not None, "scan oracle rejects a wrong fraction_generic")
        # One trial of this scan has a class gap (2.7e-9) below the tolerance
        # (4.5e-9), so 24 of 25 are generic.
        task = workloads.Task(["scan", "--n", "5", "--trials", "25", "--seed", "1689699808"], "scan")
        out = run_cli(cli, task.argv)
        expect(json.loads(out)["fraction_generic"] == 0.96, "near-tie scan reports 24 of 25 generic")
        expect(wl["scan-n5"].check(rs, task, out) is None, "scan oracle accepts a near tie below the tolerance")

        task = wl["count-n5"].make_round(0, 0, tmp)[0]
        out = run_cli(cli, task.argv)
        expect(wl["count-n5"].check(rs, task, out) is None, "count oracle accepts")
        expect(wl["count-n5"].check(rs, task, corrupt_count(out)) is not None, "count oracle rejects a count off by one")

        task = next(
            t for r in range(20) for t in wl["locate-n4"].make_round(0, r, tmp)[:2] if t.kind == "complex"
            and json.loads(run_cli(cli, t.argv))["resonances"]
        )
        out = run_cli(cli, task.argv)
        expect(wl["locate-n4"].check(rs, task, out) is None, "locate oracle accepts")
        moved = corrupt_json(out, lambda d: d["resonances"][0].update(re=d["resonances"][0]["re"] + 1e-3))
        expect(wl["locate-n4"].check(rs, task, moved) is not None, "locate oracle rejects a zero moved by 1e-3")


def check_rebinding() -> None:
    from resonance_sizer import asymptotics, cli, expoly, zeros

    sites = {
        "cli.expand": (cli, "expand"),
        "cli.counting_function": (cli, "counting_function"),
        "cli.find_resonances": (cli, "find_resonances"),
        "cli.is_generic": (cli, "is_generic"),
        "asymptotics.expand": (asymptotics, "expand"),
        "asymptotics.size_v": (asymptotics, "size_v"),
        "zeros.expand": (zeros, "expand"),
        "expoly._sweep.term_arrays": (expoly._sweep, "term_arrays"),
    }
    before = {k: getattr(m, a) for k, (m, a) in sites.items()}
    tracer = Tracer()
    tracer.install()
    try:
        for k, (m, a) in sites.items():
            expect(getattr(m, a) is not before[k], f"tracer wraps {k}")
    finally:
        tracer.uninstall()
    expect(all(getattr(m, a) is before[k] for k, (m, a) in sites.items()), "uninstall restores originals")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(tmp), "scan-n5", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and '"metrics"' not in last[0], "exits non-zero without the sources")


if __name__ == "__main__":
    check_spec()
    check_rebinding()
    check_oracles()
    check_refuses_without_sources()
    check_emitted()
    print("selftest passed")
