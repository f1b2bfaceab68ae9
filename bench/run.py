"""jmult benchmark: run one workload of CLI jobs and print its metrics.

    python3 bench/run.py --workload dim3 --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  The seed is passed to every job as ``jmult --seed``.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (jobs), and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Per-job details go
to ``bench/out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import Execution, check, run_child, run_in_process
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CLI = [sys.executable, "-m", "jmult.cli"]
RUN_BUDGET_S = 165.0   # every run ends well inside 180 s, jobs or not
JOB_TIMEOUT_S = 120.0
SETUP_LAUNCHES = 9

# a fresh interpreter importing the CLI and parsing the workload's problems
SETUP_SNIPPET = """\
import sys
import jmult.cli
from jmult.parser import Options, parse_problem
for text in sys.stdin.read().split("\\0"):
    parse_problem(text, Options(seed=int(sys.argv[1])))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(workload, seed: int, env: dict) -> float:
    """Median wall time of SETUP_LAUNCHES fresh launches, after one warm-up
    launch that also compiles the bytecode cache."""
    problems = "\0".join(job.problem for job in workload.jobs).encode()
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(seed)],
                              input=problems, capture_output=True, env=env,
                              timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("set-up launch failed: "
                               + proc.stderr.decode(errors="replace")[-2000:])
        if i:
            times.append(elapsed)
    return statistics.median(times)


def measure(jobs, seed: int, seconds: float, deadline: float, cli=CLI,
            env=None, job_timeout: float = JOB_TIMEOUT_S) -> dict:
    """Closed loop, one client: every job once, then jobs again in order while
    the ``seconds`` window has room for them (judged by their first time).
    Returns job name -> list of checked executions.  A failing job is
    recorded and the loop goes on."""
    env = env if env is not None else child_env()
    runs = {job.name: [] for job in jobs}

    def attempt(job):
        budget = min(job_timeout, deadline - time.perf_counter())
        if budget <= 0:
            ex = Execution(exit=None, stdout=b"", wall_s=0.0,
                           problems=["not run: run budget exhausted"])
        else:
            ex = run_child(cli, job, seed, budget, env)
            check(job, ex)
        runs[job.name].append(ex)

    start = time.perf_counter()
    for job in jobs:
        attempt(job)
    repeated = True
    while repeated:
        repeated = False
        for job in jobs:
            first = runs[job.name][0]
            left = start + seconds - time.perf_counter()
            if first.exit is not None and first.wall_s <= left:
                attempt(job)
                repeated = True
    return runs


def summarize(jobs, runs: dict) -> dict:
    """Per-job verdicts, including byte identity across repetitions."""
    out = {}
    for job in jobs:
        exs = runs[job.name]
        problems = sorted({p for ex in exs for p in ex.problems})
        wrong = any(ex.wrong for ex in exs)
        digests = {ex.digest for ex in exs if ex.exit is not None}
        if len(digests) > 1:
            problems.append("report bytes differ between repetitions")
            wrong = True
        out[job.name] = {
            "failed": bool(problems), "wrong": wrong, "problems": problems,
            "exits": [ex.exit for ex in exs],
            "wall_s": [ex.wall_s for ex in exs],
            "cpu_s": [ex.cpu_s for ex in exs],
            "rss_mb": [ex.rss_mb for ex in exs],
            "sha256": sorted(digests),
        }
    return out


def timings(summary: dict) -> dict:
    """Time of the CLI processes: the sum and the largest of the per-job
    median wall times, and the sum of the per-job median CPU times."""
    walls = [statistics.median(s["wall_s"]) for s in summary.values()]
    return {
        "cli.wall_s": (sum(walls), "s"),
        "cli.cpu_s": (sum(statistics.median(s["cpu_s"]) for s in summary.values()), "s"),
        "cli.slowest_job_s": (max(walls), "s"),
    }


def end_to_end(summary: dict, setup_s: float) -> dict:
    failed = sum(s["failed"] for s in summary.values())
    return {
        "peak_rss_mb": (max(max(s["rss_mb"]) for s in summary.values()), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1 - failed / len(summary), "ratio"),
    }


def traced_pass(jobs, seed: int, deadline: float, untraced: dict) -> dict:
    """Run every job once in this process with spans on.  Its report and exit
    code must match the untraced child's byte for byte."""
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    verdicts = {}
    try:
        for job in jobs:
            budget = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            if budget <= 0:
                verdicts[job.name] = Execution(
                    exit=None, stdout=b"", wall_s=0.0,
                    problems=["not run: run budget exhausted"])
                continue
            with tracer.job_span(job.name):
                ex = run_in_process(job, seed, budget)
            check(job, ex)
            first = untraced[job.name][0]
            if (ex.exit, ex.stdout) != (first.exit, first.stdout):
                ex.problems.append("traced report differs from the untraced one")
                ex.wrong = True
            verdicts[job.name] = ex
    finally:
        tracer.uninstall()
    roots = [s for s in tracer.spans if s.parent is None]
    metrics = layer_metrics(tracer.spans)
    metrics["trace.wall_s"] = (sum(s.duration for s in roots), "s")
    return {"metrics": metrics, "executions": verdicts,
            "escapes": tracer.escapes(), "counts": tracer.counts()}


def oracle_disagreements(workload) -> list:
    """Check the stored answers of monomial jobs against the combinatorial
    oracle, so the expectations do not rest on the engine under test."""
    from jmult.oracle import (MonomialIdeal, mon_quotient_length,
                              oracle_hilbert_coefficients)
    from jmult.parser import parse_problem
    bad = []
    for job in workload.jobs:
        if not job.monomial:
            continue
        mono = MonomialIdeal.from_ideal(parse_problem(job.problem).ideal)
        e = list(oracle_hilbert_coefficients(mono))
        colength = mon_quotient_length(mono)
        # for an m-primary ideal, lambda(I/J) = e0 - colength is the bound
        implied = {"results.j": e, "results.j1": e[1],
                   "results.classical_coefficients": e,
                   "results.colength": colength,
                   "results.bound": e[0] - colength,
                   "results.northcott.bound": e[0] - colength}
        for path, want in job.expect.items():
            if path in implied and implied[path] != want:
                bad.append(f"{job.name}: {path} stored {want!r}, "
                           f"oracle gives {implied[path]!r}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a stopped benchmark still kills and reaps the job it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "jmult" / "cli.py").is_file():
        print(f"error: no jmult sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    jobs = workload.jobs

    data_errors = oracle_disagreements(workload)
    setup_s = measure_setup(workload, args.seed, child_env())
    runs = measure(jobs, args.seed, 0 if args.trace else args.seconds, deadline)
    summary = summarize(jobs, runs)
    times = timings(summary)
    e2e = end_to_end(summary, setup_s)
    metrics = e2e
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "oracle_disagreements": data_errors,
              "jobs": summary,
              "end_to_end": {k: v for k, (v, _) in {**times, **e2e}.items()}}
    correct = not data_errors and not any(s["wrong"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())

    if args.trace:
        traced = traced_pass(jobs, args.seed, deadline, runs)
        traced_exs = traced["executions"]
        metrics = {**times, **traced["metrics"]}
        result["traced"] = {"problems": {n: ex.problems for n, ex in traced_exs.items()},
                            "escapes": traced["escapes"],
                            "counts": traced["counts"],
                            "per_layer": {k: v for k, (v, _) in metrics.items()}}
        correct = (correct and not traced["escapes"]
                   and not any(ex.wrong for ex in traced_exs.values()))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    for name, s in summary.items():
        walls = " ".join(f"{t:.3f}" for t in s["wall_s"])
        verdict = "; ".join(s["problems"]) or "ok"
        print(f"{name:22s} exit {s['exits'][0]}  wall {walls} s  {verdict}")
    for line in data_errors:
        print(f"expectation disagrees with the oracle: {line}")
    if args.trace:
        for name, counts in traced["escapes"].items():
            print(f"calls escaped their span: {name} {counts}")
    for name, (value, unit) in {**times, **e2e}.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {failed / len(jobs)} ({failed} of {len(jobs)} jobs)")
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
