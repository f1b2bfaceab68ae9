"""Tests of the benchmark itself: failure accounting, report identity, and
span coverage.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import os
import sys
import textwrap
import time

import run
from jobs import run_child
from workloads import WORKLOADS, Job

sys.path.insert(0, str(run.SRC))

FAKE_CLI = textwrap.dedent("""\
    import json, os, sys, time
    problem = sys.stdin.read()
    if problem == "hang":
        time.sleep(60)
    answer = [2] if problem == "wrong" else [1]
    report = {"results": {"j": answer}}
    if problem == "unsteady":
        report["pid"] = os.getpid()
    print(json.dumps(report))
    sys.exit(5 if problem == "crash" else 0)
""")


def fake_jobs(*problems):
    return tuple(Job(p, ("coeffs",), p, {"results.j": [1]}) for p in problems)


def measure_fake(tmp_path, jobs, seconds=0.0):
    script = tmp_path / "fake_cli.py"
    script.write_text(FAKE_CLI)
    runs = run.measure(jobs, seed=0, seconds=seconds,
                       deadline=time.perf_counter() + 60,
                       cli=[sys.executable, str(script)], env=dict(os.environ),
                       job_timeout=2.0)
    return run.summarize(jobs, runs)


def test_timeout_exit5_and_wrong_answer_are_counted_and_the_run_goes_on(tmp_path):
    jobs = fake_jobs("hang", "crash", "wrong", "good")
    start = time.perf_counter()
    summary = measure_fake(tmp_path, jobs)
    assert time.perf_counter() - start < 30  # the hanging child was killed

    assert [len(s["exits"]) for s in summary.values()] == [1, 1, 1, 1]
    assert {n for n, s in summary.items() if s["failed"]} == {"hang", "crash", "wrong"}
    assert summary["hang"]["exits"] == [None]
    assert any("timed out" in p for p in summary["hang"]["problems"])
    assert summary["crash"]["problems"] == ["exit 5"]
    assert not summary["crash"]["wrong"]  # its answer is right
    assert summary["wrong"]["wrong"]
    assert summary["wrong"]["problems"] == ["results.j = [2], expected [1]"]
    assert summary["good"]["problems"] == []

    metrics = run.end_to_end(summary, setup_s=0.1)
    assert metrics["ok_frac"] == (0.25, "ratio")


def test_reports_that_change_between_repetitions_are_wrong(tmp_path):
    summary = measure_fake(tmp_path, fake_jobs("unsteady", "good"), seconds=1.5)
    assert len(summary["unsteady"]["exits"]) > 1
    assert summary["unsteady"]["wrong"]
    assert "report bytes differ between repetitions" in summary["unsteady"]["problems"]
    assert len(summary["good"]["sha256"]) == 1 and not summary["good"]["failed"]


def test_stored_answers_agree_with_the_oracle():
    for workload in WORKLOADS.values():
        assert run.oracle_disagreements(workload) == []


def test_a_call_that_bypasses_the_patched_bindings_is_an_escape():
    import jmult.oracle as oracle
    from spans import Tracer

    held = oracle.mon_quotient_length  # bound before patching: no span
    mono = oracle.MonomialIdeal(2, [(2, 0), (0, 2)])
    tracer = Tracer()
    tracer.install()
    try:
        assert oracle.mon_quotient_length(mono) == 4
        assert held(mono) == 4
    finally:
        tracer.uninstall()
    assert tracer.escapes() == {
        "oracle.quotient_length": {"spans": 1, "direct": 2}}
    assert oracle.mon_quotient_length is held and held(mono) == 4


def test_traced_reports_match_untraced_and_counts_repeat():
    jobs = tuple(j for j in WORKLOADS["mprimary-2var"].jobs
                 if j.name in ("coeffs-not-mprimary", "oracle-m3"))
    env = run.child_env()
    untraced = {j.name: [run_child(run.CLI, j, 3, 60, env)] for j in jobs}
    deadline = time.perf_counter() + 120
    first = run.traced_pass(jobs, 3, deadline, untraced)
    second = run.traced_pass(jobs, 3, deadline, untraced)
    for traced in (first, second):
        assert traced["escapes"] == {}
        assert all(not ex.problems for ex in traced["executions"].values())
    assert first["counts"] == second["counts"]
    assert set(first["counts"]) == {"coeffs-not-mprimary", "oracle-m3"}
    assert first["counts"]["oracle-m3"]["runner.main"] == 1
    assert first["counts"]["coeffs-not-mprimary"]["groebner.buchberger_raw"] > 0
