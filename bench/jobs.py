"""Running one job: a fresh CLI child process, or the CLI's ``main`` called
in this process (for the traced run), and the answer checks on its report."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

OK_EXITS = (0, 3, 4)  # documented outcomes; any other code is a failure


@dataclass
class Execution:
    """One run of one job."""

    exit: int | None           # None when the job timed out
    stdout: bytes
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)  # why it failed
    wrong: bool = False        # a report was produced and its answer is wrong

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_child(cli: list, job, seed: int, timeout: float, env: dict) -> Execution:
    """Run ``cli + job.argv`` with the problem on stdin; time it, and take CPU
    time and peak RSS from ``os.wait4``.  A child that outlives ``timeout``,
    or this call, is killed and reaped."""
    argv = [*cli, *job.argv, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    waited = []

    def wait():
        _, status, usage = os.wait4(proc.pid, 0)
        waited.append((time.perf_counter(), status, usage))

    waiter = threading.Thread(target=wait)
    waiter.start()
    try:
        try:
            proc.stdin.write(job.problem.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child exited without reading; its status says why
        waiter.join(timeout)
        timed_out = waiter.is_alive()
    finally:
        if waiter.is_alive():  # timed out, or this process is being stopped
            proc.kill()
            waiter.join()
        reader.join()
        proc.stdout.close()
    end, status, usage = waited[0]
    # wait4 reaped the child; tell Popen so it does not try again
    proc.returncode = os.waitstatus_to_exitcode(status)
    ex = Execution(exit=None if timed_out else proc.returncode,
                   stdout=b"".join(chunks), wall_s=end - start,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024)
    if timed_out:
        ex.problems.append(f"timed out after {timeout:.0f} s")
    return ex


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_in_process(job, seed: int, timeout: float) -> Execution:
    """Call ``jmult.cli.main`` here with the problem on stdin, capturing stdout,
    exactly as the CLI would print it.  A timer signal stops it at ``timeout``."""
    from jmult.cli import main
    out = io.StringIO()
    start = time.perf_counter()
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                _stdin(job.problem):
            code = main([*job.argv, "--seed", str(seed)])
    except _Timeout:
        code = None
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is exit 1 from the CLI
        code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    ex = Execution(exit=code, stdout=out.getvalue().encode(),
                   wall_s=time.perf_counter() - start)
    if code is None:
        ex.problems.append(f"timed out after {timeout:.0f} s")
    return ex


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def lookup(report, path: str):
    node = report
    for part in path.split("."):
        node = node[part]
    return node


def check(job, ex: Execution) -> None:
    """Record in ``ex`` a failing exit code and every expected field that
    the report gets wrong or lacks."""
    if ex.exit is None:
        return
    if ex.exit not in OK_EXITS:
        ex.problems.append(f"exit {ex.exit}")
    try:
        report = json.loads(ex.stdout)
    except ValueError:
        if not ex.failed:  # a crash is already counted; a silent success is wrong
            ex.problems.append("no JSON report")
            ex.wrong = True
        return
    for path, want in job.expect.items():
        try:
            got = lookup(report, path)
        except (KeyError, TypeError, IndexError):
            got = "<missing>"
        if got != want or type(got) is not type(want):
            ex.problems.append(f"{path} = {got!r}, expected {want!r}")
            ex.wrong = True
