"""Runs the identity suite in this process, as `mbp verify` runs it, on a
given number of CPUs, and prints what ``test_fanout.py`` checks as JSON.

    OPENBLAS_NUM_THREADS=1 python tests/fanout_driver.py match 1 2 3 6
    OPENBLAS_NUM_THREADS=1 python tests/fanout_driver.py memory
    OPENBLAS_NUM_THREADS=1 python tests/fanout_driver.py fail raise|unpicklable|kill
    OPENBLAS_NUM_THREADS=1 python tests/fanout_driver.py orphan LOG

BLAS must be pinned to one thread, so that this process runs one OS thread
and the suite forks its workers.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import tempfile
import time

from markedbinomial import ModelParams, diagnostics
from markedbinomial.cli import main

MODELS = {
    "REF3": ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5)),
    "REF5": ModelParams(horizon=5, marks=(1.0, 2.0, 3.0), jump_prob=0.3, mark_probs=(0.5, 0.3, 0.2)),
    "T6": ModelParams(horizon=6, marks=(-2.5, 0.5, 3.0), jump_prob=0.4, mark_probs=(0.2, 0.5, 0.3)),
}
SEED = 3
CTI_VERIFY = ["verify", "--T", "3", "--marks=1,-1", "--lambda", "0.5", "--Q", "0.5,0.5", "--no-timestamp"]


def use_cpus(count: int) -> None:
    os.sched_getaffinity = lambda pid: set(range(count))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def leftover_children() -> bool:
    """Whether any child of this process is still unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def logged_checks(log: int) -> list:
    """``CHECKS`` with each check appending its name and process id to ``log`` when it runs."""
    def logged(name, fn):
        def check(ctx):
            os.write(log, f"{name} {os.getpid()}\n".encode())
            return fn(ctx)
        return check
    return [(name, tol, logged(name, fn)) for name, tol, fn in diagnostics.CHECKS]


def match(cpu_counts: list[int]) -> dict:
    """Each model's suite on each CPU count and in reverse check order beside
    every check's residual alone; residuals as float.hex, so equal means bit for bit."""
    checks = list(diagnostics.CHECKS)
    report = {}
    with tempfile.TemporaryFile() as log_file:
        log = log_file.fileno()
        for label, params in MODELS.items():
            alone = {name: float(fn(diagnostics._Context(params, SEED, name))).hex() for name, _, fn in checks}
            runs = []
            for cpus, order in [(c, 1) for c in cpu_counts] + [(2, -1)]:
                use_cpus(cpus)
                diagnostics.CHECKS = logged_checks(log)[::order]
                os.ftruncate(log, 0)
                os.lseek(log, 0, os.SEEK_SET)
                fds = open_fds()
                results = diagnostics.run_identity_suite(params, seed=SEED)
                ran = [line.split() for line in os.pread(log, 1 << 20, 0).decode().splitlines()]
                runs.append({
                    "cpus": cpus, "reversed": order < 0, "workers": results.workers,
                    "names": [r.name for r in results],
                    "residuals": {r.name: r.residual.hex() for r in results},
                    "ran": sorted(name for name, _ in ran), "processes": len({pid for _, pid in ran}),
                    "fds_restored": open_fds() == fds, "children_left": leftover_children(),
                })
                diagnostics.CHECKS = checks
            report[label] = {"alone": alone, "order": [name for name, _, _ in checks], "runs": runs}
    return report


def memory() -> dict:
    """The suite with the memory estimate of one worker above what is available."""
    use_cpus(6)
    diagnostics.WORKER_TABLES = diagnostics.available_memory()  # each (n, T, m) table has at least 8 bytes
    forks = []
    real_fork = os.fork
    os.fork = lambda: forks.append(1) or real_fork()
    results = diagnostics.run_identity_suite(MODELS["REF3"])
    return {"workers": results.workers, "forks": len(forks), "passed": all(r.passed for r in results)}


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def fail(kind: str) -> dict:
    """`mbp verify` on two checks, one per process, where the worker's check
    raises or is killed; the parent's check passes."""
    use_cpus(2)
    parent = os.getpid()
    with tempfile.TemporaryDirectory() as meeting:
        def meet():
            """Wait until both processes hold a check, so neither takes both:
            the directory holds the victim file and one file per process."""
            open(os.path.join(meeting, str(os.getpid())), "w").close()
            deadline = time.monotonic() + 60
            while len(os.listdir(meeting)) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)

        def check(name):
            def fn(ctx):
                meet()
                if os.getpid() == parent:
                    return 0.0
                with open(os.path.join(meeting, "victim"), "w") as fh:
                    fh.write(name)
                if kind == "raise":
                    raise ValueError(f"boom in the worker's {name}")
                if kind == "unpicklable":
                    raise Unpicklable(f"boom in the worker's {name}")
                os.kill(os.getpid(), signal.SIGKILL)
            return fn

        open(os.path.join(meeting, "victim"), "w").close()
        diagnostics.CHECKS = [("first_check", 0.0, check("first_check")), ("second_check", 0.0, check("second_check"))]
        fds = open_fds()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(CTI_VERIFY)
        with open(os.path.join(meeting, "victim")) as fh:
            victim = fh.read()
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "victim": victim,
                "fds_restored": open_fds() == fds, "children_left": leftover_children()}


def orphan(log_path: str) -> None:
    """The suite on three processes and eight checks, where the parent is
    SIGKILLed while each process holds one check; each check appends its
    name and process id to ``log_path``.  A worker finishes its check once
    the parent is gone and pulls no more."""
    use_cpus(3)
    parent = os.getpid()
    log = os.open(log_path, os.O_WRONLY | os.O_APPEND)
    with tempfile.TemporaryDirectory() as meeting:
        def check(name):
            def fn(ctx):
                os.write(log, f"{name} {os.getpid()}\n".encode())
                open(os.path.join(meeting, str(os.getpid())), "w").close()
                deadline = time.monotonic() + 60
                while len(os.listdir(meeting)) < 3 and time.monotonic() < deadline:
                    time.sleep(0.001)
                if os.getpid() == parent:
                    os.kill(parent, signal.SIGKILL)
                while os.getppid() == parent and time.monotonic() < deadline:
                    time.sleep(0.001)
                return 0.0
            return fn

        diagnostics.CHECKS = [(f"check_{i}", 0.0, check(f"check_{i}")) for i in range(8)]
        diagnostics.run_identity_suite(MODELS["REF3"])


if __name__ == "__main__":
    scenario, *rest = sys.argv[1:]
    if scenario == "match":
        report = match([int(c) for c in rest])
    elif scenario == "memory":
        report = memory()
    elif scenario == "orphan":
        report = orphan(*rest)
    else:
        report = fail(*rest)
    print(json.dumps(report))
