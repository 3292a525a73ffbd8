"""The identity suite spread over forked workers gives the serial suite's
residuals, runs each check once, and fails cleanly.

The suite forks only from a process with one OS thread, so the fan-out runs
in a child interpreter with BLAS pinned to one thread (fanout_driver.py),
started with this interpreter's -X and -W flags.
"""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from markedbinomial import ModelParams, diagnostics

DRIVER = Path(__file__).with_name("fanout_driver.py")
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
REF3 = ModelParams(horizon=3, marks=(1.0, -1.0), jump_prob=0.5, mark_probs=(0.5, 0.5))
T9_VERIFY = ["verify", "--T", "9", "--marks=-1,1", "--lambda", "0.4", "--Q", "0.5,0.5", "--no-timestamp"]


def interpreter() -> list[str]:
    return [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), *(f"-W{w}" for w in sys.warnoptions)]


def drive(*args: str) -> dict:
    proc = subprocess.run([*interpreter(), str(DRIVER), *args], capture_output=True, text=True,
                          env={**os.environ, **ONE_BLAS_THREAD}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def matched() -> dict:
    return drive("match", "1", "2", "3", "6")


@pytest.mark.parametrize("model", ["REF3", "REF5", "T6"])
def test_every_residual_is_the_residual_of_the_check_alone(matched, model):
    """On 1, 2, 3 and 6 CPUs (6 is more processes than checks need here),
    and in reverse check order, each residual has the bits of the check run
    alone on a fresh context, each check runs once, results come back in
    ``CHECKS`` order, and no fd or child is left behind."""
    report = matched[model]
    for run in report["runs"]:
        order = report["order"][::-1] if run["reversed"] else report["order"]
        assert run["workers"] == min(run["cpus"], len(order)), run["cpus"]
        assert run["names"] == order
        assert run["residuals"] == report["alone"]
        assert run["ran"] == sorted(order)
        assert run["processes"] <= run["workers"]
        assert run["fds_restored"] and not run["children_left"]


def test_the_suite_forks_nothing_when_memory_holds_no_worker():
    assert drive("memory") == {"workers": 1, "forks": 0, "passed": True}


@pytest.mark.parametrize("kind, message", [
    ("raise", "error: boom in the worker's {victim} (in check {victim})"),
    ("unpicklable", "error: Unpicklable: boom in the worker's {victim} (raised in a worker; not picklable) "
                    "(in check {victim})"),
    ("kill", "error: its worker ended without returning a result (worker {pid} killed by SIGKILL) "
             "(in check {victim})"),
])
def test_a_failing_worker_exits_2_naming_its_check(kind, message):
    """A check that raises in a worker is raised in the parent with its type
    and message, or as a RuntimeError when it does not pickle; a worker
    killed mid-check is seen, not waited on.  Either way `verify` prints one
    error line, and every worker is reaped and every pipe closed."""
    report = drive("fail", kind)
    assert report["code"] == 2 and report["stdout"] == ""
    assert report["victim"] in ("first_check", "second_check")
    [line] = report["stderr"].splitlines()
    if kind == "kill":
        pid = line.split("(worker ")[1].split()[0]
        assert pid.isdigit()
    else:
        pid = None
    assert line == message.format(victim=report["victim"], pid=pid)
    assert report["fds_restored"] and not report["children_left"]


def test_workers_stop_pulling_checks_once_the_parent_is_gone(tmp_path):
    """A parent SIGKILLed mid-suite leaves no worker running the remaining
    checks: each finishes the check it holds and exits, so the driver's
    stdout, which the workers inherit, closes at once."""
    log = tmp_path / "ran.log"
    log.touch()
    proc = subprocess.run([*interpreter(), str(DRIVER), "orphan", str(log)], capture_output=True, text=True,
                          env={**os.environ, **ONE_BLAS_THREAD}, timeout=120)
    assert proc.returncode == -9, proc.stderr
    ran = [line.split() for line in log.read_text().splitlines()]
    assert len(ran) == 3 and len({pid for _, pid in ran}) == 3


def test_a_threaded_caller_runs_the_suite_in_process(monkeypatch):
    """A process running more than one thread never forks, whatever its CPUs."""
    def no_fork():
        raise AssertionError("the suite forked a threaded process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        results = diagnostics.run_identity_suite(REF3)
    finally:
        stop.set()
        thread.join()
    assert results.workers == 1 and all(r.passed for r in results)


@pytest.mark.parametrize("cpus, avail_tables, expected", [(2, 100, 2), (6, 100, 6), (64, 10**6, 38), (6, 9, 2),
                                                          (6, 3, 1)])
def test_worker_count_is_the_least_of_cpus_checks_and_memory(monkeypatch, cpus, avail_tables, expected):
    """Each worker is budgeted four (n, T, m) float tables of available memory."""
    table_bytes = 8 * REF3.n_configurations * REF3.horizon * REF3.n_marks
    monkeypatch.setattr(diagnostics, "_thread_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(diagnostics, "available_memory", lambda: avail_tables * table_bytes)
    assert diagnostics.suite_workers(REF3) == expected
    monkeypatch.setattr(diagnostics, "_thread_count", lambda: None)  # /proc unreadable: serial
    assert diagnostics.suite_workers(REF3) == 1


@pytest.mark.parametrize("version, proc_cgroup", [(2, "0::/job/task\n"),
                                                  (1, "5:cpu,cpuacct:/\n4:memory:/job/task\n0::/\n")])
@pytest.mark.parametrize("job_tables, expected", [(3, 1), (9, 2), (100, 6)])
def test_a_cgroup_limit_bounds_the_workers(monkeypatch, tmp_path, version, proc_cgroup, job_tables, expected):
    """In a memory-limited container MemAvailable reports the host's memory;
    the limit less the usage of the process's cgroup, or of an ancestor,
    bounds the workers too.  Here the parent cgroup ``job`` holds
    ``job_tables`` (n, T, m) tables of headroom, far below MemAvailable."""
    table_bytes = 8 * REF3.n_configurations * REF3.horizon * REF3.n_marks
    directory, limit, usage = diagnostics.CGROUP_MEMORY_FILES[version]
    root = tmp_path / "sys"
    job = root / directory / "job"
    (job / "task").mkdir(parents=True)
    (job / limit).write_text(f"{job_tables * table_bytes + 5000}\n")
    (job / usage).write_text("5000\n")
    (job / "task" / limit).write_text("max\n" if version == 2 else "9223372036854771712\n")
    (job / "task" / usage).write_text("4000\n")
    (tmp_path / "meminfo").write_text("MemTotal:       1073741824 kB\nMemAvailable:   1073741824 kB\n")
    (tmp_path / "cgroup").write_text(proc_cgroup)
    monkeypatch.setattr(diagnostics, "MEMINFO", str(tmp_path / "meminfo"))
    monkeypatch.setattr(diagnostics, "PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(diagnostics, "CGROUP_ROOT", str(root))
    monkeypatch.setattr(diagnostics, "_thread_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    assert diagnostics.available_memory() == job_tables * table_bytes
    assert diagnostics.suite_workers(REF3) == expected


def test_verify_prints_the_same_bytes_for_any_blas_thread_count():
    """`mbp verify` loads numpy on one BLAS thread, so OPENBLAS_NUM_THREADS
    changes no printed bit; at T=9 a two-thread gemv once moved some."""
    outputs = set()
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([*interpreter(), "-m", "markedbinomial.cli", *T9_VERIFY],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
