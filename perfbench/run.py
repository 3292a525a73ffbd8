"""Benchmark of the `mbp` engine: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every operation runs the way a user runs it: a fresh
`mbp` process (or a fresh interpreter for the library session), one at a
time, in a closed loop with one client.  The operation list is repeated
until ``--seconds`` have passed (at least once).  It reports

* ``wall_s``: wall time of one pass over the operation list, summed from
  each operation's median over the passes;
* ``setup_s``: median time for a fresh interpreter to import the package
  and build the tables of the workload's largest model, then exit;
* ``peak_rss_mb``: the largest peak RSS of any operation's process.

``wall_s`` and ``setup_s`` are seconds of a machine on which a fixed
reference program takes ``REFERENCE_S`` (see ``run_untraced``).

With ``--trace 1`` the same operations run once in this process, `mbp`
through ``markedbinomial.cli.main(argv)``, with spans around every layer
(see spans.py), and the per-layer metrics are reported instead.  Each
operation also runs once with the spans removed, which gives the tracing
overhead.

Every operation's output is checked.  A non-zero exit, a traceback, a
timeout or a failed check counts as a failed operation; the library
session counts each of its checked calls.  The last line of stdout is the
JSON result; the full record (environment fingerprint, every operation)
is written to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SESSION = Path(__file__).resolve().with_name("session.py")
SETUP_REPEATS = 4
OP_TIMEOUT_S = 120.0
# A fixed program that uses none of the package: a fresh interpreter
# imports numpy, sorts, and loops in Python.  It runs before every timed
# process of an untraced run; see ``run_untraced``.
REFERENCE_CODE = """
import numpy
x = numpy.random.default_rng(0).random(1_000_000)
for _ in range(5):
    x = numpy.sort(x * 1.5)
sum(i * i for i in range(1_500_000))
"""
REFERENCE_S = 0.4  # about its median on the 2-CPU host of BASELINE.md, so scaled times read as seconds there

SETUP_CODE = """
import json, sys
import markedbinomial as mb
spec = json.loads(sys.argv[1])
if "market" in spec:
    m = spec["market"]
    market = mb.MarketParams(a=m["a"], b=m["b"], r=m["r"], jump_prob=m["lambda"], up_prob=m["p"],
                             horizon=m["T"], initial_capital=m["x"])
    mb.price_paths(market)
    params = market.model_params()
else:
    m = spec["model"]
    params = mb.ModelParams(m["T"], tuple(m["marks"]), m["lambda"], tuple(m["Q"]))
mb.space(params)
mb.build_basis(params)
"""


@dataclass
class Outcome:
    """One process or in-process call: wall time, peak RSS and failures."""

    wall: float
    rss_mb: float
    attempted: int
    errors: list[str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MBP_ENUM_CAP", None)  # the program runs with its default enumeration cap
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], timeout: float = OP_TIMEOUT_S) -> tuple[int | None, float, float, str, str]:
    """Run ``argv`` to completion: (exit code or None on timeout, wall s, peak RSS MB, stdout, stderr)."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return (proc.returncode if exited else None), wall, usage.ru_maxrss / 1024.0, stdout, stderr


def process_errors(code: int | None, stderr: str) -> list[str]:
    if code is None:
        return [f"timeout after {OP_TIMEOUT_S:g} s"]
    if "Traceback (most recent call last)" in stderr:
        return ["traceback: " + stderr.strip().splitlines()[-1]]
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    return []


def session_argv(session: dict) -> list[str]:
    flags = [[f"--{key.replace('_', '-')}", str(value)] for key, value in session.items()]
    return [sys.executable, str(SESSION), *(part for flag in flags for part in flag)]


def session_errors(calls: list[dict], expected: int) -> list[str]:
    errors = [f"{c['call']}: {c['error']}" for c in calls if c["error"] is not None]
    if len(calls) != expected:
        errors.append(f"session made {len(calls)} checked calls, expected {expected}")
    return errors


def run_subprocess(op: Op) -> Outcome:
    """Run one operation as a fresh process and check its output."""
    expected = workloads.expected_calls(op)
    argv = [sys.executable, "-m", "markedbinomial.cli", *op.argv] if op.argv is not None else session_argv(op.session)
    code, wall, rss, stdout, stderr = spawn(argv)
    errors = process_errors(code, stderr)
    if op.argv is not None:
        if not errors:
            reason = workloads.check_output(op, stdout)
            errors = [reason] if reason else []
        return Outcome(wall, rss, 1, errors)
    if errors:
        return Outcome(wall, rss, expected, errors * expected)
    try:
        calls = json.loads(stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return Outcome(wall, rss, expected, ["session printed no result"] * expected)
    return Outcome(wall, rss, max(expected, len(calls)), session_errors(calls, expected))


def measure_reference() -> Outcome:
    code, wall, rss, _, stderr = spawn([sys.executable, "-c", REFERENCE_CODE])
    return Outcome(wall, rss, 1, process_errors(code, stderr))


def measure_setup(model: dict) -> Outcome:
    code, wall, rss, _, stderr = spawn([sys.executable, "-c", SETUP_CODE, json.dumps(model)])
    return Outcome(wall, rss, 1, process_errors(code, stderr))


def run_untraced(ops: list[Op], setup_model: dict, seconds: float) -> dict:
    """Passes over ``ops`` as fresh processes for ``seconds``, at least one pass.

    After the first pass, an operation starts only if its median so far,
    with the reference run before it, ends it within ``seconds``; the run
    stops at the first that would not.
    ``wall_s`` sums each operation's median, which tolerates a pass cut
    short.  The set-up timings are spread over the first pass, so that they
    see the same machine load as the operations.

    The host's speed drifts by up to 40 % from one minute to the next, for
    every program alike.  So the reference program runs right before every
    timed process, and that process's time is scaled to a machine on which
    the reference takes ``REFERENCE_S``: a change to the package moves the
    scaled times, the host's drift cancels.  The record keeps the raw times.
    """
    def after_reference(measure, arg) -> tuple[Outcome, Outcome]:
        return measure_reference(), measure(arg)

    def scaled(pairs: list[tuple[Outcome, Outcome]]) -> float:
        return statistics.median(o.wall * REFERENCE_S / ref.wall for ref, o in pairs)

    before_op = Counter(i * len(ops) // SETUP_REPEATS for i in range(SETUP_REPEATS))
    setups: list[tuple[Outcome, Outcome]] = []
    runs: list[list[tuple[Outcome, Outcome]]] = [[] for _ in ops]
    start = time.perf_counter()
    for i in itertools.cycle(range(len(ops))):
        if not runs[-1]:
            setups += [after_reference(measure_setup, setup_model) for _ in range(before_op[i])]
        elif time.perf_counter() - start + statistics.median(ref.wall + o.wall for ref, o in runs[i]) > seconds:
            break
        runs[i].append(after_reference(run_subprocess, ops[i]))
    pairs = setups + [pair for r in runs for pair in r]
    metrics = {
        "wall_s": sum(scaled(r) for r in runs),
        "setup_s": scaled(setups),
        "peak_rss_mb": max(o.rss_mb for r in runs for _, o in r),
    }
    record = {
        "passes": min(len(r) for r in runs),
        "raw_wall_s": sum(statistics.median(o.wall for _, o in r) for r in runs),
        "raw_setup_s": statistics.median(o.wall for _, o in setups),
        "operations": [{"name": op.name, "configurations": op.configurations,
                        "wall_s": [o.wall for _, o in r], "reference_s": [ref.wall for ref, _ in r],
                        "peak_rss_mb": max(o.rss_mb for _, o in r),
                        "errors": sorted({e for pair in r for o in pair for e in o.errors})}
                       for op, r in zip(ops, runs)],
        "setup": {"model": setup_model, "wall_s": [o.wall for _, o in setups],
                  "reference_s": [ref.wall for ref, _ in setups],
                  "errors": sorted({e for pair in setups for o in pair for e in o.errors})},
    }
    return finish([o for pair in pairs for o in pair], metrics, record)


def finish(outcomes: list[Outcome], metrics: dict[str, float], record: dict) -> dict:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(min(len(o.errors), o.attempted) for o in outcomes)
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    return record


# -- traced run ---------------------------------------------------------------------


class _TracedStdout(io.StringIO):
    """Captured stdout whose writes are spans of the emit layer."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def write(self, text: str) -> int:
        with self.tracer.span("cli.write", "cli.emit_s"):
            return super().write(text)


def run_in_process(op: Op, tracer=None) -> Outcome:
    """Run one operation in this process; spans go to ``tracer`` when given."""
    from markedbinomial import cli

    import session

    expected = workloads.expected_calls(op)
    start = time.perf_counter()
    if op.argv is None:
        hooks = {}
        if tracer is not None:
            def call(name, configurations, fn):
                with tracer.span(f"session.{name}", size=configurations):
                    return fn()
            hooks["call"] = call
        try:
            calls = session.run(**op.session, **hooks)
            errors = session_errors(calls, expected)
        except Exception:  # the harness counts a crashed session as failed calls
            errors = ["traceback: " + traceback.format_exc().strip().splitlines()[-1]] * expected
        return Outcome(time.perf_counter() - start, 0.0, expected, errors)
    out = _TracedStdout(tracer) if tracer is not None else io.StringIO()
    err = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    wall = time.perf_counter() - start
    errors = process_errors(code, err.getvalue())
    if not errors:
        reason = workloads.check_output(op, out.getvalue())
        errors = [reason] if reason else []
    return Outcome(wall, 0.0, 1, errors)


def run_traced(ops: list[Op]) -> dict:
    """Each operation once without spans, then once with them; per-layer metrics."""
    start = time.perf_counter()
    import markedbinomial  # noqa: F401  (timed: the import every `mbp` call pays)

    import_s = time.perf_counter() - start
    import spans

    caches = spans.lru_caches()
    tracer = spans.Tracer()
    plain, traced = [], []
    with spans.RssSampler() as sampler:
        for op in ops:
            for cache in caches:
                cache.cache_clear()
            plain.append(run_in_process(op))
            for cache in caches:
                cache.cache_clear()
            restore = spans.install(tracer)
            try:
                with tracer.span(f"op.{op.name}", size=op.configurations):
                    traced.append(run_in_process(op, tracer))
            finally:
                restore()
    layers = spans.layer_metrics(tracer, sampler)
    traced_wall = import_s + sum(o.wall for o in traced)
    untraced_wall = import_s + sum(o.wall for o in plain)
    values = dict(layers)
    values.update({
        "cli.import_s": import_s,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.remainder_s": spans.root_self_time(tracer),
    })
    metrics = {name: values.get(name, 0) for name in spans.metric_names()}
    record = {
        "operations": [{"name": op.name, "configurations": op.configurations, "untraced_s": p.wall,
                        "traced_s": t.wall, "errors": sorted(set(p.errors + t.errors))}
                       for op, p, t in zip(ops, plain, traced)],
        "spans": [dict(zip(("id", "name", "metric", "start", "end", "parent", "configurations"), (i, *span)))
                  for i, span in enumerate(tracer.spans) if span is not None],
    }
    return finish(plain + traced, metrics, record)


# -- entry point --------------------------------------------------------------------


def fingerprint(workload: str, seed: int, ops: list[Op]) -> dict:
    """Where and on what the result was measured."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "operations": [{"name": op.name, "configurations": op.configurations} for op in ops],
    }


def result_line(record: dict, units: dict[str, str]) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()},
    }


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload of the mbp engine.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "markedbinomial" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MBP_ENUM_CAP", None)
    ops = workloads.operations(args.workload, args.seed)
    if args.trace:
        import spans

        record = run_traced(ops)
        units = {name: spans.unit_of(name) for name in record["metrics"]}
    else:
        record = run_untraced(ops, workloads.setup_model(args.workload), args.seconds)
        units = E2E_UNITS
    record["env"] = fingerprint(args.workload, args.seed, ops)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps({"env": record["env"], "record": str(path.relative_to(ROOT))}))
    print(json.dumps(result_line(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
